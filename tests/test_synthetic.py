import gc

import pytest

from oracles import reference_generate_project
from lowrisk.dataset import write_csv
from lowrisk.synthetic import _MIN_FAULTY, generate_corpus, generate_project


def test_small_projects_equal_the_reference():
    # About one method in 30 turns out faulty by chance, so every project of
    # these sizes is topped up to _MIN_FAULTY faulty methods from the stream.
    for seed in range(31):
        for n in range(19, 41):
            got = generate_project("p", seed, n)
            assert got == reference_generate_project("p", seed, n), (seed, n)
            assert sum(m.faulty for m in got) >= _MIN_FAULTY - 3


@pytest.mark.parametrize("n_methods", [2000, 20000])
def test_large_projects_equal_the_reference(n_methods):
    got = generate_project("big", 11, n_methods)
    assert got == reference_generate_project("big", 11, n_methods)
    assert {len(m.occurrences) for m in got if m.faulty} == {1, 2, 3}


def test_acceptance_corpus_csv_bytes_equal_the_reference(tmp_path):
    for name, methods in generate_corpus(6, seed=11).items():
        seed = 11 * 1000 + int(name.removeprefix("synth"))
        reference = reference_generate_project(name, seed, 2000)
        for label, project in (("got", methods), ("want", reference)):
            write_csv((r for u in project for r in u.occurrences), tmp_path / f"{name}.{label}.csv")
        got, want = (tmp_path / f"{name}.{label}.csv" for label in ("got", "want"))
        assert got.read_bytes() == want.read_bytes(), name


@pytest.mark.parametrize("n_methods", [0, 1, 10])
def test_too_small_a_project_names_its_sizes(n_methods):
    n_complex = n_methods - n_methods // 2
    with pytest.raises(ValueError, match=rf"n_methods={n_methods} gives {n_complex} complex methods.*_MIN_FAULTY"):
        generate_project("p", 0, n_methods)


def test_too_small_a_project_fails_exactly_where_the_reference_fails():
    for seed in range(31):
        for n in range(19):
            try:
                want = reference_generate_project("p", seed, n)
            except ValueError:
                with pytest.raises(ValueError, match="_MIN_FAULTY"):
                    generate_project("p", seed, n)
            else:
                assert generate_project("p", seed, n) == want, (seed, n)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("n_methods", [40, 0], ids=["returns", "raises"])
def test_the_collector_is_left_as_it_was_found(enabled, n_methods):
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if n_methods:
            generate_project("p", 0, n_methods)
        else:
            with pytest.raises(ValueError, match="_MIN_FAULTY"):
                generate_project("p", 0, n_methods)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_project_is_built_without_collector_passes():
    # Each of 2,000 methods allocates several tracked tuples, dozens of
    # young-generation thresholds' worth. The collector may run once, right
    # after it is turned back on.
    passes = []

    def callback(phase, info):
        if phase == "start":
            passes.append(info["generation"])

    gc.collect()
    gc.callbacks.append(callback)
    try:
        generate_project("p", 0, 2000)
    finally:
        gc.callbacks.remove(callback)
    assert len(passes) <= 1, passes


def test_trivial_archetypes_share_their_metric_records():
    # The four trivial archetypes draw from 26 (metrics, categories) pairs,
    # built once: equal metrics of trivial records are one object, across
    # projects too, and the projects still equal the reference.
    projects = [generate_project(f"p{seed}", seed, 2000) for seed in (3, 4)]
    for seed, methods in zip((3, 4), projects):
        assert methods == reference_generate_project(f"p{seed}", seed, 2000)
    trivial = [r for methods in projects for u in methods for r in u.occurrences if any(r.categories)]
    shared = {r.metrics: r.metrics for r in trivial}
    assert 20 <= len(shared) <= 26
    assert all(r.metrics is shared[r.metrics] for r in trivial)
