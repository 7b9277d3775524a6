"""train_on itemizes the faulty methods eagerly and the clean ones only when
balance samples them, and mines item masks. The eager, name-keyed pipeline
it replaced is kept in tests/oracles.py; these tests check that both give
the same balanced vectors and the same TrainedModel, on random projects and
on every training of the acceptance corpus, and count the itemize calls one
training makes."""

import random
import tracemalloc
import warnings
from collections.abc import Sequence

import pytest

from helpers import make_identity
from oracles import eager_mining_set, eager_train_on, reference_balance
import lowrisk.pipeline as pipeline
from lowrisk.balance import BalanceConfig, balance
from lowrisk.dataset import MethodRecord, MethodTable, Snapshot, UnifiedMethod, build_unified, read_csv, write_csv
from lowrisk.discretize import ATTRIBUTE_ITEMS, item_mask
from lowrisk.errors import (
    ImbalanceUnachievableWarning,
    InsufficientMinorityError,
    TooFewMinorityError,
)
from lowrisk.evaluation import stratified_kfold
from lowrisk.java.metrics import N_CONSTRUCT_KINDS, CategoryFlags, RawMetrics
from lowrisk.mining import MiningConfig
from lowrisk.pipeline import PipelineConfig, derive_seed, train_on
from lowrisk.synthetic import generate_corpus, generate_project

MINING = MiningConfig(min_support=0.05, min_confidence=0.6, max_antecedent_len=2)

# name -> (fault rate, whether balance draws a deficit with replacement)
CASES = {
    "default": (0.1, False),
    "swap": (0.8, False),  # more faulty than clean methods: the minority is clean
    "deficit": (0.4, True),  # 2 * faulty > clean: ImbalanceUnachievableWarning
}


def random_record(rng, name, faulty):
    """A record whose metrics lean higher when faulty, so rules exist."""
    scale = 3 if faulty else 1
    counts = [0] * N_CONSTRUCT_KINDS
    for kind in rng.sample(range(N_CONSTRUCT_KINDS), rng.randint(0, 4 * scale)):
        counts[kind] = rng.randint(1, 3)
    metrics = RawMetrics(
        sloc=rng.randint(1, 10 * scale),
        cyclomatic_complexity=rng.randint(1, 4 * scale),
        max_nesting=rng.randint(0, scale),
        max_chaining=rng.randint(0, 2),
        unique_variable_ids=rng.randint(0, 5 * scale),
        construct_counts=tuple(counts),
    )
    categories = CategoryFlags(**{f: rng.random() < 0.15 for f in CategoryFlags._fields})
    return MethodRecord(
        make_identity(name),
        metrics,
        categories,
        faulty=faulty,
        snapshot=Snapshot.FAULTY if faulty else Snapshot.CURRENT,
    )


def random_project(seed, fault_rate, n_methods=None):
    """Unified methods in random order; faulty ones have one to three occurrences."""
    rng = random.Random(seed)
    n_methods = n_methods or rng.randint(120, 300)
    methods = []
    for i in range(n_methods):
        faulty = rng.random() < fault_rate
        n_occ = rng.choice((1, 1, 2, 3)) if faulty else 1
        records = tuple(random_record(rng, f"m{i}", faulty) for _ in range(n_occ))
        methods.append(UnifiedMethod(records[0].identity, faulty, records))
    return methods


def train_both(methods, config):
    """(new model, oracle model, warning categories of each)."""
    runs = []
    for train in (train_on, eager_train_on):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            model = train(methods, config, scope=("p", 1))
        runs.append((model, {w.category for w in caught}))
    (new, new_warned), (old, old_warned) = runs
    return new, old, new_warned, old_warned


class _CountingView(Sequence):
    """A majority that records which entries balance reads."""

    def __init__(self, vectors):
        self.vectors, self.reads = vectors, []

    def __len__(self):
        return len(self.vectors)

    def __getitem__(self, index):
        self.reads.append(index)
        return self.vectors[index]


def random_masks(rng, n):
    return [item_mask(name for name in ATTRIBUTE_ITEMS if rng.random() < 0.4) for _ in range(n)]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(8))
def test_balance_equals_the_eager_oracle(case, seed):
    fault_rate, deficit = CASES[case]
    rng = random.Random(seed)
    n = rng.randint(40, 160)
    n_faulty = max(6, round(n * fault_rate))
    faulty, clean = random_masks(rng, n_faulty), random_masks(rng, n - n_faulty)
    view = _CountingView(clean)
    cfg = BalanceConfig(k_neighbors=rng.randint(1, 5), rng_seed=seed)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = balance(faulty, view, cfg)
        expected = reference_balance(faulty, clean, cfg)
    assert (got.faulty, got.clean) == expected  # same vectors in the same order: same RNG calls
    assert [w.category for w in caught] == [ImbalanceUnachievableWarning] * (2 if deficit else 0)
    assert len(set(view.reads)) == len(view.reads)  # each clean entry read at most once
    if case == "default":
        assert len(view.reads) == len(got) - 2 * len(faulty) == len(got.clean)


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("seed", range(4))
def test_train_on_equals_the_eager_oracle(case, seed):
    fault_rate, deficit = CASES[case]
    methods = random_project(seed, fault_rate)
    config = PipelineConfig(mining=MINING, smote_k=1 + seed % 5, seed=seed)
    new, old, new_warned, old_warned = train_both(methods, config)
    assert new.rules
    assert new == old
    assert new.meta == old.meta
    for variant, clf in new.classifiers.items():
        assert clf.n == old.classifiers[variant].n
        assert clf.budget == old.classifiers[variant].budget
    assert new_warned == old_warned
    assert (ImbalanceUnachievableWarning in new_warned) == deficit


@pytest.mark.parametrize("seed", range(3))
def test_no_smote_train_on_equals_the_eager_oracle(seed):
    """With balancing off the classes are mined as they are, in any order."""
    methods = random_project(seed, fault_rate=0.2)
    config = PipelineConfig(mining=MINING, no_smote=True, seed=seed)
    new, old, _, _ = train_both(methods, config)
    assert new == old
    assert new.meta["balanced_size"] == len(methods)


@pytest.fixture
def itemize_calls(monkeypatch):
    """The method indices that lowrisk.pipeline.itemize is called on, in order."""
    calls = []
    original = pipeline.itemize

    def counting(table, index, model):
        calls.append(index)
        return original(table, index, model)

    monkeypatch.setattr(pipeline, "itemize", counting)
    return calls


@pytest.mark.parametrize("case", ["default", "swap", "deficit", "no_smote"])
def test_itemize_calls_per_training(case, itemize_calls):
    fault_rate = CASES[case][0] if case in CASES else 0.1
    methods = random_project(5, fault_rate, n_methods=240)
    n_faulty = sum(1 for u in methods if u.faulty)
    config = PipelineConfig(mining=MINING, no_smote=case == "no_smote", seed=5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = train_on(methods, config)
    if case == "default":
        # The faulty methods, then the 200% undersample of the clean ones.
        n_sampled = model.meta["balanced_size"] - 2 * n_faulty
        assert n_sampled == 2 * n_faulty
        assert len(itemize_calls) == n_faulty + n_sampled
    else:
        assert len(itemize_calls) == len(methods)
    assert len(set(itemize_calls)) == len(itemize_calls)  # none twice
    if case == "no_smote":
        # The faulty methods, then the clean ones, each class in method order.
        by_class = sorted(range(len(methods)), key=lambda i: not methods[i].faulty)
        assert itemize_calls == by_class


@pytest.mark.parametrize("seed", range(4))
def test_mining_set_equals_the_reference_for_50_configs(seed):
    """The classes train_on mines equal the eager pipeline's (bool-tuple
    itemization, randrange draws, sorting kNN) over 4 x 50 seeded configs:
    faulty and clean minorities, 2 to 7 sources per seed, no_smote."""
    rng = random.Random(seed)
    refused = swapped = 0
    for case in range(50):
        fault_rate = rng.choice((0.1, 0.3, 0.7, 0.85))
        methods = random_project(rng.getrandbits(32), fault_rate, rng.randint(40, 90))
        config = PipelineConfig(
            mining=MINING,
            smote_over=rng.choice((100, 100, 150)),
            smote_under=rng.choice((200, 200, 100)),
            smote_k=rng.randint(1, 6),
            no_smote=case % 10 == 0,
            seed=rng.getrandbits(16),
        )
        scope = ("p", case)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                _, faulty, got = pipeline._vectors(MethodTable.from_methods(methods), config, scope)
            except (InsufficientMinorityError, TooFewMinorityError) as exc:
                # No faulty methods, or too small a minority: the oracle refuses too.
                with pytest.raises(type(exc)):
                    eager_train_on(methods, config, scope)
                refused += 1
                continue
            _, masks, *expected = eager_mining_set(methods, config, scope)
        assert [got.faulty, got.clean] == expected, f"seed {seed} case {case}"
        assert faulty == [mask for mask, u in zip(masks, methods) if u.faulty]
        swapped += not config.no_smote and 2 * len(faulty) > len(methods)
    assert refused <= 10 and swapped >= 5


def acceptance_trainings():
    """Every training that evaluate runs on the acceptance corpus, as loaded
    from its CSVs (methods in identity order): 10 folds per project within
    (cap 3, min support 0.05) and one per target across (cap 5, 0.10)."""
    corpus = {
        name: sorted(methods, key=lambda u: u.identity)
        for name, methods in generate_corpus(6, seed=11).items()
    }
    within = PipelineConfig(mining=MiningConfig(0.05, 0.95, 3), seed=7)
    for name in sorted(corpus):
        methods = corpus[name]
        folds = stratified_kfold([u.faulty for u in methods], within.folds, derive_seed(7, "kfold", name))
        for k in range(within.folds):
            training = [methods[i] for j, fold in enumerate(folds) if j != k for i in fold]
            yield "within", training, within, (name, k)
    cross = PipelineConfig(mining=MiningConfig(0.10, 0.95, 5), seed=7)
    for target in sorted(corpus):
        training = [u for name in sorted(corpus) if name != target for u in corpus[name]]
        yield "cross", training, cross, (target, "cross")


def test_every_acceptance_corpus_training_equals_the_name_keyed_pipeline():
    """Same rules in the same order, same support, confidence, n and counts as
    the eager pipeline with the name-keyed miner, on all 66 trainings. The
    totals are the tracer counts the benchmark's smoke run checks."""
    totals = {"within": [0, 0, 0], "cross": [0, 0, 0]}
    for mode, training, config, scope in acceptance_trainings():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            new = train_on(MethodTable.from_methods(training), config, scope=scope)
            old = eager_train_on(training, config, scope=scope)
        assert new == old, scope
        assert new.meta == old.meta, scope
        assert [clf.n for clf in new.classifiers.values()] == [clf.n for clf in old.classifiers.values()]
        total = totals[mode]
        total[0] += 1
        total[1] += new.meta["balanced_size"]
        total[2] += new.meta["rules_kept"]
    assert totals == {"within": [60, 12420, 1931], "cross": [6, 6900, 26]}


LARGE = PipelineConfig(mining=MiningConfig(0.05, 0.95, 3), seed=7)


def test_a_method_list_trains_as_its_csv_round_trip(tmp_path):
    """The table of a method list reads its records in place; in identity
    order, it trains the model that the same methods read back from a CSV do."""
    methods = sorted(generate_project("p", 5, 5000), key=lambda u: u.identity.key())
    write_csv((r for u in methods for r in u.occurrences), tmp_path / "p.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        listed = train_on(methods, LARGE, scope=("p",))
        loaded = train_on(build_unified(read_csv(tmp_path / "p.csv")), LARGE, scope=("p",))
    assert listed.rules and listed == loaded and listed.meta == loaded.meta


def test_training_on_a_method_list_copies_no_metric():
    """What train_on allocates above its input peaks under 90 bytes a method
    on 20,000 methods: about 74 when the table reads the records' metrics in
    place, about 114 when it copies them into columns (Pythons 3.10 to 3.13)."""
    methods = generate_project("p", 11, 20_000)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            train_on(methods, LARGE)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak / len(methods) <= 90, peak / len(methods)
