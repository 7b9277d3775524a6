"""Metamorphic relations for the learner: input changes whose effect on the
outputs is known, so the reported numbers are checked without a second
implementation (Xie et al., JSS 84(4), 2011; Murphy, Kaiser and Hu, SEKE 2008).

A strictly increasing map of a tertile metric, applied in every CSV, keeps
each value's rank, so it keeps every tertile class, every item mask, and so
the mined rules, the chosen prefixes and every prediction. The tertile bounds
become the mapped bounds. SLOC is also the weight of the SLOC-based report
columns, so mapping it may change those four columns and nothing else.

Input: generate_corpus(3, seed=11, n_methods=400), with the fast config below.
"""

import csv
import io
import json

import pytest

from oracles import map_metrics
from lowrisk.cli import main
from lowrisk.dataset import write_csv
from lowrisk.discretize import TERTILE_METRICS
from lowrisk.synthetic import generate_corpus

pytestmark = pytest.mark.filterwarnings("ignore::lowrisk.errors.AntecedentCapWarning")

_FAST = ["--min-support", "0.05", "--min-confidence", "0.95", "--max-antecedent-len", "2", "--seed", "9"]
_COUNT_METRICS = ("cyclomatic_complexity", "max_nesting", "max_chaining", "unique_variable_ids")
_SLOC_COLUMNS = {"sloc_total", "lfr_sloc", "lfr_sloc_fraction", "fdr_sloc"}


def _square(x):
    return 3 * x * x + 7


@pytest.fixture(scope="module")
def corpus():
    return {name: [r for u in methods for r in u.occurrences]
            for name, methods in generate_corpus(3, seed=11, n_methods=400).items()}


def _outputs(corpus, work, metrics):
    """The report.csv and predictions.csv bytes of both evaluate modes, and
    the classifier file of train, on the corpus with f applied to the metrics."""
    work.mkdir()
    paths = []
    for name, records in corpus.items():
        paths.append(work / f"{name}.csv")
        write_csv(map_metrics(records, metrics, _square), paths[-1])
    out = {}
    for mode in ("within", "cross"):
        out_dir = work / mode
        argv = ["evaluate", *paths, "--mode", mode, "--out-dir", out_dir, "--jobs", "1", "--dump-predictions"]
        assert main([str(a) for a in argv + _FAST]) == 0
        out[mode] = ((out_dir / "report.csv").read_bytes(), (out_dir / "predictions.csv").read_bytes())
    assert main([str(a) for a in ["train", *paths, "--out", work / "clf.json", *_FAST]]) == 0
    out["train"] = json.loads((work / "clf.json").read_text(encoding="utf-8"))
    return out


@pytest.fixture(scope="module")
def base(corpus, tmp_path_factory):
    return _outputs(corpus, tmp_path_factory.mktemp("base") / "run", ())


def _rows(report):
    """The rows of report.csv bytes, as dicts keyed by its header."""
    return list(csv.DictReader(io.StringIO(report.decode("utf-8"), newline="")))


def _mapped_bounds(base, metrics):
    """The classifier file's discretization with f applied to the bounds of the metrics."""
    return {
        metric: {key: _square(value) if metric in metrics else value for key, value in bounds.items()}
        for metric, bounds in base["train"]["discretization"].items()
    }


def test_a_monotone_map_of_the_count_metrics_keeps_every_output(corpus, base, tmp_path):
    mapped = _outputs(corpus, tmp_path / "run", _COUNT_METRICS)
    for mode in ("within", "cross"):
        assert mapped[mode] == base[mode]
    assert mapped["train"]["discretization"] == _mapped_bounds(base, _COUNT_METRICS)
    assert mapped["train"]["discretization"] != base["train"]["discretization"]
    for key in ("rules", "variants", "training_meta"):
        assert mapped["train"][key] == base["train"][key]
    assert base["train"]["rules"]


def test_a_monotone_map_of_sloc_changes_only_the_sloc_columns(corpus, base, tmp_path):
    mapped = _outputs(corpus, tmp_path / "run", ("sloc",))
    for mode in ("within", "cross"):
        (report, predictions), (base_report, base_predictions) = mapped[mode], base[mode]
        assert predictions == base_predictions
        reports, base_reports = _rows(report), _rows(base_report)
        assert len(reports) == len(base_reports)
        for row, base_row in zip(reports, base_reports):
            assert row.keys() == base_row.keys()
            assert {k: v for k, v in row.items() if k not in _SLOC_COLUMNS} == {
                k: v for k, v in base_row.items() if k not in _SLOC_COLUMNS
            }
            assert row["sloc_total"] != base_row["sloc_total"]
    assert mapped["train"]["discretization"] == _mapped_bounds(base, ("sloc",))
    for key in ("rules", "variants", "training_meta"):
        assert mapped["train"][key] == base["train"][key]


def test_the_maps_cover_the_tertile_metrics():
    assert set(_COUNT_METRICS) | {"sloc"} == set(TERTILE_METRICS)
