import csv
import json
import math
import statistics
import warnings
from dataclasses import replace

import pytest

from helpers import make_record, make_unified, projects_table, table_of
from lowrisk.classifier import Variant
from lowrisk.errors import TooFewMinorityError
from lowrisk.evaluation import (
    FDR_FLAG_NO_MATCHED_FAULTS,
    FDR_FLAG_UNDEFINED,
    PREDICTION_HEADER,
    ProjectReport,
    compute_fdr,
    emit_report,
    evaluate_cross_project,
    evaluate_within_project,
    prediction_rows,
    score_predictions,
    stratified_kfold,
)
from lowrisk.mining import MiningConfig
from lowrisk.pipeline import PipelineConfig
from lowrisk.synthetic import generate_project

TEST_CONFIG = PipelineConfig(
    mining=MiningConfig(min_support=0.05, min_confidence=0.95, max_antecedent_len=2),
    seed=5,
)


def score_pairs(preds, scope, n_rules):
    """score_predictions of (method, predicted_lfr) pairs, through their table."""
    table = table_of([m for m, _ in preds])
    return score_predictions(table, range(len(table)), [p for _, p in preds], scope=scope, n_rules=n_rules)


def project(n=100, n_faulty=10, name="p"):
    methods = []
    for i in range(n):
        faulty = i < n_faulty
        methods.append(make_unified(make_record(f"m{i}", project=name, faulty=faulty)))
    return methods


def fault_flags(n=100, n_faulty=10):
    return [i < n_faulty for i in range(n)]


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        is_faulty = fault_flags(100, 10)
        folds = stratified_kfold(is_faulty, k=10, seed=1)
        assert all(len(f) == 10 for f in folds)
        assert all(sum(is_faulty[i] for i in f) == 1 for f in folds)

    def test_uneven_sizes_differ_by_at_most_one(self):
        folds = stratified_kfold(fault_flags(101, 10), k=10, seed=1)
        sizes = sorted(len(f) for f in folds)
        assert sizes == [10] * 9 + [11]

    def test_deterministic(self):
        a = stratified_kfold(fault_flags(100, 10), k=10, seed=9)
        b = stratified_kfold(fault_flags(100, 10), k=10, seed=9)
        assert a == b

    def test_partitions_disjoint_and_exhaustive(self):
        is_faulty = fault_flags(73, 12)
        folds = stratified_kfold(is_faulty, k=10, seed=3)
        seen = [i for f in folds for i in f]
        assert sorted(seen) == list(range(len(is_faulty)))
        faulty_counts = [sum(is_faulty[i] for i in f) for f in folds]
        assert max(faulty_counts) - min(faulty_counts) <= 1

    def test_too_few_minority(self):
        with pytest.raises(TooFewMinorityError):
            stratified_kfold(fault_flags(100, 5), k=10, seed=0)


class TestComputeFdr:
    def test_worked_example(self):
        assert compute_fdr(0.40, 0.10) == 4.0

    def test_reported_method_value(self):
        assert 6.95 <= compute_fdr(0.286, 0.041) <= 7.05

    def test_reported_sloc_value(self):
        assert 3.35 <= compute_fdr(0.138, 0.041) <= 3.40

    def test_median(self):
        assert statistics.median([4.3, 5.7, 10.9]) == 5.7

    def test_infinity_marker(self):
        assert compute_fdr(0.3, 0.0) == math.inf

    def test_zero_over_zero_convention(self):
        assert compute_fdr(0.0, 0.0) == 0.0


class TestScorePredictions:
    def test_confusion_matrix_identity_on_ten_methods(self):
        # 10 methods: 4 predicted LFR (1 faulty), 6 not (2 faulty).
        methods = project(10, 3)
        preds = [
            (methods[0], True),  # faulty, LFR
            (methods[1], False),
            (methods[2], False),
            (methods[3], True),
            (methods[4], True),
            (methods[5], True),
            (methods[6], False),
            (methods[7], False),
            (methods[8], False),
            (methods[9], False),
        ]
        sm = score_pairs(preds, scope="fixture", n_rules=1)
        assert sm.lfr_methods == 4
        assert sm.faulty_in_lfr == 1
        assert sm.precision == 3 / 4  # non-faulty LFR / all LFR
        assert sm.recall == 3 / 7  # non-faulty LFR / all non-faulty
        assert sm.matched_fault_fraction == 1 / 3
        assert sm.fdr_methods == (4 / 10) / (1 / 3)

    def test_nothing_matched_flags_zero_over_zero(self):
        methods = project(10, 3)
        sm = score_pairs([(m, False) for m in methods], scope="s", n_rules=0)
        assert sm.lfr_method_fraction == 0.0
        assert sm.fdr_methods == 0.0
        assert sm.fdr_flag == FDR_FLAG_UNDEFINED

    def test_no_matched_faults_flags_infinity(self):
        methods = project(10, 3)
        preds = [(m, not m.faulty) for m in methods]
        sm = score_pairs(preds, scope="s", n_rules=1)
        assert sm.fdr_methods == math.inf
        assert sm.fdr_flag == FDR_FLAG_NO_MATCHED_FAULTS


@pytest.fixture(scope="module")
def small_project():
    return table_of(generate_project("evalproj", seed=123, n_methods=600))


class TestEvaluateWithinProject:
    def test_pooled_equals_fold_sums(self, small_project):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports, predictions = evaluate_within_project(small_project, "evalproj", TEST_CONFIG)
        for variant in Variant:
            rep = reports[variant]
            assert rep.pooled.methods_total == len(small_project)
            assert rep.pooled.faulty_in_lfr == sum(f.faulty_in_lfr for f in rep.folds)
            assert rep.pooled.lfr_methods == sum(f.lfr_methods for f in rep.folds)
            assert len(rep.folds) == TEST_CONFIG.folds
        assert len(list(prediction_rows(small_project, predictions))) == 2 * len(small_project)

    def test_strict_matches_subset_of_lenient(self, small_project):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            _, predictions = evaluate_within_project(small_project, "evalproj", TEST_CONFIG)
        rows = [dict(zip(PREDICTION_HEADER, row)) for row in prediction_rows(small_project, predictions)]
        strict = {
            (r["method_name"], r["param_signature"]): r["predicted_lfr"] == "true"
            for r in rows
            if r["variant"] == "strict"
        }
        lenient = {
            (r["method_name"], r["param_signature"]): r["predicted_lfr"] == "true"
            for r in rows
            if r["variant"] == "lenient"
        }
        assert all(not lfr or lenient[key] for key, lfr in strict.items())

    def test_deterministic_given_seed(self, small_project):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports_a, predictions_a = evaluate_within_project(small_project, "evalproj", TEST_CONFIG)
            reports_b, predictions_b = evaluate_within_project(small_project, "evalproj", TEST_CONFIG)
        assert reports_a == reports_b
        assert predictions_a == predictions_b

    def test_a_project_of_a_larger_table_is_evaluated_as_if_alone(self):
        """Folds are drawn over the project's index range and mapped to the
        table's indices, so the other projects change nothing."""
        a = generate_project("a", seed=1, n_methods=300)
        b = generate_project("b", seed=2, n_methods=400)
        both, alone = projects_table({"a": a, "b": b}), table_of(b)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reports, predictions = evaluate_within_project(both, "b", TEST_CONFIG)
            reports_alone, predictions_alone = evaluate_within_project(alone, "b", TEST_CONFIG)
        assert reports == reports_alone
        assert list(prediction_rows(both, predictions)) == list(prediction_rows(alone, predictions_alone))
        assert min(i for _, indices, _ in predictions for i in indices) == len(a)

    def test_missing_project_raises(self, small_project):
        with pytest.raises(ValueError, match="'zzz' not among the datasets"):
            evaluate_within_project(small_project, "zzz", TEST_CONFIG)


class TestEvaluateCrossProject:
    def test_two_projects_trains_on_the_other(self):
        a = generate_project("a", seed=1, n_methods=500)
        b = generate_project("b", seed=2, n_methods=500)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            table = projects_table({"a": a, "b": b})
            reports, predictions = evaluate_cross_project(table, "b", TEST_CONFIG)
        assert reports[Variant.STRICT].pooled.methods_total == len(b)
        rows = prediction_rows(table, predictions)
        assert {row[PREDICTION_HEADER.index("project")] for row in rows} == {"b"}

    def test_missing_target_raises(self):
        a = generate_project("a", seed=1, n_methods=300)
        with pytest.raises(ValueError):
            evaluate_cross_project(projects_table({"a": a}), "zzz", TEST_CONFIG)

    def test_single_project_raises(self):
        a = generate_project("a", seed=1, n_methods=300)
        with pytest.raises(ValueError):
            evaluate_cross_project(projects_table({"a": a}), "a", TEST_CONFIG)

    def test_interleaved_projects_raise(self):
        """A table whose projects alternate is refused, not cut to the last
        method of each project."""
        table = table_of([make_record(f"m{i}", project="ab"[i % 2]) for i in range(6)])
        with pytest.raises(ValueError, match="not contiguous"):
            evaluate_cross_project(table, "b", TEST_CONFIG)


def fixed_report(project, variant, **overrides):
    methods = [make_unified(make_record(f"m{i}", project=project, faulty=i < 5))
               for i in range(50)]
    preds = [(m, i % 2 == 0) for i, m in enumerate(methods)]
    pooled = score_pairs(preds, scope=f"project:{project}", n_rules=3)
    return ProjectReport(project=project, variant=variant, pooled=pooled)


class TestEmitReport:
    def test_single_report_summary_equals_row(self, tmp_path):
        rep = fixed_report("solo", Variant.STRICT)
        paths = emit_report([rep], tmp_path, mode="within", formats=("csv",))
        rows = list(csv.reader(open(paths[0], newline="")))
        header, data, median, mean = rows
        assert data[0] == "solo"
        assert median[0] == "median" and mean[0] == "mean"
        assert data[2:] == median[2:] == mean[2:]

    def test_median_of_three(self, tmp_path):
        reports = []
        for name, fdr in (("a", 4.3), ("b", 5.7), ("c", 10.9)):
            rep = fixed_report(name, Variant.STRICT)
            rep = replace(rep, pooled=replace(rep.pooled, fdr_methods=fdr))
            reports.append(rep)
        paths = emit_report(reports, tmp_path, mode="within", formats=("csv",))
        rows = list(csv.reader(open(paths[0], newline="")))
        header = rows[0]
        median_row = next(r for r in rows if r[0] == "median")
        assert float(median_row[header.index("fdr_methods")]) == 5.7

    def test_csv_and_json_round_trip_to_equal_values(self, tmp_path):
        reports = [fixed_report("a", Variant.STRICT), fixed_report("a", Variant.LENIENT)]
        csv_path, json_path = emit_report(
            reports, tmp_path, mode="within", formats=("csv", "json")
        )
        rows = list(csv.reader(open(csv_path, newline="")))
        header = rows[0]
        doc = json.loads(json_path.read_text())
        for row in rows[1:]:
            if row[0] in ("median", "mean"):
                entry = doc["summary"][row[1]][row[0]]
            else:
                entry = doc["projects"][row[0]][row[1]]["pooled"]
            for name in ("lfr_method_fraction", "precision", "recall", "fdr_methods"):
                assert float(row[header.index(name)]) == entry[name]

    def test_summary_keeps_the_type_of_each_number(self, tmp_path):
        """A median or mean is written as the number computed: an int stays an
        int in report.json and report.csv, a float stays a float."""
        reports = [fixed_report(name, Variant.STRICT) for name in "abc"]
        reports[2] = replace(reports[2], pooled=replace(reports[2].pooled, n_rules=4))
        csv_path, json_path = emit_report(reports, tmp_path, mode="within")
        rows = {row[0]: row for row in csv.reader(open(csv_path, newline=""))}
        at = rows["project"].index("n_rules")
        summary = json.loads(json_path.read_text())["summary"]["strict"]
        assert summary["median"]["n_rules"] == 3 and isinstance(summary["median"]["n_rules"], int)
        assert summary["mean"]["n_rules"] == 10 / 3
        assert (rows["median"][at], rows["mean"][at]) == ("3", repr(10 / 3))

    def test_unknown_format_refused_before_anything_is_written(self, tmp_path):
        out_dir = tmp_path / "out"
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            emit_report([fixed_report("solo", Variant.STRICT)], out_dir, mode="within", formats=("csv", "xml"))
        assert not out_dir.exists()

    def test_markdown_table_format(self, tmp_path):
        rep = fixed_report("solo", Variant.STRICT)
        (path,) = emit_report([rep], tmp_path, mode="within", formats=("markdown-table",))
        lines = path.read_text().splitlines()
        assert lines[0].startswith("| project | variant |")
        assert any("solo" in line for line in lines)

    def test_infinity_serialized_consistently(self, tmp_path):
        methods = [make_unified(make_record(f"m{i}", faulty=i < 2)) for i in range(10)]
        preds = [(m, not m.faulty) for m in methods]
        pooled = score_pairs(preds, scope="project:x", n_rules=1)
        rep = ProjectReport(project="x", variant=Variant.STRICT, pooled=pooled)
        csv_path, json_path = emit_report([rep], tmp_path, mode="within")
        rows = list(csv.reader(open(csv_path, newline="")))
        header = rows[0]
        assert rows[1][header.index("fdr_methods")] == "inf"
        doc = json.loads(json_path.read_text(), parse_constant=_reject_constant)
        assert doc["projects"]["x"]["strict"]["pooled"]["fdr_methods"] == "inf"
        assert doc["summary"]["strict"]["median"]["fdr_methods"] == "inf"

    def test_json_is_strict_with_infinite_fold_median(self, tmp_path):
        rep = fixed_report("x", Variant.STRICT)
        folds = tuple(replace(rep.pooled, fdr_methods=fdr) for fdr in (math.inf, math.inf, 2.0))
        rep = replace(rep, pooled=replace(rep.pooled, fdr_methods=math.inf), folds=folds)
        (json_path,) = emit_report([rep], tmp_path, mode="within", formats=("json",))
        doc = json.loads(json_path.read_text(), parse_constant=_reject_constant)
        item = doc["projects"]["x"]["strict"]
        assert item["fold_median_fdr_methods"] == "inf"
        assert [f["fdr_methods"] for f in item["folds"]] == ["inf", "inf", 2.0]


def _reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")
