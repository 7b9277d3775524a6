"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import random
import statistics
import time
import warnings
from itertools import compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import as_vocabulary, classes, fit_values, projects_table, table_of
from oracles import (
    as_rule_set,
    brute_force_prune,
    brute_force_rules,
    classify,
    matched_set,
    prefix_scan_oracle,
    random_rule,
    tertile_bounds,
)
from lowrisk.balance import BalanceConfig, balance
from lowrisk.classifier import Variant, order_rules, select_prefix
from lowrisk.dataset import write_csv
from lowrisk.discretize import ATTRIBUTE_ITEMS, item_mask
from lowrisk.errors import NoAdmissibleRulesWarning
from lowrisk.evaluation import (
    compute_fdr,
    emit_report,
    evaluate_cross_project,
    evaluate_within_project,
)
from lowrisk.java.analyzer import analyze_project
from lowrisk.mining import MiningConfig, mine, prune_redundant
from lowrisk.pipeline import PipelineConfig
from lowrisk.synthetic import generate_corpus


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# -- criterion 1: Apriori oracle equivalence ---------------------------------


def test_c1_apriori_oracle_equivalence():
    rng = random.Random(20240)
    start = time.monotonic()
    for case in range(100):
        n_items = rng.randint(3, 10)
        n_transactions = rng.randint(20, 200)
        items = [f"I{i}" for i in range(n_items)]
        db = []
        for _ in range(n_transactions):
            t = {i for i in items if rng.random() < rng.uniform(0.2, 0.8)}
            if rng.random() < 0.5:
                t.add("NotFaulty")
            db.append(frozenset(t))
        db = as_vocabulary(db)
        cfg = MiningConfig(
            min_support=rng.uniform(0.02, 0.45),
            min_confidence=rng.uniform(0.3, 1.0),
            max_antecedent_len=n_items,
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            mined = prune_redundant(mine(*classes(db), cfg))
        oracle_rules = brute_force_rules(
            db, cfg.min_support, cfg.min_confidence, cfg.max_antecedent_len
        )
        from lowrisk.mining import AssociationRule

        oracle_pruned = brute_force_prune(
            [AssociationRule(item_mask(a), s, c) for a, s, c in oracle_rules]
        )
        assert as_rule_set(mined) == as_rule_set(oracle_pruned), f"case {case} diverged"
    elapsed = time.monotonic() - start
    report(1, elapsed < 30, f"mine+prune equals brute-force oracle on 100 DBs in {elapsed:.1f}s (< 30s)")


# -- criterion 2: FDR formula reproduction ------------------------------------


def test_c2_fdr_formula_reproduction():
    ok = (
        compute_fdr(0.40, 0.10) == 4.0
        and 6.95 <= compute_fdr(0.286, 0.041) <= 7.05
        and 3.35 <= compute_fdr(0.138, 0.041) <= 3.40
        and statistics.median([4.3, 5.7, 10.9]) == 5.7
    )
    report(
        2,
        ok,
        f"compute_fdr(0.40,0.10)={compute_fdr(0.40, 0.10)}, "
        f"(0.286,0.041)={compute_fdr(0.286, 0.041):.3f}, "
        f"(0.138,0.041)={compute_fdr(0.138, 0.041):.3f}, "
        f"median(4.3,5.7,10.9)={statistics.median([4.3, 5.7, 10.9])}",
    )


# -- criterion 3 (and 8): SMOTE balance ---------------------------------------


def _run_smote_battery(master_seed):
    """50 random imbalanced datasets; returns (artifact dict, max imbalance)."""
    rng = random.Random(master_seed)
    artifact = {}
    worst_gap = 0
    support_bound_ok = True
    for case in range(50):
        n = rng.randint(120, 240)
        minority_fraction = rng.uniform(0.05, 0.40)
        n_min = max(6, round(n * minority_fraction))
        data = {}
        for klass, count in (("min", n_min), ("maj", n - n_min)):
            data[klass] = []
            for _ in range(count):
                bias = 0.3 if klass == "min" else 0.7
                true_names = [
                    name
                    for j, name in enumerate(ATTRIBUTE_ITEMS)
                    if rng.random() < (bias if j < 10 else 0.5)
                ]
                data[klass].append(item_mask(true_names))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = balance(data["min"], data["maj"], BalanceConfig(rng_seed=master_seed * 100 + case))
        n_faulty = len(out.faulty)
        gap = abs(n_faulty - len(out.clean))
        worst_gap = max(worst_gap, gap)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rules = mine(out.faulty, out.clean, MiningConfig(0.10, 0.95, 3))
        bound = 0.5 + 1 / len(out)
        if any(r.support > bound for r in rules):
            support_bound_ok = False
        artifact[str(case)] = {
            "balanced_faulty": n_faulty,
            "balanced_total": len(out),
            "rules": [r.to_json() for r in rules],
        }
    return artifact, worst_gap, support_bound_ok


@pytest.fixture(scope="module")
def smote_battery_runs():
    runs = []
    for _ in range(2):
        start = time.monotonic()
        artifact, worst_gap, bound_ok = _run_smote_battery(master_seed=77)
        runs.append(
            {
                "artifact": artifact,
                "worst_gap": worst_gap,
                "bound_ok": bound_ok,
                "elapsed": time.monotonic() - start,
            }
        )
    return runs


def test_c3_smote_balance(smote_battery_runs):
    run = smote_battery_runs[0]
    ok = run["worst_gap"] <= 1 and run["bound_ok"] and run["elapsed"] < 10
    report(
        3,
        ok,
        f"50 datasets balanced to 50/50 within +/-{run['worst_gap']} vector(s); "
        f"all mined rule supports <= 0.5 + 1/n; {run['elapsed']:.1f}s (< 10s)",
    )


# -- criterion 4: discretization last-occurrence rule --------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=80))
def test_c4_property(values):
    b = tertile_bounds(values)
    classes = [classify(b, v) for v in sorted(values)]
    assert all(c in (1, 2, 3) for c in classes)
    assert classes == sorted(classes)  # contiguous, disjoint, exhaustive
    assert all(classify(b, v) == 1 for v in values if v == b[0])
    if len(values) >= 3:
        assert fit_values(values) == b


def test_c4_discretization_worked_examples():
    exact = fit_values([1, 1, 1, 2, 2, 2, 3, 3, 3])
    last = fit_values([1, 1, 1, 1, 1, 1, 2, 3, 4])
    degenerate = fit_values([5, 5, 5, 5])
    ok = (
        exact == (1, 2)
        and last[0] == 1
        and classify(last, 1) == 1
        and classify(degenerate, 5) == 1
    )
    report(
        4,
        ok,
        "tertile boundaries match worked examples; property test covers "
        "contiguous/exhaustive/disjoint classes and the boundary-value rule",
    )


# -- criterion 5: classifier prefix maximality and monotonicity ----------------


def test_c5_prefix_selection_against_oracle():
    config = PipelineConfig()
    strict_budget, lenient_budget = config.budget(Variant.STRICT), config.budget(Variant.LENIENT)
    rng = random.Random(99)
    vocab = list(ATTRIBUTE_ITEMS[:48:6])
    for case in range(50):
        rules = order_rules(
            {random_rule(rng, vocab, max_len=3) for _ in range(rng.randint(1, 14))}
        )
        training = [frozenset(rng.sample(vocab, rng.randint(0, 6))) for _ in range(50)]
        masks = [item_mask(items) for items in training]
        faulty = [rng.random() < 0.3 for _ in training]
        if not any(faulty):
            faulty[0] = True
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", NoAdmissibleRulesWarning)
            n_strict = select_prefix(rules, list(compress(masks, faulty)), budget=strict_budget)
            n_lenient = select_prefix(rules, list(compress(masks, faulty)), budget=lenient_budget)
        assert n_strict == prefix_scan_oracle(
            rules, training, faulty, strict_budget
        ), f"case {case}"
        assert n_lenient == prefix_scan_oracle(
            rules, training, faulty, lenient_budget
        ), f"case {case}"
        previous = set()
        for n in range(len(rules) + 1):
            current = matched_set(rules, n, training)
            assert previous <= current, f"case {case}: matched set shrank at n={n}"
            previous = current
        assert n_strict <= n_lenient
        assert matched_set(rules, n_strict, training) <= matched_set(rules, n_lenient, training)
    report(5, True, "select_prefix equals exhaustive prefix-scan oracle on 50 fixtures; "
                    "matched sets monotone; strict subset of lenient")


# -- criterion 6: golden metric extraction -------------------------------------


def test_c6_golden_metric_extraction(corpus_dir, golden_csv, tmp_path):
    import csv as csv_mod

    def rows_of(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv_mod.reader(fh)
            next(reader)
            return list(reader)

    golden_rows = rows_of(golden_csv)
    methods = analyze_project(corpus_dir, "corpus")
    out = tmp_path / "metrics.csv"
    write_csv(methods, out)
    actual_rows = rows_of(out)
    ok = actual_rows == golden_rows
    ok = ok and out.read_bytes().replace(b"\r\n", b"\n") == golden_csv.read_bytes()
    chain_values = {row[10] for row in actual_rows}
    ok = ok and {"2", "3"} <= chain_values and len(golden_rows) >= 30
    report(
        6,
        ok,
        f"{len(actual_rows)} methods match the hand-derived golden CSV exactly "
        f"(incl. chaining depths 2 and 3)",
    )


# -- criterion 7 (and 8): desk-scale end-to-end replication --------------------

E2E_CONFIG = PipelineConfig(
    mining=MiningConfig(min_support=0.05, min_confidence=0.95, max_antecedent_len=3),
    seed=7,
)


def _run_e2e(out_dir):
    corpus = generate_corpus(6, seed=11)
    within_reports = []
    within_times = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, methods in corpus.items():
            t0 = time.monotonic()
            reports, _ = evaluate_within_project(table_of(methods), name, E2E_CONFIG)
            within_times[name] = time.monotonic() - t0
            within_reports.extend(reports.values())
        cross_reports = []
        table = projects_table(corpus)
        for target in corpus:
            reports, _ = evaluate_cross_project(table, target, E2E_CONFIG)
            cross_reports.extend(reports.values())
    emit_report(within_reports, out_dir / "within", mode="within", config=E2E_CONFIG)
    emit_report(cross_reports, out_dir / "cross", mode="cross", config=E2E_CONFIG)
    return within_reports, cross_reports, within_times


@pytest.fixture(scope="module")
def e2e_runs(tmp_path_factory):
    runs = []
    for run_id in (1, 2):
        out_dir = tmp_path_factory.mktemp(f"e2e_run{run_id}")
        within, cross, times = _run_e2e(out_dir)
        runs.append({"dir": out_dir, "within": within, "cross": cross, "times": times})
    return runs


def test_c7_end_to_end_replication(e2e_runs):
    run = e2e_runs[0]
    times_ok = all(t < 120 for t in run["times"].values())

    strict_within = [r for r in run["within"] if r.variant is Variant.STRICT]
    budget_ok = all(r.pooled.faulty_in_lfr_fraction <= 0.05 for r in strict_within)
    within_fdr_ok = sum(1 for r in strict_within if r.pooled.fdr_methods >= 2) >= 5

    strict_cross = [r for r in run["cross"] if r.variant is Variant.STRICT]
    cross_fdr_ok = sum(1 for r in strict_cross if r.pooled.fdr_methods >= 2) >= 5

    ok = times_ok and budget_ok and within_fdr_ok and cross_fdr_ok
    slowest = max(run["times"].values())
    report(
        7,
        ok,
        f"6 projects: within-project {slowest:.1f}s max (< 120s); strict faulty-in-LFR "
        f"<= 5% on all; method FDR >= 2 on "
        f"{sum(1 for r in strict_within if r.pooled.fdr_methods >= 2)}/6 within and "
        f"{sum(1 for r in strict_cross if r.pooled.fdr_methods >= 2)}/6 cross targets",
    )


# -- criterion 8: determinism ---------------------------------------------------


def test_c8_determinism(e2e_runs, smote_battery_runs, tmp_path):
    identical = True
    for name in ("within/report.csv", "within/report.json", "cross/report.csv",
                 "cross/report.json"):
        a = (e2e_runs[0]["dir"] / name).read_bytes()
        b = (e2e_runs[1]["dir"] / name).read_bytes()
        if a != b:
            identical = False
    paths = []
    for i, run in enumerate(smote_battery_runs):
        path = tmp_path / f"smote_run{i}.json"
        path.write_text(json.dumps(run["artifact"], indent=2, sort_keys=True),
                        encoding="utf-8")
        paths.append(path)
    if paths[0].read_bytes() != paths[1].read_bytes():
        identical = False
    report(8, identical, "criteria 3 and 7 artifacts are byte-identical across "
                         "re-runs with the same master seed")
