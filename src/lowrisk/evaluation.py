"""Within-project cross-validation, cross-project prediction, and reporting.

Fold hygiene: discretization, balancing, mining, and prefix selection see
training data only; the held-out partition is itemized with the training
fold's discretization model. Per-project numbers are computed on the pooled
held-out predictions; per-fold numbers are additionally reported.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Mapping, Sequence

from lowrisk.classifier import LfrClassifier, Variant
from lowrisk.dataset import UnifiedMethod
from lowrisk.discretize import DiscretizationModel, itemize
from lowrisk.errors import TooFewMinorityError
from lowrisk.pipeline import PipelineConfig, derive_seed, train_on

FDR_FLAG_NONE = ""
FDR_FLAG_NO_MATCHED_FAULTS = "no_matched_faults"  # infinite fault-density reduction
FDR_FLAG_UNDEFINED = "zero_over_zero"  # empty classifier output


def compute_fdr(lfr_fraction: float, matched_fault_fraction: float) -> float:
    """Fault-density reduction: population share over fault share.

    Returns inf when the classifier matched methods but none of the faults,
    and 0.0 by convention for the 0/0 case (flagged in reports).
    """
    if matched_fault_fraction == 0:
        return math.inf if lfr_fraction > 0 else 0.0
    return lfr_fraction / matched_fault_fraction


def stratified_kfold(
    methods: Sequence[UnifiedMethod], k: int = 10, seed: int = 0
) -> list[list[UnifiedMethod]]:
    """Split into k partitions preserving the faulty/non-faulty ratio.

    Partition sizes differ by at most one, and so do per-partition faulty
    counts; deterministic given the seed.
    """
    faulty = [m for m in methods if m.faulty]
    clean = [m for m in methods if not m.faulty]
    if len(faulty) < k or len(clean) < k:
        raise TooFewMinorityError(
            f"stratified {k}-fold needs at least {k} methods of each class "
            f"(got {len(faulty)} faulty, {len(clean)} non-faulty)"
        )
    rng = random.Random(seed)
    rng.shuffle(faulty)
    rng.shuffle(clean)
    folds: list[list[UnifiedMethod]] = [[] for _ in range(k)]
    for i, m in enumerate(faulty):
        folds[i % k].append(m)
    offset = len(faulty) % k
    for i, m in enumerate(clean):
        folds[(offset + i) % k].append(m)
    return folds


@dataclass(frozen=True)
class ScopeMetrics:
    """Evaluation numbers for one scope (a fold or a whole project)."""

    scope: str
    n_rules: int
    methods_total: int
    faulty_total: int
    sloc_total: int
    lfr_methods: int
    lfr_method_fraction: float
    lfr_sloc: int
    lfr_sloc_fraction: float
    faulty_in_lfr: int
    faulty_in_lfr_fraction: float
    matched_fault_fraction: float
    precision: float
    recall: float
    fdr_methods: float
    fdr_sloc: float
    fdr_flag: str


def score_predictions(
    predictions: Sequence[tuple[UnifiedMethod, bool]], scope: str, n_rules: int
) -> ScopeMetrics:
    """Aggregate (method, predicted_lfr) pairs into scope metrics."""
    methods_total = len(predictions)
    faulty_total = sum(1 for m, _ in predictions if m.faulty)
    sloc_total = sum(m.sloc for m, _ in predictions)
    lfr = [(m, p) for m, p in predictions if p]
    lfr_methods = len(lfr)
    lfr_sloc = sum(m.sloc for m, _ in lfr)
    faulty_in_lfr = sum(1 for m, _ in lfr if m.faulty)
    clean_in_lfr = lfr_methods - faulty_in_lfr
    clean_total = methods_total - faulty_total

    lfr_method_fraction = lfr_methods / methods_total if methods_total else 0.0
    lfr_sloc_fraction = lfr_sloc / sloc_total if sloc_total else 0.0
    faulty_in_lfr_fraction = faulty_in_lfr / lfr_methods if lfr_methods else 0.0
    matched_fault_fraction = faulty_in_lfr / faulty_total if faulty_total else 0.0
    precision = clean_in_lfr / lfr_methods if lfr_methods else 0.0
    recall = clean_in_lfr / clean_total if clean_total else 0.0

    fdr_methods = compute_fdr(lfr_method_fraction, matched_fault_fraction)
    fdr_sloc = compute_fdr(lfr_sloc_fraction, matched_fault_fraction)
    if matched_fault_fraction == 0:
        flag = FDR_FLAG_UNDEFINED if lfr_method_fraction == 0 else FDR_FLAG_NO_MATCHED_FAULTS
    else:
        flag = FDR_FLAG_NONE
    return ScopeMetrics(
        scope=scope,
        n_rules=n_rules,
        methods_total=methods_total,
        faulty_total=faulty_total,
        sloc_total=sloc_total,
        lfr_methods=lfr_methods,
        lfr_method_fraction=lfr_method_fraction,
        lfr_sloc=lfr_sloc,
        lfr_sloc_fraction=lfr_sloc_fraction,
        faulty_in_lfr=faulty_in_lfr,
        faulty_in_lfr_fraction=faulty_in_lfr_fraction,
        matched_fault_fraction=matched_fault_fraction,
        precision=precision,
        recall=recall,
        fdr_methods=fdr_methods,
        fdr_sloc=fdr_sloc,
        fdr_flag=flag,
    )


@dataclass(frozen=True)
class ProjectReport:
    project: str
    variant: Variant
    mode: str  # "within" | "cross"
    pooled: ScopeMetrics
    folds: tuple[ScopeMetrics, ...] = ()


@dataclass(frozen=True)
class PredictionRow:
    """One per-method prediction for the optional dump CSV."""

    project: str
    file_path: str
    type_name: str
    method_name: str
    param_signature: str
    variant: str
    predicted_lfr: bool
    faulty: bool
    matched_rule_index: int | None


def _predict(
    discretization: DiscretizationModel,
    classifiers: Mapping[Variant, LfrClassifier],
    methods: Sequence[UnifiedMethod],
) -> dict[Variant, list[tuple[UnifiedMethod, bool, int | None]]]:
    """Per variant, (method, predicted_lfr, matched rule index) for each method.

    Each method is itemized once and its mask matched by every classifier.
    """
    vectors = [itemize(m, discretization) for m in methods]
    out = {}
    for variant, clf in classifiers.items():
        preds = []
        for m, vector in zip(methods, vectors):
            idx = clf.matched_rule_index(vector)
            preds.append((m, idx is not None, idx))
        out[variant] = preds
    return out


def _rows_for(project_predictions, variant: Variant) -> list[PredictionRow]:
    rows = []
    for m, lfr, idx in project_predictions:
        ident = m.identity
        rows.append(
            PredictionRow(
                project=ident.project,
                file_path=ident.file_path,
                type_name=ident.type_name,
                method_name=ident.method_name,
                param_signature=";".join(ident.param_signature),
                variant=variant.value,
                predicted_lfr=lfr,
                faulty=m.faulty,
                matched_rule_index=idx,
            )
        )
    return rows


def evaluate_within_project(
    methods: Sequence[UnifiedMethod], project: str, config: PipelineConfig
) -> tuple[dict[Variant, ProjectReport], list[PredictionRow]]:
    """Stratified k-fold evaluation of both variants on one project."""
    folds = stratified_kfold(methods, config.folds, derive_seed(config.seed, "kfold", project))
    pooled = {v: [] for v in Variant}
    fold_metrics = {v: [] for v in Variant}
    dump: list[PredictionRow] = []
    for fold_idx, held_out in enumerate(folds):
        training = [m for j, fold in enumerate(folds) if j != fold_idx for m in fold]
        trained = train_on(training, config, scope=(project, fold_idx))
        fold_preds = _predict(trained.discretization, trained.classifiers, held_out)
        for variant in Variant:
            preds = fold_preds[variant]
            pooled[variant].extend(preds)
            fold_metrics[variant].append(
                score_predictions(
                    [(m, p) for m, p, _ in preds],
                    scope=f"fold:{fold_idx}",
                    n_rules=trained.classifiers[variant].n,
                )
            )
            dump.extend(_rows_for(preds, variant))
    reports = {}
    for variant in Variant:
        mean_n = statistics.mean(fm.n_rules for fm in fold_metrics[variant])
        reports[variant] = ProjectReport(
            project=project,
            variant=variant,
            mode="within",
            pooled=score_predictions(
                [(m, p) for m, p, _ in pooled[variant]],
                scope=f"project:{project}",
                n_rules=round(mean_n),
            ),
            folds=tuple(fold_metrics[variant]),
        )
    return reports, dump


def evaluate_cross_project(
    datasets: Mapping[str, Sequence[UnifiedMethod]],
    target: str,
    config: PipelineConfig,
) -> tuple[dict[Variant, ProjectReport], list[PredictionRow]]:
    """Train once on the union of all other projects, evaluate on the target."""
    if target not in datasets:
        raise ValueError(f"target project {target!r} not among the datasets")
    if len(datasets) < 2:
        raise ValueError("cross-project prediction needs at least 2 projects")
    training = [m for name in sorted(datasets) if name != target for m in datasets[name]]
    trained = train_on(training, config, scope=(target, "cross"))
    target_preds = _predict(trained.discretization, trained.classifiers, list(datasets[target]))
    reports = {}
    dump: list[PredictionRow] = []
    for variant in Variant:
        preds = target_preds[variant]
        reports[variant] = ProjectReport(
            project=target,
            variant=variant,
            mode="cross",
            pooled=score_predictions(
                [(m, p) for m, p, _ in preds],
                scope=f"project:{target}",
                n_rules=trained.classifiers[variant].n,
            ),
        )
        dump.extend(_rows_for(preds, variant))
    return reports, dump


# -- report emission -------------------------------------------------------

_SUMMARY_FIELDS = [f.name for f in fields(ScopeMetrics) if f.name not in ("scope", "fdr_flag")]

REPORT_HEADER = ["project", "variant"] + _SUMMARY_FIELDS + ["fdr_flag"]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "inf" if math.isinf(value) else repr(value)
    return str(value)


def _metric_row(project: str, variant: str, sm: ScopeMetrics) -> list[str]:
    return (
        [project, variant]
        + [_fmt(getattr(sm, name)) for name in _SUMMARY_FIELDS]
        + [sm.fdr_flag]
    )


def _summary_rows(reports: Sequence[ProjectReport]) -> list[list[str]]:
    rows = []
    for variant in Variant:
        group = [r.pooled for r in reports if r.variant is variant]
        if not group:
            continue
        for label, agg in (("median", statistics.median), ("mean", statistics.mean)):
            values = [label, variant.value]
            for name in _SUMMARY_FIELDS:
                values.append(_fmt(agg([getattr(sm, name) for sm in group])))
            values.append("")
            rows.append(values)
    return rows


def _sorted_reports(reports: Sequence[ProjectReport]) -> list[ProjectReport]:
    return sorted(reports, key=lambda r: (r.project, r.variant.value))


def report_table(reports: Sequence[ProjectReport]) -> list[list[str]]:
    rows = [REPORT_HEADER]
    for rep in _sorted_reports(reports):
        rows.append(_metric_row(rep.project, rep.variant.value, rep.pooled))
    rows.extend(_summary_rows(reports))
    return rows


def _json_number(value):
    """JSON has no infinity; an infinite FDR is written as "inf", as in report.csv."""
    return "inf" if isinstance(value, float) and math.isinf(value) else value


def _scope_json(sm: ScopeMetrics) -> dict:
    data = {name: _json_number(getattr(sm, name)) for name in ("scope",) + tuple(_SUMMARY_FIELDS)}
    data["fdr_flag"] = sm.fdr_flag
    return data


def report_json(
    reports: Sequence[ProjectReport], config: PipelineConfig | None, mode: str
) -> dict:
    projects: dict = {}
    for rep in _sorted_reports(reports):
        entry = projects.setdefault(rep.project, {})
        item = {"pooled": _scope_json(rep.pooled)}
        if rep.folds:
            item["folds"] = [_scope_json(sm) for sm in rep.folds]
            item["fold_median_fdr_methods"] = _json_number(
                statistics.median(sm.fdr_methods for sm in rep.folds)
            )
        entry[rep.variant.value] = item
    summary: dict = {}
    for row in _summary_rows(reports):
        label, variant = row[0], row[1]
        summary.setdefault(variant, {})[label] = {
            name: _parse_cell(cell) for name, cell in zip(_SUMMARY_FIELDS, row[2:])
        }
    doc = {"mode": mode, "projects": projects, "summary": summary}
    if config is not None:
        doc["config"] = config.to_json()
    return doc


def _parse_cell(cell: str):
    if cell == "inf":
        return cell
    try:
        return int(cell)
    except ValueError:
        return float(cell)


def emit_report(
    reports: Sequence[ProjectReport],
    out_dir: str | Path,
    mode: str,
    config: PipelineConfig | None = None,
    formats: Sequence[str] = ("csv", "json"),
    basename: str = "report",
) -> list[Path]:
    """Write the evaluation report in the requested formats; returns paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    table = report_table(reports)
    for fmt in formats:
        if fmt == "csv":
            path = out_dir / f"{basename}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(table)
        elif fmt == "json":
            path = out_dir / f"{basename}.json"
            doc = report_json(reports, config, mode)
            text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
            path.write_text(text + "\n", encoding="utf-8")
        elif fmt == "markdown-table":
            path = out_dir / f"{basename}.md"
            lines = ["| " + " | ".join(table[0]) + " |"]
            lines.append("|" + "|".join([" --- "] * len(table[0])) + "|")
            lines.extend("| " + " | ".join(row) + " |" for row in table[1:])
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        else:
            raise ValueError(f"unknown report format {fmt!r}")
        written.append(path)
    return written


def write_prediction_dump(rows: Sequence[PredictionRow], path: str | Path) -> None:
    header = [
        "project",
        "file_path",
        "type_name",
        "method_name",
        "param_signature",
        "variant",
        "predicted_lfr",
        "faulty",
        "matched_rule_index",
    ]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [
                    row.project,
                    row.file_path,
                    row.type_name,
                    row.method_name,
                    row.param_signature,
                    row.variant,
                    _fmt(row.predicted_lfr),
                    _fmt(row.faulty),
                    "" if row.matched_rule_index is None else str(row.matched_rule_index),
                ]
            )
