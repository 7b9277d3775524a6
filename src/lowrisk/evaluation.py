"""Within-project cross-validation, cross-project prediction, and reporting.

Fold hygiene: discretization, balancing, mining, and prefix selection see
training data only; the held-out partition is itemized with the training
fold's discretization model. Per-project numbers are computed on the pooled
held-out predictions; per-fold numbers are additionally reported.

Both evaluators take `(table, project, config)`, where the table holds
every project in identity order (a one-project table works too), and share
one split loop: within-project CV splits the project's index range into
stratified folds, and cross-project prediction is one split that trains on
every other project. Splits are lists of method indices into the table, and
scoring reads its fault flags and SLOC by index. Held-out methods are
itemized into masks and matched against the rule antecedent masks. The
predictions are (variant, method indices, matched rule indices) tuples that
hold no table; `prediction_rows` builds their CSV rows from the table. The
report's per-variant median and mean are computed once as numbers and
formatted for each output: `_fmt` for the CSV and Markdown tables,
`_json_number` for report.json.
"""

from __future__ import annotations

import csv
import math
import random
import statistics
from dataclasses import dataclass, fields
from itertools import compress
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

from lowrisk.classifier import LfrClassifier, Variant
from lowrisk.dataset import IDENTITY_COLUMNS, MethodTable, identity_fields
from lowrisk.discretize import DiscretizationModel, itemize
from lowrisk.errors import TooFewMinorityError
from lowrisk.pipeline import PipelineConfig, derive_seed, train_on, write_json

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


def stratified_kfold(is_faulty: Sequence[bool], k: int = 10, seed: int = 0) -> list[list[int]]:
    """Split method indices into k partitions preserving the faulty/non-faulty
    ratio, given each method's fault flag.

    Partition sizes differ by at most one, and so do per-partition faulty
    counts; deterministic given the seed.
    """
    faulty = [i for i, f in enumerate(is_faulty) if f]
    clean = [i for i, f in enumerate(is_faulty) if not f]
    if len(faulty) < k or len(clean) < k:
        raise TooFewMinorityError(
            f"stratified {k}-fold needs at least {k} methods of each class "
            f"(got {len(faulty)} faulty, {len(clean)} non-faulty)"
        )
    rng = random.Random(seed)
    rng.shuffle(faulty)
    rng.shuffle(clean)
    folds: list[list[int]] = [[] for _ in range(k)]
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
    table: MethodTable, indices: Sequence[int], predicted_lfr: Sequence[bool], scope: str, n_rules: int
) -> ScopeMetrics:
    """Aggregate the predictions for the table's methods at `indices` into
    scope metrics."""
    is_faulty, sloc = table.faulty.__getitem__, table.sloc.__getitem__
    methods_total = len(indices)
    faulty_total = sum(map(is_faulty, indices))
    sloc_total = sum(map(sloc, indices))
    lfr = list(compress(indices, predicted_lfr))
    lfr_methods = len(lfr)
    lfr_sloc = sum(map(sloc, lfr))
    faulty_in_lfr = sum(map(is_faulty, lfr))
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
    pooled: ScopeMetrics
    folds: tuple[ScopeMetrics, ...] = ()


PREDICTION_HEADER = IDENTITY_COLUMNS + ["variant", "predicted_lfr", "faulty", "matched_rule_index"]


def prediction_rows(table: MethodTable, predictions: Iterable[tuple]) -> Iterator[list[str]]:
    """The rows of predictions.csv, in PREDICTION_HEADER order, of the table's
    (variant, method indices, matched rule indices) predictions."""
    keys, is_faulty = table.keys, table.faulty
    for variant, indices, matched in predictions:
        for i, idx in zip(indices, matched):
            yield [
                *identity_fields(keys[i]),
                variant.value,
                _fmt(idx is not None),
                _fmt(is_faulty[i]),
                "" if idx is None else str(idx),
            ]


def _predict(
    discretization: DiscretizationModel,
    classifiers: Mapping[Variant, LfrClassifier],
    table: MethodTable,
    indices: Sequence[int],
) -> dict[Variant, list[int | None]]:
    """Per variant, the matched rule index (None: not LFR) of the table's
    methods at `indices`.

    Each method is itemized once and its mask matched by every classifier.
    """
    masks = [itemize(table, i, discretization) for i in indices]
    return {
        variant: [clf.matched_rule_index(mask) for mask in masks]
        for variant, clf in classifiers.items()
    }


def _lfr(matched: list[int | None]) -> list[bool]:
    return [idx is not None for idx in matched]


def _span(table: MethodTable, project: str) -> range:
    spans = table.projects()
    if project not in spans:
        raise ValueError(f"project {project!r} not among the datasets")
    return spans[project]


def _evaluate(
    table: MethodTable, project: str, splits: Sequence[tuple], config: PipelineConfig
) -> tuple[dict[Variant, ProjectReport], list[tuple]]:
    """Train on each (scope, training, held-out) split, its scope seeding its
    SMOTE draws, predict its held-out methods, and score both variants on the
    pooled predictions, and on each split as a fold when there are several."""
    n_rules = {v: [] for v in Variant}
    folds = {v: [] for v in Variant}
    predictions = []
    for fold_idx, (scope, training, held_out) in enumerate(splits):
        trained = train_on(table.take(training), config, scope=scope)
        split_preds = _predict(trained.discretization, trained.classifiers, table, held_out)
        for variant in Variant:
            matched, n = split_preds[variant], trained.classifiers[variant].n
            n_rules[variant].append(n)
            if len(splits) > 1:
                folds[variant].append(
                    score_predictions(table, held_out, _lfr(matched), scope=f"fold:{fold_idx}", n_rules=n)
                )
            predictions.append((variant, held_out, matched))
    held_out_order = [i for _, _, held_out in splits for i in held_out]
    reports = {}
    for variant in Variant:
        pooled = [idx for v, _, matched in predictions if v is variant for idx in matched]
        mean_n = round(statistics.mean(n_rules[variant]))
        metrics = score_predictions(table, held_out_order, _lfr(pooled), f"project:{project}", mean_n)
        reports[variant] = ProjectReport(project, variant, metrics, tuple(folds[variant]))
    return reports, predictions


def evaluate_within_project(
    table: MethodTable, project: str, config: PipelineConfig
) -> tuple[dict[Variant, ProjectReport], list[tuple]]:
    """Stratified k-fold evaluation of both variants on one project of the table."""
    span = _span(table, project)
    folds = stratified_kfold(
        [table.faulty[i] for i in span], config.folds, derive_seed(config.seed, "kfold", project)
    )
    held_outs = [[span[i] for i in fold] for fold in folds]
    splits = [
        ((project, k), [i for j, other in enumerate(held_outs) if j != k for i in other], held_out)
        for k, held_out in enumerate(held_outs)
    ]
    return _evaluate(table, project, splits, config)


def evaluate_cross_project(
    table: MethodTable, target: str, config: PipelineConfig
) -> tuple[dict[Variant, ProjectReport], list[tuple]]:
    """Train once on the union of all other projects, evaluate on the target."""
    span = _span(table, target)
    if len(table.projects()) < 2:
        raise ValueError("cross-project prediction needs at least 2 projects")
    training = [*range(span.start), *range(span.stop, len(table))]
    return _evaluate(table, target, [((target, "cross"), training, span)], config)


# -- report emission -------------------------------------------------------

_SUMMARY_FIELDS = [f.name for f in fields(ScopeMetrics) if f.name not in ("scope", "fdr_flag")]

REPORT_HEADER = ["project", "variant"] + _SUMMARY_FIELDS + ["fdr_flag"]

# The formats emit_report writes, and the file each is written to.
REPORT_FORMATS = {"csv": "report.csv", "json": "report.json", "markdown-table": "report.md"}


def check_report_formats(formats: Sequence[str]) -> None:
    """ValueError naming the first format that emit_report cannot write."""
    for fmt in formats:
        if fmt not in REPORT_FORMATS:
            raise ValueError(f"unknown report format {fmt!r}")


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


def _summary(reports: Sequence[ProjectReport]) -> Iterator[tuple[str, str, list]]:
    """(label, variant, values): the median and the mean of each summary
    field over the pooled metrics of each variant's projects."""
    for variant in Variant:
        group = [r.pooled for r in reports if r.variant is variant]
        if not group:
            continue
        for label, agg in (("median", statistics.median), ("mean", statistics.mean)):
            yield label, variant.value, [agg([getattr(sm, name) for sm in group]) for name in _SUMMARY_FIELDS]


def _sorted_reports(reports: Sequence[ProjectReport]) -> list[ProjectReport]:
    return sorted(reports, key=lambda r: (r.project, r.variant.value))


def report_table(reports: Sequence[ProjectReport]) -> list[list[str]]:
    rows = [REPORT_HEADER]
    for rep in _sorted_reports(reports):
        rows.append(_metric_row(rep.project, rep.variant.value, rep.pooled))
    for label, variant, values in _summary(reports):
        rows.append([label, variant, *map(_fmt, values), ""])
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
    for label, variant, values in _summary(reports):
        summary.setdefault(variant, {})[label] = dict(zip(_SUMMARY_FIELDS, map(_json_number, values)))
    doc = {"mode": mode, "projects": projects, "summary": summary}
    if config is not None:
        doc["config"] = config.to_json()
    return doc


def emit_report(
    reports: Sequence[ProjectReport],
    out_dir: str | Path,
    mode: str,
    config: PipelineConfig | None = None,
    formats: Sequence[str] = ("csv", "json"),
) -> list[Path]:
    """Write the evaluation report in the requested formats; returns paths.

    An unknown format raises ValueError before anything is created.
    """
    check_report_formats(formats)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    table = report_table(reports)
    for fmt in formats:
        path = out_dir / REPORT_FORMATS[fmt]
        if fmt == "csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(table)
        elif fmt == "json":
            write_json(path, report_json(reports, config, mode))
        else:
            lines = ["| " + " | ".join(table[0]) + " |"]
            lines.append("|" + "|".join([" --- "] * len(table[0])) + "|")
            lines.extend("| " + " | ".join(row) + " |" for row in table[1:])
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def write_prediction_dump(rows: Iterable[list[str]], path: str | Path) -> None:
    """Write predictions.csv from `prediction_rows`."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(PREDICTION_HEADER)
        writer.writerows(rows)
