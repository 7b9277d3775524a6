"""Shared builders and readers used across the test modules."""

import csv
import warnings

from lowrisk.dataset import MethodRecord, MethodTable, Snapshot, UnifiedMethod
from lowrisk.discretize import (
    ATTRIBUTE_ITEMS,
    LABEL_NOT_FAULTY,
    fit_discretization,
    item_mask,
    itemize,
)
from lowrisk.errors import DegenerateDistributionWarning
from lowrisk.java.analyzer import MethodIdentity
from lowrisk.mining import AssociationRule
from lowrisk.java.metrics import N_CONSTRUCT_KINDS, CategoryFlags, ConstructKind, RawMetrics

_BY_COLUMN = {kind.column: kind for kind in ConstructKind}


def make_metrics(sloc=1, cc=1, nesting=0, chaining=0, variables=0, **counts) -> RawMetrics:
    """RawMetrics with construct counts given by column name, e.g. loops=2."""
    cc_list = [0] * N_CONSTRUCT_KINDS
    for column, value in counts.items():
        cc_list[_BY_COLUMN[column]] = value
    return RawMetrics(
        sloc=sloc,
        cyclomatic_complexity=cc,
        max_nesting=nesting,
        max_chaining=chaining,
        unique_variable_ids=variables,
        construct_counts=tuple(cc_list),
    )


def make_identity(name="m", project="p", file_path="A.java", type_name="A", params=()) -> MethodIdentity:
    return MethodIdentity(
        project=project,
        file_path=file_path,
        type_name=type_name,
        method_name=name,
        param_signature=tuple(params),
    )


def make_record(
    name="m",
    metrics=None,
    categories=None,
    faulty=False,
    project="p",
    **identity_kw,
) -> MethodRecord:
    return MethodRecord(
        identity=make_identity(name, project=project, **identity_kw),
        metrics=metrics if metrics is not None else make_metrics(),
        categories=categories if categories is not None else CategoryFlags(),
        faulty=faulty,
        snapshot=Snapshot.FAULTY if faulty else Snapshot.CURRENT,
    )


def from_analyzed(methods, faulty=False) -> list[MethodRecord]:
    """The metric records of analyzed methods, all current or all faulty."""
    snapshot = Snapshot.FAULTY if faulty else Snapshot.CURRENT
    return [MethodRecord(*m, faulty=faulty, snapshot=snapshot) for m in methods]


def make_unified(record_or_records, faulty=None) -> UnifiedMethod:
    # A record is a tuple itself, so only a record is taken as one.
    records = [record_or_records] if isinstance(record_or_records, MethodRecord) else list(record_or_records)
    if faulty is None:
        faulty = records[0].faulty
    return UnifiedMethod(records[0].identity, faulty, tuple(records))


# The item names of the tests' hand-made transaction databases, each mapped
# to an attribute item. The items run backwards through the vocabulary, so
# their bit order and their name order disagree.
_TEST_ITEMS = ["A", "B", "C", "D", "X", "Y", "ALL", "TWIN0", "BOTH12"] + [f"I{i}" for i in range(12)]
_AS_ITEM = dict(zip(_TEST_ITEMS, ATTRIBUTE_ITEMS[::-2]))


def vocabulary_item(name: str) -> str:
    """The attribute item that stands for a test item name."""
    return _AS_ITEM[name]


def as_vocabulary(db):
    """A transaction database over test item names, with every name but
    NotFaulty mapped to its attribute item."""
    return [frozenset(n if n == LABEL_NOT_FAULTY else _AS_ITEM[n] for n in t) for t in db]


def classes(db):
    """(faulty, clean) item masks of a database over attribute item names, in
    database order; a transaction holding NotFaulty is clean. These are the
    two arguments `mine` takes before its config."""
    faulty = [item_mask(t) for t in db if LABEL_NOT_FAULTY not in t]
    return faulty, [item_mask(t - {LABEL_NOT_FAULTY}) for t in db if LABEL_NOT_FAULTY in t]


def make_rule(items, conf, supp):
    """The rule {items} -> NotFaulty, given by attribute item names."""
    return AssociationRule(item_mask(items), supp, conf)


def table_of(items) -> MethodTable:
    """The table of unified methods and records, in order; each record is a
    method of its own."""
    return MethodTable.from_methods(
        [u if isinstance(u, UnifiedMethod) else UnifiedMethod(u.identity, u.faulty, (u,)) for u in items]
    )


def projects_table(projects) -> MethodTable:
    """The table of a mapping of project names to unified method lists: the
    lists concatenated in sorted project order, each in its own order."""
    return MethodTable.from_methods([u for name in sorted(projects) for u in projects[name]])


def itemize_one(method, model) -> int:
    """itemize of one record or unified method, through a one-method table."""
    return itemize(table_of([method]), 0, model)


def fit_on(records):
    """fit_discretization over records, through their table."""
    return fit_discretization(table_of(records))


def fit_values(values):
    """The SLOC bounds that fit_discretization gives one record per value (at
    least three), with the single-value warnings of the other metrics muted."""
    records = [make_record(f"m{i}", metrics=make_metrics(sloc=v)) for i, v in enumerate(values)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateDistributionWarning)
        return fit_on(records).bounds["sloc"]


def read_csv_rows(path, dicts=False) -> list:
    """The rows of a CSV file, as lists or, with dicts, as dicts keyed by its
    header; the file is closed before they are returned."""
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f) if dicts else csv.reader(f))
