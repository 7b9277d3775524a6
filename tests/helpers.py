"""Shared builders for dataset objects used across the test modules."""

from lowrisk.dataset import MethodRecord, MethodTable, Snapshot, UnifiedMethod
from lowrisk.discretize import (
    LABEL_FAULTY,
    LABEL_NOT_FAULTY,
    ItemVector,
    fit_discretization,
    item_mask,
    itemize,
)
from lowrisk.java.analyzer import MethodIdentity
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


def make_unified(record_or_records, faulty=None) -> UnifiedMethod:
    records = (
        list(record_or_records)
        if isinstance(record_or_records, (list, tuple))
        else [record_or_records]
    )
    if faulty is None:
        faulty = records[0].faulty
    return UnifiedMethod(records[0].identity, faulty, tuple(records))


def make_vector(true_items=(), not_faulty=True) -> ItemVector:
    """ItemVector with the named attribute items set to true."""
    return ItemVector(item_mask(true_items), LABEL_NOT_FAULTY if not_faulty else LABEL_FAULTY)


def split(vectors):
    """(faulty, clean) vectors of a mixed list, each in input order: the two
    classes that `balance` takes."""
    faulty = [v for v in vectors if v.label_item == LABEL_FAULTY]
    return faulty, [v for v in vectors if v.label_item != LABEL_FAULTY]


def table_of(items) -> MethodTable:
    """The table of unified methods and records, in order; each record is a
    method of its own."""
    return MethodTable.from_methods(
        [u if isinstance(u, UnifiedMethod) else UnifiedMethod(u.identity, u.faulty, (u,)) for u in items]
    )


def itemize_one(method, model) -> ItemVector:
    """itemize of one record or unified method, through a one-method table."""
    return itemize(table_of([method]), 0, model)


def fit_on(records):
    """fit_discretization over records, through their table."""
    return fit_discretization(table_of(records))
