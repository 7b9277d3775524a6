"""Dataset assembly: the columnar method table, method records, CSV I/O.

A row is one observation of a method: its current state, or one faulty
occurrence. `read_csv` parses a metrics CSV straight into columns (`Rows`):
the identity key and fault flag of each row, the five tertile metrics in
`array('q')` columns, and the 34 item bits that need no discretization
model as one int per row. `build_unified` groups rows into a `MethodTable`:
each identity once, in identity order, faulty methods replacing their
current-state row and keeping every faulty occurrence, so that majority
voting can be recomputed under any discretization model without leaking
test data into the vote. Training, folds and scoring read the table by
index; a training set is `table.take(indices)`.

`MethodRecord` and `UnifiedMethod` are the object form of the same data,
used by `extract`, `write_csv`, the synthetic generator and library callers.
Both are named tuples, as are the identity, metrics and flags they hold, so
building, sorting and pickling them runs in C. `write_csv` is the only CSV
writer; it hands the ints of each row to one `writerows` call, which takes
the records as they come, and it replaces its output only on success. The
evaluators take a table only; `train_on` also takes a `UnifiedMethod` list,
which `MethodTable.from_methods` turns into a table in list order whose
metric columns read the records' `RawMetrics` in place.
"""

from __future__ import annotations

import csv
import os
from array import array
from contextlib import contextmanager
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, chain, groupby
from operator import attrgetter, itemgetter
from pathlib import Path
from typing import Callable, Iterable, NamedTuple

from lowrisk.discretize import TERTILE_METRICS, category_mask, count_items_mask
from lowrisk.errors import SchemaError
from lowrisk.java.analyzer import MethodIdentity
from lowrisk.java.metrics import (
    N_CONSTRUCT_KINDS, CategoryFlags, ConstructKind, RawMetrics, arithmetic_counts, condition_counts,
)

_FAULTY_STATE_ONLY = "faulty records carry metrics computed at the faulty state"


class Snapshot(Enum):
    CURRENT = "CurrentState"
    FAULTY = "FaultyState"


class _RecordFields(NamedTuple):
    identity: MethodIdentity
    metrics: RawMetrics
    categories: CategoryFlags
    faulty: bool = False
    snapshot: Snapshot = Snapshot.CURRENT


class MethodRecord(_RecordFields):
    """One method observation: identity, metrics, categories, fault label."""

    __slots__ = ()

    def __new__(cls, identity, metrics, categories, faulty=False, snapshot=Snapshot.CURRENT):
        if faulty and snapshot is not Snapshot.FAULTY:
            raise ValueError(_FAULTY_STATE_ONLY)
        return tuple.__new__(cls, (identity, metrics, categories, faulty, snapshot))


class UnifiedMethod(NamedTuple):
    """One method after unification; faulty methods keep every occurrence."""

    identity: MethodIdentity
    faulty: bool
    occurrences: tuple[MethodRecord, ...]


# -- the columnar table ----------------------------------------------------

_N_METRICS = len(TERTILE_METRICS)


@dataclass(frozen=True, eq=False)
class Rows:
    """Occurrence rows in columns, as read from metrics CSVs."""

    keys: list[tuple]  # MethodIdentity.key() of each row
    faulty: list[bool]
    metrics: tuple[array, ...]  # one column per TERTILE_METRICS entry
    fixed: list[int]  # the item bits that need no discretization model

    def __len__(self) -> int:
        return len(self.keys)

    @classmethod
    def concat(cls, parts: Sequence[Rows]) -> Rows:
        if len(parts) == 1:
            return parts[0]
        metrics = tuple(array("q") for _ in range(_N_METRICS))
        for part in parts:
            for column, more in zip(metrics, part.metrics):
                column.extend(more)
        return cls(
            [k for part in parts for k in part.keys],
            [f for part in parts for f in part.faulty],
            metrics,
            [b for part in parts for b in part.fixed],
        )


class _Lazy(Sequence):
    """values[i] = compute(source, i), computed when first read and kept."""

    def __init__(self, n: int, compute: Callable, source):
        self._n, self._compute, self._source = n, compute, source
        self._values: dict[int, object] = {}

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index: int):
        value = self._values.get(index)
        if value is None:  # compute raises IndexError past the end
            value = self._values[index] = self._compute(self._source, index)
        return value


class _Spans(Sequence):
    """Consecutive row ranges from row 0: method i has rows ends[i-1] (or 0)
    up to ends[i]."""

    def __init__(self, ends: Sequence[int]):
        self.ends = ends

    def __len__(self) -> int:
        return len(self.ends)

    def __getitem__(self, index: int) -> range:
        return range(self.ends[index - 1] if index else 0, self.ends[index])


_metrics_of = attrgetter("metrics")


class _MetricColumn(Sequence):
    """Metric m of each record, read in place: column[i] is records[i].metrics[m]."""

    def __init__(self, records: Sequence[MethodRecord], m: int):
        self._records, self._m = records, m

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, index: int) -> int:
        return self._records[index].metrics[self._m]

    def __iter__(self):
        return map(itemgetter(self._m), map(_metrics_of, self._records))


def _upper_median(column: Sequence[int], rows: Sequence[int]) -> int:
    """statistics.median_high of the column over the rows.

    The upper median keeps single-occurrence methods exact and resolves
    even-count ties consistently with the class-vote tie rule."""
    if len(rows) == 1:
        return column[rows[0]]
    return sorted(map(column.__getitem__, rows))[len(rows) // 2]


_faulty_and_occurrences = attrgetter("faulty", "occurrences")


def _record_bits(records: Sequence[MethodRecord], row: int) -> int:
    record = records[row]
    return count_items_mask(record.metrics.construct_counts) | category_mask(record.categories)


def _method_key(methods: Sequence[UnifiedMethod], index: int) -> tuple:
    return methods[index].identity.key()


def _method_sloc(sloc_and_occurrences: tuple, index: int) -> int:
    sloc, occurrences = sloc_and_occurrences
    return _upper_median(sloc, occurrences[index])


@dataclass(frozen=True, eq=False)
class MethodTable:
    """Unified methods in columns, and the columns of their occurrence rows.

    Per method: its identity key, fault flag, SLOC (the upper median over
    its occurrences) and the indices of its occurrence rows. Per row: the
    five tertile metrics and the model-free item bits. A row belongs to one
    method at most; `take` shares the row columns.
    """

    keys: Sequence[tuple]
    faulty: Sequence[bool]
    sloc: Sequence[int]
    occurrences: Sequence[Sequence[int]]
    metrics: tuple[Sequence[int], ...]
    fixed: Sequence[int]

    def __len__(self) -> int:
        return len(self.faulty)

    def take(self, indices: Sequence[int]) -> MethodTable:
        """The methods at `indices`, in that order."""

        def pick(column):
            return list(map(column.__getitem__, indices))

        return MethodTable(
            pick(self.keys), pick(self.faulty), pick(self.sloc), pick(self.occurrences),
            self.metrics, self.fixed,
        )

    def occurrence_rows(self) -> Sequence[int]:
        """Every occurrence row of the table's methods, in method order."""
        if isinstance(self.occurrences, _Spans):
            return range(self.occurrences.ends[-1] if len(self) else 0)
        return list(chain.from_iterable(self.occurrences))

    def projects(self) -> dict[str, range]:
        """The method index range of each project, for a table in identity
        order; computed once per table.

        Raises ValueError naming a project whose methods are not contiguous.
        """
        spans = self.__dict__.get("_projects")
        if spans is None:
            spans = {}
            start = 0
            for name, group in groupby(map(itemgetter(0), self.keys)):
                if name in spans:
                    raise ValueError(f"the methods of project {name!r} are not contiguous")
                end = start + len(list(group))
                spans[name] = range(start, end)
                start = end
            # The table is frozen; its instance dict still holds the cache.
            self.__dict__["_projects"] = spans
        return dict(spans)

    @classmethod
    def from_methods(cls, methods: Sequence[UnifiedMethod]) -> MethodTable:
        """The table of a unified method list, in list order.

        Only the fault flags, the occurrence row ends and the record list
        are built here: the metric columns are views that read the records
        in place, and identity keys, SLOC and each row's model-free item
        bits are computed when read. Nothing made per method or row outlives
        the build, which keeps the garbage collector and the memory out.
        """
        if not isinstance(methods, (list, tuple)):
            methods = list(methods)
        both = list(chain.from_iterable(map(_faulty_and_occurrences, methods)))
        faulty, groups = both[0::2], both[1::2]
        del both
        records = list(chain.from_iterable(groups))
        metrics = tuple(_MetricColumn(records, m) for m in range(_N_METRICS))
        occurrences = _Spans(array("q", accumulate(map(len, groups))))
        return cls(
            _Lazy(len(methods), _method_key, methods),
            faulty,
            _Lazy(len(methods), _method_sloc, (metrics[0], occurrences)),
            occurrences,
            metrics,
            _Lazy(len(records), _record_bits, records),
        )


def build_unified(rows: Rows) -> MethodTable:
    """Group rows into unified methods, in identity order.

    The first current-state row of an identity stands for it, unless the
    identity has faulty rows: then those are its occurrences, whether or
    not a current-state row exists (serialized unified datasets carry
    faulty rows of deleted methods by design).
    """
    keys, faulty = rows.keys, rows.faulty
    rows_of: dict[tuple, tuple[int, ...]] = {}  # the first current-state row, until
    faulty_rows: dict[tuple, list[int]] = {}  # faulty rows replace it below
    for row, key in enumerate(keys):
        if faulty[row]:
            faulty_rows.setdefault(key, []).append(row)
        elif key not in rows_of:
            rows_of[key] = (row,)
    rows_of.update((key, tuple(group)) for key, group in faulty_rows.items())
    order = sorted(rows_of)
    occurrences = list(map(rows_of.__getitem__, order))
    sloc = rows.metrics[0]
    return MethodTable(
        order,
        list(map(faulty_rows.__contains__, order)),
        [_upper_median(sloc, occ) for occ in occurrences],
        occurrences,
        rows.metrics,
        rows.fixed,
    )


# -- CSV schema -----------------------------------------------------------

IDENTITY_COLUMNS = list(MethodIdentity._fields[:5])  # the fields of MethodIdentity.key()
_METRIC_COLUMNS = ["sloc", "cc", "max_nesting", "max_chaining", "unique_vars"]
_CONSTRUCT_COLUMNS = [kind.column for kind in ConstructKind]
_DERIVED_COLUMNS = ["all_conditions", "all_arithmetic"]
_CATEGORY_COLUMNS = list(CategoryFlags._fields)

CSV_HEADER = (
    IDENTITY_COLUMNS
    + ["snapshot", "faulty"]
    + _METRIC_COLUMNS
    + _CONSTRUCT_COLUMNS
    + _DERIVED_COLUMNS
    + _CATEGORY_COLUMNS
)

# The integer columns in the order read_csv checks them: the construct
# counts, then the five metrics.
_COUNT_COLUMNS = _CONSTRUCT_COLUMNS + _METRIC_COLUMNS
_FLAG_COLUMNS = ["faulty"] + _CATEGORY_COLUMNS

_MAX_COUNT = 2**63 - 1  # counts and metrics are held in array('q') columns
# read_csv's fast path reads a count in its plain spelling below 1024 by
# lookup; any other spelling or value is parsed field by field.
_PLAIN_COUNTS = {str(n): n for n in range(1024)}
_BOOL = {"true": True, "false": False}
_BOOL_TEXT = {True: "true", False: "false"}
_SNAPSHOT = {s.value: s for s in Snapshot}


def _rows(records: Iterable[MethodRecord]):
    """The CSV row of each record: the identity and snapshot strings, the
    fault flag, the metrics and counts as ints, then the category flags."""
    flag = _BOOL_TEXT.__getitem__
    for identity, metrics, categories, faulty, snapshot in records:
        counts = metrics.construct_counts
        yield [
            *identity[:4], ";".join(identity.param_signature), snapshot.value, flag(faulty),
            *metrics[:5], *counts, sum(condition_counts(counts)), sum(arithmetic_counts(counts)),
            *map(flag, categories),
        ]


def write_csv(records: Iterable[MethodRecord], path: str | Path) -> None:
    """Write the header and one row per record; the csv writer formats the ints.

    Records may be a stream: each row is written as it comes. The rows go to
    a temporary file next to path, which replaces path only once every row
    is written, so a run that fails, in the stream or in the writing, leaves
    no partial CSV.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            writer.writerows(_rows(records))
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)  # left only when a row or the rename failed


def _parse_count(row_no: int, column: str, value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise SchemaError(f"row {row_no}: column {column!r}: expected integer, got {value!r}")
    if count < 0:
        raise SchemaError(f"row {row_no}: column {column!r}: expected non-negative integer, got {value!r}")
    if count > _MAX_COUNT:
        raise SchemaError(f"row {row_no}: column {column!r}: expected integer below 2**63, got {value!r}")
    return count


def _parse_bool(row_no: int, column: str, value: str) -> bool:
    try:
        return _BOOL[value.strip().lower()]
    except KeyError:
        raise SchemaError(f"row {row_no}: column {column!r}: expected true/false, got {value!r}")


def _parse_fields(row_no: int, row: list[str], at: dict[str, int]) -> tuple:
    """(faulty, counts, category flags) of one row, parsed field by field;
    raises a SchemaError naming the first bad field in snapshot, faulty,
    counts, categories order, then for a faulty row outside the faulty
    state."""
    text = row[at["snapshot"]]
    if text not in _SNAPSHOT:
        raise SchemaError(f"row {row_no}: column 'snapshot': unknown value {text!r}")
    faulty = _parse_bool(row_no, "faulty", row[at["faulty"]])
    counts = tuple(_parse_count(row_no, c, row[at[c]]) for c in _COUNT_COLUMNS)
    categories = [_parse_bool(row_no, c, row[at[c]]) for c in _CATEGORY_COLUMNS]
    if faulty and _SNAPSHOT[text] is not Snapshot.FAULTY:
        raise SchemaError(f"row {row_no}: {_FAULTY_STATE_ONLY}")
    return faulty, counts, categories


@contextmanager
def _csv_reader(path: str | Path):
    """A csv reader over the file. Errors name a row by `reader.line_num`, the
    file line on which the record ends, so a quoted line break counts; a
    csv.Error, such as a field over the csv module's size limit, becomes a
    SchemaError naming it too."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            yield reader
        except csv.Error as exc:
            raise SchemaError(f"row {reader.line_num}: {exc}") from None


def read_csv(path: str | Path) -> Rows:
    """Read a metrics CSV into row columns; raises SchemaError naming the
    offending column/row."""
    with _csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row")
        missing = [c for c in CSV_HEADER if c not in header]
        if missing:
            raise SchemaError(f"missing column(s): {', '.join(missing)}")
        at = {name: header.index(name) for name in CSV_HEADER}
        identity_of = itemgetter(*(at[c] for c in IDENTITY_COLUMNS))
        counts_of = itemgetter(*(at[c] for c in _COUNT_COLUMNS))
        head_of = itemgetter(*(at[c] for c in ["snapshot"] + _FLAG_COLUMNS))
        width = len(header)
        # (faulty, category bits) of each spelling of the snapshot, faulty
        # and category fields met so far that parsed and agree.
        heads: dict[tuple, tuple[bool, int]] = {}
        signatures: dict[str, tuple] = {}
        keys, faulty, fixed, metric_values = [], [], [], []
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                raise SchemaError(f"row {reader.line_num}: expected {width} fields, got {len(row)}")
            # The fast path takes known head spellings and plain counts only;
            # anything it refuses is parsed again field by field, which
            # accepts padded values and raises the SchemaError for a bad field.
            try:
                is_faulty, category_bits = heads[head_of(row)]
                counts = tuple(map(_PLAIN_COUNTS.__getitem__, counts_of(row)))
            except KeyError:
                is_faulty, counts, categories = _parse_fields(reader.line_num, row, at)
                category_bits = category_mask(categories)
                heads[head_of(row)] = is_faulty, category_bits
            project, file_path, type_name, method_name, signature = identity_of(row)
            params = signatures.get(signature)
            if params is None:
                params = signatures[signature] = tuple(filter(None, signature.split(";")))
            keys.append((project, file_path, type_name, method_name, params))
            faulty.append(is_faulty)
            fixed.append(count_items_mask(counts) | category_bits)
            metric_values.extend(counts[N_CONSTRUCT_KINDS:])
        metrics = tuple(array("q", metric_values[m::_N_METRICS]) for m in range(_N_METRICS))
        return Rows(keys, faulty, metrics, fixed)


def read_label_file(path: str | Path) -> set[tuple]:
    """Read a fault-label CSV keyed by identity columns with a faulty column."""
    with _csv_reader(path) as reader:
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty label file")
        missing = [c for c in IDENTITY_COLUMNS + ["faulty"] if c not in header]
        if missing:
            raise SchemaError(f"label file missing column(s): {', '.join(missing)}")
        identity_of = itemgetter(*map(header.index, IDENTITY_COLUMNS))
        faulty_at, width = header.index("faulty"), len(header)
        faulty_keys = set()
        for row in reader:
            if not row:
                continue
            if len(row) < width:
                raise SchemaError(f"row {reader.line_num}: expected {width} fields, got {len(row)}")
            if _parse_bool(reader.line_num, "faulty", row[faulty_at]):
                *identity, signature = identity_of(row)
                faulty_keys.add((*identity, tuple(filter(None, signature.split(";")))))
        return faulty_keys
