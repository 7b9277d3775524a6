"""Dataset assembly: method records, consolidation, unification, CSV I/O.

A record is one observation of a method (current state, or one faulty
occurrence). Faulty methods fixed several times appear once per fix; they
are consolidated to a single entry carrying all occurrences, so that
majority voting over the discretized attributes can be recomputed under
any discretization model without leaking test data into the vote.
"""

from __future__ import annotations

import csv
import statistics
import warnings
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Sequence

from lowrisk.errors import SchemaError, UnmatchedFaultyWarning
from lowrisk.java.analyzer import AnalyzedMethod, MethodIdentity
from lowrisk.java.metrics import N_CONSTRUCT_KINDS, CategoryFlags, ConstructKind, RawMetrics


class Snapshot(Enum):
    CURRENT = "CurrentState"
    FAULTY = "FaultyState"


@dataclass(frozen=True)
class MethodRecord:
    """One method observation: identity, metrics, categories, fault label."""

    identity: MethodIdentity
    metrics: RawMetrics
    categories: CategoryFlags
    faulty: bool = False
    snapshot: Snapshot = Snapshot.CURRENT

    def __post_init__(self):
        if self.faulty and self.snapshot is not Snapshot.FAULTY:
            raise ValueError("faulty records carry metrics computed at the faulty state")


@dataclass(frozen=True)
class UnifiedMethod:
    """One method after unification; faulty methods keep every occurrence."""

    identity: MethodIdentity
    faulty: bool
    occurrences: tuple[MethodRecord, ...]

    @property
    def sloc(self) -> int:
        # Upper median keeps single-occurrence methods exact and resolves
        # even-count ties consistently with the class-vote tie rule.
        return statistics.median_high([r.metrics.sloc for r in self.occurrences])


def from_analyzed(methods: Iterable[AnalyzedMethod], faulty: bool = False) -> list[MethodRecord]:
    snapshot = Snapshot.FAULTY if faulty else Snapshot.CURRENT
    return [
        MethodRecord(m.identity, m.metrics, m.categories, faulty=faulty, snapshot=snapshot)
        for m in methods
    ]


def consolidate_faulty(records: Sequence[MethodRecord]) -> list[UnifiedMethod]:
    """Collapse multiple faulty occurrences of the same method into one entry.

    All occurrences are retained; majority voting over discretized attributes
    happens at itemization time, once a discretization model is fixed.
    """
    by_key: dict[tuple, list[MethodRecord]] = {}
    order: list[tuple] = []
    for rec in records:
        if not rec.faulty:
            raise ValueError("consolidate_faulty expects faulty records only")
        key = rec.identity.key()
        if key not in by_key:
            by_key[key] = []
            order.append(key)
        by_key[key].append(rec)
    return [
        UnifiedMethod(by_key[key][0].identity, True, tuple(by_key[key])) for key in order
    ]


def _as_unified(item: MethodRecord | UnifiedMethod) -> UnifiedMethod:
    if isinstance(item, UnifiedMethod):
        return item
    return UnifiedMethod(item.identity, item.faulty, (item,))


def unify(
    all_methods: Sequence[MethodRecord | UnifiedMethod],
    faulty_consolidated: Sequence[UnifiedMethod],
    warn_unmatched: bool = True,
) -> list[UnifiedMethod]:
    """Build the unified dataset: each identity once, faulty entries replacing
    their current-state counterparts.

    Faulty identities absent from the current snapshot (deleted methods) are
    still included, with a warning diagnostic when warn_unmatched is set.
    """
    faulty_by_key = {u.identity.key(): u for u in faulty_consolidated}
    out: list[UnifiedMethod] = []
    seen: set[tuple] = set()
    for item in all_methods:
        u = _as_unified(item)
        key = u.identity.key()
        if key in seen:
            continue
        seen.add(key)
        out.append(faulty_by_key.get(key, u))
    for u in faulty_consolidated:
        key = u.identity.key()
        if key not in seen:
            seen.add(key)
            if warn_unmatched:
                warnings.warn(
                    f"faulty method {u.identity.type_name}.{u.identity.method_name} "
                    f"not found in current snapshot (deleted?)",
                    UnmatchedFaultyWarning,
                    stacklevel=2,
                )
            out.append(u)
    out.sort(key=lambda u: u.identity)
    return out


def build_unified(records: Sequence[MethodRecord]) -> list[UnifiedMethod]:
    """Standard assembly from a mixed record list (CSV contents).

    Serialized unified datasets carry faulty rows without a current-state
    counterpart by design, so the deleted-method diagnostic stays quiet here.
    """
    current = [r for r in records if not r.faulty]
    faulty = consolidate_faulty([r for r in records if r.faulty])
    return unify(current, faulty, warn_unmatched=False)


# -- CSV schema -----------------------------------------------------------

_IDENTITY_COLUMNS = ["project", "file_path", "type_name", "method_name", "param_signature"]
_METRIC_COLUMNS = ["sloc", "cc", "max_nesting", "max_chaining", "unique_vars"]
_CONSTRUCT_COLUMNS = [kind.column for kind in ConstructKind]
_DERIVED_COLUMNS = ["all_conditions", "all_arithmetic"]
_CATEGORY_COLUMNS = list(CategoryFlags.FIELDS)

CSV_HEADER = (
    _IDENTITY_COLUMNS
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

_BOOL = {"true": True, "false": False}
_SNAPSHOT = {s.value: s for s in Snapshot}


def _fmt_bool(value: bool) -> str:
    return "true" if value else "false"


def record_to_row(rec: MethodRecord) -> list[str]:
    m = rec.metrics
    row = [
        rec.identity.project,
        rec.identity.file_path,
        rec.identity.type_name,
        rec.identity.method_name,
        ";".join(rec.identity.param_signature),
        rec.snapshot.value,
        _fmt_bool(rec.faulty),
        str(m.sloc),
        str(m.cyclomatic_complexity),
        str(m.max_nesting),
        str(m.max_chaining),
        str(m.unique_variable_ids),
    ]
    row.extend(map(str, m.construct_counts))
    row.append(str(m.all_conditions))
    row.append(str(m.all_arithmetic))
    row.extend(_fmt_bool(getattr(rec.categories, f)) for f in CategoryFlags.FIELDS)
    return row


def write_csv(records: Iterable[MethodRecord], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in records:
            writer.writerow(record_to_row(rec))


def write_unified_csv(methods: Iterable[UnifiedMethod], path: str | Path) -> None:
    write_csv((rec for u in methods for rec in u.occurrences), path)


def _parse_count(row_no: int, column: str, value: str) -> int:
    try:
        count = int(value)
    except ValueError:
        raise SchemaError(f"row {row_no}: column {column!r}: expected integer, got {value!r}")
    if count < 0:
        raise SchemaError(f"row {row_no}: column {column!r}: expected non-negative integer, got {value!r}")
    return count


def _parse_bool(row_no: int, column: str, value: str) -> bool:
    try:
        return _BOOL[value.strip().lower()]
    except KeyError:
        raise SchemaError(f"row {row_no}: column {column!r}: expected true/false, got {value!r}")


def _parse_fields(row_no: int, row: list[str], at: dict[str, int]) -> tuple:
    """(snapshot, counts, flags) of one row, parsed field by field; raises a
    SchemaError naming the first bad field in snapshot, faulty, counts,
    categories order."""
    text = row[at["snapshot"]]
    if text not in _SNAPSHOT:
        raise SchemaError(f"row {row_no}: column 'snapshot': unknown value {text!r}")
    faulty = _parse_bool(row_no, "faulty", row[at["faulty"]])
    counts = tuple(_parse_count(row_no, c, row[at[c]]) for c in _COUNT_COLUMNS)
    flags = [faulty] + [_parse_bool(row_no, c, row[at[c]]) for c in _CATEGORY_COLUMNS]
    return _SNAPSHOT[text], counts, flags


def read_csv(path: str | Path) -> list[MethodRecord]:
    """Read a metrics CSV; raises SchemaError naming the offending column/row."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty file: missing header row")
        missing = [c for c in CSV_HEADER if c not in header]
        if missing:
            raise SchemaError(f"missing column(s): {', '.join(missing)}")
        at = {name: header.index(name) for name in CSV_HEADER}
        identity_of = itemgetter(*(at[c] for c in _IDENTITY_COLUMNS))
        counts_of = itemgetter(*(at[c] for c in _COUNT_COLUMNS))
        flags_of = itemgetter(*(at[c] for c in _FLAG_COLUMNS))
        snapshot_at = at["snapshot"]
        width = len(header)
        records = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) < width:
                raise SchemaError(f"row {row_no}: expected {width} fields, got {len(row)}")
            # The fast path takes exact spellings only; anything it refuses is
            # parsed again field by field, which accepts padded booleans and
            # raises the SchemaError for a bad field.
            try:
                snapshot = _SNAPSHOT[row[snapshot_at]]
                flags = list(map(_BOOL.__getitem__, flags_of(row)))
                counts = tuple(map(int, counts_of(row)))
                if min(counts) < 0:
                    raise ValueError
            except (KeyError, ValueError):
                snapshot, counts, flags = _parse_fields(row_no, row, at)
            faulty = flags[0]
            categories = CategoryFlags(*flags[1:])
            project, file_path, type_name, method_name, signature = identity_of(row)
            identity = MethodIdentity(
                project,
                file_path,
                type_name,
                method_name,
                tuple(filter(None, signature.split(";"))),
                categories.is_constructor,
            )
            metrics = RawMetrics(*counts[N_CONSTRUCT_KINDS:], counts[:N_CONSTRUCT_KINDS])
            try:
                records.append(
                    MethodRecord(identity, metrics, categories, faulty=faulty, snapshot=snapshot)
                )
            except ValueError as exc:
                raise SchemaError(f"row {row_no}: {exc}")
        return records


def read_label_file(path: str | Path) -> set[tuple]:
    """Read a fault-label CSV keyed by identity columns with a faulty column."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError("empty label file")
        required = _IDENTITY_COLUMNS + ["faulty"]
        missing = [c for c in required if c not in header]
        if missing:
            raise SchemaError(f"label file missing column(s): {', '.join(missing)}")
        idx = {name: header.index(name) for name in required}
        faulty_keys = set()
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if _parse_bool(row_no, "faulty", row[idx["faulty"]]):
                sig = tuple(p for p in row[idx["param_signature"]].split(";") if p)
                faulty_keys.add(
                    (
                        row[idx["project"]],
                        row[idx["file_path"]],
                        row[idx["type_name"]],
                        row[idx["method_name"]],
                        sig,
                    )
                )
        return faulty_keys
