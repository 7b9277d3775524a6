"""Tertile discretization and binary itemization of the rows of a method table.

The five numeric metrics are split into three classes at the sorted
one-third and two-thirds boundary values, extended to the last occurrence
of each boundary value so equal values never straddle a class border.
Count metrics become "has-no" items (true iff the count is zero), and the
category flags pass through unchanged. The resulting item vocabulary is
fixed and identical across projects. Its names are derived, in CamelCase,
from the names that own them: the first five `RawMetrics` fields with a
third, "No" before each `ConstructKind` CSV column, and the `CategoryFlags`
fields; only the two derived has-no items are spelled out.

An item vector is one int mask: bit i is set iff ATTRIBUTE_ITEMS[i] holds.
The fault label is not part of it: the table's fault flag says which class
a method belongs to. The same mask is balanced, mined, and matched against
rule antecedent masks; item names appear only where rules are written or
read (`item_names`, `item_mask`). `transpose` turns a list of masks into
the per-attribute bitmaps that mining and the balancer's kNN count with.

Both layers read a `MethodTable` (see `lowrisk.dataset`) by index.
`fit_discretization` counts the values of the table's five metric columns
over its occurrence rows and reads the tertile bounds off the sorted
distinct values; the model holds them as one (class1_upper, class2_upper)
pair per metric, the form `itemize` bisects into. The 34 bits that need no model (26 has-no, 2 derived,
6 category) are computed once per row when the table is loaded
(`count_items_mask`, `category_mask`); `itemize` ORs in the 5 tertile bits
it gets by bisecting a row's metrics into the model's bounds. A method with
several occurrence rows gets the majority vote of their masks, counted
bit-sliced: one mask per count level, so every attribute is counted at once.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter, lshift, not_
from typing import TYPE_CHECKING, Iterable, Sequence

from lowrisk.errors import DegenerateDistributionWarning, SchemaError, VocabularyMismatchError
from lowrisk.java.metrics import (
    CategoryFlags, ConstructKind, RawMetrics, arithmetic_counts, condition_counts,
)

if TYPE_CHECKING:
    from lowrisk.dataset import MethodTable


def _camel(snake: str) -> str:
    """sloc_like_name -> SlocLikeName."""
    return "".join(part.capitalize() for part in snake.split("_"))


# The five tertile metrics are the RawMetrics fields before the counts.
TERTILE_METRICS: tuple[str, ...] = RawMetrics._fields[:5]

_THIRDS = ("LowestThird", "MiddleThird", "HighestThird")

# One has-no item per construct count column, in ConstructKind order.
_NO_ITEMS = tuple("No" + _camel(kind.column) for kind in ConstructKind)

_DERIVED_NO_ITEMS = ("NoConditions", "NoArithmeticOperations")

_CATEGORY_ITEMS = tuple(map(_camel, CategoryFlags._fields))  # IsConstructor, ..., IsToString

LABEL_NOT_FAULTY = "NotFaulty"

ATTRIBUTE_ITEMS: tuple[str, ...] = (
    tuple(_camel(metric) + third for metric in TERTILE_METRICS for third in _THIRDS)
    + _NO_ITEMS
    + _DERIVED_NO_ITEMS
    + _CATEGORY_ITEMS
)

VOCABULARY: tuple[str, ...] = ATTRIBUTE_ITEMS + (LABEL_NOT_FAULTY,)

_ITEM_BIT: dict[str, int] = {name: 1 << i for i, name in enumerate(ATTRIBUTE_ITEMS)}
_N_TERTILE_BITS = 3 * len(TERTILE_METRICS)
_LOWEST_THIRD_BITS = tuple(1 << (3 * m) for m in range(len(TERTILE_METRICS)))
_NO_ITEM_BITS = tuple(map(_ITEM_BIT.__getitem__, _NO_ITEMS))
_NO_CONDITIONS_BIT, _NO_ARITHMETIC_BIT = map(_ITEM_BIT.__getitem__, _DERIVED_NO_ITEMS)
# The has-no bits whose conjunction is NoConditions, and NoArithmeticOperations.
_CONDITION_NO_BITS = sum(condition_counts(_NO_ITEM_BITS))
_ARITHMETIC_NO_BITS = sum(arithmetic_counts(_NO_ITEM_BITS))
_CATEGORY_BITS = tuple(map(_ITEM_BIT.__getitem__, _CATEGORY_ITEMS))
# The three class bits of each tertile metric and the highest of them; every other bit is a flag.
_TERTILE_GROUPS = tuple((7 << low, 4 << low) for low in range(0, _N_TERTILE_BITS, 3))
_FLAG_BITS = (1 << len(ATTRIBUTE_ITEMS)) - (1 << _N_TERTILE_BITS)


_NAMED_BITS = tuple((name, 1 << i) for i, name in enumerate(ATTRIBUTE_ITEMS))
# Per bit position b, the byte table mapping each byte to b"1" if its bit b is set, else b"0".
_BIT_DIGITS = tuple(bytes(ord("01"[v >> b & 1]) for v in range(256)) for b in range(8))


def item_names(mask: int) -> frozenset[str]:
    """The names of the attribute items whose bits are set in the mask."""
    return frozenset(name for name, bit in _NAMED_BITS if mask & bit)


def transpose(masks: Sequence[int]) -> list[int]:
    """Per bit position a, up to the highest bit set in any of the masks (all
    below 2**64), the bitmap whose bit t is bit a of masks[t].

    The masks are packed as 8-byte words; bit a of every word is read out at
    once by a byte slice and a digit table, then parsed as a binary number.
    """
    words = array("Q", masks)
    if sys.byteorder == "big":
        words.byteswap()
    raw = words.tobytes()
    return [
        int(raw[a >> 3 :: 8].translate(_BIT_DIGITS[a & 7])[::-1], 2)
        for a in range(max(masks, default=0).bit_length())
    ]


def item_mask(names: Iterable[str]) -> int:
    """Mask with the bit of every named attribute item set."""
    mask = 0
    for name in names:
        bit = _ITEM_BIT.get(name)
        if bit is None:
            raise VocabularyMismatchError(f"{name!r} is not an attribute item")
        mask |= bit
    return mask


@dataclass(frozen=True)
class DiscretizationModel:
    """Per-metric tertile boundaries, persisted so prediction reuses them.

    `bounds` holds one (class1_upper, class2_upper) pair per metric, in
    TERTILE_METRICS order: a value is in class 1 up to class1_upper, in
    class 2 up to class2_upper, and in class 3 above it, so bisect_left of a
    value into its pair is its class minus one.
    """

    bounds: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            metric: {"class1_upper": c1, "class2_upper": c2}
            for metric, (c1, c2) in zip(TERTILE_METRICS, self.bounds)
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiscretizationModel":
        bounds = []
        for metric in TERTILE_METRICS:
            entry = data.get(metric)
            if not isinstance(entry, dict):
                raise SchemaError(f"discretization model missing metric {metric!r}")
            for key in ("class1_upper", "class2_upper"):
                if not isinstance(entry.get(key), (int, float)) or isinstance(entry.get(key), bool):
                    raise SchemaError(f"discretization model metric {metric!r} has no {key!r} bound")
            # itemize bisects a value into the pair, so it must be ordered (NaN is not).
            if not entry["class1_upper"] <= entry["class2_upper"]:
                raise SchemaError(
                    f"discretization model metric {metric!r} needs class1_upper <= class2_upper"
                )
            bounds.append((entry["class1_upper"], entry["class2_upper"]))
        return cls(tuple(bounds))


def _counted_bounds(counts: Counter, n: int) -> tuple[int, int]:
    """The values at ranks ceil(n/3) - 1 and ceil(2n/3) - 1 of n counted
    values in sorted order."""
    rank1, rank2 = math.ceil(n / 3) - 1, math.ceil(2 * n / 3) - 1
    seen, c1 = 0, None
    for value in sorted(counts):
        seen += counts[value]
        if c1 is None and seen > rank1:
            c1 = value
        if seen > rank2:
            return c1, value


def fit_discretization(table: MethodTable) -> DiscretizationModel:
    """Fit tertile boundaries over every occurrence row of the table's
    methods (training data only)."""
    rows = table.occurrence_rows()
    if len(rows) < 3:
        raise ValueError(f"need at least 3 records to fit tertiles, got {len(rows)}")
    # A row belongs to one method at most, so as many rows as the columns
    # hold are all of them.
    gather = None if len(rows) == len(table.metrics[0]) else itemgetter(*rows)
    bounds = []
    for metric, column in zip(TERTILE_METRICS, table.metrics):
        counts = Counter(column if gather is None else gather(column))
        if len(counts) == 1:
            warnings.warn(
                f"metric {metric!r} has a single distinct value ({next(iter(counts))}); "
                "all methods map to class 1",
                DegenerateDistributionWarning,
                stacklevel=2,
            )
        bounds.append(_counted_bounds(counts, len(rows)))
    return DiscretizationModel(tuple(bounds))


def count_items_mask(construct_counts: Sequence[int]) -> int:
    """The 26 has-no bits and the 2 derived ones of a row's construct counts,
    given in ConstructKind order (later entries are ignored)."""
    # Each sum adds distinct bits, so it is their union.
    mask = sum(compress(_NO_ITEM_BITS, map(not_, construct_counts)))
    if mask & _CONDITION_NO_BITS == _CONDITION_NO_BITS:
        mask |= _NO_CONDITIONS_BIT
    if mask & _ARITHMETIC_NO_BITS == _ARITHMETIC_NO_BITS:
        mask |= _NO_ARITHMETIC_BIT
    return mask


def category_mask(flags: Iterable[bool]) -> int:
    """The 6 category bits of flags given in CategoryFlags field order."""
    return sum(compress(_CATEGORY_BITS, flags))


def _vote(masks: Sequence[int]) -> int:
    """Majority vote per attribute; a class tie goes to the higher class, a flag tie to true.

    The masks are counted bit-sliced: after them, bit i of at_least[j] is
    set iff bit i is set in more than j of the masks.
    """
    n = len(masks)
    at_least = [0] * n
    for mask in masks:
        for j in range(n - 1, 0, -1):
            at_least[j] |= at_least[j - 1] & mask
        at_least[0] |= mask
    # 2 * count >= n, that is count > (n + 1) // 2 - 1.
    voted = at_least[(n + 1) // 2 - 1] & _FLAG_BITS
    for group, top in _TERTILE_GROUPS:
        # The highest class with the highest count: the highest bit of the
        # group in the highest level that meets it, or the top bit if none does.
        for level in reversed(at_least):
            if level & group:
                top = 1 << ((level & group).bit_length() - 1)
                break
        voted |= top
    return voted


def _row_mask(table: MethodTable, row: int, bounds: tuple) -> int:
    """The item mask of one occurrence row: its model-free bits and the class
    bit of each tertile metric."""
    sloc, cc, nesting, chaining, variables = table.metrics
    values = (sloc[row], cc[row], nesting[row], chaining[row], variables[row])
    # Each sum adds distinct bits, so it is their union.
    return table.fixed[row] | sum(map(lshift, _LOWEST_THIRD_BITS, map(bisect_left, bounds, values)))


def itemize(table: MethodTable, index: int, model: DiscretizationModel) -> int:
    """The item mask of the table's method at `index`.

    For methods with several faulty occurrences, each attribute is set by
    majority vote over the per-occurrence discretized values.
    """
    rows, bounds = table.occurrences[index], model.bounds
    if len(rows) == 1:
        return _row_mask(table, rows[0], bounds)
    return _vote([_row_mask(table, row, bounds) for row in rows])
