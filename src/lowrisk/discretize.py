"""Tertile discretization and binary itemization of method records.

The five numeric metrics are split into three classes at the sorted
one-third and two-thirds boundary values, extended to the last occurrence
of each boundary value so equal values never straddle a class border.
Count metrics become "has-no" items (true iff the count is zero), and the
category flags pass through unchanged. The resulting item vocabulary is
fixed and identical across projects.

An item vector is one int mask: bit i is set iff ATTRIBUTE_ITEMS[i] holds.
The same mask is balanced, matched against rule antecedent masks, and
expanded into item names only for the miner's transactions.
"""

from __future__ import annotations

import math
import warnings
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from operator import attrgetter, lshift, not_
from typing import Iterable, Mapping, Sequence

from lowrisk.dataset import MethodRecord, UnifiedMethod
from lowrisk.errors import DegenerateDistributionWarning, SchemaError, VocabularyMismatchError
from lowrisk.java.metrics import CategoryFlags, ConstructKind, arithmetic_counts, condition_counts

TERTILE_METRICS = (
    ("sloc", "Sloc"),
    ("cyclomatic_complexity", "CyclomaticComplexity"),
    ("max_nesting", "MaxNesting"),
    ("max_chaining", "MaxChaining"),
    ("unique_variable_ids", "UniqueVariableIds"),
)

_THIRDS = ("LowestThird", "MiddleThird", "HighestThird")

NO_ITEM_NAMES: dict[ConstructKind, str] = {
    ConstructKind.METHOD_INVOCATION: "NoMethodInvocations",
    ConstructKind.IF_CONDITION: "NoIfConditions",
    ConstructKind.ELSE_BLOCK: "NoElseBlocks",
    ConstructKind.SWITCH_CASE_BLOCK: "NoSwitchCaseBlocks",
    ConstructKind.TERNARY_OPERATION: "NoTernaryOperations",
    ConstructKind.LOOP: "NoLoops",
    ConstructKind.TRY_BLOCK: "NoTryBlocks",
    ConstructKind.CATCH_CLAUSE: "NoCatchClauses",
    ConstructKind.FINALLY_BLOCK: "NoFinallyBlocks",
    ConstructKind.THROW_STATEMENT: "NoThrowStatements",
    ConstructKind.RETURN_STATEMENT: "NoReturnStatements",
    ConstructKind.CAST_EXPRESSION: "NoCastExpressions",
    ConstructKind.INSTANCEOF_EXPRESSION: "NoInstanceofExpressions",
    ConstructKind.NULL_LITERAL: "NoNullLiterals",
    ConstructKind.NULL_CHECK: "NoNullChecks",
    ConstructKind.ARITHMETIC_INFIX_OP: "NoArithmeticInfixOps",
    ConstructKind.INCREMENTATION: "NoIncrementations",
    ConstructKind.DECREMENTATION: "NoDecrementations",
    ConstructKind.LOGICAL_OPERATOR: "NoLogicalOperators",
    ConstructKind.COMPARISON_OPERATOR: "NoComparisonOperators",
    ConstructKind.ASSIGNMENT: "NoAssignments",
    ConstructKind.ARRAY_ACCESS: "NoArrayAccesses",
    ConstructKind.ARRAY_CREATION: "NoArrayCreations",
    ConstructKind.OBJECT_CREATION: "NoObjectCreations",
    ConstructKind.STRING_LITERAL: "NoStringLiterals",
    ConstructKind.ANONYMOUS_CLASS: "NoAnonymousClasses",
}

_DERIVED_NO_ITEMS = ("NoConditions", "NoArithmeticOperations")

_CATEGORY_ITEMS = tuple(
    "Is" + "".join(part.capitalize() for part in f[3:].split("_")) for f in CategoryFlags.FIELDS
)
# -> IsConstructor, IsGetter, IsSetter, IsEmpty, IsDelegation, IsToString

LABEL_NOT_FAULTY = "NotFaulty"
LABEL_FAULTY = "Faulty"

ATTRIBUTE_ITEMS: tuple[str, ...] = (
    tuple(f"{prefix}{third}" for _, prefix in TERTILE_METRICS for third in _THIRDS)
    + tuple(NO_ITEM_NAMES[kind] for kind in ConstructKind)
    + _DERIVED_NO_ITEMS
    + _CATEGORY_ITEMS
)

VOCABULARY: tuple[str, ...] = ATTRIBUTE_ITEMS + (LABEL_NOT_FAULTY,)

_ITEM_BIT: dict[str, int] = {name: 1 << i for i, name in enumerate(ATTRIBUTE_ITEMS)}
_N_TERTILE_BITS = 3 * len(TERTILE_METRICS)
_LOWEST_THIRD_BITS = tuple(1 << (3 * m) for m in range(len(TERTILE_METRICS)))
_NO_ITEM_BITS = tuple(_ITEM_BIT[NO_ITEM_NAMES[kind]] for kind in ConstructKind)
_NO_CONDITIONS_BIT = _ITEM_BIT["NoConditions"]
_NO_ARITHMETIC_BIT = _ITEM_BIT["NoArithmeticOperations"]
_CATEGORY_BITS = tuple(_ITEM_BIT[name] for name in _CATEGORY_ITEMS)
_tertile_values = attrgetter(*(metric for metric, _ in TERTILE_METRICS))
_category_values = attrgetter(*CategoryFlags.FIELDS)


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
class MetricBounds:
    class1_upper: int
    class2_upper: int

    def classify(self, value) -> int:
        if value <= self.class1_upper:
            return 1
        if value <= self.class2_upper:
            return 2
        return 3


@dataclass(frozen=True)
class DiscretizationModel:
    """Per-metric tertile boundaries, persisted so prediction reuses them."""

    bounds: Mapping[str, MetricBounds]

    def classify(self, metric: str, value) -> int:
        return self.bounds[metric].classify(value)

    @cached_property
    def _upper_bounds(self) -> tuple[tuple[int, int], ...]:
        """(class1_upper, class2_upper) per metric, in TERTILE_METRICS order;
        bisect_left of a value into a pair is its class minus one."""
        return tuple(
            (self.bounds[metric].class1_upper, self.bounds[metric].class2_upper)
            for metric, _ in TERTILE_METRICS
        )

    def to_json(self) -> dict:
        return {
            metric: {"class1_upper": b.class1_upper, "class2_upper": b.class2_upper}
            for metric, b in self.bounds.items()
        }

    @classmethod
    def from_json(cls, data: dict) -> "DiscretizationModel":
        bounds = {}
        for metric, _ in TERTILE_METRICS:
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
            bounds[metric] = MetricBounds(entry["class1_upper"], entry["class2_upper"])
        return cls(bounds)


def tertile_bounds(values: Sequence) -> MetricBounds:
    """Boundary values at the end of the first and second sorted thirds."""
    if not values:
        raise ValueError("no values to discretize")
    ordered = sorted(values)
    n = len(ordered)
    c1 = ordered[math.ceil(n / 3) - 1]
    c2 = ordered[math.ceil(2 * n / 3) - 1]
    return MetricBounds(c1, c2)


def fit_discretization(records: Iterable[MethodRecord]) -> DiscretizationModel:
    """Fit tertile boundaries over all given records (training data only)."""
    records = list(records)
    if len(records) < 3:
        raise ValueError(f"need at least 3 records to fit tertiles, got {len(records)}")
    bounds = {}
    for metric, _ in TERTILE_METRICS:
        values = [getattr(r.metrics, metric) for r in records]
        if len(set(values)) == 1:
            warnings.warn(
                f"metric {metric!r} has a single distinct value ({values[0]}); "
                "all methods map to class 1",
                DegenerateDistributionWarning,
                stacklevel=2,
            )
        bounds[metric] = tertile_bounds(values)
    return DiscretizationModel(bounds)


@dataclass(frozen=True)
class ItemVector:
    """Binary attribute items as an int mask (bit i is ATTRIBUTE_ITEMS[i]) plus the fault label."""

    items: int
    label_item: str  # LABEL_FAULTY or LABEL_NOT_FAULTY

    def __post_init__(self):
        if not isinstance(self.items, int) or self.items < 0 or self.items >> len(ATTRIBUTE_ITEMS):
            raise ValueError(f"expected a mask over {len(ATTRIBUTE_ITEMS)} items, got {self.items!r}")
        if self.label_item not in (LABEL_FAULTY, LABEL_NOT_FAULTY):
            raise ValueError(f"unknown label item {self.label_item!r}")

    @property
    def not_faulty(self) -> bool:
        return self.label_item == LABEL_NOT_FAULTY

    def to_itemset(self) -> frozenset[str]:
        """Transaction view for the miner: true attribute items plus the NotFaulty item."""
        mask = self.items
        names = [name for i, name in enumerate(ATTRIBUTE_ITEMS) if mask >> i & 1]
        if self.not_faulty:
            names.append(LABEL_NOT_FAULTY)
        return frozenset(names)


def _record_mask(record: MethodRecord, model: DiscretizationModel) -> int:
    """The item mask of one occurrence."""
    metrics = record.metrics
    counts = metrics.construct_counts
    # Each sum adds distinct bits, so it is their union.
    mask = sum(
        map(lshift, _LOWEST_THIRD_BITS, map(bisect_left, model._upper_bounds, _tertile_values(metrics)))
    )
    mask |= sum(compress(_NO_ITEM_BITS, map(not_, counts)))
    if not any(condition_counts(counts)):
        mask |= _NO_CONDITIONS_BIT
    if not any(arithmetic_counts(counts)):
        mask |= _NO_ARITHMETIC_BIT
    return mask | sum(compress(_CATEGORY_BITS, _category_values(record.categories)))


def _vote(masks: Sequence[int]) -> int:
    """Majority vote per attribute; a class tie goes to the higher class, a flag tie to true."""
    n = len(masks)
    counts = [sum(mask >> i & 1 for mask in masks) for i in range(len(ATTRIBUTE_ITEMS))]
    voted = 0
    for low in range(0, _N_TERTILE_BITS, 3):
        voted |= 1 << max(range(low, low + 3), key=lambda i: (counts[i], i))
    for i in range(_N_TERTILE_BITS, len(ATTRIBUTE_ITEMS)):
        if counts[i] * 2 >= n:
            voted |= 1 << i
    return voted


def itemize(method: UnifiedMethod | MethodRecord, model: DiscretizationModel) -> ItemVector:
    """Build the binary item vector for one (unified) method.

    For methods with several faulty occurrences, each attribute is set by
    majority vote over the per-occurrence discretized values.
    """
    if isinstance(method, MethodRecord):
        occurrences = (method,)
    else:
        occurrences = method.occurrences
    if len(occurrences) == 1:
        mask = _record_mask(occurrences[0], model)
    else:
        mask = _vote([_record_mask(r, model) for r in occurrences])
    return ItemVector(mask, LABEL_FAULTY if method.faulty else LABEL_NOT_FAULTY)
