"""Low-fault-risk classifier: ordered rule list with a budgeted top-n prefix.

A method is classified "low fault risk" when at least one of the top n
rules matches (logical or). n is the largest prefix length whose matched
methods contain at most budget * (all faulty methods) faulty methods in
the original, unbalanced training set. Methods and rule antecedents are
both item masks, so a rule matches a method when its antecedent has no bit
that the method's mask lacks.

An `LfrClassifier` is the ordered rules, n and the budget; its variant is
the key it is stored under in `TrainedModel.classifiers`, and the item
vocabulary is checked once, when `TrainedModel.from_json` reads a file.
`matched_rule_index` returns None for a method that is not classified.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence

from lowrisk.errors import NoAdmissibleRulesWarning
from lowrisk.mining import AssociationRule

_BUDGET_EPS = 1e-9


class Variant(Enum):
    STRICT = "strict"
    LENIENT = "lenient"


def order_rules(rules: Iterable[AssociationRule]) -> list[AssociationRule]:
    """Canonical rule order: confidence desc, support desc, size, item names."""
    return sorted(rules, key=AssociationRule.sort_key)


def select_prefix(
    ordered_rules: Sequence[AssociationRule], faulty_masks: Sequence[int], budget: float
) -> int:
    """Largest n whose top-n prefix matches at most budget * all faults.

    faulty_masks are the item masks of the faulty methods of the original
    (pre-balancing) training set; only faults count against the budget.
    Each distinct mask is scanned once, and each rule rescans only the masks
    that no earlier rule matched.
    """
    if not faulty_masks:
        raise ValueError("training set contains no faulty methods")
    allowed = budget * len(faulty_masks) + _BUDGET_EPS
    unmatched = list(Counter(faulty_masks).items())
    faulty_matched = 0
    n = 0
    for rule in ordered_rules:
        antecedent = rule.antecedent_mask
        still_unmatched = []
        for mask, count in unmatched:
            if antecedent & ~mask:
                still_unmatched.append((mask, count))
            else:
                faulty_matched += count
        unmatched = still_unmatched
        if faulty_matched > allowed:
            break
        n += 1
    if n == 0 and ordered_rules:
        warnings.warn(
            "even the single top rule exceeds the fault budget; "
            "the classifier will match nothing",
            NoAdmissibleRulesWarning,
            stacklevel=2,
        )
    return n


@dataclass(frozen=True)
class LfrClassifier:
    """Ordered rules, the selected prefix length n and the fault budget it was selected for."""

    ordered_rules: tuple[AssociationRule, ...]
    n: int
    budget: float

    @cached_property
    def _active_masks(self) -> tuple[int, ...]:
        """Antecedent masks of the top-n rules, computed on first use."""
        return tuple(rule.antecedent_mask for rule in self.ordered_rules[: self.n])

    def matched_rule_index(self, mask: int) -> int | None:
        """Index (into the ordered list) of the first top-n rule matching the
        item mask; None when none matches, so the method is not classified."""
        absent = ~mask
        for idx, antecedent in enumerate(self._active_masks):
            if not antecedent & absent:
                return idx
        return None
