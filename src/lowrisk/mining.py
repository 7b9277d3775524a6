"""Association rule mining targeted at a single consequent item.

Frequent antecedents are grown level-wise (Apriori) with downward-closure
pruning on the support of antecedent-plus-consequent. Transactions are held
as per-item bitmaps over the transaction list, so candidate counting is a
few big-integer ANDs and popcounts per candidate.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import AbstractSet, Iterable, Sequence

from lowrisk.discretize import item_mask
from lowrisk.errors import (
    AntecedentCapWarning,
    EmptyDatabaseError,
    ZeroAntecedentSupportError,
)


@dataclass(frozen=True)
class AssociationRule:
    """antecedent -> {consequent} with support and confidence over the DB."""

    antecedent: frozenset[str]
    consequent: str
    support: float
    confidence: float

    def __post_init__(self):
        if not self.antecedent:
            raise ValueError("antecedent must be non-empty")
        if self.consequent in self.antecedent:
            raise ValueError("antecedent and consequent must be disjoint")

    @cached_property
    def antecedent_mask(self) -> int:
        """The antecedent as an attribute item mask, computed on first use."""
        return item_mask(self.antecedent)

    def sort_key(self) -> tuple:
        return (
            -self.confidence,
            -self.support,
            len(self.antecedent),
            tuple(sorted(self.antecedent)),
        )

    def to_json(self) -> dict:
        return {
            "antecedent": sorted(self.antecedent),
            "consequent": self.consequent,
            "support": self.support,
            "confidence": self.confidence,
        }

    @classmethod
    def from_json(cls, data: dict) -> "AssociationRule":
        return cls(
            antecedent=frozenset(data["antecedent"]),
            consequent=data["consequent"],
            support=data["support"],
            confidence=data["confidence"],
        )


@dataclass(frozen=True)
class MiningConfig:
    min_support: float = 0.10
    min_confidence: float = 0.95
    max_antecedent_len: int = 8

    def __post_init__(self):
        if not (0 < self.min_support <= 0.5):
            raise ValueError("min_support must be in (0, 0.5]")
        if not (0 < self.min_confidence <= 1):
            raise ValueError("min_confidence must be in (0, 1]")
        if self.max_antecedent_len < 1:
            raise ValueError("max_antecedent_len must be at least 1")

    def to_json(self) -> dict:
        return {
            "min_support": self.min_support,
            "min_confidence": self.min_confidence,
            "max_antecedent_len": self.max_antecedent_len,
        }


def support(itemset: AbstractSet[str], transactions: Sequence[AbstractSet[str]]) -> float:
    """Fraction of transactions containing the whole itemset."""
    if len(transactions) == 0:
        raise EmptyDatabaseError("support is undefined on an empty database")
    itemset = frozenset(itemset)
    hits = sum(1 for t in transactions if itemset <= t)
    return hits / len(transactions)


def confidence(
    antecedent: AbstractSet[str], consequent: str, transactions: Sequence[AbstractSet[str]]
) -> float:
    """Fraction of antecedent-containing transactions that also hold the consequent."""
    if len(transactions) == 0:
        raise EmptyDatabaseError("confidence is undefined on an empty database")
    antecedent = frozenset(antecedent)
    n_ant = sum(1 for t in transactions if antecedent <= t)
    if n_ant == 0:
        raise ZeroAntecedentSupportError(f"antecedent {sorted(antecedent)} never occurs")
    n_both = sum(1 for t in transactions if antecedent <= t and consequent in t)
    return n_both / n_ant


def mine(
    transactions: Sequence[AbstractSet[str]],
    cfg: MiningConfig,
    target: str = "NotFaulty",
) -> list[AssociationRule]:
    """Mine all rules {A} -> {target} meeting the support/confidence thresholds.

    Returns exactly the rules with support >= min_support, confidence >=
    min_confidence, and 1 <= |A| <= max_antecedent_len, in canonical order
    (confidence desc, support desc, antecedent size asc, item names).
    """
    n = len(transactions)
    if n == 0:
        raise EmptyDatabaseError("cannot mine an empty database")

    # Vertical representation: per item, a bitmap of the transactions holding it.
    item_bits: dict[str, int] = {}
    for t_idx, t in enumerate(transactions):
        bit = 1 << t_idx
        for item in t:
            item_bits[item] = item_bits.get(item, 0) | bit
    target_bits = item_bits.get(target, 0)

    items = sorted(name for name in item_bits if name != target)
    rules: list[AssociationRule] = []

    # Level 1: singleton antecedents frequent together with the target.
    level: dict[tuple[str, ...], int] = {}
    for name in items:
        bits = item_bits[name]
        both = bits & target_bits
        if both.bit_count() / n >= cfg.min_support:
            level[(name,)] = bits
            n_ant = bits.bit_count()
            n_both = both.bit_count()
            conf = n_both / n_ant
            if conf >= cfg.min_confidence:
                rules.append(
                    AssociationRule(frozenset((name,)), target, n_both / n, conf)
                )

    size = 1
    while level and size < cfg.max_antecedent_len:
        size += 1
        prev_keys = set(level)
        candidates: dict[tuple[str, ...], int] = {}
        by_prefix: dict[tuple[str, ...], list[str]] = {}
        for key in sorted(level):
            by_prefix.setdefault(key[:-1], []).append(key[-1])
        for prefix, lasts in by_prefix.items():
            for a, b in combinations(lasts, 2):
                cand = prefix + (a, b)
                # Downward closure: every (size-1)-subset must be frequent.
                if any(sub not in prev_keys for sub in combinations(cand, size - 1)):
                    continue
                candidates[cand] = level[prefix + (a,)] & item_bits[b]
        level = {}
        for cand, bits in candidates.items():
            both = bits & target_bits
            if both.bit_count() / n >= cfg.min_support:
                level[cand] = bits
                n_ant = bits.bit_count()
                n_both = both.bit_count()
                conf = n_both / n_ant
                if conf >= cfg.min_confidence:
                    rules.append(AssociationRule(frozenset(cand), target, n_both / n, conf))
    if level and size == cfg.max_antecedent_len:
        warnings.warn(
            f"frequent itemsets reached the antecedent length cap ({cfg.max_antecedent_len})",
            AntecedentCapWarning,
            stacklevel=2,
        )
    rules.sort(key=AssociationRule.sort_key)
    return rules


def prune_redundant(rules: Iterable[AssociationRule]) -> list[AssociationRule]:
    """Drop rules dominated by a strictly more general rule with >= confidence.

    Processing antecedents in ascending size order means checking survivors
    is sufficient: any removed dominator is itself dominated by a smaller
    survivor that also dominates the rule at hand.
    """
    ordered = sorted(rules, key=lambda r: (len(r.antecedent),) + r.sort_key())
    survivors: list[AssociationRule] = []
    for rule in ordered:
        dominated = any(
            s.antecedent < rule.antecedent and s.confidence >= rule.confidence
            for s in survivors
        )
        if not dominated:
            survivors.append(rule)
    survivors.sort(key=AssociationRule.sort_key)
    return survivors
