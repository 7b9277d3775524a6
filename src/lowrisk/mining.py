"""Association rule mining targeted at a single consequent item.

Antecedents are grown level-wise (Apriori) with downward-closure pruning on
the support of antecedent-plus-consequent. Transactions are held as
per-item bitmaps over the transaction list, so candidate counting is a few
big-integer ANDs and popcounts per candidate.

The walk visits only generators (free itemsets: no (k-1)-subset covers the
same transactions), after Bastide et al. 2000 and Zaki 2000. A candidate
whose bitmap popcount equals that of one of its (k-1)-subsets is dropped:
that subset covers the same transactions, so it has the same confidence
with a smaller antecedent, and no superset of the candidate is a generator
either. An itemset with confidence 1 yields its rule but is not extended,
since its rule dominates those of all its supersets. Singletons are never
compared with the empty set. A final `prune_redundant` pass drops the
generator rules that a subset with higher confidence still dominates, so
`mine` returns the non-redundant rules directly.
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
    stats: dict | None = None,
) -> list[AssociationRule]:
    """Mine the non-redundant rules {A} -> {target} meeting the thresholds.

    Returns exactly `prune_redundant` of the rules with support >=
    min_support, confidence >= min_confidence and 1 <= |A| <=
    max_antecedent_len, in canonical order (confidence desc, support desc,
    antecedent size asc, item names). When `stats` is a dict, the number of
    rules the generator walk emits is stored under `rules_mined` and the
    number left after the dominance pass under `rules_kept`.
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
    # The live itemsets of a level: transaction bitmap and its popcount.
    level: dict[tuple[str, ...], int] = {}
    counts: dict[tuple[str, ...], int] = {}

    def visit(cand: tuple[str, ...], bits: int, n_ant: int) -> None:
        """Emit cand's rule if it qualifies; keep cand alive unless confidence is 1."""
        n_both = (bits & target_bits).bit_count()
        if n_both / n < cfg.min_support:
            return
        conf = n_both / n_ant
        if conf >= cfg.min_confidence:
            rules.append(AssociationRule(frozenset(cand), target, n_both / n, conf))
        if n_both < n_ant:
            level[cand] = bits
            counts[cand] = n_ant

    # Singletons are never compared with the empty set: an item held by
    # every transaction still yields a rule.
    for name in items:
        bits = item_bits[name]
        visit((name,), bits, bits.bit_count())

    size = 1
    while level and size < cfg.max_antecedent_len:
        size += 1
        prev, prev_counts = level, counts
        level, counts = {}, {}
        by_prefix: dict[tuple[str, ...], list[str]] = {}
        for key in sorted(prev):
            by_prefix.setdefault(key[:-1], []).append(key[-1])
        for prefix, lasts in by_prefix.items():
            for a, b in combinations(lasts, 2):
                cand = prefix + (a, b)
                # Every (size-1)-subset must be alive: frequent, a generator
                # and below confidence 1.
                sub_counts = [prev_counts.get(sub) for sub in combinations(cand, size - 1)]
                if None in sub_counts:
                    continue
                bits = prev[prefix + (a,)] & item_bits[b]
                n_ant = bits.bit_count()
                # A subset's bitmap contains the candidate's, so equal counts
                # mean equal bitmaps: the candidate is no generator.
                if n_ant < min(sub_counts):
                    visit(cand, bits, n_ant)
    if level and size == cfg.max_antecedent_len:
        warnings.warn(
            f"generators are still alive at the antecedent length cap ({cfg.max_antecedent_len})",
            AntecedentCapWarning,
            stacklevel=2,
        )
    kept = prune_redundant(rules)
    if stats is not None:
        stats["rules_mined"] = len(rules)
        stats["rules_kept"] = len(kept)
    return kept


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
