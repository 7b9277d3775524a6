"""Association rule mining targeted at the NotFaulty consequent.

Antecedents are grown level-wise (Apriori) with downward-closure pruning on
the support of antecedent-plus-consequent. Transactions are the item masks
of a training set's two classes; they are held vertically, as one bitmap
over the transactions per attribute item (`discretize.transpose`) plus one
for the NotFaulty class, after Zaki 2000 (Eclat) and Burdick et al. 2001
(MAFIA). Candidates and their antecedents are item masks too, so candidate
counting is a few big-integer ANDs and popcounts per candidate. A candidate
is joined from two itemsets that share all but their highest item; its count
is checked against theirs first, and only then are its other subsets looked
up.

The walk visits only generators (free itemsets: no (k-1)-subset covers the
same transactions), after Bastide et al. 2000 and Zaki 2000. A candidate
whose bitmap popcount equals that of one of its (k-1)-subsets is dropped:
that subset covers the same transactions, so it has the same confidence
with a smaller antecedent, and no superset of the candidate is a generator
either. An itemset with confidence 1 yields its rule but is not extended,
since its rule dominates those of all its supersets. Singletons are never
compared with the empty set. A final `prune_redundant` pass drops the
generator rules that a subset with higher confidence still dominates, so
`mine` returns the non-redundant rules directly. Item names appear only in
a rule's JSON form and in the tie-break of the canonical rule order.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from lowrisk.discretize import ATTRIBUTE_ITEMS, LABEL_NOT_FAULTY, item_names, transpose
from lowrisk.errors import AntecedentCapWarning, EmptyDatabaseError


@dataclass(frozen=True)
class AssociationRule:
    """antecedent -> {NotFaulty} with support and confidence over the DB.

    The antecedent is an attribute item mask; its item names are derived
    when first read.
    """

    antecedent_mask: int
    support: float
    confidence: float

    def __post_init__(self):
        if not 0 < self.antecedent_mask < 1 << len(ATTRIBUTE_ITEMS):
            raise ValueError(
                f"antecedent must be a non-empty mask of the {len(ATTRIBUTE_ITEMS)} attribute items"
            )

    @cached_property
    def antecedent(self) -> frozenset[str]:
        return item_names(self.antecedent_mask)

    def sort_key(self) -> tuple:
        return (
            -self.confidence,
            -self.support,
            self.antecedent_mask.bit_count(),
            tuple(sorted(self.antecedent)),
        )

    def to_json(self) -> dict:
        return {
            "antecedent": sorted(self.antecedent),
            "consequent": LABEL_NOT_FAULTY,
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


def mine(
    faulty: Sequence[int],
    clean: Sequence[int],
    cfg: MiningConfig,
    stats: dict | None = None,
) -> list[AssociationRule]:
    """Mine the non-redundant rules {A} -> {NotFaulty} meeting the thresholds
    over the item masks of the faulty and the clean (NotFaulty) transactions.

    Returns exactly `prune_redundant` of the rules with support >=
    min_support, confidence >= min_confidence and 1 <= |A| <=
    max_antecedent_len, in canonical order (confidence desc, support desc,
    antecedent size asc, item names). When `stats` is a dict, the number of
    rules the generator walk emits is stored under `rules_mined` and the
    number left after the dominance pass under `rules_kept`.
    """
    n = len(faulty) + len(clean)
    if n == 0:
        raise EmptyDatabaseError("cannot mine an empty database")

    # Vertical representation: per attribute item (up to the highest one that
    # occurs), a bitmap of the transactions holding it; the clean transactions
    # come after the faulty ones.
    item_bits = transpose([*faulty, *clean])
    target_bits = ((1 << len(clean)) - 1) << len(faulty)

    rules: list[AssociationRule] = []
    # The live itemsets of a level: antecedent mask -> transaction bitmap, and its popcount.
    level: dict[int, int] = {}
    counts: dict[int, int] = {}
    min_support, min_confidence = cfg.min_support, cfg.min_confidence

    def visit(cand: int, bits: int, n_ant: int) -> None:
        """Emit cand's rule if it qualifies; keep cand alive unless confidence is 1."""
        n_both = (bits & target_bits).bit_count()
        if n_both / n < min_support:
            return
        conf = n_both / n_ant
        if conf >= min_confidence:
            rules.append(AssociationRule(cand, n_both / n, conf))
        if n_both < n_ant:
            level[cand] = bits
            counts[cand] = n_ant

    # Singletons are never compared with the empty set: an item held by
    # every transaction still yields a rule.
    for a, bits in enumerate(item_bits):
        visit(1 << a, bits, bits.bit_count())

    size = 1
    while level and size < cfg.max_antecedent_len:
        size += 1
        prev, prev_counts = level, counts
        count_of = prev_counts.get
        level, counts = {}, {}
        # Join the live itemsets that differ only in their highest item.
        by_prefix: dict[int, list[int]] = {}
        for key in prev:
            top = 1 << (key.bit_length() - 1)
            by_prefix.setdefault(key ^ top, []).append(top)
        for prefix, tops in by_prefix.items():
            if len(tops) < 2:
                continue
            # The prefix items: removing one from prefix | a | b gives its
            # subsets other than prefix | a and prefix | b (none at level 2).
            prefix_bits = [1 << i for i in range(prefix.bit_length()) if prefix >> i & 1]
            joins = [(b, item_bits[b.bit_length() - 1], prev_counts[prefix | b]) for b in tops]
            for i, (a, _, n_a) in enumerate(joins):
                with_a = prefix | a
                bits_a = prev[with_a]
                for b, bits_b, n_b in joins[i + 1 :]:
                    bits = bits_a & bits_b
                    n_ant = bits.bit_count()
                    # Every (size-1)-subset must be alive (frequent, a generator
                    # and below confidence 1) and cover more transactions: a
                    # subset's bitmap contains the candidate's, so equal counts
                    # mean equal bitmaps and the candidate is no generator.
                    if n_ant >= n_a or n_ant >= n_b:
                        continue
                    cand = with_a | b
                    for bit in prefix_bits:
                        if n_ant >= count_of(cand ^ bit, 0):
                            break
                    else:
                        # visit(cand, bits, n_ant), inlined.
                        n_both = (bits & target_bits).bit_count()
                        if n_both / n < min_support:
                            continue
                        conf = n_both / n_ant
                        if conf >= min_confidence:
                            rules.append(AssociationRule(cand, n_both / n, conf))
                        if n_both < n_ant:
                            level[cand] = bits
                            counts[cand] = n_ant
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
    survivor that also dominates the rule at hand. Rules of one size never
    dominate each other, so their order among themselves does not matter.
    """
    survivors: list[AssociationRule] = []
    kept: list[tuple[int, float]] = []  # antecedent mask and confidence of each survivor
    for rule in sorted(rules, key=lambda r: r.antecedent_mask.bit_count()):
        mask, conf = rule.antecedent_mask, rule.confidence
        if not any(c >= conf and s & ~mask == 0 and s != mask for s, c in kept):
            survivors.append(rule)
            kept.append((mask, conf))
    survivors.sort(key=AssociationRule.sort_key)
    return survivors
