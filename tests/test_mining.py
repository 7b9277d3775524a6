import random
import warnings
from itertools import combinations

import pytest

from helpers import as_vocabulary, classes, make_rule, vocabulary_item
from oracles import (
    as_rule_set,
    brute_force_nonredundant,
    brute_force_prune,
    brute_force_rules,
    confidence,
    mine_names,
    random_rule,
    reference_mine,
    support,
    ZeroAntecedentSupportError,
)
from lowrisk.discretize import ATTRIBUTE_ITEMS, item_mask
from lowrisk.errors import AntecedentCapWarning, EmptyDatabaseError, VocabularyMismatchError
from lowrisk.mining import AssociationRule, MiningConfig, mine, prune_redundant


def random_db(rng, n_items=None, n_transactions=None):
    """Transactions over the test item names I0, I1, ..., half of them NotFaulty."""
    n_items = n_items or rng.randint(3, 8)
    n_transactions = n_transactions or rng.randint(10, 60)
    items = [f"I{i}" for i in range(n_items)]
    out = []
    for _ in range(n_transactions):
        t = {i for i in items if rng.random() < rng.uniform(0.2, 0.8)}
        if rng.random() < 0.5:
            t.add("NotFaulty")
        out.append(frozenset(t))
    return out


def is_generator(antecedent, db):
    """No (k-1)-subset of a multi-item antecedent covers the same transactions."""
    def cover(items):
        return [i for i, t in enumerate(db) if items <= t]

    return len(antecedent) == 1 or all(
        cover(antecedent - {item}) != cover(antecedent) for item in antecedent
    )


class TestSupport:
    def test_empty_itemset_is_one(self):
        assert support(frozenset(), [frozenset({"a"})]) == 1.0

    def test_direct_count(self):
        db = [frozenset("ab"), frozenset("a"), frozenset("ab"), frozenset("ab")]
        assert support(frozenset("ab"), db) == 0.75

    def test_empty_database_raises(self):
        with pytest.raises(EmptyDatabaseError):
            support(frozenset("a"), [])

    def test_matches_linear_scan_oracle(self):
        rng = random.Random(0)
        for _ in range(20):
            db = random_db(rng)
            itemset = frozenset(rng.sample(sorted({i for t in db for i in t}), 2))
            expected = sum(1 for t in db if itemset <= t) / len(db)
            assert support(itemset, db) == expected


class TestConfidence:
    def test_direct_count(self):
        db = [frozenset("ac"), frozenset("ac"), frozenset("ac"), frozenset("a")]
        assert confidence(frozenset("a"), "c", db) == 0.75

    def test_consequent_everywhere(self):
        db = [frozenset("ac"), frozenset("bc"), frozenset("abc")]
        assert confidence(frozenset("a"), "c", db) == 1.0

    def test_zero_antecedent_support_raises(self):
        with pytest.raises(ZeroAntecedentSupportError):
            confidence(frozenset("z"), "c", [frozenset("ac")])

    def test_matches_oracle(self):
        rng = random.Random(1)
        for _ in range(20):
            db = random_db(rng)
            items = sorted({i for t in db for i in t} - {"NotFaulty"})
            a = frozenset(rng.sample(items, 1))
            n_a = sum(1 for t in db if a <= t)
            if n_a == 0:
                continue
            n_both = sum(1 for t in db if a <= t and "NotFaulty" in t)
            assert confidence(a, "NotFaulty", db) == n_both / n_a


def mine_db(db, cfg, stats=None):
    """mine over a database of attribute item names (see helpers.classes)."""
    return mine(*classes(db), cfg, stats=stats)


class TestMine:
    def test_constructed_fixture(self):
        # X and NotFaulty co-occur in 6 of 10; X never appears without NotFaulty.
        db = as_vocabulary([frozenset({"X", "NotFaulty"})] * 6 + [frozenset({"Y"})] * 4)
        rules = mine_db(db, MiningConfig(min_support=0.5, min_confidence=0.9))
        assert len(rules) == 1
        rule = rules[0]
        assert rule.antecedent == frozenset({vocabulary_item("X")})
        assert rule.antecedent_mask == item_mask([vocabulary_item("X")])
        assert rule.support == 0.6
        assert rule.confidence == 1.0

    def test_threshold_excludes_all(self):
        # min_support above the best achievable rule support yields nothing.
        db = as_vocabulary([frozenset({"X", "NotFaulty"})] * 4 + [frozenset({"X"})] * 6)
        assert mine_db(db, MiningConfig(min_support=0.5, min_confidence=0.1)) == []

    def test_empty_database_raises(self):
        with pytest.raises(EmptyDatabaseError):
            mine([], [], MiningConfig())

    def test_label_items_never_in_antecedents(self):
        rng = random.Random(3)
        db = as_vocabulary(random_db(rng))
        for rule in mine_db(db, MiningConfig(min_support=0.05, min_confidence=0.1)):
            assert "NotFaulty" not in rule.antecedent
            assert rule.antecedent <= set(ATTRIBUTE_ITEMS)

    def test_equals_exhaustive_enumeration(self):
        rng = random.Random(4)
        for _ in range(25):
            db = as_vocabulary(random_db(rng))
            cfg = MiningConfig(
                min_support=rng.uniform(0.05, 0.4),
                min_confidence=rng.uniform(0.3, 1.0),
                max_antecedent_len=8,
            )
            mined = as_rule_set(mine_db(db, cfg))
            oracle = brute_force_nonredundant(
                db, cfg.min_support, cfg.min_confidence, cfg.max_antecedent_len
            )
            assert mined == as_rule_set(oracle)

    def test_differential_with_shared_covers(self):
        """Items held by every transaction and perfectly correlated items, caps 1-8."""
        rng = random.Random(10)
        for case in range(160):
            db = [set(t) for t in random_db(rng, n_items=rng.randint(2, 6))]
            for t in db:
                if case % 2:
                    t.add("ALL")
                if "I0" in t:
                    t.add("TWIN0")
                if case % 3 == 0 and {"I1", "I2"} <= t:
                    t.add("BOTH12")
            db = as_vocabulary(db)
            cfg = MiningConfig(
                min_support=rng.uniform(0.02, 0.4),
                min_confidence=rng.uniform(0.3, 1.0),
                max_antecedent_len=case % 8 + 1,
            )
            stats = {}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AntecedentCapWarning)
                rules = mine_db(db, cfg, stats=stats)
            oracle = brute_force_nonredundant(
                db, cfg.min_support, cfg.min_confidence, cfg.max_antecedent_len
            )
            assert as_rule_set(rules) == as_rule_set(oracle), f"case {case} diverged"
            assert prune_redundant(rules) == rules
            assert all(is_generator(r.antecedent, db) for r in rules)
            # The walk itself emits the rules of generators that extend no
            # confidence-1 antecedent, and only those.
            every = brute_force_rules(
                db, cfg.min_support, cfg.min_confidence, cfg.max_antecedent_len
            )
            walked = [
                a for a, _, _ in every
                if is_generator(a, db) and not any(c == 1.0 and b < a for b, _, c in every)
            ]
            assert stats == {"rules_mined": len(walked), "rules_kept": len(rules)}

    def test_stats_count_rules_before_and_after_the_final_pass(self):
        # {A} has confidence 3/4 and {C} confidence 1; {A, B} is a generator
        # with confidence 2/3, which {A} dominates; {A, C} covers what {C}
        # covers, so it is not a generator; {B} is below min_confidence.
        db = as_vocabulary([frozenset({"A", "B", "NotFaulty"})] * 2 + [frozenset({"A", "B"})]
                           + [frozenset({"A", "C", "NotFaulty"})] + [frozenset({"B"})])
        stats = {}
        rules = mine_db(db, MiningConfig(min_support=0.1, min_confidence=0.6), stats=stats)
        assert {r.antecedent for r in rules} == {
            frozenset({vocabulary_item("A")}), frozenset({vocabulary_item("C")})
        }
        assert stats == {"rules_mined": 3, "rules_kept": 2}

    def test_permutation_invariance(self):
        rng = random.Random(5)
        db = as_vocabulary(random_db(rng, n_items=6, n_transactions=40))
        cfg = MiningConfig(min_support=0.1, min_confidence=0.5)
        base = mine_db(db, cfg)
        shuffled = list(db)
        rng.shuffle(shuffled)
        assert mine_db(shuffled, cfg) == base

    def test_canonical_order(self):
        rng = random.Random(6)
        db = as_vocabulary(random_db(rng, n_items=6, n_transactions=50))
        rules = mine_db(db, MiningConfig(min_support=0.05, min_confidence=0.2))
        keys = [r.sort_key() for r in rules]
        assert keys == sorted(keys)

    def test_antecedent_cap_warns(self):
        # Every combination of A, B and C, with and without NotFaulty: each
        # pair is a generator below confidence 1, still alive at cap 2.
        db = as_vocabulary([
            frozenset(combo + label)
            for size in range(4)
            for combo in combinations("ABC", size)
            for label in ((), ("NotFaulty",))
        ] + [frozenset({"A", "B", "C", "NotFaulty"})])
        with pytest.warns(AntecedentCapWarning):
            rules = mine_db(db, MiningConfig(min_support=0.05, min_confidence=0.5,
                                          max_antecedent_len=2))
        assert all(len(r.antecedent) <= 2 for r in rules)

    def test_identical_transactions_never_reach_the_cap(self):
        # Every pair covers what its singletons cover, so no generator
        # outlives level 1 and the cap of 2 is never reached.
        db = as_vocabulary(
            [frozenset({"A", "B", "C", "D", "NotFaulty"})] * 9 + [frozenset({"A", "B", "C", "D"})]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", AntecedentCapWarning)
            rules = mine_db(db, MiningConfig(min_support=0.1, min_confidence=0.5,
                                             max_antecedent_len=2))
        assert {r.antecedent for r in rules} == {frozenset({vocabulary_item(i)}) for i in "ABCD"}

    def test_equals_the_name_keyed_miner(self):
        """The same rules, in the same order, with the same support, confidence
        and counts as the earlier miner over item-name transactions."""
        rng = random.Random(11)
        for case in range(120):
            db = [set(t) for t in random_db(rng, n_items=rng.randint(2, 12))]
            for t in db:
                if case % 2:
                    t.add("ALL")
                if "I0" in t:
                    t.add("TWIN0")
            db = as_vocabulary(db)
            cfg = MiningConfig(
                min_support=rng.uniform(0.02, 0.4),
                min_confidence=rng.uniform(0.3, 1.0),
                max_antecedent_len=case % 8 + 1,
            )
            stats, expected_stats = {}, {}
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", AntecedentCapWarning)
                rules = mine_db(db, cfg, stats=stats)
                expected = mine_names(db, cfg, stats=expected_stats)
            assert [(r.antecedent, r.support, r.confidence) for r in rules] == expected, case
            assert stats == expected_stats, case

    def test_equals_the_reference_mask_miner(self):
        """The same rules in the same order, the same stats and the same cap
        warning as the earlier mask miner, on random databases over scattered
        attribute bits with twin and all-covering items, caps 1-5 and supports
        0.02-0.3. Unlike the brute-force oracles, this checks `rules_mined`."""
        rng = random.Random(14)
        n_bits = len(ATTRIBUTE_ITEMS)
        deep = 0
        for case in range(150):
            bits = rng.sample(range(n_bits), rng.randint(2, 12))
            biases = [rng.uniform(0.2, 0.9) for _ in bits]
            twin = rng.choice([b for b in range(n_bits) if b not in bits])
            masks = []
            for _ in range(rng.randint(10, 120)):
                mask = sum(1 << b for b, p in zip(bits, biases) if rng.random() < p)
                if mask >> bits[0] & 1:
                    mask |= 1 << twin
                masks.append(mask)
            if case % 3 == 0:  # an item every transaction holds
                masks = [m | 1 << rng.choice(bits) for m in masks]
            cut = rng.randint(0, len(masks))
            faulty, clean = masks[:cut], masks[cut:]
            cfg = MiningConfig(
                min_support=rng.uniform(0.02, 0.3),
                min_confidence=rng.uniform(0.3, 1.0),
                max_antecedent_len=case % 5 + 1,
            )
            stats, expected_stats = {}, {}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                rules = mine(faulty, clean, cfg, stats=stats)
            with warnings.catch_warnings(record=True) as expected_caught:
                warnings.simplefilter("always")
                expected = reference_mine(faulty, clean, cfg, stats=expected_stats)
            assert rules == expected, f"case {case}"
            assert stats == expected_stats, f"case {case}"
            assert len(caught) == len(expected_caught), f"case {case}"
            deep += any(r.antecedent_mask.bit_count() >= 3 for r in rules)
        assert deep >= 10


class TestPrune:
    def rule(self, items, conf, supp=0.2):
        return make_rule(map(vocabulary_item, items), conf, supp)

    def test_equal_confidence_generalization_wins(self):
        general = self.rule({"A"}, 0.96)
        special = self.rule({"A", "B"}, 0.96)
        assert prune_redundant([general, special]) == [general]

    def test_better_specialization_survives(self):
        general = self.rule({"A"}, 0.95)
        special = self.rule({"A", "B"}, 0.99)
        out = prune_redundant([general, special])
        assert set(out) == {general, special}

    def test_matches_pairwise_oracle(self):
        rng = random.Random(7)
        vocab = [vocabulary_item(f"I{i}") for i in range(6)]
        for _ in range(30):
            rules = list({random_rule(rng, vocab) for _ in range(rng.randint(1, 25))})
            assert set(prune_redundant(rules)) == set(brute_force_prune(rules))

    def test_no_survivor_is_redundant(self):
        rng = random.Random(8)
        vocab = [vocabulary_item(f"I{i}") for i in range(5)]
        for _ in range(20):
            rules = list({random_rule(rng, vocab) for _ in range(20)})
            survivors = prune_redundant(rules)
            for r in survivors:
                assert not any(
                    s.antecedent < r.antecedent and s.confidence >= r.confidence
                    for s in survivors
                    if s is not r
                )


def test_rule_invariants():
    with pytest.raises(ValueError):
        AssociationRule(0, 0.5, 0.5)  # empty antecedent
    with pytest.raises(ValueError):
        AssociationRule(1 << len(ATTRIBUTE_ITEMS), 0.5, 0.5)  # a bit outside the vocabulary
    with pytest.raises(VocabularyMismatchError):
        item_mask({"NotFaulty"})  # the consequent is no attribute item
    rule = AssociationRule(item_mask({"NoLoops", "IsGetter"}), 0.25, 0.5)
    assert rule.antecedent == {"NoLoops", "IsGetter"}
    assert rule.to_json() == {
        "antecedent": ["IsGetter", "NoLoops"], "consequent": "NotFaulty",
        "support": 0.25, "confidence": 0.5,
    }


def test_mining_config_validation():
    with pytest.raises(ValueError):
        MiningConfig(min_support=0.6)
    with pytest.raises(ValueError):
        MiningConfig(min_confidence=0.0)
