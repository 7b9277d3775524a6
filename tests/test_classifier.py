import json
import random
import warnings

import pytest

from helpers import make_rule
from oracles import matched_set, prefix_scan_oracle, random_rule
from lowrisk.classifier import (
    LfrClassifier,
    Variant,
    order_rules,
    select_prefix,
)
from lowrisk.discretize import ATTRIBUTE_ITEMS, item_mask
from lowrisk.errors import NoAdmissibleRulesWarning, VocabularyMismatchError
from lowrisk.mining import AssociationRule, MiningConfig
from lowrisk.pipeline import PipelineConfig, TrainedModel, train_on
from lowrisk.synthetic import generate_project

# Eight attribute items spread over the tertile, has-no and category items.
ITEMS = ATTRIBUTE_ITEMS[:48:6]
A, B, C = "NoLoops", "IsSetter", "NoNullChecks"
# Four items in name order whose bits run the other way.
W, X, Y, Z = "IsDelegation", "NoAnonymousClasses", "NoArrayCreations", "NoCastExpressions"
assert item_mask([W]) > item_mask([X]) > item_mask([Y]) > item_mask([Z])

rule = make_rule


def faulty_masks(item_sets, faulty):
    """The masks of the faulty item sets: what select_prefix reads."""
    return [item_mask(items) for items, f in zip(item_sets, faulty) if f]


class TestOrderRules:
    def test_confidence_then_support(self):
        a = rule({W}, 0.99, 0.2)
        b = rule({X}, 0.95, 0.4)
        c = rule({Y}, 0.99, 0.3)
        assert order_rules([a, b, c]) == [c, a, b]

    def test_single_rule_unchanged(self):
        a = rule({W}, 0.9, 0.1)
        assert order_rules([a]) == [a]

    def test_full_tie_breaks_lexicographically(self):
        # By item names, not by bits: the masks order these the other way.
        a = rule({X, Y}, 0.9, 0.2)
        b = rule({W, Z}, 0.9, 0.2)
        c = rule({W, X}, 0.9, 0.2)
        assert order_rules([a, b, c]) == [c, b, a]
        assert order_rules([c, b, a]) == [c, b, a]


class TestSelectPrefix:
    def test_budget_arithmetic(self):
        # 200 faulty methods at budget 0.025 allow at most 5 matched faults.
        rules = [rule({ITEMS[i]}, 0.99 - i / 100, 0.2) for i in range(8)]
        items = []
        faulty = []
        for i in range(8):  # method i matches rule i only, each faulty
            items.append(frozenset({ITEMS[i]}))
            faulty.append(True)
        for _ in range(192):
            items.append(frozenset({"IsToString"}))
            faulty.append(True)
        n = select_prefix(rules, faulty_masks(items, faulty), budget=0.025)
        assert n == 5 == prefix_scan_oracle(rules, items, faulty, 0.025)

    def test_zero_fault_rules_select_everything(self):
        rules = [rule({A}, 0.99, 0.2), rule({B}, 0.98, 0.2)]
        items = [frozenset({A}), frozenset({B}), frozenset({C})]
        faulty = [False, False, True]
        assert select_prefix(rules, faulty_masks(items, faulty), budget=0.025) == 2
        assert prefix_scan_oracle(rules, items, faulty, 0.025) == 2

    def test_breach_at_rule_three(self):
        rules = [rule({A}, 0.99, 0.3), rule({B}, 0.98, 0.3), rule({C}, 0.97, 0.3)]
        items = [frozenset({A}), frozenset({B}), frozenset({C}), frozenset({C})]
        faulty = [False, False, True, True]  # rule 3 matches 2 of 2 faults
        assert select_prefix(rules, faulty_masks(items, faulty), budget=0.5) == 2
        assert prefix_scan_oracle(rules, items, faulty, 0.5) == 2

    def test_no_admissible_rules_warns_and_selects_zero(self):
        rules = [rule({A}, 0.99, 0.3)]
        items = [frozenset({A})]
        faulty = [True]
        with pytest.warns(NoAdmissibleRulesWarning):
            assert select_prefix(rules, faulty_masks(items, faulty), budget=0.025) == 0
        assert prefix_scan_oracle(rules, items, faulty, 0.025) == 0

    def test_agrees_with_prefix_scan_oracle(self):
        rng = random.Random(0)
        vocab = list(ITEMS)
        for _ in range(40):
            rules = order_rules({random_rule(rng, vocab, max_len=3) for _ in range(rng.randint(1, 12))})
            items = [
                frozenset(rng.sample(vocab, rng.randint(0, 6))) for _ in range(40)
            ]
            faulty = [rng.random() < 0.3 for _ in items]
            if not any(faulty):
                faulty[0] = True
            budget = rng.choice((0.025, 0.05, 0.2))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", NoAdmissibleRulesWarning)
                got = select_prefix(rules, faulty_masks(items, faulty), budget=budget)
            assert got == prefix_scan_oracle(rules, items, faulty, budget)

    def test_unknown_antecedent_item_rejected(self):
        # A rule names attribute items only, so one that names another item
        # cannot be built, let alone reach select_prefix.
        with pytest.raises(VocabularyMismatchError):
            rule({"R0"}, 0.99, 0.2)
        with pytest.raises(ValueError):
            AssociationRule(1 << len(ATTRIBUTE_ITEMS), 0.2, 0.99)

    def test_matched_set_monotone_in_n(self):
        rng = random.Random(1)
        vocab = list(ATTRIBUTE_ITEMS[1:49:8])
        rules = order_rules({random_rule(rng, vocab, max_len=2) for _ in range(8)})
        items = [frozenset(rng.sample(vocab, rng.randint(0, 4))) for _ in range(30)]
        previous = set()
        for n in range(len(rules) + 1):
            current = matched_set(rules, n, items)
            assert previous <= current
            previous = current


def classifier_with(rules, n, variant=Variant.STRICT):
    return LfrClassifier(tuple(rules), n, PipelineConfig().budget(variant))


class TestClassify:
    def test_zero_rules_never_classifies(self):
        clf = classifier_with([rule({"NoLoops"}, 0.99, 0.2)], n=0)
        assert clf.matched_rule_index(item_mask(["NoLoops"])) is None

    def test_exact_antecedent_match(self):
        clf = classifier_with([rule({"NoLoops", "IsSetter"}, 0.99, 0.2)], n=1)
        assert clf.matched_rule_index(item_mask(["NoLoops", "IsSetter"])) is not None
        assert clf.matched_rule_index(item_mask(["NoLoops"])) is None

    def test_rule_outside_prefix_ignored(self):
        rules = [rule({"NoLoops"}, 0.99, 0.2), rule({"IsSetter"}, 0.98, 0.2)]
        clf = classifier_with(rules, n=1)
        assert clf.matched_rule_index(item_mask(["IsSetter"])) is None

    def test_label_ignored_during_matching(self):
        # An item mask holds attribute items only: the fault label is no bit
        # of it, and no antecedent can name the NotFaulty item.
        clf = classifier_with([rule({"NoLoops"}, 0.99, 0.2)], n=1)
        assert clf.matched_rule_index(item_mask(["NoLoops"])) is not None
        with pytest.raises(VocabularyMismatchError):
            rule({"NoLoops", "NotFaulty"}, 0.99, 0.2)

    def test_matched_rule_index_reports_first_match(self):
        rules = [rule({"IsSetter"}, 0.99, 0.2), rule({"NoLoops"}, 0.98, 0.2)]
        clf = classifier_with(rules, n=2)
        assert clf.matched_rule_index(item_mask(["NoLoops"])) == 1

    def test_unknown_antecedent_item_rejected(self):
        # Outside the top n too: such a rule cannot be built.
        with pytest.raises(VocabularyMismatchError):
            classifier_with([rule({"NoLoops"}, 0.99, 0.2), rule({"R0"}, 0.98, 0.2)], n=1)

    def test_strict_subset_of_lenient(self):
        rng = random.Random(2)
        vocab = ["NoLoops", "IsSetter", "IsGetter", "NoNullChecks", "IsEmpty"]
        for _ in range(20):
            rules = order_rules({random_rule(rng, vocab, max_len=2) for _ in range(10)})
            vectors = [
                item_mask(rng.sample(vocab, rng.randint(0, 4))) for _ in range(30)
            ]
            n_strict = rng.randint(0, len(rules))
            n_lenient = rng.randint(n_strict, len(rules))
            strict = classifier_with(rules, n_strict)
            lenient = classifier_with(rules, n_lenient, Variant.LENIENT)
            matched_strict = {
                i for i, v in enumerate(vectors) if strict.matched_rule_index(v) is not None
            }
            matched_lenient = {
                i for i, v in enumerate(vectors) if lenient.matched_rule_index(v) is not None
            }
            assert matched_strict <= matched_lenient


def test_trained_model_json_round_trip():
    """The classifier file, written as strict JSON and read back, is the same model."""
    config = PipelineConfig(mining=MiningConfig(0.05, 0.95, 2), seed=3)
    model = train_on(generate_project("p", seed=12, n_methods=300), config, scope=("train",))
    document = json.loads(json.dumps(model.to_json(config), allow_nan=False))
    assert document["format_version"] == 2
    assert document["run_config"] == config.to_json()
    assert TrainedModel.from_json(document) == model
