import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import random

from helpers import (
    fit_on, fit_values, from_analyzed, itemize_one, make_metrics, make_record, make_unified, table_of,
)
from oracles import bools_to_mask, fit_records, itemize_bool_tuple, reference_vote, tertile_bounds
from lowrisk.discretize import (
    ATTRIBUTE_ITEMS,
    TERTILE_METRICS,
    VOCABULARY,
    DiscretizationModel,
    MetricBounds,
    fit_discretization,
    item_mask,
    item_names,
    _vote,
    itemize,
    transpose,
)
from lowrisk.errors import DegenerateDistributionWarning, SchemaError, VocabularyMismatchError
from lowrisk.java.analyzer import analyze_project
from lowrisk.java.metrics import CategoryFlags, ConstructKind, RawMetrics
from lowrisk.synthetic import generate_project


def model_from_values(values):
    b = tertile_bounds(values)
    return DiscretizationModel({metric: b for metric, _ in (
        ("sloc", None), ("cyclomatic_complexity", None), ("max_nesting", None),
        ("max_chaining", None), ("unique_variable_ids", None))})


class TestTertiles:
    def test_exact_thirds(self):
        b = fit_values([1, 1, 1, 2, 2, 2, 3, 3, 3])
        assert (b.class1_upper, b.class2_upper) == (1, 2)

    def test_last_occurrence_rule(self):
        values = [1, 1, 1, 1, 1, 1, 2, 3, 4]
        b = fit_values(values)
        assert b.class1_upper == 1
        assert all(b.classify(v) == 1 for v in values if v == 1)

    def test_degenerate_single_value(self):
        records = [make_record(str(i), metrics=make_metrics(sloc=5)) for i in range(5)]
        with pytest.warns(DegenerateDistributionWarning):
            model = fit_on(records)
        assert all(model.classify("sloc", 5) == 1 for _ in range(3))

    def test_requires_three_records(self):
        with pytest.raises(ValueError):
            fit_on([make_record("a"), make_record("b")])

    @settings(max_examples=200)
    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=60))
    def test_classes_partition_and_boundary_rule(self, values):
        b = tertile_bounds(values)
        assert b.class1_upper <= b.class2_upper
        # Exhaustive, disjoint, contiguous: every value lands in exactly one class
        # and class membership is monotone in the value.
        classes = [b.classify(v) for v in sorted(values)]
        assert all(c in (1, 2, 3) for c in classes)
        assert classes == sorted(classes)
        # Every occurrence of the boundary value is in class 1.
        assert all(b.classify(v) == 1 for v in values if v == b.class1_upper)
        # Class 1 holds at least a third of the training values.
        assert sum(1 for v in values if b.classify(v) == 1) * 3 >= len(values)
        # The fit over a table of the values draws the same bounds.
        if len(values) >= 3:
            assert fit_values(values) == b

    def test_json_round_trip(self):
        records = [
            make_record(
                str(i),
                metrics=make_metrics(
                    sloc=i + 1, cc=i % 3 + 1, nesting=i % 2, chaining=i % 4, variables=i
                ),
            )
            for i in range(9)
        ]
        model = fit_on(records)
        text = json.dumps(model.to_json(), allow_nan=False)
        assert DiscretizationModel.from_json(json.loads(text)) == model

    @pytest.mark.parametrize("class1,class2", [(5, 2), (float("nan"), 3), (1, float("nan"))])
    def test_unordered_bounds_rejected(self, class1, class2):
        data = simple_model().to_json()
        data["sloc"] = {"class1_upper": class1, "class2_upper": class2}
        with pytest.raises(SchemaError, match="'sloc' needs class1_upper <= class2_upper"):
            DiscretizationModel.from_json(data)

    def test_bisected_class_equals_classify(self):
        model = simple_model()
        for value in range(-1, 8):
            rec = make_record("m", metrics=make_metrics(sloc=value))
            third = ("LowestThird", "MiddleThird", "HighestThird")[model.classify("sloc", value) - 1]
            assert itemize_one(rec, model) & item_mask([f"Sloc{third}"])


def simple_model():
    bounds = {m: MetricBounds(2, 5) for m, _ in (
        ("sloc", 0), ("cyclomatic_complexity", 0), ("max_nesting", 0),
        ("max_chaining", 0), ("unique_variable_ids", 0))}
    return DiscretizationModel(bounds)


class TestItemize:
    def test_paper_named_items(self):
        rec = make_record(
            "setter",
            metrics=make_metrics(sloc=1, assignments=1),
            categories=CategoryFlags(is_setter=True),
        )
        items = item_names(itemize_one(rec, simple_model()))
        assert "SlocLowestThird" in items
        assert "NoLoops" in items
        assert "IsSetter" in items
        assert "NoNullChecks" in items

    def test_has_no_item_false_when_count_positive(self):
        rec = make_record("m", metrics=make_metrics(method_invocations=2))
        items = item_names(itemize_one(rec, simple_model()))
        assert "NoMethodInvocations" not in items

    def test_label_items(self):
        # The label is the table's fault flag, never a bit of the item mask.
        table = table_of([make_record("a"), make_record("b", faulty=True)])
        clean, faulty = itemize(table, 0, simple_model()), itemize(table, 1, simple_model())
        assert list(table.faulty) == [False, True]
        assert clean == faulty
        assert "NotFaulty" not in item_names(clean) and clean >> len(ATTRIBUTE_ITEMS) == 0

    def test_exactly_one_class_item_per_metric(self):
        for sloc in (1, 2, 3, 5, 6, 99):
            vec = itemize_one(make_record("m", metrics=make_metrics(sloc=sloc)), simple_model())
            items = item_names(vec)
            thirds = [n for n in items if n.startswith("Sloc")]
            assert len(thirds) == 1

    def test_vocabulary_size(self):
        assert len(VOCABULARY) == 5 * 3 + (26 + 2) + 6 + 1
        assert len(ATTRIBUTE_ITEMS) == len(VOCABULARY) - 1

    def test_vocabulary_names_in_bit_order(self):
        """The names derived from RawMetrics, ConstructKind and CategoryFlags
        are the paper's vocabulary, written out here: item i is bit i."""
        assert list(VOCABULARY) == [
            "SlocLowestThird", "SlocMiddleThird", "SlocHighestThird",
            "CyclomaticComplexityLowestThird", "CyclomaticComplexityMiddleThird",
            "CyclomaticComplexityHighestThird",
            "MaxNestingLowestThird", "MaxNestingMiddleThird", "MaxNestingHighestThird",
            "MaxChainingLowestThird", "MaxChainingMiddleThird", "MaxChainingHighestThird",
            "UniqueVariableIdsLowestThird", "UniqueVariableIdsMiddleThird", "UniqueVariableIdsHighestThird",
            "NoMethodInvocations", "NoIfConditions", "NoElseBlocks", "NoSwitchCaseBlocks",
            "NoTernaryOperations", "NoLoops", "NoTryBlocks", "NoCatchClauses", "NoFinallyBlocks",
            "NoThrowStatements", "NoReturnStatements", "NoCastExpressions", "NoInstanceofExpressions",
            "NoNullLiterals", "NoNullChecks", "NoArithmeticInfixOps", "NoIncrementations",
            "NoDecrementations", "NoLogicalOperators", "NoComparisonOperators", "NoAssignments",
            "NoArrayAccesses", "NoArrayCreations", "NoObjectCreations", "NoStringLiterals",
            "NoAnonymousClasses",
            "NoConditions", "NoArithmeticOperations",
            "IsConstructor", "IsGetter", "IsSetter", "IsEmpty", "IsDelegation", "IsToString",
            "NotFaulty",
        ]
        assert TERTILE_METRICS == (
            "sloc", "cyclomatic_complexity", "max_nesting", "max_chaining", "unique_variable_ids"
        )

    def test_identical_vectors_mean_identical_profiles(self):
        a = make_record("a", metrics=make_metrics(sloc=1, loops=1))
        b = make_record("b", metrics=make_metrics(sloc=2, loops=2))
        model = simple_model()
        va, vb = itemize_one(a, model), itemize_one(b, model)
        # Same classes and same zero-flags and categories => same items.
        assert va == vb


class TestMajorityVote:
    def test_binary_majority(self):
        occ = [
            make_record("a", faulty=True, metrics=make_metrics(loops=0)),
            make_record("a", faulty=True, metrics=make_metrics(loops=0)),
            make_record("a", faulty=True, metrics=make_metrics(loops=3)),
        ]
        vec = itemize_one(make_unified(occ), simple_model())
        assert "NoLoops" in item_names(vec)

    def test_class_tie_resolves_to_higher_class(self):
        occ = [
            make_record("a", faulty=True, metrics=make_metrics(sloc=1)),  # class 1
            make_record("a", faulty=True, metrics=make_metrics(sloc=9)),  # class 3
        ]
        vec = itemize_one(make_unified(occ), simple_model())
        assert "SlocHighestThird" in item_names(vec)

    def test_binary_tie_resolves_to_true(self):
        occ = [
            make_record("a", faulty=True, metrics=make_metrics(loops=0)),
            make_record("a", faulty=True, metrics=make_metrics(loops=2)),
        ]
        vec = itemize_one(make_unified(occ), simple_model())
        assert "NoLoops" in item_names(vec)

    def test_equals_the_counting_vote(self):
        """The bit-sliced vote equals the per-attribute count on random masks
        of n = 1..9 occurrences, whose tertile groups hold 0, 1, 2 or 3 set
        bits (the production masks hold exactly one), drawn from small pools
        so that counts tie."""
        rng = random.Random(15)
        n_tertile_bits = 3 * len(TERTILE_METRICS)
        flag_bits = len(ATTRIBUTE_ITEMS) - n_tertile_bits
        group_sizes = set()
        for n in range(1, 10):
            for _ in range(150):
                pool = []
                for _ in range(rng.randint(1, n)):
                    mask = rng.getrandbits(flag_bits) << n_tertile_bits
                    for low in range(0, n_tertile_bits, 3):
                        chosen = rng.sample(range(3), rng.randint(0, 3))
                        group_sizes.add(len(chosen))
                        mask |= sum(1 << (low + i) for i in chosen)
                    pool.append(mask)
                masks = [rng.choice(pool) for _ in range(n)]
                assert _vote(masks) == reference_vote(masks), masks
        assert group_sizes == {0, 1, 2, 3}


class TestItemMask:
    def test_bit_i_is_attribute_item_i(self):
        for i, name in enumerate(ATTRIBUTE_ITEMS):
            assert item_mask([name]) == 1 << i
        assert item_mask([]) == 0
        assert item_mask(ATTRIBUTE_ITEMS) == (1 << len(ATTRIBUTE_ITEMS)) - 1

    def test_unknown_name_rejected(self):
        with pytest.raises(VocabularyMismatchError):
            item_mask(["NotFaulty"])

    def test_vector_rejects_bits_outside_the_vocabulary(self):
        # A rule antecedent is the one mask that is checked when it is made.
        from lowrisk.mining import AssociationRule

        with pytest.raises(ValueError):
            AssociationRule(1 << len(ATTRIBUTE_ITEMS), 0.5, 0.5)
        with pytest.raises(ValueError):
            AssociationRule(-1, 0.5, 0.5)

    def test_transaction_view_names_the_set_bits(self):
        names = {"SlocMiddleThird", "NoLoops", "IsToString"}
        assert item_names(item_mask(names)) == names
        assert item_names(0) == frozenset()
        assert item_names(item_mask(ATTRIBUTE_ITEMS)) == set(ATTRIBUTE_ITEMS)

    def test_transpose_reads_each_bit_of_every_mask(self):
        rng = random.Random(5)
        for n in (1, 2, 7, 8, 9, 300):
            masks = [rng.getrandbits(rng.choice((1, 8, 49, 64))) for _ in range(n)]
            columns = transpose(masks)
            assert len(columns) == max(masks).bit_length()
            for a, column in enumerate(columns):
                assert column == sum(1 << t for t, mask in enumerate(masks) if mask >> a & 1)
        assert transpose([]) == [] and transpose([0, 0]) == []


class TestMaskEqualsBoolTupleConstruction:
    def test_golden_corpus(self, corpus_dir):
        methods = analyze_project(corpus_dir, "corpus")
        records = from_analyzed(methods)
        table = table_of(records)
        model = fit_discretization(table)
        assert model == fit_records(records)
        for i, rec in enumerate(records):
            assert itemize(table, i, model) == bools_to_mask(itemize_bool_tuple(rec, model))

    def test_multi_occurrence_methods(self):
        methods = generate_project("multi", seed=3, n_methods=400)
        table = table_of(methods)
        model = fit_discretization(table)
        assert model == fit_records([r for u in methods for r in u.occurrences])
        rng = random.Random(4)
        records = [r for u in methods for r in u.occurrences]
        checked = 0
        for i, u in enumerate(methods):
            assert itemize(table, i, model) == bools_to_mask(itemize_bool_tuple(u, model))
            checked += len(u.occurrences) > 1
        for _ in range(200):  # 2 to 4 occurrences: ties in both classes and flags
            occ = rng.sample(records, rng.randint(2, 4))
            u = make_unified(occ, faulty=True)
            assert itemize_one(u, model) == bools_to_mask(itemize_bool_tuple(u, model))
        assert checked > 0


def test_construct_counts_must_be_a_tuple_of_every_kind():
    metrics = make_metrics(sloc=4, if_conditions=1, loops=2, incrementations=1)
    counts = metrics.construct_counts
    assert len(counts) == len(ConstructKind)
    assert counts[ConstructKind.LOOP] == 2 and counts[ConstructKind.IF_CONDITION] == 1
    fields = metrics._asdict()
    for bad in (counts[:-1], counts + (0,), (), list(counts), dict(zip(ConstructKind, counts)), None):
        with pytest.raises(TypeError, match="construct_counts"):
            RawMetrics(**{**fields, "construct_counts": bad})
    assert RawMetrics(**fields) == metrics
