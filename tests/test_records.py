"""The record types are named tuples: their order, immutability, hashing,
equality, pickling and construction checks."""

import pickle
import random

import pytest

from helpers import make_identity, make_metrics, make_record, make_unified
from lowrisk import dataset
from lowrisk.dataset import MethodRecord, UnifiedMethod
from lowrisk.java.analyzer import MethodIdentity, SkippedMethod, analyze_source
from lowrisk.java.metrics import N_CONSTRUCT_KINDS, CategoryFlags, ConstructKind, RawMetrics
from lowrisk.java.structure import parse_compilation_unit

_FIELDS = ("project", "file_path", "type_name", "method_name", "param_signature", "is_constructor")


def _identities(rng, n):
    """Identities from small pools, so that they tie on leading fields;
    every one comes with its twin that differs only in is_constructor."""
    out = []
    for _ in range(n):
        identity = MethodIdentity(
            rng.choice(["p", "q"]),
            rng.choice(["A.java", "a/B.java", "b.java"]),
            rng.choice(["A", "A.In", "B"]),
            rng.choice(["A", "m", "n"]),
            rng.choice([(), ("int",), ("int", "String"), ("String",)]),
            rng.random() < 0.5,
        )
        out += [identity, identity._replace(is_constructor=not identity.is_constructor)]
    return out


def _one_of_each():
    source = "class A { int f(int x) { return x; } }"
    decl = parse_compilation_unit(source, "A.java").methods[0]
    (analyzed,), _ = analyze_source(source, "A.java", "p")
    identity = make_identity("f", params=("int",))
    metrics = make_metrics(sloc=3, if_conditions=1, incrementations=2)
    categories = CategoryFlags(is_getter=True)
    record = make_record("f", metrics=metrics, categories=categories, faulty=True, params=("int",))
    return [
        identity,
        metrics,
        categories,
        analyzed,
        record,
        make_unified(record),
        decl,
        SkippedMethod(identity, "lambda expression in body"),
    ]


def test_identities_sort_as_their_field_tuples():
    rng = random.Random(5)
    identities = _identities(rng, 300)
    rng.shuffle(identities)
    expected = sorted(identities, key=lambda i: tuple(getattr(i, f) for f in _FIELDS))
    assert sorted(identities) == expected
    assert [tuple(i) for i in expected] == sorted(tuple(getattr(i, f) for f in _FIELDS) for i in identities)
    method = MethodIdentity("p", "A.java", "A", "A", ())
    constructor = method._replace(is_constructor=True)
    assert method < constructor and method.key() == constructor.key() == ("p", "A.java", "A", "A", ())


def _name(value):
    """The type name; the analyzer's current-state record is told apart from
    the faulty one."""
    name = type(value).__name__
    return f"{name}-current" if isinstance(value, MethodRecord) and not value.faulty else name


@pytest.mark.parametrize("value", _one_of_each(), ids=_name)
def test_records_are_immutable(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.new_attribute = 1
    assert not hasattr(value, "__dict__")


@pytest.mark.parametrize("value", _one_of_each(), ids=_name)
def test_records_hash_and_compare_by_their_fields(value):
    twin = type(value)(*value)
    assert twin == value and hash(twin) == hash(value) and twin is not value
    assert len({value, twin}) == 1
    changed = value._replace(**{value._fields[1]: None})
    assert changed != value


@pytest.mark.parametrize("value", _one_of_each(), ids=_name)
def test_records_survive_a_pickle_round_trip(value):
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(value, protocol))
        assert back == value and type(back) is type(value)


def test_fields_keys_and_derived_sums():
    identity, metrics, categories, analyzed, record, unified, decl, skipped = _one_of_each()
    assert identity._fields == _FIELDS
    assert MethodRecord._fields == ("identity", "metrics", "categories", "faulty")
    # The analyzer's records are the dataset's: extract writes them as they come.
    assert dataset.MethodRecord is MethodRecord and type(analyzed) is MethodRecord
    assert (analyzed.identity, analyzed.categories, analyzed.faulty) == (identity, CategoryFlags(), False)
    assert RawMetrics._fields == (
        "sloc", "cyclomatic_complexity", "max_nesting", "max_chaining", "unique_variable_ids", "construct_counts"
    )
    assert CategoryFlags._fields == (
        "is_constructor", "is_getter", "is_setter", "is_empty", "is_delegation", "is_to_string"
    )
    assert CategoryFlags() == (False,) * 6
    assert MethodRecord(identity, metrics, categories).faulty is False
    assert (metrics.all_conditions, metrics.all_arithmetic) == (1, 2)
    assert unified.occurrences == (record,) and isinstance(unified, UnifiedMethod)
    assert (decl.name, decl.param_types, decl.param_names) == ("f", ("int",), ("x",))


def test_both_construction_checks_still_raise():
    counts = (0,) * N_CONSTRUCT_KINDS
    for bad in (counts[:-1], counts + (0,), list(counts), dict(zip(ConstructKind, counts)), None):
        with pytest.raises(TypeError, match="construct_counts"):
            RawMetrics(1, 1, 0, 0, 0, bad)
        with pytest.raises(TypeError, match="construct_counts"):
            RawMetrics(sloc=1, cyclomatic_complexity=1, max_nesting=0, max_chaining=0,
                       unique_variable_ids=0, construct_counts=bad)


def test_make_unified_takes_one_record_or_a_list():
    first, second = make_record("a", faulty=True), make_record("a", faulty=True)
    assert make_unified(first).occurrences == (first,)
    assert make_unified([first, second]).occurrences == (first, second)
    assert make_unified((first, second)).occurrences == (first, second)
