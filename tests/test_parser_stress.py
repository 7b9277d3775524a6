"""Regression coverage for a generics- and nesting-heavy source file.

This file previously exposed two parser defects: generic-argument commas
terminating initializer scans, and anonymous classes inside constructor
arguments being enumerated twice. The assertions below are hand-verified.
"""

from pathlib import Path

import pytest

from lowrisk.java.analyzer import analyze_source
from lowrisk.java.metrics import ConstructKind

STRESS = Path(__file__).parent / "data" / "corpus_extra" / "Stress.java"


@pytest.fixture(scope="module")
def analyzed():
    methods, skipped = analyze_source(STRESS.read_text(encoding="utf-8"), "Stress.java")
    assert not skipped
    return {f"{m.identity.type_name}.{m.identity.method_name}": m for m in methods}


def counts(m, kind):
    return m.metrics.construct_counts[kind]


def test_method_set(analyzed):
    assert set(analyzed) == {
        "Stress.Stress",
        "Stress.arithmeticSoup",
        "Stress.iterator",
        "Stress.locked",
        "Stress.make",
        "Stress.nestedAnon",
        "Stress.resources",
        "Stress.switchFall",
        "Stress.tricky",
        "Stress.zip",
        "Stress.$anon1.run",
        "Stress.$anon1.$anon2.run",
        "Stress.Direction.Direction",
        "Stress.Direction.getCode",
        "Stress.Direction.NORTH.flip",
        "Stress.Direction.SOUTH.flip",
    }
    # the two Stress constructors share the dict key; both were parsed
    ctors = [m for m in analyzed.values() if m.categories.is_constructor]
    assert len(ctors) == 2  # Stress(long) + Direction(String); Stress() collapses in dict


def test_constructor_delegation_via_this(analyzed):
    assert analyzed["Stress.Stress"].identity.param_signature in ((), ("long",))


def test_generic_heavy_declaration(analyzed):
    zip_m = analyzed["Stress.zip"]
    assert zip_m.identity.param_signature == ("K[]", "V[]")
    assert counts(zip_m, ConstructKind.OBJECT_CREATION) == 1
    assert counts(zip_m, ConstructKind.ARRAY_ACCESS) == 2
    assert zip_m.metrics.unique_variable_ids == 4  # keys, values, out, i


def test_comparisons_not_mistaken_for_generics(analyzed):
    tricky = analyzed["Stress.tricky"]
    assert counts(tricky, ConstructKind.COMPARISON_OPERATOR) == 2
    assert counts(tricky, ConstructKind.LOGICAL_OPERATOR) == 1
    assert tricky.metrics.cyclomatic_complexity == 2


def test_arithmetic_and_casts(analyzed):
    soup = analyzed["Stress.arithmeticSoup"]
    assert counts(soup, ConstructKind.ARITHMETIC_INFIX_OP) == 5  # + - * / %
    assert counts(soup, ConstructKind.CAST_EXPRESSION) == 2
    assert counts(soup, ConstructKind.TERNARY_OPERATION) == 1
    assert counts(soup, ConstructKind.ASSIGNMENT) == 3


def test_switch_with_labels_and_fallthrough(analyzed):
    sw = analyzed["Stress.switchFall"]
    assert counts(sw, ConstructKind.SWITCH_CASE_BLOCK) == 3  # default not counted
    assert counts(sw, ConstructKind.LOOP) == 1
    assert sw.metrics.max_nesting == 3  # for > switch > case block
    assert sw.metrics.unique_variable_ids == 3  # ch, out, i; labels excluded
    assert counts(sw, ConstructKind.STRING_LITERAL) == 3


def test_try_with_resources_and_multicatch(analyzed):
    res = analyzed["Stress.resources"]
    assert counts(res, ConstructKind.TRY_BLOCK) == 1
    assert counts(res, ConstructKind.CATCH_CLAUSE) == 1
    assert counts(res, ConstructKind.METHOD_INVOCATION) == 4
    assert res.metrics.unique_variable_ids == 3  # first, second, multi


def test_nested_anonymous_parsed_exactly_once(analyzed):
    outer_run = analyzed["Stress.$anon1.run"]
    assert counts(outer_run, ConstructKind.OBJECT_CREATION) == 2  # Thread + Runnable
    assert counts(outer_run, ConstructKind.ANONYMOUS_CLASS) == 1
    assert counts(outer_run, ConstructKind.METHOD_INVOCATION) == 1  # start()
    inner_run = analyzed["Stress.$anon1.$anon2.run"]
    assert inner_run.categories.is_empty


def test_enum_constant_bodies(analyzed):
    assert analyzed["Stress.Direction.NORTH.flip"].metrics.sloc == 1
    assert analyzed["Stress.Direction.getCode"].categories.is_getter


def test_synchronized_block_nesting(analyzed):
    locked = analyzed["Stress.locked"]
    assert locked.metrics.max_nesting == 1
    assert counts(locked, ConstructKind.INCREMENTATION) == 1
