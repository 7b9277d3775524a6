"""Synthetic project generator for desk-scale end-to-end evaluation.

Each generated project mixes trivial methods (getters, setters, empty
methods, delegations; low SLOC/complexity) with complex methods whose
average fault rate is ten times higher. Getter/setter/empty methods are
nearly fault-free while delegation methods carry most of the trivial-side
faults, so high-confidence rules exist for the clean archetypes.
"""

from __future__ import annotations

import random
from lowrisk.dataset import MethodRecord, Snapshot, UnifiedMethod
from lowrisk.java.analyzer import MethodIdentity
from lowrisk.java.metrics import N_CONSTRUCT_KINDS, CategoryFlags, ConstructKind, RawMetrics

_P_CLEAN_TRIVIAL = 0.001  # getters, setters, empty methods
_P_DELEGATION = 0.018
_P_COMPLEX = 0.0525  # 10x the average trivial rate
_TRIVIAL_FRACTION = 0.5  # the share of methods drawn from the trivial archetypes
_MIN_FAULTY = 10  # enough faulty methods for stratified 10-fold CV


def _zero_counts() -> list[int]:
    return [0] * N_CONSTRUCT_KINDS


def _trivial_metrics(rng: random.Random, archetype: str) -> tuple[RawMetrics, CategoryFlags]:
    counts = _zero_counts()
    flags = {}
    if archetype == "getter":
        counts[ConstructKind.RETURN_STATEMENT] = 1
        metrics = RawMetrics(rng.randint(2, 4), 1, 0, 0, 1, tuple(counts))
        flags["is_getter"] = True
    elif archetype == "setter":
        counts[ConstructKind.ASSIGNMENT] = 1
        metrics = RawMetrics(rng.randint(2, 4), 1, 0, 0, 2, tuple(counts))
        flags["is_setter"] = True
    elif archetype == "empty":
        metrics = RawMetrics(rng.randint(1, 2), 1, 0, 0, 0, tuple(counts))
        flags["is_empty"] = True
    else:  # delegation
        counts[ConstructKind.METHOD_INVOCATION] = 1
        counts[ConstructKind.RETURN_STATEMENT] = rng.randint(0, 1)
        metrics = RawMetrics(rng.randint(2, 4), 1, 0, 1, rng.randint(1, 3), tuple(counts))
        flags["is_delegation"] = True
    return metrics, CategoryFlags(**flags)


def _complex_metrics(rng: random.Random) -> tuple[RawMetrics, CategoryFlags]:
    counts = _zero_counts()
    counts[ConstructKind.METHOD_INVOCATION] = rng.randint(1, 25)
    counts[ConstructKind.IF_CONDITION] = rng.randint(1, 8)
    counts[ConstructKind.ELSE_BLOCK] = rng.randint(0, 3)
    counts[ConstructKind.LOOP] = rng.randint(0, 5)
    counts[ConstructKind.RETURN_STATEMENT] = rng.randint(1, 4)
    counts[ConstructKind.ASSIGNMENT] = rng.randint(1, 15)
    counts[ConstructKind.ARITHMETIC_INFIX_OP] = rng.randint(0, 10)
    counts[ConstructKind.COMPARISON_OPERATOR] = rng.randint(1, 10)
    counts[ConstructKind.LOGICAL_OPERATOR] = rng.randint(0, 5)
    counts[ConstructKind.STRING_LITERAL] = rng.randint(0, 6)
    counts[ConstructKind.NULL_LITERAL] = rng.randint(0, 4)
    counts[ConstructKind.NULL_CHECK] = min(counts[ConstructKind.NULL_LITERAL], rng.randint(0, 3))
    counts[ConstructKind.CAST_EXPRESSION] = rng.randint(0, 3)
    counts[ConstructKind.OBJECT_CREATION] = rng.randint(0, 5)
    counts[ConstructKind.ARRAY_ACCESS] = rng.randint(0, 6)
    counts[ConstructKind.TERNARY_OPERATION] = rng.randint(0, 2)
    counts[ConstructKind.TRY_BLOCK] = rng.randint(0, 2)
    counts[ConstructKind.CATCH_CLAUSE] = counts[ConstructKind.TRY_BLOCK]
    counts[ConstructKind.THROW_STATEMENT] = rng.randint(0, 2)
    counts[ConstructKind.INCREMENTATION] = rng.randint(0, 3)
    cc = (
        1
        + counts[ConstructKind.IF_CONDITION]
        + counts[ConstructKind.LOOP]
        + counts[ConstructKind.CATCH_CLAUSE]
        + counts[ConstructKind.TERNARY_OPERATION]
        + counts[ConstructKind.LOGICAL_OPERATOR]
    )
    metrics = RawMetrics(
        sloc=rng.randint(8, 120),
        cyclomatic_complexity=cc,
        max_nesting=rng.randint(1, 5),
        max_chaining=rng.randint(1, 4),
        unique_variable_ids=rng.randint(3, 18),
        construct_counts=tuple(counts),
    )
    return metrics, CategoryFlags()


_ARCHETYPES = ("getter", "setter", "empty", "delegation")


def generate_project(name: str, seed: int, n_methods: int = 2000) -> list[UnifiedMethod]:
    """Generate one synthetic project as a unified method list."""
    rng = random.Random(seed)
    n_trivial = int(n_methods * _TRIVIAL_FRACTION)
    methods: list[UnifiedMethod] = []
    complex_indices: list[int] = []
    for i in range(n_methods):
        if i < n_trivial:
            archetype = _ARCHETYPES[i % len(_ARCHETYPES)]
            p_fault = _P_DELEGATION if archetype == "delegation" else _P_CLEAN_TRIVIAL
            make = lambda: _trivial_metrics(rng, archetype)  # noqa: E731
        else:
            archetype = "complex"
            p_fault = _P_COMPLEX
            make = lambda: _complex_metrics(rng)  # noqa: E731
            complex_indices.append(i)
        identity = MethodIdentity(
            project=name,
            file_path=f"src/{name}/File{i % 97}.java",
            type_name=f"Type{i % 97}",
            method_name=f"method{i}",
            param_signature=("int",) if i % 3 else (),
        )
        faulty = rng.random() < p_fault
        if faulty:
            n_occ = rng.choice((1, 1, 1, 1, 1, 1, 1, 1, 2, 3))
            occurrences = tuple(
                MethodRecord(identity, *make(), faulty=True, snapshot=Snapshot.FAULTY)
                for _ in range(n_occ)
            )
        else:
            occurrences = (MethodRecord(identity, *make()),)
        methods.append(UnifiedMethod(identity, faulty, occurrences))
    # Guarantee enough faulty methods for stratified folding.
    faulty_count = sum(1 for m in methods if m.faulty)
    deficit = _MIN_FAULTY - faulty_count
    if deficit > 0:
        for i in rng.sample(complex_indices, deficit):
            old = methods[i]
            rec = MethodRecord(
                old.identity, *_complex_metrics(rng), faulty=True, snapshot=Snapshot.FAULTY
            )
            methods[i] = UnifiedMethod(old.identity, True, (rec,))
    return methods


def generate_corpus(
    n_projects: int = 6, seed: int = 0, n_methods: int = 2000
) -> dict[str, list[UnifiedMethod]]:
    """Generate a corpus of synthetic projects keyed by project name."""
    return {
        f"synth{i}": generate_project(f"synth{i}", seed=seed * 1000 + i, n_methods=n_methods)
        for i in range(n_projects)
    }
