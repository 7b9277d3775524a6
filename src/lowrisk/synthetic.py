"""Synthetic project generator for desk-scale end-to-end evaluation.

Each generated project mixes trivial methods (getters, setters, empty
methods, delegations; low SLOC/complexity) with complex methods whose
average fault rate is ten times higher. Getter/setter/empty methods are
nearly fault-free while delegation methods carry most of the trivial-side
faults, so high-confidence rules exist for the clean archetypes.

Each `randint(low, high)` is drawn inline, as `Random._randbelow_with_getrandbits`
draws it, so a seed gives the same random stream, and the same project, as one
`rng.randint` call per value.

The four trivial archetypes can draw only 26 distinct (metrics, categories)
pairs: getter 3, setter 3, empty 2 and delegation 2 x 3 x 3. These are built
once, at import, and indexed by the drawn values, so the records of trivial
methods share their `RawMetrics`; only a complex occurrence builds its own.

`generate_project` pauses the cyclic garbage collector while it builds a project.
Every record it makes is a tuple of strings, ints and tuples, so none can be in a
reference cycle and a collection has nothing to free. The records are `NamedTuple`s,
tuple subclasses that the collector never untracks, so each older-generation pass
would walk every record made so far: about a third of the time of a 100,000-method
project. Reference counting frees the records as before, and the collector's
enabled state is restored on return and on raise.
"""

from __future__ import annotations

import gc
import random
from operator import itemgetter

from lowrisk.dataset import MethodRecord, Snapshot, UnifiedMethod
from lowrisk.java.analyzer import MethodIdentity
from lowrisk.java.metrics import N_CONSTRUCT_KINDS, CategoryFlags, ConstructKind as K, RawMetrics

_P_CLEAN_TRIVIAL = 0.001  # getters, setters, empty methods
_P_DELEGATION = 0.018
_P_COMPLEX = 0.0525  # 10x the average trivial rate
_TRIVIAL_FRACTION = 0.5  # the share of methods drawn from the trivial archetypes
_MIN_FAULTY = 10  # enough faulty methods for stratified 10-fold CV
_N_FILES = 97  # methods are spread over this many files, one type each

_ARCHETYPES = ("getter", "setter", "empty", "delegation")
_P_FAULT = dict.fromkeys(_ARCHETYPES, _P_CLEAN_TRIVIAL) | {"delegation": _P_DELEGATION, "complex": _P_COMPLEX}
_OCCURRENCES = (1, 1, 1, 1, 1, 1, 1, 1, 2, 3)  # occurrences of a faulty method, drawn uniformly


def _counts(*kinds: K) -> tuple[int, ...]:
    """Construct counts of one for each of kinds, zero elsewhere."""
    return tuple(int(kind in kinds) for kind in K)


def _pairs(flags: CategoryFlags, metrics) -> tuple[tuple[RawMetrics, CategoryFlags], ...]:
    """(m, flags) for each m in metrics."""
    return tuple((m, flags) for m in metrics)


# Every (metrics, categories) pair that a trivial archetype can draw, built once
# and indexed by its draws in stream order, so that all records share them.
_GETTER = _pairs(
    CategoryFlags(is_getter=True),
    (RawMetrics(2 + sloc, 1, 0, 0, 1, _counts(K.RETURN_STATEMENT)) for sloc in range(3)),
)
_SETTER = _pairs(
    CategoryFlags(is_setter=True),
    (RawMetrics(2 + sloc, 1, 0, 0, 2, _counts(K.ASSIGNMENT)) for sloc in range(3)),
)
_EMPTY = _pairs(CategoryFlags(is_empty=True), (RawMetrics(1 + sloc, 1, 0, 0, 0, _counts()) for sloc in range(2)))
_DELEGATION = tuple(  # indexed by counts, then SLOC, then variables
    tuple(
        _pairs(CategoryFlags(is_delegation=True), (RawMetrics(2 + sloc, 1, 0, 1, 1 + v, counts) for v in range(3)))
        for sloc in range(3)
    )
    for counts in (_counts(K.METHOD_INVOCATION), _counts(K.METHOD_INVOCATION, K.RETURN_STATEMENT))
)
_COMPLEX_FLAGS = CategoryFlags()

# A complex method's draws in stream order, as (slot, low, n, k): values[slot]
# becomes low plus a draw below n from k = n.bit_length() bits. Slots below
# N_CONSTRUCT_KINDS are construct counts; the four after them are the scalar metrics.
_SLOC, _NESTING, _CHAINING, _VARIABLES = range(N_CONSTRUCT_KINDS, N_CONSTRUCT_KINDS + 4)
_COMPLEX_PLAN = tuple(
    (int(slot), low, high - low + 1, (high - low + 1).bit_length())
    for slot, low, high in (
        (K.METHOD_INVOCATION, 1, 25), (K.IF_CONDITION, 1, 8), (K.ELSE_BLOCK, 0, 3),
        (K.LOOP, 0, 5), (K.RETURN_STATEMENT, 1, 4), (K.ASSIGNMENT, 1, 15),
        (K.ARITHMETIC_INFIX_OP, 0, 10), (K.COMPARISON_OPERATOR, 1, 10),
        (K.LOGICAL_OPERATOR, 0, 5), (K.STRING_LITERAL, 0, 6), (K.NULL_LITERAL, 0, 4),
        (K.NULL_CHECK, 0, 3),  # then capped at the null literals
        (K.CAST_EXPRESSION, 0, 3), (K.OBJECT_CREATION, 0, 5), (K.ARRAY_ACCESS, 0, 6),
        (K.TERNARY_OPERATION, 0, 2), (K.TRY_BLOCK, 0, 2),  # one catch clause per try block
        (K.THROW_STATEMENT, 0, 2), (K.INCREMENTATION, 0, 3),
        (_SLOC, 8, 120), (_NESTING, 1, 5), (_CHAINING, 1, 4), (_VARIABLES, 3, 18),
    )
)
_branches = itemgetter(K.IF_CONDITION, K.LOOP, K.CATCH_CLAUSE, K.TERNARY_OPERATION, K.LOGICAL_OPERATOR)


def _below(getrandbits, n: int, k: int) -> int:
    """rng.randrange(n), drawn as Random._randbelow_with_getrandbits draws it; k = n.bit_length()."""
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def _metrics(getrandbits, archetype: str) -> tuple[RawMetrics, CategoryFlags]:
    """One occurrence's metrics and categories, drawn for archetype."""
    if archetype == "getter":
        return _GETTER[_below(getrandbits, 3, 2)]
    if archetype == "setter":
        return _SETTER[_below(getrandbits, 3, 2)]
    if archetype == "empty":
        return _EMPTY[_below(getrandbits, 2, 2)]
    if archetype == "delegation":
        # Subscripts are evaluated left to right, so the draws keep their order.
        return _DELEGATION[_below(getrandbits, 2, 2)][_below(getrandbits, 3, 2)][_below(getrandbits, 3, 2)]
    values = [0] * (N_CONSTRUCT_KINDS + 4)
    for slot, low, n, k in _COMPLEX_PLAN:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        values[slot] = low + r
    values[K.NULL_CHECK] = min(values[K.NULL_LITERAL], values[K.NULL_CHECK])
    values[K.CATCH_CLAUSE] = values[K.TRY_BLOCK]
    cc = 1 + sum(_branches(values))
    counts = tuple(values[:N_CONSTRUCT_KINDS])
    metrics = RawMetrics(values[_SLOC], cc, values[_NESTING], values[_CHAINING], values[_VARIABLES], counts)
    return metrics, _COMPLEX_FLAGS


def generate_project(name: str, seed: int, n_methods: int = 2000) -> list[UnifiedMethod]:
    """Generate one synthetic project as a unified method list, with the cyclic
    collector paused while it is built (see the module docstring)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _build_project(name, seed, n_methods)
    finally:
        if enabled:
            gc.enable()


def _build_project(name: str, seed: int, n_methods: int) -> list[UnifiedMethod]:
    rng = random.Random(seed)
    getrandbits, draw_float = rng.getrandbits, rng.random
    n_trivial = int(n_methods * _TRIVIAL_FRACTION)
    files = [f"src/{name}/File{j}.java" for j in range(_N_FILES)]
    types = [f"Type{j}" for j in range(_N_FILES)]
    methods: list[UnifiedMethod] = []
    for i in range(n_methods):
        archetype = _ARCHETYPES[i % len(_ARCHETYPES)] if i < n_trivial else "complex"
        j = i % _N_FILES
        identity = MethodIdentity(name, files[j], types[j], f"method{i}", ("int",) if i % 3 else ())
        faulty = draw_float() < _P_FAULT[archetype]
        if faulty:
            n_occ = _OCCURRENCES[_below(getrandbits, 10, 4)]
            occurrences = tuple(
                MethodRecord(identity, *_metrics(getrandbits, archetype), True, Snapshot.FAULTY)
                for _ in range(n_occ)
            )
        else:
            occurrences = (MethodRecord(identity, *_metrics(getrandbits, archetype)),)
        methods.append(UnifiedMethod(identity, faulty, occurrences))
    # Guarantee enough faulty methods for stratified folding.
    deficit = _MIN_FAULTY - sum(1 for m in methods if m.faulty)
    if deficit > 0:
        n_complex = n_methods - n_trivial
        if deficit > n_complex:
            raise ValueError(f"n_methods={n_methods} gives {n_complex} complex methods, too few to make "
                             f"the {_MIN_FAULTY} faulty methods (_MIN_FAULTY) that stratified folding needs")
        for i in rng.sample(range(n_trivial, n_methods), deficit):
            identity = methods[i].identity
            rec = MethodRecord(identity, *_metrics(getrandbits, "complex"), True, Snapshot.FAULTY)
            methods[i] = UnifiedMethod(identity, True, (rec,))
    return methods


def generate_corpus(
    n_projects: int = 6, seed: int = 0, n_methods: int = 2000
) -> dict[str, list[UnifiedMethod]]:
    """Generate a corpus of synthetic projects keyed by project name."""
    return {
        f"synth{i}": generate_project(f"synth{i}", seed=seed * 1000 + i, n_methods=n_methods)
        for i in range(n_projects)
    }
