"""Training pipeline shared by the CLI and the evaluator.

One training run is: fit tertile discretization on the training methods'
occurrence rows, itemize, balance (unless disabled), mine the non-redundant
rules with the NotFaulty consequent in classifier order, and select the
top-n prefix for each classifier variant against the unbalanced faulty
methods. Only what is read is itemized: the faulty methods, and the clean
ones that balancing samples (all of them when it does not undersample, or
with balancing disabled). Balancing gets the clean methods as a
`dataset._Lazy` that itemizes each one when it is first read. From
itemization to prediction every method is an item mask and the two classes
are kept apart; item names appear only in the classifier file. `train_on`
reads a `MethodTable`; a unified method list is turned into one on entry,
in list order.
`TrainedModel.to_json` and `TrainedModel.from_json` are the writer and the
reader of the classifier file that `lowrisk train` hands to `lowrisk predict`.
`PipelineConfig.to_json` and `PipelineConfig.from_json` write and read a
config as one flat object with a key per `CONFIG_KEYS` entry: a classifier
file's `run_config` is a valid `--config` file. `write_json` writes every
JSON artifact, as strict JSON.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from collections.abc import Sequence
from dataclasses import MISSING, dataclass, field, fields
from itertools import compress
from operator import not_
from pathlib import Path

from lowrisk.balance import BalanceConfig, Classes, balance
from lowrisk.classifier import LfrClassifier, Variant, select_prefix
from lowrisk.dataset import MethodTable, UnifiedMethod, _Lazy
from lowrisk.discretize import (
    LABEL_NOT_FAULTY,
    VOCABULARY,
    DiscretizationModel,
    fit_discretization,
    item_mask,
    itemize,
)
from lowrisk.errors import SchemaError, TooFewMinorityError, VocabularyMismatchError
from lowrisk.mining import AssociationRule, MiningConfig, mine

# Of the classifier file that TrainedModel.to_json writes; 2 has a flat run_config.
FORMAT_VERSION = 2


def derive_seed(master_seed: int, *scope) -> int:
    """Stable sub-seed for a named scope (project, fold, stage, ...)."""
    text = repr((master_seed,) + scope).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


@dataclass(frozen=True)
class PipelineConfig:
    mining: MiningConfig = field(default_factory=MiningConfig)
    smote_over: int = 100
    smote_under: int = 200
    smote_k: int = 5
    no_smote: bool = False
    budget_strict: float = 0.025
    budget_lenient: float = 0.05
    folds: int = 10
    seed: int = 0

    def __post_init__(self):
        for name in ("budget_strict", "budget_lenient"):
            if not 0 <= getattr(self, name) <= 1:  # NaN fails this too
                raise ValueError(f"{name} must be in [0, 1]")
        if self.folds < 2:
            raise ValueError("folds must be at least 2")
        BalanceConfig(self.smote_over, self.smote_under, self.smote_k)  # raises on bad SMOTE settings

    def budget(self, variant: Variant) -> float:
        return self.budget_strict if variant is Variant.STRICT else self.budget_lenient

    def to_json(self) -> dict:
        """The config as the flat object that `from_json` reads."""
        return {key: getattr(self.mining if key in _MINING_KEYS else self, key) for key in CONFIG_KEYS}

    @classmethod
    def from_json(cls, values: dict, **overrides) -> "PipelineConfig":
        """The config of a flat object whose keys are CONFIG_KEYS, with the
        overrides (typed values, such as flags) put over it; a key neither
        has keeps its default. A SchemaError names another key or a value of
        the wrong JSON type in values; a ValueError, a value out of range."""
        unknown = set(values) - set(CONFIG_KEYS)
        if unknown:
            raise SchemaError(f"unknown config key(s): {', '.join(sorted(unknown))}")
        for key, value in values.items():
            if not _is_a(value, CONFIG_KEYS[key]):
                raise SchemaError(f"config key {key!r} takes a {CONFIG_KEYS[key].__name__}, not {value!r}")
        values = {**values, **overrides}
        mining = MiningConfig(**{k: v for k, v in values.items() if k in _MINING_KEYS})
        return cls(mining, **{k: v for k, v in values.items() if k not in _MINING_KEYS})


# One config key per field of MiningConfig and PipelineConfig but
# PipelineConfig.mining, in declaration order, typed as the field's default.
CONFIG_KEYS = {
    f.name: type(f.default)
    for f in fields(MiningConfig) + fields(PipelineConfig)
    if f.default is not MISSING
}
_MINING_KEYS = frozenset(f.name for f in fields(MiningConfig))


def _is_a(value, kind: type) -> bool:
    """JSON typing of a config value: a bool is never a number, an int is a float."""
    if isinstance(value, bool) or kind is bool:
        return isinstance(value, bool) and kind is bool
    return isinstance(value, int) or (kind is float and isinstance(value, float))


def write_json(path: str | Path, document: dict) -> None:
    """Write strict JSON: a NaN or infinity raises ValueError instead of being written."""
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def _entry(owner, key: str, kind, where: str):
    """owner[key] if owner is a JSON object and that entry is a kind, else SchemaError."""
    value = owner.get(key) if isinstance(owner, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise SchemaError(f"{where} has no valid {key!r} entry")
    return value


def _require_finite(document, where: str) -> None:
    """SchemaError at the first NaN or infinity, which strict JSON cannot hold.

    Python's json reads the constants NaN and Infinity, and 1e999, as such floats.
    """
    stack = [(None, document)]
    while stack:
        key, value = stack.pop()
        if isinstance(value, float) and not math.isfinite(value):
            raise SchemaError(f"{where} entry {key!r} is {value}, which strict JSON does not allow")
        if isinstance(value, dict):
            stack.extend(value.items())
        elif isinstance(value, list):
            stack.extend((key, item) for item in value)


@dataclass(frozen=True)
class TrainedModel:
    discretization: DiscretizationModel
    rules: tuple  # ordered, redundancy-pruned
    classifiers: dict  # Variant -> LfrClassifier
    meta: dict

    def to_json(self, config: PipelineConfig) -> dict:
        """The classifier file: everything prediction needs, plus the run's config."""
        return {
            "format_version": FORMAT_VERSION,
            "discretization": self.discretization.to_json(),
            "vocabulary": list(VOCABULARY),
            "rules": [r.to_json() for r in self.rules],
            "variants": {
                variant.value: {"budget": clf.budget, "n": clf.n}
                for variant, clf in self.classifiers.items()
            },
            "training_meta": self.meta,
            "run_config": config.to_json(),
        }

    @classmethod
    def from_json(cls, data) -> "TrainedModel":
        """Read a classifier file, checking every entry that prediction reads."""
        where = "classifier file"
        if not isinstance(data, dict):
            raise SchemaError(f"{where} must be a JSON object")
        _require_finite(data, where)
        version = _entry(data, "format_version", int, where)
        if version != FORMAT_VERSION:
            raise SchemaError(
                f"{where} has 'format_version' {version}; only {FORMAT_VERSION} can be read"
            )
        vocabulary = data.get("vocabulary")
        if not isinstance(vocabulary, list) or tuple(vocabulary) != VOCABULARY:
            raise VocabularyMismatchError(f"{where} was built with a different item vocabulary")
        discretization = DiscretizationModel.from_json(_entry(data, "discretization", dict, where))
        rules = []
        for index, rule in enumerate(_entry(data, "rules", list, where)):
            rule_where = f"{where} rule {index}"
            antecedent = _entry(rule, "antecedent", list, rule_where)
            if not all(isinstance(item, str) for item in antecedent):
                raise SchemaError(f"{rule_where} has an antecedent item that is not a string")
            if _entry(rule, "consequent", str, rule_where) != LABEL_NOT_FAULTY:
                raise SchemaError(
                    f"{rule_where} has a 'consequent' other than {LABEL_NOT_FAULTY!r}"
                )
            try:
                rules.append(
                    AssociationRule(
                        item_mask(antecedent),
                        support=_entry(rule, "support", (int, float), rule_where),
                        confidence=_entry(rule, "confidence", (int, float), rule_where),
                    )
                )
            except ValueError as exc:
                raise SchemaError(f"{rule_where}: {exc}") from exc
        rules = tuple(rules)
        variants = _entry(data, "variants", dict, where)
        meta = _entry(data, "training_meta", dict, where)
        classifiers = {}
        for variant in Variant:
            entry = _entry(variants, variant.value, dict, f"{where} 'variants'")
            variant_where = f"{where} variant {variant.value!r}"
            n = _entry(entry, "n", int, variant_where)
            if not 0 <= n <= len(rules):
                raise SchemaError(f"{variant_where} has no valid 'n' entry")
            budget = _entry(entry, "budget", (int, float), variant_where)
            classifiers[variant] = LfrClassifier(rules, n, budget)
        return cls(discretization, rules, classifiers, meta)


def _itemize_at(source: tuple, index: int) -> int:
    """The item mask of the table's method at indices[index], for a `_Lazy`
    over (table, indices, model)."""
    table, indices, model = source
    return itemize(table, indices[index], model)


def _vectors(table: MethodTable, config: PipelineConfig, scope: tuple):
    """(discretization, faulty masks, mining set) of a training table: the
    part of a training that reads the table."""
    is_faulty = table.faulty
    if not any(is_faulty):
        raise TooFewMinorityError("training set contains no faulty methods")
    model = fit_discretization(table)
    faulty = [itemize(table, i, model) for i in compress(range(len(table)), is_faulty)]
    clean_indices = array("q", compress(range(len(table)), map(not_, is_faulty)))
    clean = _Lazy(len(clean_indices), _itemize_at, (table, clean_indices, model))
    if config.no_smote:
        return model, faulty, Classes(faulty, list(clean))
    cfg = BalanceConfig(
        percent_over=config.smote_over,
        percent_under=config.smote_under,
        k_neighbors=config.smote_k,
        rng_seed=derive_seed(config.seed, "smote", *scope),
    )
    return model, faulty, balance(faulty, clean, cfg)


def train_on(
    methods: Sequence[UnifiedMethod] | MethodTable, config: PipelineConfig, scope: tuple = ()
) -> TrainedModel:
    """Train both classifier variants on a table or a unified method list."""
    # A table made here from a method list is freed before mining starts.
    model, faulty, mining_set = _vectors(
        methods if isinstance(methods, MethodTable) else MethodTable.from_methods(methods), config, scope
    )
    mining_stats: dict = {}
    rules = tuple(mine(mining_set.faulty, mining_set.clean, config.mining, stats=mining_stats))
    meta = {
        "training_methods": len(methods),
        "training_faulty": len(faulty),
        "balanced_size": len(mining_set),
        "rules_mined": mining_stats["rules_mined"],
        "rules_kept": mining_stats["rules_kept"],
        "scope": list(scope),
    }
    classifiers = {}
    for variant in Variant:
        budget = config.budget(variant)
        classifiers[variant] = LfrClassifier(rules, select_prefix(rules, faulty, budget=budget), budget)
    return TrainedModel(model, rules, classifiers, meta)
