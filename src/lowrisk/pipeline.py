"""Training pipeline shared by the CLI and the evaluator.

One training run is: fit tertile discretization on the training records,
itemize, balance (unless disabled), mine the non-redundant rules with the
NotFaulty consequent, order them, and select the top-n prefix
for each classifier variant against the unbalanced training set.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Sequence

from lowrisk.balance import BalanceConfig, balance
from lowrisk.classifier import LfrClassifier, Variant, order_rules, select_prefix
from lowrisk.dataset import UnifiedMethod
from lowrisk.discretize import DiscretizationModel, fit_discretization, itemize
from lowrisk.errors import TooFewMinorityError
from lowrisk.mining import MiningConfig, mine


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

    def budget(self, variant: Variant) -> float:
        return self.budget_strict if variant is Variant.STRICT else self.budget_lenient

    def to_json(self) -> dict:
        return {
            "mining": self.mining.to_json(),
            "smote_over": self.smote_over,
            "smote_under": self.smote_under,
            "smote_k": self.smote_k,
            "no_smote": self.no_smote,
            "budget_strict": self.budget_strict,
            "budget_lenient": self.budget_lenient,
            "folds": self.folds,
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, data: dict) -> "PipelineConfig":
        mining = MiningConfig(**data.get("mining", {}))
        rest = {k: v for k, v in data.items() if k != "mining"}
        return cls(mining=mining, **rest)


@dataclass(frozen=True)
class TrainedModel:
    discretization: DiscretizationModel
    rules: tuple  # ordered, redundancy-pruned
    classifiers: dict  # Variant -> LfrClassifier
    meta: dict


def train_on(
    methods: Sequence[UnifiedMethod], config: PipelineConfig, scope: tuple = ()
) -> TrainedModel:
    """Train both classifier variants on a unified method list."""
    n_faulty = sum(1 for u in methods if u.faulty)
    if n_faulty == 0:
        raise TooFewMinorityError("training set contains no faulty methods")
    records = [rec for u in methods for rec in u.occurrences]
    model = fit_discretization(records)
    vectors = [itemize(u, model) for u in methods]

    if config.no_smote:
        mining_vectors = vectors
    else:
        cfg = BalanceConfig(
            percent_over=config.smote_over,
            percent_under=config.smote_under,
            k_neighbors=config.smote_k,
            rng_seed=derive_seed(config.seed, "smote", *scope),
        )
        mining_vectors = balance(vectors, cfg)

    transactions = [v.to_itemset() for v in mining_vectors]
    mining_stats: dict = {}
    rules = order_rules(mine(transactions, config.mining, stats=mining_stats))

    training_masks = [v.items for v in vectors]
    training_faulty = [u.faulty for u in methods]
    meta = {
        "training_methods": len(methods),
        "training_faulty": n_faulty,
        "balanced_size": len(mining_vectors),
        "rules_mined": mining_stats["rules_mined"],
        "rules_kept": mining_stats["rules_kept"],
        "scope": list(scope),
    }
    classifiers = {}
    for variant in Variant:
        budget = config.budget(variant)
        n = select_prefix(rules, training_masks, training_faulty, budget)
        classifiers[variant] = LfrClassifier(
            ordered_rules=tuple(rules),
            n=n,
            variant=variant,
            budget=budget,
            training_meta=dict(meta, budget=budget, n=n),
        )
    return TrainedModel(model, tuple(rules), classifiers, meta)
