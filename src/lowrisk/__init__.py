"""lowrisk: identify low-fault-risk Java methods from code metrics.

The toolchain computes method-level metrics from Java source, discretizes
them into binary items, mines association rules that predict non-faulty
methods, assembles strict/lenient top-n rule classifiers, and evaluates
them with within-project cross-validation and cross-project prediction.
"""

from lowrisk.balance import BalanceConfig, balance
from lowrisk.classifier import LfrClassifier, Variant, order_rules, select_prefix
from lowrisk.dataset import MethodRecord, MethodTable, Snapshot, UnifiedMethod
from lowrisk.discretize import VOCABULARY, DiscretizationModel, fit_discretization, itemize
from lowrisk.evaluation import (
    compute_fdr,
    evaluate_cross_project,
    evaluate_within_project,
    stratified_kfold,
)
from lowrisk.mining import AssociationRule, MiningConfig, mine, prune_redundant
from lowrisk.pipeline import PipelineConfig, train_on

__version__ = "0.1.0"

__all__ = [
    "AssociationRule",
    "BalanceConfig",
    "DiscretizationModel",
    "LfrClassifier",
    "MethodRecord",
    "MethodTable",
    "MiningConfig",
    "PipelineConfig",
    "Snapshot",
    "UnifiedMethod",
    "VOCABULARY",
    "Variant",
    "balance",
    "compute_fdr",
    "evaluate_cross_project",
    "evaluate_within_project",
    "fit_discretization",
    "itemize",
    "mine",
    "order_rules",
    "prune_redundant",
    "select_prefix",
    "stratified_kfold",
    "train_on",
]
