"""Java source analysis: tokenizer, method enumeration, and metric computation."""

from lowrisk.java.analyzer import (
    AnalyzedMethod,
    MethodIdentity,
    analyze_project,
    analyze_source,
)
from lowrisk.java.metrics import CategoryFlags, ConstructKind, RawMetrics

__all__ = [
    "AnalyzedMethod",
    "CategoryFlags",
    "ConstructKind",
    "MethodIdentity",
    "RawMetrics",
    "analyze_project",
    "analyze_source",
]
