"""Java source analysis: tokenizer, method enumeration, and metric computation."""

from lowrisk.java.analyzer import (
    MethodIdentity,
    MethodRecord,
    analyze_project,
    analyze_source,
)
from lowrisk.java.metrics import CategoryFlags, ConstructKind, RawMetrics

__all__ = [
    "CategoryFlags",
    "ConstructKind",
    "MethodIdentity",
    "MethodRecord",
    "RawMetrics",
    "analyze_project",
    "analyze_source",
]
