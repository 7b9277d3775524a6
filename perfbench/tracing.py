"""Timing wrappers installed from outside the program, around its public layers.

A `Tracer` replaces each traced function with a wrapper under every name a
`lowrisk` module binds it to (for example `itemize` in both `pipeline` and
`evaluation`), so calls made through any import path are recorded. Each call
becomes a span `(name, start, end, parent, run_id)` kept in memory; counts are
taken from the arguments and return value of the same call. `layer_stats`
derives self time (span time minus the time its child spans cover) after the
run, and `write_spans` writes the spans out.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

from lowrisk.classifier import Variant
from lowrisk.pipeline import PipelineConfig

ROOT_SPAN = "cli"

_BUDGET_VARIANT = {PipelineConfig().budget(v): v.value for v in Variant}


def _select_prefix_counts(args, kwargs, result, parent):
    budget = args[3] if len(args) > 3 else kwargs["budget"]
    return {f"n_{_BUDGET_VARIANT[budget]}": result}


def _itemize_phase(parent: str | None) -> str:
    """`itemize` runs for training inside `train_on` and for prediction elsewhere."""
    return "train" if parent == "pipeline.train_on" else "predict"


def _itemize_counts(args, kwargs, result, parent):
    return {f"{_itemize_phase(parent)}_calls": 1}


# (module, attribute path, counter). A counter maps (args, kwargs, result,
# parent span name) to the extra counts of one call.
LAYERS = (
    ("lowrisk.java.tokens", "tokenize", lambda a, k, r, p: {"tokens": len(r)}),
    ("lowrisk.java.structure", "parse_compilation_unit", lambda a, k, r, p: {"methods": len(r.methods)}),
    ("lowrisk.java.metrics", "scan_method", None),
    ("lowrisk.java.analyzer", "analyze_source", lambda a, k, r, p: {"skipped": len(r[1])}),
    ("lowrisk.dataset", "read_csv", lambda a, k, r, p: {"rows": len(r)}),
    ("lowrisk.dataset", "build_unified", lambda a, k, r, p: {"rows": len(a[0])}),
    ("lowrisk.dataset", "write_csv", None),
    ("lowrisk.discretize", "fit_discretization", None),
    ("lowrisk.discretize", "itemize", _itemize_counts),
    ("lowrisk.balance", "balance", lambda a, k, r, p: {"out_vectors": len(r)}),
    ("lowrisk.mining", "mine", lambda a, k, r, p: {"rules": len(r)}),
    ("lowrisk.mining", "prune_redundant", lambda a, k, r, p: {"kept": len(r)}),
    ("lowrisk.classifier", "select_prefix", _select_prefix_counts),
    ("lowrisk.classifier", "LfrClassifier.matched_rule_index", None),
    ("lowrisk.pipeline", "train_on", None),
    ("lowrisk.evaluation", "score_predictions", None),
    ("lowrisk.evaluation", "emit_report", None),
    ("lowrisk.evaluation", "write_prediction_dump", None),
)

# Counts reported per layer besides `calls`; every layer also has `self_s`.
EXTRA_COUNTS = {
    "java.tokens.tokenize": ("tokens",),
    "java.structure.parse_compilation_unit": ("methods",),
    "java.analyzer.analyze_source": ("failed", "skipped"),
    "dataset.read_csv": ("rows",),
    "dataset.build_unified": ("rows",),
    "discretize.itemize": ("train_calls", "predict_calls"),
    "balance.balance": ("out_vectors",),
    "mining.mine": ("rules",),
    "mining.prune_redundant": ("kept",),
    "classifier.select_prefix": ("n_strict", "n_lenient"),
}


def layer_name(module: str, attr: str) -> str:
    return module.removeprefix("lowrisk.") + "." + attr


class Tracer:
    """Records spans and counts for the calls of the wrapped layers."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.counts: dict[str, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: list[int] = []
        self._patches: list[tuple] = []
        self.missing: list[str] = []  # layers the program no longer defines

    def span(self, name: str, fn, counter=None):
        """Return `fn` wrapped so that each call records a span named `name`."""
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(spans)
            record = [name, 0.0, 0.0, parent]
            spans.append(record)
            stack.append(index)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[name]["failed"] += 1
                raise
            finally:
                record[2] = clock()
                stack.pop()
                counts[name]["calls"] += 1
            if counter is not None:
                parent_name = spans[parent][0] if parent is not None else None
                try:
                    extra = counter(args, kwargs, result, parent_name)
                except (TypeError, KeyError, IndexError, AttributeError):
                    # The layer's signature changed; its time is still recorded.
                    counts[name]["counter_errors"] += 1
                else:
                    for key, value in extra.items():
                        counts[name][key] += value
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every layer in LAYERS under each name that binds it."""
        modules = [m for n, m in list(sys.modules.items()) if n == "lowrisk" or n.startswith("lowrisk.")]
        for module_name, attr, counter in LAYERS:
            name = layer_name(module_name, attr)
            cls_name, _, leaf = attr.rpartition(".")
            owner = sys.modules.get(module_name)
            if cls_name:
                owner = getattr(owner, cls_name, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.span(name, original, counter)
            if cls_name:
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def layer_stats(self) -> dict[str, float]:
        """Self time, calls and counts per layer, plus the root's residual.

        The self times of all spans, the root included, add up to the root
        span's duration.
        """
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start  # calls are serial: children never overlap
        self_s: dict[str, float] = defaultdict(float)
        itemize_self = defaultdict(float)
        for (name, start, end, parent), child_time in zip(self.spans, covered):
            own = (end - start) - child_time
            self_s[name] += own
            if name == "discretize.itemize":
                itemize_self[_itemize_phase(self.spans[parent][0] if parent is not None else None)] += own
        stats: dict[str, float] = {}
        for module_name, attr, _ in LAYERS:
            name = layer_name(module_name, attr)
            layer = self.counts.get(name, {})
            stats[f"{name}.self_s"] = self_s.get(name, 0.0)
            stats[f"{name}.calls"] = layer.get("calls", 0)
            for key in EXTRA_COUNTS.get(name, ()):
                stats[f"{name}.{key}"] = layer.get(key, 0)
        stats["discretize.itemize.train_self_s"] = itemize_self["train"]
        stats["discretize.itemize.predict_self_s"] = itemize_self["predict"]
        mined = stats["mining.mine.rules"]
        stats["mining.prune_keep_ratio"] = stats["mining.prune_redundant.kept"] / mined if mined else 0.0
        roots = [s for s in self.spans if s[0] == ROOT_SPAN]
        stats["cli.self_s"] = self_s[ROOT_SPAN]
        stats["trace.wall_s"] = sum(end - start for _, start, end, _ in roots)
        return stats

    def counts_only(self) -> dict[str, int]:
        return {
            f"{name}.{key}": value
            for name, layer in sorted(self.counts.items())
            for key, value in sorted(layer.items())
        }

    def write_spans(self, path) -> None:
        """Write one JSON object per span: name, start, end, parent, run id."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "run": self.run_id}
                    )
                    + "\n"
                )
