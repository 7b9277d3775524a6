"""Benchmark harness for lowrisk: end-to-end figures and a traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see workloads.json for sizes,
configs, expected digests and the layer shares of the seed commit):

  extract      `lowrisk extract --jobs 1` over 200 copies of the Java corpus
  cv-within    `lowrisk evaluate --mode within` on the acceptance corpus
  cross-deep   `lowrisk evaluate --mode cross` at antecedent cap 5
  train-large  `lowrisk.pipeline.train_on` on one 100,000-method project

Each iteration runs in a fresh process (worker.py): set-up, one timed call,
then the correctness checks. Iterations repeat until the next one would end
after S seconds. With --trace 0 the figures are medians over untraced
iterations. With --trace 1, a traced, an untraced and a traced iteration
come first, then the two kinds alternate while time is left; the per-layer
figures come from the traced iteration of median wall time, and
`trace.overhead_s` is the median traced minus the median untraced wall
time. Human-readable lines come first; the last line of standard output is
one JSON object with keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("extract", "cv-within", "cross-deep", "train-large")
REQUIRED_INPUTS = (
    "src/lowrisk/cli.py",
    "tests/data/golden_metrics.csv",
    "tests/data/corpus",
    "tests/data/corpus_extra/Stress.java",
)
OUT_DIR = ROOT / ".perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s
MIN_TRACED = 2  # the layer counts of two traced iterations must agree
# (name, unit) of the end-to-end metrics, in the order they are printed.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("methods_per_s", "methods/s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def run_worker(args, work: Path, index: int, trace: bool, deadline: float) -> dict:
    # Iteration directories are removed only when the run ends: on a disk
    # mounted with online discard, deleting files slows the file creation
    # that follows, which would leak into the next iteration's set-up time.
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--work-dir", str(work / f"i{index}"),
    ]
    if trace:
        cmd += ["--trace", "--spans-out", str(work / f"spans-{index}.jsonl")]
    # A fixed hash seed keeps set and dict layouts, and so timings, equal
    # across the fresh processes; outputs do not depend on it.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"iteration {index} did not end within the {DEADLINE_S:.0f} s budget")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = "\n".join(proc.stderr.splitlines()[-20:])
        raise BenchError(f"iteration {index} exited with code {proc.returncode}:\n{tail}")
    return json.loads(lines[-1])


def measure(args, work: Path) -> tuple[list[dict], list[dict]]:
    start = time.monotonic()
    deadline = start + DEADLINE_S
    untraced: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    if args.trace:
        # The first untraced iteration sits between two traced ones, so that
        # a drift in machine speed cancels out of trace.overhead_s.
        kinds = itertools.chain([True, False, True], itertools.cycle([False, True]))
    else:
        kinds = itertools.repeat(False)
    for index, trace in enumerate(kinds):
        began = time.monotonic()
        result = run_worker(args, work, index, trace, deadline)
        if trace:
            result["spans"] = work / f"spans-{index}.jsonl"
        (traced if trace else untraced).append(result)
        longest = max(longest, time.monotonic() - began)
        if args.trace and len(traced) < MIN_TRACED:
            continue
        if time.monotonic() - start + longest > args.seconds:
            return untraced, traced


def describe(values: list[float], unit: str) -> str:
    median = statistics.median(values)
    return f"{median:.6g} {unit} (median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"


def end_to_end(args, untraced: list[dict]) -> dict:
    samples = {
        "setup_s": [r["setup_s"] for r in untraced],
        "wall_s": [r["wall_s"] for r in untraced],
        "methods_per_s": [r["methods"] / r["wall_s"] for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
    }
    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced iterations, each a fresh process")
    metrics = {}
    for name, unit in END_TO_END:
        values = samples[name]
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(f"  {name:<16} {describe(values, unit)}")
    # Input bytes per second; extract reads Java source, the evaluate
    # workloads read metrics CSVs, and train-large takes its input in memory.
    mb_per_s = [r["input_bytes"] / 1e6 / r["wall_s"] for r in untraced if "input_bytes" in r]
    print(f"  {'mb_per_s':<16} {describe(mb_per_s, 'MB/s') if mb_per_s else 'n/a (input is in memory)'}")
    return metrics


def per_layer(untraced: list[dict], traced: list[dict], chosen: dict, spans: Path) -> dict:
    layers = dict(chosen["layers"])
    layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in untraced
    )
    wall = layers["trace.wall_s"]
    print(f"traced iteration of median wall time: {wall:.6g} s; spans in {spans.relative_to(ROOT)}")
    if chosen["missing_layers"]:
        print(f"  layers not found in the program: {', '.join(chosen['missing_layers'])}")
    shares = sorted(
        ((v, k.removesuffix(".self_s")) for k, v in layers.items() if k.endswith(".self_s")),
        reverse=True,
    )
    print(f"  dominant layer: {shares[0][1]}")
    for value, name in shares:
        if value > 0:
            print(f"  {name + '.self_s':<52} {value:10.6f} s  {100 * value / wall:5.1f}%")
    for name, value in layers.items():
        if not name.endswith(".self_s"):
            print(f"  {name:<52} {value:.6g} {layer_unit(name)}")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in layers.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED_INPUTS if not (ROOT / p).exists()]
    if missing:
        print(f"error: run from a lowrisk checkout; missing {', '.join(missing)}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind like an exception: subprocess.run then kills and
    # waits for the running iteration, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = OUT_DIR / f"work-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        untraced, traced = measure(args, work)
        runs = untraced + traced
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        problems = [p for r in runs for p in r["problems"]]
        if traced:
            # Counts at the layer boundaries must repeat exactly across runs.
            attempted += 1
            if any(r["layer_counts"] != traced[0]["layer_counts"] for r in traced):
                failed += 1
                problems.append("layer counts differ between traced iterations of one seed")
            chosen = sorted(traced, key=lambda r: r["wall_s"])[(len(traced) - 1) // 2]
            spans = OUT_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
            shutil.move(chosen["spans"], spans)

        metrics = end_to_end(args, untraced)
        print(f"  {'failed_ops_frac':<16} {failed / attempted:.6g} ratio ({failed} of {attempted} operations failed)")
        for key, value in sorted(untraced[0]["counts"].items()):
            print(f"  {key:<16} {value} count")
        for problem in problems[:10]:
            print(f"  FAILED CHECK: {problem}")
        if len(problems) > 10:
            print(f"  ... and {len(problems) - 10} more failed checks")
        if traced:
            metrics = per_layer(untraced, traced, chosen, spans)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
