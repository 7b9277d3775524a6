"""One measured iteration of one workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --work-dir DIR [--trace] [--spans-out FILE]

Builds the workload's inputs from the seed (timed as set-up), runs the timed
call once in this process, checks its outputs, and prints one JSON object as
the last line of standard output. `run.py` starts one of these per iteration
so that each iteration's peak RSS is its own.
"""

from __future__ import annotations

import time

# Set-up counts from here: importing the program, then building the inputs,
# so that work moved into module import shows as set-up time too.
START = time.perf_counter()

import argparse  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "src"))

# Layers are called through their modules so that the tracer's wrappers apply.
from lowrisk import cli, pipeline  # noqa: E402
from lowrisk import dataset as ds  # noqa: E402
from lowrisk.mining import MiningConfig  # noqa: E402
from lowrisk.synthetic import generate_corpus, generate_project  # noqa: E402

from tracing import ROOT_SPAN, Tracer  # noqa: E402

NOTES = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]

EXTRACT_COPIES = 200
ACCEPTANCE_CORPUS = {"n_projects": 6, "seed": 11}
LARGE_PROJECT = {"name": "large", "seed": 11, "n_methods": 100_000}
CONFIG_FLAGS = {
    "cv-within": ["--min-support", "0.05", "--min-confidence", "0.95", "--max-antecedent-len", "3", "--seed", "7"],
    "cross-deep": ["--min-support", "0.10", "--min-confidence", "0.95", "--max-antecedent-len", "5", "--seed", "7"],
}
LARGE_CONFIG = pipeline.PipelineConfig(mining=MiningConfig(0.05, 0.95, 3), seed=7)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Outcome:
    """Operations attempted and failed by one timed call, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict[str, int] = {}

    def check(self, ok: bool, problem: str) -> bool:
        if not ok:
            self.problems.append(problem)
        return ok


# -- extract -------------------------------------------------------------------


def extract_sources() -> list[Path]:
    return sorted((DATA / "corpus").glob("*.java")) + [DATA / "corpus_extra" / "Stress.java"]


def setup_extract(seed: int, work: Path) -> dict:
    """A tree of EXTRACT_COPIES copies of the Java corpus under seed-named directories.

    The copies are hard links where the file system allows: they allocate no
    data blocks, so set-up time does not depend on how busy the disk is with
    freeing the blocks of earlier runs.
    """
    rng = random.Random(seed)
    sources = extract_sources()
    copies: set[str] = set()
    while len(copies) < EXTRACT_COPIES:
        copies.add(f"m{rng.getrandbits(40):010x}")
    tree = work / "tree"
    for copy in sorted(copies):
        (tree / copy).mkdir(parents=True)
        for source in sources:
            try:
                os.link(source, tree / copy / source.name)
            except OSError:
                shutil.copyfile(source, tree / copy / source.name)
    with open(DATA / "golden_metrics.csv", newline="", encoding="utf-8") as fh:
        golden_methods = sum(1 for _ in fh) - 1
    return {
        "tree": tree,
        "copies": sorted(copies),
        "out": work / "methods.csv",
        "ops": EXTRACT_COPIES * len(sources),
        "methods_count": EXTRACT_COPIES * (golden_methods + NOTES["extract"]["expected"]["stress_methods"]),
        "input_bytes": EXTRACT_COPIES * sum(source.stat().st_size for source in sources),
    }


def call_extract(state: dict) -> int:
    argv = ["extract", "--root", str(state["tree"]), "--project", "bench", "--out", str(state["out"]), "--jobs", "1"]
    return cli.main(argv)


def check_extract(state: dict, outcome: Outcome) -> None:
    """One operation per file: each corpus file's copy gives the golden rows,
    with the project and path columns mapped, and each Stress.java copy
    gives the method count of the seed commit."""
    expected = NOTES["extract"]["expected"]
    with open(DATA / "golden_metrics.csv", newline="", encoding="utf-8") as fh:
        golden_header, *golden = list(csv.reader(fh))
    golden_by_file: dict[str, list] = {}
    for row in golden:
        golden_by_file.setdefault(row[1], []).append(["corpus", row[1]] + row[2:])
    with open(state["out"], newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    by_file: dict[tuple, list] = {}
    for row in rows:
        copy, _, name = row[1].partition("/")
        mapped = ["corpus" if row[0] == "bench" else row[0], name] + row[2:]
        by_file.setdefault((copy, name), []).append(mapped)
    sidecar = json.loads(state["out"].with_name(state["out"].name + ".run.json").read_text(encoding="utf-8"))
    outcome.counts["parse_failures"] = len(sidecar["parse_failures"])
    outcome.counts["lambda_skipped"] = len(sidecar["skipped_methods"])
    outcome.check(header == golden_header, "extract: CSV header differs from the golden header")
    for copy in state["copies"]:
        for source in extract_sources():
            outcome.attempted += 1
            got = by_file.get((copy, source.name), [])
            if source.name == "Stress.java":
                ok = len(got) == expected["stress_methods"]
            else:
                ok = got == golden_by_file.get(source.name, [])
            ok = outcome.check(ok and header == golden_header, f"extract: {copy}/{source.name} gives other rows")
            outcome.failed += not ok


# -- evaluate: cv-within and cross-deep ------------------------------------------


def setup_evaluate(seed: int, work: Path) -> dict:
    """The acceptance corpus as one CSV per project, rows in a seed-chosen order.

    Loading sorts methods by identity, so the order of rows and files must not
    change any output.
    """
    rng = random.Random(seed)
    corpus = generate_corpus(ACCEPTANCE_CORPUS["n_projects"], seed=ACCEPTANCE_CORPUS["seed"])
    paths = []
    for name, methods in corpus.items():
        records = [rec for u in methods for rec in u.occurrences]
        rng.shuffle(records)
        path = work / f"{name}.csv"
        ds.write_csv(records, path)
        paths.append(path)
    rng.shuffle(paths)
    return {
        "csvs": paths,
        "out": work / "reports",
        "ops": 1,
        "methods_count": sum(len(m) for m in corpus.values()),
        "input_bytes": sum(p.stat().st_size for p in paths),
    }


def call_evaluate(state: dict) -> int:
    workload = state["workload"]
    mode = "within" if workload == "cv-within" else "cross"
    argv = ["evaluate", *map(str, state["csvs"]), "--mode", mode, "--out-dir", str(state["out"]), "--jobs", "1"]
    if mode == "within":
        argv.append("--dump-predictions")
    return cli.main(argv + CONFIG_FLAGS[workload])


def check_evaluate(state: dict, outcome: Outcome) -> None:
    """One operation per call: the report digests match the seed commit's, and
    within-project CV keeps every project inside the strict fault budget."""
    workload = state["workload"]
    outcome.attempted = 1
    for name, digest in NOTES[workload]["expected"]["sha256"].items():
        got = sha256((state["out"] / name).read_bytes())
        outcome.check(got == digest, f"{workload}: {name} sha256 {got} differs from the seed commit's")
    if workload == "cv-within":
        with open(state["out"] / "report.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        strict = [r for r in rows if r["variant"] == "strict" and r["project"].startswith("synth")]
        outcome.check(len(strict) == ACCEPTANCE_CORPUS["n_projects"], "cv-within: a project is missing")
        for row in strict:
            fraction = float(row["faulty_in_lfr_fraction"])
            outcome.check(
                fraction <= 0.05,
                f"cv-within: strict faulty_in_lfr_fraction {fraction} > 0.05 for {row['project']}",
            )
    outcome.failed = 1 if outcome.problems else 0


# -- train-large ------------------------------------------------------------------


def setup_train_large(seed: int, work: Path) -> dict:
    """One large project; the seed interleaves faulty and clean methods.

    Each class keeps its own order, which is all that balancing, mining and
    prefix selection depend on, so the trained rules must not change.
    """
    rng = random.Random(seed)
    methods = generate_project(
        LARGE_PROJECT["name"], seed=LARGE_PROJECT["seed"], n_methods=LARGE_PROJECT["n_methods"]
    )
    faulty = [m for m in methods if m.faulty]
    clean = [m for m in methods if not m.faulty]
    picks = [True] * len(faulty) + [False] * len(clean)
    rng.shuffle(picks)
    next_faulty, next_clean = iter(faulty).__next__, iter(clean).__next__
    return {
        "methods": [next_faulty() if pick else next_clean() for pick in picks],
        "ops": 1,
        "methods_count": len(methods),
    }


def call_train_large(state: dict) -> int:
    state["trained"] = pipeline.train_on(state["methods"], LARGE_CONFIG, scope=("train",))
    return 0


def model_digest(trained) -> str:
    doc = {
        "rules": [r.to_json() for r in trained.rules],
        "n": {variant.value: clf.n for variant, clf in trained.classifiers.items()},
    }
    return sha256(json.dumps(doc, sort_keys=True).encode("utf-8"))


def check_train_large(state: dict, outcome: Outcome) -> None:
    """One operation per call: the ordered rules and n per variant match the seed commit's."""
    got = model_digest(state["trained"])
    expected = NOTES["train-large"]["expected"]["sha256"]["rules_and_n"]
    outcome.attempted = 1
    outcome.failed = 0 if outcome.check(got == expected, f"train-large: rules and n sha256 {got} differ") else 1


# -- one iteration -------------------------------------------------------------------


WORKLOADS = {
    "extract": (setup_extract, call_extract, check_extract),
    "cv-within": (setup_evaluate, call_evaluate, check_evaluate),
    "cross-deep": (setup_evaluate, call_evaluate, check_evaluate),
    "train-large": (setup_train_large, call_train_large, check_train_large),
}


def run_once(workload: str, seed: int, work: Path, trace: bool, spans_out: Path | None) -> dict:
    setup, call, check = WORKLOADS[workload]
    work.mkdir(parents=True, exist_ok=True)
    state = setup(seed, work)
    setup_s = time.perf_counter() - START
    state["workload"] = workload

    timed = lambda: call(state)  # noqa: E731
    tracer = Tracer(f"{workload}-seed{seed}-{work.name}") if trace else None
    if tracer:
        tracer.install()
        timed = tracer.span(ROOT_SPAN, timed)
    gc.collect()
    t0 = time.perf_counter()
    try:
        rc = timed()
    except Exception:
        traceback.print_exc()
        rc = "raised"
    wall_s = time.perf_counter() - t0
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if tracer:
        tracer.uninstall()

    outcome = Outcome()
    if rc == 0:
        check(state, outcome)
    else:
        outcome.attempted = outcome.failed = state["ops"]
        outcome.problems.append(f"{workload}: the timed call returned {rc!r}")
    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": rss_mb,
        "methods": state["methods_count"],
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "counts": outcome.counts,
    }
    if "input_bytes" in state:
        result["input_bytes"] = state["input_bytes"]
    if tracer:
        result["layers"] = tracer.layer_stats()
        result["layer_counts"] = tracer.counts_only()
        result["missing_layers"] = tracer.missing
        if spans_out is not None:
            tracer.write_spans(spans_out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work-dir", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)
    result = run_once(args.workload, args.seed, args.work_dir, args.trace, args.spans_out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
