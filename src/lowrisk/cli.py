"""Command-line interface: extract, train, predict, evaluate.

Every run writes its effective configuration next to (or inside) its output
artifacts, so any result can be reproduced from the artifact alone. Data
goes to files; diagnostics go to stderr.

`extract` reads the label file, lists the source files, then writes the
rows of each file as soon as the file is analyzed: with `--jobs 1` it holds
one file's methods at a time. The CSV is written to a temporary file that
replaces `--out` only when every file is done; parse failures, skipped
methods and the sidecar come after it, so a failed run leaves no output.

The flags of `train` and `evaluate` are read off `pipeline.CONFIG_KEYS`, and
a config file is read and every recorded config written as the flat object of
`PipelineConfig.from_json` and `PipelineConfig.to_json`.

`evaluate` loads one table of every CSV. With `--jobs N` each pool worker
gets the table, config and evaluator once, through the pool's initializer:
a work item is a project name, and a result holds no table.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from itertools import chain
from pathlib import Path

from lowrisk import dataset as ds
from lowrisk.classifier import Variant
from lowrisk.errors import LowriskError
from lowrisk.evaluation import (
    REPORT_FORMATS,
    _predict,
    check_report_formats,
    emit_report,
    evaluate_cross_project,
    evaluate_within_project,
    prediction_rows,
    write_prediction_dump,
)
from lowrisk.java.analyzer import ProjectScanReport, analyze_project
from lowrisk.pipeline import CONFIG_KEYS, PipelineConfig, TrainedModel, train_on, write_json


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """--config, then one flag per config key: --no-smote takes no value."""
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    for key, kind in CONFIG_KEYS.items():
        kwargs = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
        parser.add_argument("--" + key.replace("_", "-"), **kwargs)


def _pipeline_config(args: argparse.Namespace) -> PipelineConfig:
    """Defaults, overridden by the config file, overridden by explicit flags."""
    values: dict = {}
    if args.config:
        try:
            values = json.loads(args.config.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise LowriskError(f"cannot read config file {args.config}: {exc}")
        if not isinstance(values, dict):
            raise LowriskError(f"config file {args.config} must be a JSON object")
    flags = {key: value for key, value in vars(args).items() if key in CONFIG_KEYS and value is not None}
    return PipelineConfig.from_json(values, **flags)


def _write_run_sidecar(out_path: Path, payload: dict) -> None:
    write_json(out_path.with_suffix(out_path.suffix + ".run.json"), payload)


# -- extract ----------------------------------------------------------------


def cmd_extract(args: argparse.Namespace) -> int:
    root = Path(args.root)
    if not root.is_dir():
        print(f"error: source root {root} is not a directory", file=sys.stderr)
        return 1
    include = args.include or ["**/*.java"]
    for pattern in include + (args.exclude or []):
        if not pattern or pattern.startswith(("/", "\\")):
            print(f"usage error: invalid glob pattern {pattern!r}", file=sys.stderr)
            return 2
    faulty_keys = ds.read_label_file(args.labels) if args.labels else set()
    report = ProjectScanReport()
    try:
        methods = analyze_project(root, args.project, include, args.exclude or [], args.jobs, report)
    except (ValueError, NotImplementedError) as exc:
        print(f"usage error: invalid glob pattern: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out)
    # Each file's rows are written as soon as the file is analyzed.
    ds.write_csv(
        (
            ds.MethodRecord(*m, True, ds.Snapshot.FAULTY)
            if faulty_keys and m.identity.key() in faulty_keys
            else ds.MethodRecord(*m)
            for m in methods
        ),
        out,
    )
    if not report.files_analyzed and not report.parse_failures:
        print("warning: no Java files matched; wrote an empty dataset", file=sys.stderr)
    skipped_methods = [
        f"{s.identity.file_path}:{s.identity.type_name}.{s.identity.method_name}: {s.reason}"
        for s in report.skipped_methods
    ]
    # Each error text names its file already, so the path is printed once.
    for _, message in report.parse_failures:
        print(f"skipped (parse error): {message}", file=sys.stderr)
    for line in skipped_methods:
        print(f"skipped (method): {line}", file=sys.stderr)
    _write_run_sidecar(
        out,
        {
            "command": "extract",
            "root": str(root),
            "project": args.project,
            "include": include,
            "exclude": args.exclude or [],
            "labels": str(args.labels) if args.labels else None,
            "files_analyzed": report.files_analyzed,
            "parse_failures": [
                [rel, message.removeprefix(rel + ":").lstrip()] for rel, message in report.parse_failures
            ],
            "skipped_methods": skipped_methods,
            "methods": report.methods,
        },
    )
    print(f"wrote {report.methods} method records to {out}", file=sys.stderr)
    return 0


# -- train -------------------------------------------------------------------


def _load_projects(paths) -> ds.MethodTable:
    """One table of every project in the CSVs, in identity order (so project by project)."""
    return ds.build_unified(ds.Rows.concat([ds.read_csv(path) for path in paths]))


def cmd_train(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    table = _load_projects(args.csv)
    trained = train_on(table, config, scope=("train",))
    write_json(args.out, trained.to_json(config))
    print(
        f"trained on {len(table)} methods; {len(trained.rules)} rules; "
        f"n_strict={trained.classifiers[Variant.STRICT].n} "
        f"n_lenient={trained.classifiers[Variant.LENIENT].n}",
        file=sys.stderr,
    )
    return 0


# -- predict -----------------------------------------------------------------


def cmd_predict(args: argparse.Namespace) -> int:
    trained = TrainedModel.from_json(json.loads(Path(args.classifier).read_text(encoding="utf-8")))
    variant = Variant(args.variant)
    classifiers = {variant: trained.classifiers[variant]}
    table = _load_projects([args.target])
    methods = range(len(table))
    matched = _predict(trained.discretization, classifiers, table, methods)[variant]
    out = Path(args.out)
    write_prediction_dump(prediction_rows(table, [(variant, methods, matched)]), out)
    _write_run_sidecar(
        out,
        {
            "command": "predict",
            "classifier": str(args.classifier),
            "variant": variant.value,
            "target": str(args.target),
            "methods": len(table),
            "predicted_lfr": sum(1 for idx in matched if idx is not None),
        },
    )
    print(f"wrote {len(table)} predictions to {out}", file=sys.stderr)
    return 0


# -- evaluate ----------------------------------------------------------------


# What _eval_worker evaluates with, set once per process by _init_worker.
_worker_state: dict = {}


def _init_worker(table: ds.MethodTable, config: PipelineConfig, evaluate) -> None:
    """`evaluate` is evaluate_within_project or evaluate_cross_project."""
    _worker_state.update(table=table, config=config, evaluate=evaluate)


def _eval_worker(name: str):
    """One project's reports and index predictions."""
    reports, predictions = _worker_state["evaluate"](_worker_state["table"], name, _worker_state["config"])
    return list(reports.values()), predictions


def cmd_evaluate(args: argparse.Namespace) -> int:
    config = _pipeline_config(args)
    formats = [f.strip() for f in args.formats.split(",") if f.strip()]
    check_report_formats(formats)
    table = _load_projects(args.csv)
    names = sorted(table.projects())
    shared = (table, config, evaluate_within_project if args.mode == "within" else evaluate_cross_project)
    if args.jobs > 1 and len(names) > 1:
        # Imported here so that starting the CLI does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs, initializer=_init_worker, initargs=shared) as pool:
            results = list(pool.map(_eval_worker, names))
    else:
        _init_worker(*shared)
        try:
            results = list(map(_eval_worker, names))
        finally:
            _worker_state.clear()
    reports = [rep for reps, _ in results for rep in reps]

    out_dir = Path(args.out_dir)
    written = emit_report(reports, out_dir, mode=args.mode, config=config, formats=formats)
    if args.dump_predictions:
        dump_path = out_dir / "predictions.csv"
        predictions = chain.from_iterable(preds for _, preds in results)
        write_prediction_dump(prediction_rows(table, predictions), dump_path)
        written.append(dump_path)
    _write_run_sidecar(
        out_dir / "report",
        {
            "command": "evaluate",
            "mode": args.mode,
            "inputs": [str(p) for p in args.csv],
            "projects": names,
            "config": config.to_json(),
        },
    )
    for path in written:
        print(f"wrote {path}", file=sys.stderr)
    return 0


# -- entry point ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lowrisk",
        description="Identify low-fault-risk Java methods from code metrics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="compute method metrics from a Java source tree")
    p.add_argument("--root", required=True, help="project root directory")
    p.add_argument("--project", required=True, help="project name recorded in the CSV")
    p.add_argument("--include", action="append", help="glob pattern (repeatable)")
    p.add_argument("--exclude", action="append", help="glob pattern (repeatable)")
    p.add_argument("--labels", type=Path, help="fault-label CSV keyed by identity columns")
    p.add_argument("--out", required=True, type=Path, help="output metrics CSV")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("train", help="train strict and lenient classifiers from metrics CSVs")
    p.add_argument("csv", nargs="+", type=Path, help="labeled metrics CSV(s)")
    p.add_argument("--out", required=True, type=Path, help="output classifier JSON")
    _add_config_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="classify methods of a target CSV")
    p.add_argument("--classifier", required=True, type=Path)
    p.add_argument("--variant", choices=[v.value for v in Variant], default="strict")
    p.add_argument("--target", required=True, type=Path)
    p.add_argument("--out", required=True, type=Path)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("evaluate", help="within-project CV or cross-project evaluation")
    p.add_argument("csv", nargs="+", type=Path, help="labeled metrics CSV(s)")
    p.add_argument("--mode", choices=["within", "cross"], required=True)
    p.add_argument("--out-dir", required=True, type=Path)
    p.add_argument("--formats", default="csv,json", help="comma list of " + ",".join(REPORT_FORMATS))
    p.add_argument("--dump-predictions", action="store_true")
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LowriskError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
