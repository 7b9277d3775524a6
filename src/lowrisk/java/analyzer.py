"""Method enumeration and per-method analysis of Java source trees."""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from lowrisk.errors import JavaParseError, LowriskError
from lowrisk.java.metrics import CategoryFlags, RawMetrics, scan_method
from lowrisk.java.structure import parse_compilation_unit


class MethodIdentity(NamedTuple):
    """Stable identity of a method within a project snapshot.

    (file_path, type_name, method_name, param_signature) uniquely identify a
    method within a project; the signature is built from declared parameter
    types, never argument names. Identities order as their field tuples.
    """

    project: str
    file_path: str
    type_name: str
    method_name: str
    param_signature: tuple[str, ...]
    is_constructor: bool = False

    def key(self) -> tuple:
        return self[:5]


class AnalyzedMethod(NamedTuple):
    identity: MethodIdentity
    metrics: RawMetrics
    categories: CategoryFlags


class SkippedMethod(NamedTuple):
    """A method excluded from analysis, with the reason (e.g. lambda body)."""

    identity: MethodIdentity
    reason: str


_identity_of = itemgetter(0)  # the identity of an AnalyzedMethod


def analyze_source(
    source_text: str, file_path: str, project: str = ""
) -> tuple[list[AnalyzedMethod], list[SkippedMethod]]:
    """Compute metrics and categories for every method in one source file.

    Methods whose bodies contain lambda expressions are excluded and reported
    as skipped instead of being given unreliable counts.
    """
    unit = parse_compilation_unit(source_text, file_path)
    analyzed: list[AnalyzedMethod] = []
    skipped: list[SkippedMethod] = []
    for decl in unit.methods:
        identity = MethodIdentity(
            project, file_path, ".".join(decl.type_chain), decl.name, decl.param_types, decl.is_constructor
        )
        if decl.has_lambda:
            skipped.append(SkippedMethod(identity, "lambda expression in body"))
            continue
        metrics, categories = scan_method(unit, decl)
        analyzed.append(AnalyzedMethod(identity, metrics, categories))
    analyzed.sort(key=_identity_of)
    return analyzed, skipped


@dataclass
class ProjectScanReport:
    """Per-run diagnostics from walking a source tree."""

    files_analyzed: int = 0
    parse_failures: list[tuple[str, str]] = field(default_factory=list)  # (path, error text naming it)
    skipped_methods: list[SkippedMethod] = field(default_factory=list)


def iter_java_files(
    root: Path, include: Iterable[str] = ("**/*.java",), exclude: Iterable[str] = ()
) -> list[Path]:
    include = tuple(include) or ("**/*.java",)
    exclude = tuple(exclude)
    files = [path for path in {p for pattern in include for p in root.glob(pattern)} if path.is_file()]
    if exclude:
        files = [
            path for path in files
            if not any(fnmatch(path.relative_to(root).as_posix(), pat) for pat in exclude)
        ]
    return sorted(files)


def _analyze_file(job: tuple[Path, str, str]):
    """analyze_source on one file, or the error text, which starts with the
    file's path, when it cannot be read or parsed."""
    path, rel, project = job
    try:
        return analyze_source(path.read_text(encoding="utf-8"), rel, project)
    except JavaParseError as exc:
        return str(exc)
    except (LowriskError, UnicodeDecodeError) as exc:
        return f"{rel}: {exc}"


def analyze_project(
    root: str | Path,
    project: str,
    include: Iterable[str] = ("**/*.java",),
    exclude: Iterable[str] = (),
    jobs: int = 1,
) -> tuple[list[AnalyzedMethod], ProjectScanReport]:
    """Analyze all matching Java files under a project root.

    With more than one job the files are read in a process pool. Either way
    the results are taken in file order: files that fail to parse are
    skipped and recorded in the report, and the methods are merged
    deterministically by method identity.
    """
    root = Path(root)
    files = [(path, path.relative_to(root).as_posix(), project)
             for path in iter_java_files(root, include, exclude)]
    if jobs > 1 and len(files) > 1:
        # Imported here so that `import lowrisk` does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            outcomes = list(pool.map(_analyze_file, files))
    else:
        outcomes = [_analyze_file(job) for job in files]
    report = ProjectScanReport()
    methods: list[AnalyzedMethod] = []
    for (_, rel, _), outcome in zip(files, outcomes):
        if isinstance(outcome, str):
            report.parse_failures.append((rel, outcome))
            continue
        analyzed, skipped = outcome
        report.files_analyzed += 1
        report.skipped_methods.extend(skipped)
        methods.extend(analyzed)
    methods.sort(key=_identity_of)
    return methods, report
