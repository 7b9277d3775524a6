"""Method enumeration and per-method analysis of Java source trees.

`analyze_source` analyzes one file. `analyze_project` walks a tree and
returns an iterator over its methods in identity order, one file at a time,
so a caller that writes them as they come holds one file's methods at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fnmatch import fnmatch
from operator import itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

from lowrisk.errors import JavaParseError, LowriskError
from lowrisk.java.metrics import CategoryFlags, RawMetrics
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
        else:
            analyzed.append(AnalyzedMethod(identity, decl.metrics, decl.categories))
    analyzed.sort(key=_identity_of)
    return analyzed, skipped


@dataclass
class ProjectScanReport:
    """Per-run diagnostics from walking a source tree."""

    files_analyzed: int = 0
    methods: int = 0  # the methods analyze_project yielded
    parse_failures: list[tuple[str, str]] = field(default_factory=list)  # (path, error text naming it)
    skipped_methods: list[SkippedMethod] = field(default_factory=list)


def iter_java_files(
    root: Path, include: Iterable[str] = ("**/*.java",), exclude: Iterable[str] = ()
) -> list[Path]:
    """The files under root that match an include pattern and no exclude
    pattern, each once, in the order of their POSIX paths relative to root:
    the identity order of their methods."""
    include = tuple(include) or ("**/*.java",)
    exclude = tuple(exclude)
    files = [path for path in {p for pattern in include for p in root.glob(pattern)} if path.is_file()]
    rel = {path: path.relative_to(root).as_posix() for path in files}
    if exclude:
        files = [path for path in files if not any(fnmatch(rel[path], pat) for pat in exclude)]
    return sorted(files, key=rel.__getitem__)


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
    report: ProjectScanReport | None = None,
) -> Iterator[AnalyzedMethod]:
    """The methods of all matching Java files under a project root, in
    identity order, as an iterator.

    The files are listed before this returns, so a bad glob raises here. The
    iterator reads one file at a time and yields its methods, sorted, as
    soon as the file is analyzed; the files come in the order of their
    relative paths, so the methods come in identity order. It fills report
    (when given) as it goes: files that fail to parse are skipped and
    recorded there, as are skipped methods. An OSError reading a file is
    raised from the iterator.

    With more than one job the files are analyzed in a process pool, whose
    results are taken in file order as they arrive; closing the iterator
    early cancels the files still queued.
    """
    root = Path(root)
    files = [(path, path.relative_to(root).as_posix(), project)
             for path in iter_java_files(root, include, exclude)]
    return _stream(files, jobs, ProjectScanReport() if report is None else report)


def _stream(files: list[tuple[Path, str, str]], jobs: int, report: ProjectScanReport) -> Iterator[AnalyzedMethod]:
    pool = None
    if jobs > 1 and len(files) > 1:
        # Imported here so that `import lowrisk` does not load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        pool = ProcessPoolExecutor(max_workers=jobs)
    try:
        outcomes = pool.map(_analyze_file, files) if pool else map(_analyze_file, files)
        for (_, rel, _), outcome in zip(files, outcomes):
            if isinstance(outcome, str):
                report.parse_failures.append((rel, outcome))
                continue
            analyzed, skipped = outcome
            report.files_analyzed += 1
            report.methods += len(analyzed)
            report.skipped_methods.extend(skipped)
            yield from analyzed
    finally:
        if pool:
            pool.shutdown(cancel_futures=True)
