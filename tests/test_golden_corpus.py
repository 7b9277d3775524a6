"""The checked-in mini corpus must reproduce its hand-derived metrics file
exactly: every cell of every row, including the documented chaining
examples, all construct kinds, and all six categories."""

import csv
import multiprocessing

import pytest

from lowrisk.dataset import CSV_HEADER, write_csv
from lowrisk.java.analyzer import ProjectScanReport, analyze_project, iter_java_files
from lowrisk.java.metrics import ConstructKind


def load_golden(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        return header, list(reader)


def test_golden_corpus_matches_exactly(corpus_dir, golden_csv, tmp_path):
    header, golden_rows = load_golden(golden_csv)
    assert header == CSV_HEADER
    report = ProjectScanReport()
    out = tmp_path / "metrics.csv"
    write_csv(analyze_project(corpus_dir, "corpus", report=report), out)
    written_header, actual_rows = load_golden(out)
    assert written_header == CSV_HEADER
    assert len(actual_rows) == len(golden_rows)
    for got, expected in zip(actual_rows, golden_rows):
        assert got == expected, f"row for {expected[:5]} diverges"
    # The csv module ends rows with CRLF, the golden file with LF.
    assert out.read_bytes().replace(b"\r\n", b"\n") == golden_csv.read_bytes()
    assert not report.parse_failures


def test_corpus_is_large_enough(golden_csv):
    _, rows = load_golden(golden_csv)
    assert len(rows) >= 30


def test_corpus_covers_every_construct_kind(golden_csv):
    header, rows = load_golden(golden_csv)
    for kind in ConstructKind:
        col = header.index(kind.column)
        assert any(int(row[col]) > 0 for row in rows), f"{kind.column} never occurs"


def test_corpus_covers_all_categories(golden_csv):
    header, rows = load_golden(golden_csv)
    for flag in (
        "is_constructor",
        "is_getter",
        "is_setter",
        "is_empty",
        "is_delegation",
        "is_to_string",
    ):
        col = header.index(flag)
        assert any(row[col] == "true" for row in rows), f"{flag} never set"


def test_corpus_covers_chaining_depths(golden_csv):
    header, rows = load_golden(golden_csv)
    col = header.index("max_chaining")
    depths = {int(row[col]) for row in rows}
    assert {0, 1, 2, 3} <= depths


def test_lambda_method_excluded_with_diagnostic(corpus_dir):
    report = ProjectScanReport()
    methods = list(analyze_project(corpus_dir, "corpus", report=report))
    assert not any(m.identity.method_name == "lambdaStyle" for m in methods)
    assert any(s.identity.method_name == "lambdaStyle" for s in report.skipped_methods)


def test_source_walk_unions_includes_drops_excludes_and_sorts_once(tmp_path):
    """Overlapping include patterns give each file once, a directory named
    like a Java file is not a file, exclude patterns match the path relative
    to the root, and the result is sorted whatever order the globs gave."""
    for rel in ["b/Z.java", "b/gen/G.java", "a/A.java", "A.java", "a/notes.txt"]:
        (tmp_path / rel).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / rel).write_text("class X {}\n")
    (tmp_path / "dir.java").mkdir()
    rel = lambda paths: [p.relative_to(tmp_path).as_posix() for p in paths]  # noqa: E731
    assert rel(iter_java_files(tmp_path)) == ["A.java", "a/A.java", "b/Z.java", "b/gen/G.java"]
    assert rel(iter_java_files(tmp_path, ["b/**/*.java", "**/*.java", "*.txt"], ["*/gen/*"])) == [
        "A.java", "a/A.java", "b/Z.java"
    ]
    assert rel(iter_java_files(tmp_path, ["a/*", "**/A.java"])) == ["A.java", "a/A.java", "a/notes.txt"]


def test_analyze_project_yields_a_file_before_it_reads_the_next(tmp_path):
    """The methods of A.java come out before B.java is read: B.java is
    deleted after the first method, and the iterator fails on it."""
    for name in ("A", "B"):
        (tmp_path / f"{name}.java").write_text(f"class {name} {{ void f() {{ }} void g() {{ }} }}\n")
    report = ProjectScanReport()
    methods = analyze_project(tmp_path, "p", report=report)
    assert next(methods).identity[1:4] == ("A.java", "A", "f")
    assert report.files_analyzed == 1 and report.methods == 2
    (tmp_path / "B.java").unlink()
    assert next(methods).identity[1:4] == ("A.java", "A", "g")
    with pytest.raises(FileNotFoundError):
        next(methods)


def test_analyze_project_lists_the_files_before_it_returns(tmp_path):
    """A bad pattern raises from the call, before any file is read."""
    (tmp_path / "A.java").write_text("class A { }\n")
    with pytest.raises(ValueError):
        analyze_project(tmp_path, "p", include=[""])


def test_closing_a_pool_stream_early_shuts_the_pool_down(corpus_dir):
    methods = analyze_project(corpus_dir, "corpus", jobs=2)
    next(methods)
    methods.close()
    assert multiprocessing.active_children() == []
