"""javac's parse verdicts on small Java sources, the fixture of test_javac_verdicts.py.

    python3 tests/tools/javac_verdicts.py [--check] [--javac PATH]

Each case below is written to a file of its own and given to javac with
-XDshould-stop.ifNoError=PARSE -XDshould-stop.ifError=PARSE. These options are
undocumented: they stop javac after parsing, so it reports syntax errors only
and names that do not resolve pass. javac's exit status is the verdict: 0 is
"accept", anything else "reject".

Without --check the script writes tests/data/javac_verdicts.json: every case's
name, source and verdict, the javac version and the command. With --check it
writes nothing: it exits 1 if the file's cases are not the ones below, or if
javac's verdict on a case differs from the file's. The recorded javac version
is not compared, since any javac of the same Java release should agree.

Cases that javac rejects live only here and in the JSON, never as
tests/data/**/*.java files, every one of which javac must accept.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

OUT = Path(__file__).resolve().parents[1] / "data" / "javac_verdicts.json"
OPTIONS = ["-XDshould-stop.ifNoError=PARSE", "-XDshould-stop.ifError=PARSE"]

# (name, source); javac decides which are accepted.
CASES = [
    ("package-without-name", "package ;\nimport (x);\nclass T {}\n"),
    ("static-import-without-name", "import static ;\nclass T {}\n"),
    ("package-and-on-demand-imports",
     "package a.b;\nimport static java.util.Map.*;\nimport java.util.*;\nclass T {}\n"),
    ("import-of-one-identifier", "import Foo;\nclass T {}\n"),
    ("import-past-on-demand-star", "import a.*.b;\nclass T {}\n"),
    ("stray-semicolons-between-imports", "package a;\n;\nimport a.b;\n;;\nimport c.d;\nclass T {}\n"),
    ("package-after-import", "import a.b;\npackage c;\nclass T {}\n"),
    ("import-after-type", "class T {}\nimport a.b;\n"),
    ("enum-constants-with-modifiers", "enum E { public A, static B; int f() { return 1; } }\n"),
    ("enum-constant-with-final", "enum E { final A; }\n"),
    ("enum-constants-with-annotations", "enum G { @Deprecated A, B; int f() { return 1; } }\n"),
    ("enum-constants-with-annotation-arguments", "enum E { @A(1) @b.C A, @D B; }\n"),
    ("for-header-without-first-semicolon", "class T { void f(int n) { for (int i = 0 i < n; i++) { } } }\n"),
    ("for-header-without-second-semicolon", "class T { void f(int n) { for (int i = 0; i < n i++) { } } }\n"),
    ("field-initializer-without-semicolon", "class T {\n  int a = 1\n  private int b = 2;\n}\n"),
    ("for-header-with-empty-clauses", "class T { void f() { for (;;) { } } }\n"),
    ("for-header-with-two-variables", "class T { void f() { for (int i = 0, j = 9; i < j; i++, j--) { } } }\n"),
    ("for-each-header", "class T { void f(int[] xs) { for (int x : xs) { } } }\n"),
    ("field-initializer-with-anonymous-body", "class T { Object o = new Object() { private int x = 1; }; }\n"),
]


def javac_version(javac: str) -> str:
    done = subprocess.run([javac, "-version"], capture_output=True, text=True, check=True)
    return (done.stdout or done.stderr).strip()


def verdict(javac: str, source: str) -> str:
    """javac's parse verdict on source, "accept" or "reject"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "Case.java"
        path.write_text(source, encoding="utf-8")
        done = subprocess.run([javac, *OPTIONS, "-d", str(Path(tmp) / "out"), str(path)], capture_output=True)
    return "accept" if done.returncode == 0 else "reject"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare javac with the file; write nothing")
    parser.add_argument("--javac", default="javac", help="the javac to run (default: javac on PATH)")
    args = parser.parse_args(argv)
    if args.check:
        recorded = json.loads(OUT.read_text(encoding="utf-8"))["cases"]
        if [(c["name"], c["source"]) for c in recorded] != CASES:
            print(f"{OUT.name} does not hold the cases of {Path(__file__).name}; run it without --check")
            return 1
        differ = [c["name"] for c in recorded if verdict(args.javac, c["source"]) != c["verdict"]]
        for name in differ:
            print(f"javac's verdict on {name} differs from {OUT.name}")
        print(f"{len(recorded) - len(differ)} of {len(recorded)} verdicts agree ({javac_version(args.javac)})")
        return 1 if differ else 0
    fixture = {
        "javac_version": javac_version(args.javac),
        "command": ["javac", *OPTIONS, "-d", "OUT_DIR", "Case.java"],
        "cases": [{"name": name, "source": source, "verdict": verdict(args.javac, source)} for name, source in CASES],
    }
    OUT.write_text(json.dumps(fixture, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
