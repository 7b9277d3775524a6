"""javac's parse verdicts on small Java sources, the fixture of test_javac_verdicts.py.

    python3 tests/tools/javac_verdicts.py [--check | --semicolon-deletions] [--javac PATH]

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

With --semicolon-deletions it writes nothing either: for each ';' token of
every tests/data/**/*.java file, it gives javac that file with the ';'
deleted, and exits 1 if javac accepts any of them. test_malformed.py expects
lowrisk to reject those files as well.

Cases that javac rejects live only here and in the JSON, never as
tests/data/**/*.java files, every one of which javac must accept.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DATA = Path(__file__).resolve().parents[1] / "data"
OUT = DATA / "javac_verdicts.json"
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
    # Method bodies whose statements javac ends where the ';' is missing.
    ("postfix-decrement-without-semicolon", "class T { void f(int a, int b) { a--\n b++; } }\n"),
    ("array-creation-initializer-without-semicolon",
     "class T { void f(int a) { int[] q = new int[a]\n q[0] = 1; } }\n"),
    ("object-creation-initializer-without-semicolon",
     "class T { void f() { Object q = new Object()\n q.toString(); } }\n"),
    ("super-call-without-semicolon", "class T { int s; T(int s) { super()\n this.s = s; } }\n"),
    ("arithmetic-initializer-without-semicolon", "class T { void f(int a) { int q = a % 4\n q += 1; } }\n"),
    ("cast-assignment-without-semicolon",
     "class T { void f(int a, int b) { b += (int) ((long) a >> 2)\n b = a > 0 ? ~b : -b; } }\n"),
    ("try-resources-without-semicolon",
     "class T { void f() throws Exception { try (AutoCloseable p = g() AutoCloseable q = g()) { } }\n"
     "  AutoCloseable g() { return null; } }\n"),
    ("postfix-increment-then-creation-without-semicolon", "class T { void f(int a) { a++\n new Object(); } }\n"),
    ("annotation-inside-expression", "class T { void f(int a) { System.o@ut.println(a); } }\n"),
    # Expressions that javac accepts and that come near those.
    ("cast-of-reference", "class T { Object f(Object p) { return (Object) p; } }\n"),
    ("cast-of-negation", "class T { int f(int b) { return (int) -b; } }\n"),
    ("explicit-type-arguments", "class T { Object f() { return java.util.Collections.<String>emptyList(); } }\n"),
    ("instanceof-type", "class T { boolean f(Object p) { return p instanceof String; } }\n"),
    ("array-creation-and-array-initializer",
     "class T { void f(int a, int b) { int[][][] g = new int[a][b][0]; int r[] = {1, 2}; } }\n"),
    ("class-literals", "class T { void f() { Object c = int.class; Object d = String[].class; } }\n"),
    ("case-label", "class T { int f(int a) { switch (a) { case 1: return 1; default: return 0; } } }\n"),
    ("assert-with-message", "class T { void f(int a) { assert a > 0 : \"neg\"; } }\n"),
    ("labeled-break", "class T { void f(int a) { outer: for (;;) { if (a > 0) break outer; } } }\n"),
    ("braceless-control-bodies",
     "class T { int x; void g() { } void f(int a, int b) { if (a > 0) x = 1; while (a < b) this.g(); } }\n"),
    ("parenthesized-operand-then-minus", "class T { int f(int a, int b) { return (a) - b; } }\n"),
    ("annotated-final-local", "class T { void f() { @SuppressWarnings(\"unused\") final int q = 1; } }\n"),
    ("ternary", "class T { int f(int a, int b) { return a > b ? a : b; } }\n"),
    # Code outside method bodies, which the statement and expression reader reads too.
    ("field-initializer-of-two-operands", "class T { int a; int b = a c; }\n"),
    ("annotation-inside-field-initializer", "class T { Object o = System.o@ut; }\n"),
    ("initializer-block-without-semicolon", "class T { static int a; static { a = 1 } }\n"),
    ("lambda-block-body-without-semicolon", "class T { Runnable r() { return () -> { g() }; } void g() { } }\n"),
    ("field-lambdas",
     "class T { Runnable r = () -> { }; java.util.function.IntUnaryOperator f = (int x) -> x + 1, g = x -> -x; }\n"),
    ("annotation-default-annotation", "@interface A { Deprecated d() default @Deprecated; }\n"),
    ("annotation-default-array", "@interface A { int[] xs() default {1, 2}; String[] ys() default {}; }\n"),
    ("annotation-default-expression", "@interface A { int n() default 1 + 2; }\n"),
    ("annotation-default-of-two-operands", "@interface A { int n() default 1 2; }\n"),
    ("enum-constant-arguments", "enum E { A(1 + 2), B(new int[] {1}), C; E(int... a) { } }\n"),
    ("enum-constant-argument-of-two-operands", "enum E { A(1 2); E(int a) { } }\n"),
    ("enum-constant-argument-with-unclosed-array", "enum E { S({\"s\"); E(String s) { } }\n"),
    # Expressions that javac accepts and that the reader once failed.
    ("member-type-after-type-arguments",
     "class V<T> { class Inner { } V<T>.Inner in = this.new Inner();\n"
     "  void f(V<T>.Inner p) { V<T>.Inner local = this.new Inner(); } }\n"),
    ("intersection-cast",
     "class T { Object o = (Runnable & java.io.Serializable) null;\n"
     "  Object f(Object p) { return (Runnable & java.io.Serializable) p; } }\n"),
    ("generic-constructor-call", "class T { Object f() { return new <String>Object(); } }\n"),
    # Statements and expressions that javac rejects.
    ("expression-statement-of-a-name", "class T { void f(int a) { a; } }\n"),
    ("expression-statement-of-a-negation", "class T { void f(int a) { -a; } }\n"),
    ("array-access-without-index", "class T { void f(int[] arr) { Object x; x = arr[]; } }\n"),
    ("explicit-type-arguments-without-call",
     "class T { void f() { Object x = java.util.Collections.<String>emptyList; } }\n"),
    ("try-with-empty-resources", "class T { void f() { try () { } } }\n"),
    # The init and update clauses of a for header hold statement expressions only.
    ("for-init-of-a-name", "class T { void f(int n) { int i = 0; for (i; i < n; i++) { } } }\n"),
    ("for-update-of-an-addition", "class T { void f(int n) { for (int i = 0; i < n; i + 1) { } } }\n"),
    ("for-clauses-of-statement-expressions",
     "class T { void g() { } void f(int n) { int i, j; for (i = 0, j = n, g(); i < j; i++, --j, new Object()) { } } }\n"),
    # A '[' or ']' in a type-argument list only as a '[]' pair after a type.
    ("type-argument-with-bracket-inside-name", "import java.util.List;\nclass T { List<S[tring> a; }\n"),
    ("type-argument-with-closing-bracket", "import java.util.List;\nclass T { List<Str]ing> a; }\n"),
    ("type-argument-of-a-bracket-pair", "import java.util.List;\nclass T { List<[]> a; }\n"),
    ("type-argument-of-a-wildcard-array", "import java.util.List;\nclass T { List<?[]> a; }\n"),
    ("local-type-argument-with-bracket-inside-name",
     "class T { void f() { java.util.List<S[tring> c = null; } }\n"),
    ("type-arguments-of-array-types",
     "import java.util.*;\n"
     "class T { List<String[]> a; Map<int[][], List<String>[]> b; void f() { List<String[]> c = null; } }\n"),
    ("parameter-type-argument-with-bracket-inside-name",
     "import java.util.List;\nclass T { void f(List<S[tring> p) { } }\n"),
    ("parameter-type-argument-with-closing-bracket", "class T { void f(java.util.Map<String, In]t> p) { } }\n"),
    ("parameter-type-argument-after-an-annotation-with-a-comparison",
     "class T { void f(java.util.@B(x < 1) List<S[tring> p) { } }\n"),
    ("supertype-argument-with-bracket-inside-name", "class T implements java.util.List<S[tring> { }\n"),
    ("thrown-type-argument-with-closing-bracket", "class T { void f() throws X<Str]ing> { } }\n"),
    # Two methods of one file with one identity: lowrisk skips both.
    ("constructor-and-method-named-after-the-class", "class A { A() {} void A() {} }\n"),
    ("same-named-local-classes",
     "class B { void f() { class L { int g() { return 1; } } } void h() { class L { int g() { return 2; } } } }\n"),
]


# A comment, a string or character literal, or a ';' token.
_SEMICOLON_OR_SKIPPED = re.compile(r"//[^\r\n]*|/\*.*?\*/|\"(?:\\.|[^\"\\\r\n])*\"|'(?:\\.|[^'\\\r\n])*'|;", re.S)


def semicolon_deletions(path: Path) -> list[tuple[int, int, str]]:
    """(line, column, source) for each ';' token of a Java file: where it is,
    and the file's source with that ';' deleted."""
    source = path.read_text(encoding="utf-8")
    deletions = []
    for m in _SEMICOLON_OR_SKIPPED.finditer(source):
        if m[0] == ";":
            i = m.start()
            line, col = source.count("\n", 0, i) + 1, i - source.rfind("\n", 0, i)
            deletions.append((line, col, source[:i] + source[i + 1 :]))
    return deletions


def javac_version(javac: str) -> str:
    done = subprocess.run([javac, "-version"], capture_output=True, text=True, check=True)
    return (done.stdout or done.stderr).strip()


def verdict(javac: str, source: str, name: str = "Case.java") -> str:
    """javac's parse verdict on source in a file of that name, "accept" or "reject"."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(source, encoding="utf-8")
        done = subprocess.run([javac, *OPTIONS, "-d", str(Path(tmp) / "out"), str(path)], capture_output=True)
    return "accept" if done.returncode == 0 else "reject"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="compare javac with the file; write nothing")
    parser.add_argument(
        "--semicolon-deletions", action="store_true", help="check that javac rejects every single-';' deletion"
    )
    parser.add_argument("--javac", default="javac", help="the javac to run (default: javac on PATH)")
    args = parser.parse_args(argv)
    if args.semicolon_deletions:
        total, accepted = 0, []
        for path in sorted(DATA.rglob("*.java")):
            for line, col, source in semicolon_deletions(path):
                total += 1
                if verdict(args.javac, source, path.name) == "accept":
                    accepted.append(f"{path.relative_to(DATA)}:{line}:{col}")
        for name in accepted:
            print(f"javac accepts {name} with its ';' deleted")
        print(f"javac rejects {total - len(accepted)} of {total} single-';' deletions ({javac_version(args.javac)})")
        return 1 if accepted else 0
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
