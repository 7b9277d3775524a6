"""Metric computation checks, anchored on the documented chaining and
counting rules plus hand-derived miniature methods."""

from pathlib import Path

import pytest

from lowrisk.java.analyzer import analyze_source
from lowrisk.java.metrics import ConstructKind


def single_method(body, prelude="", params=""):
    src = f"""
    class T {{
        {prelude}
        void subject({params}) {{
            {body}
        }}
    }}
    """
    methods, skipped = analyze_source(src, "T.java")
    assert not skipped
    subject = [m for m in methods if m.identity.method_name == "subject"]
    assert len(subject) == 1
    return subject[0]


def count(m, kind):
    return m.metrics.construct_counts[kind]


class TestChaining:
    def test_two_chain_elements(self):
        m = single_method("return getId().toString();", prelude="Object getId() { return null; }")
        # documented example: two for getId().toString()
        assert m.metrics.max_chaining == 2

    def test_three_chain_elements(self):
        m = single_method(
            "return getId().toString().subString(1);",
            prelude="Object getId() { return null; }",
        )
        assert m.metrics.max_chaining == 3

    def test_zero_without_invocations(self):
        m = single_method("int x = 1;")
        assert m.metrics.max_chaining == 0
        assert count(m, ConstructKind.METHOD_INVOCATION) == 0

    def test_one_when_not_chained(self):
        m = single_method("helper(helper(1));", prelude="int helper(int x) { return x; }")
        assert m.metrics.max_chaining == 1

    def test_chain_zero_iff_no_invocations(self):
        for body in ("int a = 1 + 2;", "f();", "a().b();", "x = g(h());"):
            m = single_method(body, prelude="int x; void f() {} T a() { return this; } T b() { return this; } int g(int v) { return v; } int h() { return 0; }")
            invocations = count(m, ConstructKind.METHOD_INVOCATION)
            assert (invocations == 0) == (m.metrics.max_chaining == 0)


class TestBasics:
    def test_statements_after_a_modified_local_class_are_counted(self):
        m = single_method("final class L { int g() { return 1; } } if (ok()) { return; } return;",
                          prelude="boolean ok() { return true; }")
        assert count(m, ConstructKind.RETURN_STATEMENT) == 2
        assert count(m, ConstructKind.IF_CONDITION) == 1

    def test_local_declaration_and_cc(self):
        m = single_method("int x = 1; return x;")
        assert m.metrics.unique_variable_ids == 1
        assert m.metrics.cyclomatic_complexity == 1

    def test_unused_parameter_counts_as_variable(self):
        m = single_method("return;", params="int unused")
        assert m.metrics.unique_variable_ids == 1

    def test_labels_are_not_variables(self):
        body = """
        outer:
        for (int i = 0; i < 3; i++) {
            if (i > 1) { continue outer; }
            break outer;
        }
        """
        m = single_method(body)
        assert m.metrics.unique_variable_ids == 1  # just i

    def test_generic_creation_and_explicit_type_args(self):
        body = """
        java.util.Map<String, Integer> m = new java.util.HashMap<String, Integer>();
        java.util.List<String> l = java.util.Collections.<String>emptyList();
        """
        m = single_method(body)
        assert count(m, ConstructKind.OBJECT_CREATION) == 1
        assert count(m, ConstructKind.METHOD_INVOCATION) == 1
        assert count(m, ConstructKind.COMPARISON_OPERATOR) == 0
        assert m.metrics.unique_variable_ids == 2

    def test_cyclomatic_complexity_counts_all_decision_points(self):
        body = """
        if (a > 0 && b > 0) { return 1; }
        for (int i = 0; i < a; i++) { }
        switch (a) { case 1: break; case 2: break; default: break; }
        try { f(); } catch (Exception e) { }
        return a > b ? a : b || c ? 1 : 0;
        """
        m = single_method(body, prelude="int a, b; boolean c; void f() {}")
        # 1 + if + && + loop + 2 cases + catch + 2 ternaries + ||
        assert m.metrics.cyclomatic_complexity == 10

    def test_derived_metrics_recomputed(self):
        m = single_method("int x = a == 1 ? b++ : --b; if (a > 0) { x += a % 2; }",
                          prelude="int a, b;")
        assert m.metrics.all_conditions == (
            count(m, ConstructKind.IF_CONDITION)
            + count(m, ConstructKind.SWITCH_CASE_BLOCK)
            + count(m, ConstructKind.TERNARY_OPERATION)
        )
        assert m.metrics.all_arithmetic == (
            count(m, ConstructKind.INCREMENTATION)
            + count(m, ConstructKind.DECREMENTATION)
            + count(m, ConstructKind.ARITHMETIC_INFIX_OP)
        )
        assert m.metrics.all_conditions == 2
        assert m.metrics.all_arithmetic == 3


class TestNesting:
    def test_flat_body_is_zero(self):
        m = single_method("int x = 1; x = 2;")
        assert m.metrics.max_nesting == 0

    def test_single_block_is_one(self):
        m = single_method("if (x > 0) { x = 1; }", prelude="int x;")
        assert m.metrics.max_nesting == 1

    def test_braceless_control_body_counts(self):
        m = single_method("if (x > 0) return;", prelude="int x;")
        assert m.metrics.max_nesting == 1

    def test_else_if_chain_stays_level(self):
        m = single_method(
            "if (x > 0) { x = 1; } else if (x < 0) { x = 2; } else { x = 3; }",
            prelude="int x;",
        )
        assert m.metrics.max_nesting == 1

    def test_deep_nesting(self):
        m = single_method(
            "while (x > 0) { if (x > 1) { for (int i = 0; i < x; i++) { x--; } } }",
            prelude="int x;",
        )
        assert m.metrics.max_nesting == 3


class TestBracelessBodies:
    """A braceless if or while body is no cast operand: the condition in
    parentheses before it counts as in its braced twin."""

    @pytest.mark.parametrize(
        "body, variables",
        [("if (ok) x = 1;", 2), ("while (ok) this.step();", 1), ("if (ok) new Foo();", 1), ("if (a) b++;", 2)],
    )
    def test_a_braceless_body_counts_as_its_braced_twin(self, body, variables):
        prelude = "boolean ok, a; int x, b; void step() {}"
        head, tail = body.split(") ", 1)
        m, twin = single_method(body, prelude), single_method(f"{head}) {{ {tail} }}", prelude)
        assert m.metrics == twin.metrics
        assert count(m, ConstructKind.CAST_EXPRESSION) == 0
        assert m.metrics.unique_variable_ids == variables


def test_casts_and_array_creations_are_counted_as_javac_reads_them():
    """A primitive cast may come before a sign, a cast before another cast,
    and an array creation may have an initializer instead of dimensions."""
    m = single_method("long l = (long) -b; Object o = (String) (Object) p; int[] q = new int[] {1, 2};",
                      params="int b, Object p")
    assert count(m, ConstructKind.CAST_EXPRESSION) == 3
    assert count(m, ConstructKind.ARITHMETIC_INFIX_OP) == 0
    assert count(m, ConstructKind.ARRAY_CREATION) == 1


class TestCategories:
    def test_to_string_is_also_getter(self):
        src = """
        class T {
            private String name;
            public String toString() { return name; }
        }
        """
        m = analyze_source(src, "T.java")[0][0]
        assert m.categories.is_to_string
        assert m.categories.is_getter

    def test_delegation_same_name_more_args(self):
        src = """
        class T {
            static final int DEFAULT = 0;
            void f(int a) { f(a, DEFAULT); }
            void f(int a, int b) { }
        }
        """
        methods, _ = analyze_source(src, "T.java")
        one_arg = next(m for m in methods if m.identity.param_signature == ("int",))
        assert one_arg.categories.is_delegation

    def test_delegation_requires_all_original_args(self):
        src = """
        class T {
            void f(int a) { f(1, 2); }
            void f(int a, int b) { }
        }
        """
        methods, _ = analyze_source(src, "T.java")
        one_arg = next(m for m in methods if m.identity.param_signature == ("int",))
        assert not one_arg.categories.is_delegation

    def test_empty_method(self):
        m = single_method("")
        assert m.categories.is_empty
        assert m.metrics.sloc >= 1

    def test_setter_through_this(self):
        src = """
        class T {
            private int size;
            void setSize(int size) { this.size = size; }
        }
        """
        m = analyze_source(src, "T.java")[0][0]
        assert m.categories.is_setter
        assert not m.categories.is_getter

    def test_getter_requires_enclosing_field(self):
        src = """
        class T {
            int other;
            int get() { return missing; }
        }
        """
        m = analyze_source(src, "T.java")[0][0]
        assert not m.categories.is_getter

    def test_constructor_delegation_via_this(self):
        src = """
        class T {
            T(int a) { this(a, 0); }
            T(int a, int b) { }
        }
        """
        methods, _ = analyze_source(src, "T.java")
        one_arg = next(m for m in methods if m.identity.param_signature == ("int",))
        assert one_arg.categories.is_constructor
        assert one_arg.categories.is_delegation


class TestInvariances:
    SRC = """
    class T {
        private int total;
        int accumulate(int[] values) {
            for (int v : values) {
                if (v > 0) { total += v; }
            }
            return total;
        }
    }
    """

    def test_determinism(self):
        a = analyze_source(self.SRC, "T.java")[0]
        b = analyze_source(self.SRC, "T.java")[0]
        assert a == b

    def test_comment_and_blank_line_insertion_preserves_metrics(self):
        noisy = self.SRC.replace(
            "for (int v : values) {",
            "// leading comment\n\n            for (int v : values) { /* inline */\n",
        )
        base = analyze_source(self.SRC, "T.java")[0][0]
        changed = analyze_source(noisy, "T.java")[0][0]
        assert base.metrics == changed.metrics
        assert base.categories == changed.categories

    def test_sloc_ignores_blank_and_comment_lines(self):
        m = single_method("int x = 1;\n\n            // comment only\n            return x;")
        assert m.metrics.sloc == 4  # signature, declaration, return, closing brace


def test_annotated_type_arguments_are_types():
    """javac accepts List<@NonNull String> as any type; in a local's type its
    '<' and '>' are not comparison operators."""
    src = """
    class Ann {
        List<@NonNull String> xs;

        List<@NonNull String> names(List<@NonNull String> in) {
            List<@NonNull String> ys = in;
            return ys;
        }
    }
    """
    methods, skipped = analyze_source(src, "Ann.java")
    assert not skipped
    (m,) = methods
    assert m.identity.param_signature == ("List<String>",)
    assert count(m, ConstructKind.COMPARISON_OPERATOR) == 0
    assert m.metrics.unique_variable_ids == 2  # in, ys


def test_type_annotation_arguments_are_jumped_and_left_out_of_the_signature():
    """javac accepts annotation arguments inside type arguments, and a type
    annotation is not part of a method's identity."""
    src = """
    class Ann {
        List<@Size(max = 3) String> xs;

        void f(List<@javax.validation.Size(min = (1), max = 3) String> in) {
            List<@Size(max = 2) String> ys = in;
        }

        void g(List<@NonNull String> in, Map<String, @A List<Integer>> m) {}
    }
    """
    methods, skipped = analyze_source(src, "Ann.java")
    assert not skipped
    f, g = methods
    assert f.identity.param_signature == ("List<String>",)
    assert f.metrics.unique_variable_ids == 2  # in, ys
    assert count(f, ConstructKind.COMPARISON_OPERATOR) == 0
    assert g.identity.param_signature == ("List<String>", "Map<String,List<Integer>>")


def test_type_annotations_in_qualified_and_array_types():
    """javac accepts a type annotation after a '.' of a qualified type name
    and before '[]' or '...', in parameters, return types, fields and locals;
    none is part of a signature or counted as code."""
    src = """
    class Ann {
        java.util.@NonNull List<String> xs;
        String @NonNull [] names;
        java.util.@a.b.Size(max = 3) List<String> sized;

        void f(java.util.@NonNull List<String> xs) {}

        void g(String @NonNull [] xs, int @A [] @B(1) [] grid, String @C ... rest) {}

        java.util.@NonNull List<String> h() { return null; }

        String @A [] @B(1) [] k() {
            java.util.@NonNull List<String> ys = null;
            String @NonNull [] zs = null;
            java.util.@Size(max = 2) Map.@A Entry<String, String> e = null;
            int @A [] @B [] grid = new int[1][1];
            return zs;
        }
    }
    """
    methods, skipped = analyze_source(src, "Ann.java")
    assert not skipped
    f, g, h, k = methods
    assert f.identity.param_signature == ("java.util.List<String>",)
    assert g.identity.param_signature == ("String[]", "int[][]", "String...")
    assert h.identity.param_signature == ()
    assert k.metrics.unique_variable_ids == 4  # ys, zs, e, grid
    assert count(k, ConstructKind.ASSIGNMENT) == 4
    assert count(k, ConstructKind.NULL_LITERAL) == 3
    assert count(k, ConstructKind.ARRAY_CREATION) == 1


def test_annotations_are_no_code_against_their_plain_twins():
    """tests/data/annotations/Annotated.java is Plain.java with annotations,
    some with arguments, in every position the front end reads: the package,
    modifiers, locals, resources, catch parameters, creations, casts, array
    dimensions, anonymous bodies, type arguments and member types. Each sits
    on its code's line, so every method keeps its twin's signature, metrics
    (SLOC included) and categories."""
    data = Path(__file__).parent / "data" / "annotations"

    def analyzed(name):
        methods, skipped = analyze_source((data / name).read_text(encoding="utf-8"), "Twin.java")
        assert not skipped
        return {m.identity: m for m in methods}

    annotated, plain = analyzed("Annotated.java"), analyzed("Plain.java")
    assert len(plain) == 21
    assert list(annotated) == list(plain)
    for identity, twin in plain.items():
        assert annotated[identity] == twin, identity
