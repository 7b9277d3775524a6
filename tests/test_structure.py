import pytest

from lowrisk.errors import JavaParseError
from lowrisk.java.analyzer import analyze_source
from lowrisk.java.metrics import ConstructKind
from lowrisk.java.structure import MethodIdentity, SkippedMethod, parse_compilation_unit, skip_annotations
from lowrisk.java.tokens import tokenize


def methods_of(source, file_path="T.java"):
    return parse_compilation_unit(source, file_path).methods


def names(source):
    """(type name, method name) of every method, in identity order."""
    return sorted((m.identity.type_name, m.identity.method_name) for m in methods_of(source))


def test_getter_and_constructor_enumerated():
    src = """
    class A {
        private int x;
        A() { }
        int getX() { return x; }
    }
    """
    assert names(src) == [("A", "A"), ("A", "getX")]


def test_interface_abstract_methods_excluded():
    src = """
    interface I {
        void a();
        int b(String s);
    }
    """
    assert names(src) == []


def test_interface_default_method_included():
    src = """
    interface I {
        void a();
        default int b() { return 1; }
    }
    """
    assert names(src) == [("I", "b")]


def test_nested_type_chain():
    src = """
    class Outer {
        static class Inner {
            void work() { }
        }
    }
    """
    assert names(src) == [("Outer.Inner", "work")]


def test_abstract_and_native_methods_excluded():
    src = """
    abstract class A {
        abstract void a();
        native int b();
        void c() { }
    }
    """
    assert names(src) == [("A", "c")]


def test_anonymous_class_methods_enumerated_and_holed():
    """The anonymous body's methods are enumerated on their own, and the body
    is left out of the outer method: its class counts, its lines do not."""
    src = """
    class A {
        Runnable r() {
            return new Runnable() {
                public void run() { helper(); }
            };
        }
        void helper() { }
    }
    """
    found = names(src)
    assert ("A.$anon1", "run") in found
    assert ("A", "r") in found
    outer = next(m for m in analyze_source(src, "T.java")[0] if m.identity.method_name == "r")
    assert outer.metrics.construct_counts[ConstructKind.ANONYMOUS_CLASS] == 1
    assert outer.metrics.construct_counts[ConstructKind.METHOD_INVOCATION] == 0  # helper() is run's
    assert outer.metrics.sloc == 4  # the lines of r's header, 'return new Runnable() {', '};' and '}'


def test_local_class_inside_method():
    src = """
    class A {
        void outer() {
            class Local {
                void inner() { }
            }
            new Local();
        }
    }
    """
    assert ("A.Local", "inner") in names(src)


def test_a_local_class_hole_starts_at_its_modifiers():
    """A local class is left out of the outer method from its first modifier
    or annotation to its '}', so the line of '@Deprecated' is not counted."""
    src = """
    class A {
        int outer() {
            @Deprecated
            final class Local {
                int inner() { return 1; }
            }
            abstract class Base { }
            return 2;
        }
    }
    """
    outer = next(m for m in analyze_source(src, "T.java")[0] if m.identity.method_name == "outer")
    assert outer.metrics.sloc == 3  # 'int outer() {', 'return 2;' and '}'
    assert outer.metrics.construct_counts[ConstructKind.ANONYMOUS_CLASS] == 0
    assert outer.metrics.construct_counts[ConstructKind.RETURN_STATEMENT] == 1  # inner's is its own
    assert not outer.categories.is_empty
    assert ("A.Local", "inner") in names(src)


def test_enum_constant_body_methods():
    src = """
    enum E {
        UP { int dir() { return 1; } },
        DOWN { int dir() { return -1; } };
        int base() { return 0; }
    }
    """
    found = names(src)
    assert ("E.UP", "dir") in found
    assert ("E.DOWN", "dir") in found
    assert ("E", "base") in found


def test_field_initializer_anonymous_class():
    src = """
    class A {
        private Runnable task = new Runnable() {
            public void run() { }
        };
    }
    """
    assert names(src) == [("A.$anon1", "run")]


def test_param_signatures():
    src = """
    import java.util.Map;
    import java.util.List;
    class A {
        void f(int a, Map<String, List<Integer>> m, int[] arr, String... rest) { }
        <T> T g(T value) { return value; }
    }
    """
    sigs = {m.identity.method_name: m.identity.param_signature for m in methods_of(src)}
    assert sigs["f"] == ("int", "Map<String,List<Integer>>", "int[]", "String...")
    assert sigs["g"] == ("T",)


def test_constructor_flag_and_throws():
    src = """
    class A {
        A(int x) throws java.io.IOException, RuntimeException { }
        void m() throws Exception { }
    }
    """
    flags = {m.identity.method_name: m.categories.is_constructor for m in methods_of(src)}
    assert flags == {"A": True, "m": False}


def test_a_class_header_is_type_parameters_then_supertype_lists():
    """javac accepts annotated supertypes and thrown types; anything else
    between a type's name and its body fails the file, as javac fails it."""
    src = """
    class A<T extends Comparable<? super T>> extends @Deprecated Base<T>
            implements java.io.Serializable, @Deprecated Runnable {
        public void run() throws @Deprecated RuntimeException { }
    }
    """
    assert names(src) == [("A", "run")]
    for header, message in [
        ("class A implements Runnable ] {", "1:29: expected type body, found ']'"),
        ("class A<T extends (Number)> {", "1:8: malformed type-argument list"),
        ("class A extends { }", "1:17: malformed supertype list"),
    ]:
        with pytest.raises(JavaParseError, match=f"^T.java:{message}$"):
            methods_of(header + " }")


def test_parse_error_carries_location():
    with pytest.raises(JavaParseError) as err:
        methods_of("class A { void f( }", "Broken.java")
    assert "Broken.java" in str(err.value)


def test_annotations_and_modifiers_skipped():
    src = """
    public final class A {
        @Override
        @SuppressWarnings("unchecked")
        public synchronized void f(@Deprecated final int x) { }
    }
    """
    assert [(m.identity.method_name, m.identity.param_signature) for m in methods_of(src)] == [("f", ("int",))]


def test_skip_annotations_reads_a_name_and_balanced_arguments():
    tokens = tokenize("@a.B(x = (1), y = f()) @C @interface @D(1", "T.java")
    texts, kinds = tokens.texts, tokens.kinds
    at_interface = texts.index("interface") - 1
    assert skip_annotations(texts, kinds, 1) == at_interface
    assert skip_annotations(texts, kinds, at_interface) == at_interface  # '@interface' is no annotation
    # An argument list that does not close: the index of its '('.
    assert skip_annotations(texts, kinds, at_interface + 2) == len(texts) - 4


def test_an_annotated_package_declaration_is_skipped():
    """javac's parse-only check accepts an annotated package declaration,
    which a package-info.java may hold."""
    assert methods_of("@Deprecated @a.B(x = 1) package com.foo;", "package-info.java") == []
    src = "@Deprecated package com.foo; import java.util.List; class A { void f() {} }"
    assert names(src) == [("A", "f")]
    with pytest.raises(JavaParseError, match="^T.java:1:4: expected type declaration, found 'import'$"):
        methods_of("@A import java.util.List; class A {}")


def test_static_initializer_not_a_method():
    src = """
    class A {
        static int x;
        static {
            x = 1;
        }
        void f() { }
    }
    """
    assert names(src) == [("A", "f")]


def test_lambda_flag_set():
    src = """
    class A {
        Runnable f() { return () -> { }; }
        void g() { }
    }
    """
    unit = parse_compilation_unit(src, "T.java", "p")
    assert [m.identity.method_name for m in unit.methods] == ["g"]
    assert unit.skipped == [SkippedMethod(MethodIdentity("p", "T.java", "A", "f", ()), "lambda expression in body")]


def test_field_names_collected_per_type():
    """A getter or setter reads a field declared directly in its own type,
    before or after it."""
    src = """
    class A {
        private int a, b;
        int getA() { return a; }
        int getName() { return name; }
        void setB(int v) { b = v; }
        int getC() { return c; }
        private String name = "x";
        class B {
            int c;
            int getC() { return c; }
            int getA() { return a; }
            void setC(int v) { this.c = v; }
            void setA(int v) { a = v; }
        }
    }
    """
    flags = {
        (m.identity.type_name, m.identity.method_name): (m.categories.is_getter, m.categories.is_setter)
        for m in parse_compilation_unit(src).methods
    }
    assert flags == {
        ("A", "getA"): (True, False),
        ("A", "getName"): (True, False),
        ("A", "setB"): (False, True),
        ("A", "getC"): (False, False),
        ("A.B", "getC"): (True, False),
        ("A.B", "getA"): (False, False),
        ("A.B", "setC"): (False, True),
        ("A.B", "setA"): (False, False),
    }
