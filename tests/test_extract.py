import json
import random

import pytest

from methodlens.gitrepo import GitRepo
from methodlens.java_extract import (
    ExtractionError,
    MethodDeclaration,
    extract_methods,
    normalize_source,
    signature,
)
from methodlens.pipeline import decl_from_record, method_record

from decl_gen import generate_unit
from golden_corpus import corpus_files
from repo_builder import build_layout_repo


def src(content):
    return normalize_source(content)


def names(text):
    return [d.name for d in extract_methods(text)]


GETTER = """\
class A {
    int getX() {
        return x;
    }
}
"""


def test_single_getter():
    decls = extract_methods(src(GETTER))
    assert len(decls) == 1
    d = decls[0]
    assert d.name == "getX"
    assert d.parameterTypes == []
    assert d.containerChain == ["A"]
    assert (d.startLine, d.endLine) == (2, 4)


def test_constructor_excluded():
    content = """\
class A {
    A(int x) { this.x = x; }
    void run() { go(); }
    int peek() { return x; }
}
"""
    assert names(src(content)) == ["run", "peek"]


def test_interface_default_method_only():
    content = """\
interface I {
    int size();
    default boolean isEmpty() {
        return size() == 0;
    }
    void clear();
}
"""
    decls = extract_methods(src(content))
    assert [d.name for d in decls] == ["isEmpty"]
    assert decls[0].modifiers == {"default"}


def test_initializer_blocks_excluded():
    content = """\
class A {
    static { setup(); }
    { instanceInit(); }
    void m() { }
}
"""
    assert names(src(content)) == ["m"]


def test_anonymous_class_methods_excluded():
    content = """\
class A {
    void outer() {
        Runnable r = new Runnable() {
            public void run() {
                spin();
            }
        };
        r.run();
    }
}
"""
    assert names(src(content)) == ["outer"]


def test_lambda_bodies_excluded():
    content = """\
class A {
    void outer() {
        items.forEach(x -> {
            handle(x);
        });
    }
}
"""
    assert names(src(content)) == ["outer"]


def test_nested_named_types_included_with_chain():
    content = """\
class Outer {
    void top() { }
    static class Inner {
        void deep() { }
    }
}
"""
    decls = extract_methods(src(content))
    by_name = {d.name: d for d in decls}
    assert set(by_name) == {"top", "deep"}
    assert by_name["deep"].containerChain == ["Outer", "Inner"]
    assert signature(by_name["deep"]) == "Outer.Inner#deep()"


# a type header naming two supertypes, the same header naming one, a member
# and the member's signature
SUPERTYPE_CASES = [
    ("public class D implements java.io.Serializable, Comparable<D>", "public class D implements Comparable<D>",
     "public int compareTo(D o) { return 0; }", "D#compareTo(D)"),
    ("interface I extends X, Y", "interface I extends X", "default int m() { return 0; }", "I#m()"),
    ("enum E implements X, Y", "enum E implements X", "A; public int m() { return 0; }", "E#m()"),
    ("sealed class S permits A, B", "sealed class S permits A", "public int m() { return 0; }", "S#m()"),
    ("record R(int a, int b) implements X, Y", "record R(int a, int b) implements X", "public int m() { return a; }",
     "R#m()"),
]

ONE_SUPERTYPE_CASES = [*SUPERTYPE_CASES, ("", "class D extends B<X, Y>", "int m() { return 0; }", "D#m()")]


@pytest.mark.parametrize("two, one, member, sig", SUPERTYPE_CASES, ids=[case[3] for case in SUPERTYPE_CASES])
def test_a_type_with_two_supertypes_keeps_its_methods(two, one, member, sig):
    assert [signature(d) for d in extract_methods(src(f"{two} {{ {member} }}"))] == [sig]


def test_a_type_with_two_supertypes_stays_in_its_nested_types_chain():
    decls = extract_methods(src("class O implements X, Y { static class In { void deep() { } } }"))
    assert [d.containerChain for d in decls] == [["O", "In"]]


@pytest.mark.parametrize("two, one, member, sig", ONE_SUPERTYPE_CASES, ids=[case[3] for case in ONE_SUPERTYPE_CASES])
def test_a_type_with_one_supertype_keeps_its_methods(two, one, member, sig):
    """The control: generic arguments, commas included, are skipped whole."""
    assert [signature(d) for d in extract_methods(src(f"{one} {{ {member} }}"))] == [sig]


def test_types_nested_in_a_record_and_an_annotation_type_keep_their_chains():
    decls = extract_methods(src("record R(int a, int b) implements X, Y { class In { void deep() { } } }\n"
                                "@interface N { int v() default 1; class C { int c() { return 0; } } }"))
    assert [signature(d) for d in decls] == ["R.In#deep()", "N.C#c()"]


# what may follow a method's parameter list: result dimensions (JLS 8.4),
# then a throws clause whose types may carry type annotations
AFTER_PARAMETERS_CASES = [
    ("int g()[] { return null; }", "A#g()"),
    ("int[] h(int a)[][] throws E { return null; }", "A#h(int)"),
    ("String[] k() @TU [] @TU [] { return null; }", "A#k()"),
    ("void t() throws @TU RuntimeException { }", "A#t()"),
    ("void u() throws java.lang.@TU RuntimeException, @TU Error { }", "A#u()"),
    ("void v() throws @N(k = 1) X, Y { }", "A#v()"),
]


@pytest.mark.parametrize("member, sig", AFTER_PARAMETERS_CASES, ids=[sig for _, sig in AFTER_PARAMETERS_CASES])
def test_a_method_after_result_dimensions_or_an_annotated_throws_type_is_kept(member, sig):
    assert [signature(d) for d in extract_methods(src(f"class A {{ {member} int z() {{ return 0; }} }}"))] == [
        sig, "A#z()"]


def test_enum_members_and_constant_bodies():
    content = """\
enum E {
    FOO(1) {
        void hook() { }
    },
    BAR(2);

    E(int v) { this.v = v; }

    int value() { return v; }
}
"""
    decls = extract_methods(src(content))
    # hook lives in an anonymous constant body and the constructor is skipped
    assert [d.name for d in decls] == ["value"]
    assert decls[0].containerChain == ["E"]


def test_signature_generic_erasure_and_overloads():
    content = """\
class B {
    class C {
        void m(java.util.List<String> a, int b) { }
    }
    void m(int x) { }
    void m(long x) { }
    void m(java.util.Map<String, java.util.List<java.util.Set<Long>>> deep, int b) { }
}
"""
    decls = extract_methods(src(content))
    sigs = [signature(d) for d in decls]
    assert "B.C#m(java.util.List,int)" in sigs
    assert "B#m(int)" in sigs and "B#m(long)" in sigs
    # `>>>` closes three type argument lists
    assert "B#m(java.util.Map,int)" in sigs
    assert len(set(sigs)) == 4


def test_varargs_and_arrays_in_signature():
    content = """\
class A {
    void log(String fmt, Object... args) { }
    int[] slice(int[] data) { return data; }
    void dims(String @A [] s, int grid @A [][], long @A ... rest) { }
}
"""
    decls = extract_methods(src(content))
    assert signature(decls[0]) == "A#log(String,Object[])"
    assert signature(decls[1]) == "A#slice(int[])"
    assert signature(decls[2]) == "A#dims(String[],int[][],long[])"


def test_receiver_parameter_is_not_in_the_signature():
    # JLS 8.4: a receiver parameter is not a formal parameter
    decls = extract_methods(src("class A { void recv(A this, int x) { } void r2(@X A this) { } "
                                "class In { void r3(A.@X(k = 1 >> 2) In this, int... xs) { } } }"))
    assert [signature(d) for d in decls] == ["A#recv(int)", "A#r2()", "A.In#r3(int[])"]


def test_parameter_annotations_and_final_are_not_in_the_signature():
    content = ("class A { void params(@Nonnull String s, final @a.b.C(x = 1) java.util.List<String> xs, "
               "int... more) { } "
               "int m(@Size(max = Integer.MAX_VALUE >> 1) int a, @Flag(1 < 2) final int b, int c) { return a; } }")
    assert [signature(d) for d in extract_methods(src(content))] == [
        "A#params(String,java.util.List,int[])", "A#m(int,int,int)"]


# Parameter lists javac rejects.  A '<' that never closes is dropped, and a
# ',' outside an annotation or a closed type argument group ends a parameter.
@pytest.mark.parametrize("params, sig", [
    ("a < b, c d", "A#m(a,c)"),
    ("List<String x, int y", "A#m(ListString,int)"),
    ("Map<K,V>> x, int y", "A#m(Map,int)"),
])
def test_a_parameter_list_javac_rejects_keeps_its_commas(params, sig):
    assert [signature(d) for d in extract_methods(src(f"class A {{ int m({params}) {{ return 0; }} }}"))] == [sig]


def test_annotations_start_the_declaration():
    content = """\
class A {
    @Override
    @SuppressWarnings("unchecked")
    public String toString() {
        return "";
    }

    @java.lang.SuppressWarnings("x")
    void quiet() { }
}
"""
    decls = extract_methods(src(content))
    d = decls[0]
    assert d.annotations == ["@Override", "@SuppressWarnings"]
    assert d.startLine == 2
    assert d.modifiers == {"public"}
    assert (decls[1].annotations, decls[1].startLine) == (["@java.lang.SuppressWarnings"], 8)


def test_generic_method_declaration():
    content = """\
class A {
    public <T> java.util.List<T> wrap(T item) {
        return java.util.List.of(item);
    }
    <K extends Comparable<? super K>, V extends java.util.Map<K, java.util.List<K>>> void index(K k, V... vs) { }
}
"""
    decls = extract_methods(src(content))
    assert signature(decls[0]) == "A#wrap(T)"
    assert signature(decls[1]) == "A#index(K,V[])"


def test_round_trip_body_text():
    text = src(GETTER)
    lines = text.split("\n")
    for d in extract_methods(text):
        assert d.bodyText == "\n".join(lines[d.startLine - 1:d.endLine])
        assert d.bodyText.count("\n") + 1 == d.endLine - d.startLine + 1


def test_idempotent_reextraction():
    text = src(GETTER)
    first = extract_methods(text)
    second = extract_methods(src(text))
    assert first == second


def test_no_shared_start_lines_on_formatted_source():
    content = """\
class A {
    void a() { }
    void b() {
        if (x) { y(); }
    }
    class B {
        void c() { }
    }
}
"""
    decls = extract_methods(src(content))
    starts = [d.startLine for d in decls]
    assert len(starts) == len(set(starts))
    assert starts == sorted(starts)


def test_unbalanced_braces_error():
    with pytest.raises(ExtractionError):
        extract_methods(src("class A { void m() { }"))


def test_crlf_normalization():
    text = normalize_source("class A {\r\n int x() {\r\n  return 1;\r\n }\r\n}\r\n")
    assert "\r" not in text
    decls = extract_methods(text)
    assert decls[0].name == "x"


def test_field_initializer_with_anonymous_class():
    content = """\
class A {
    private final Runnable r = new Runnable() {
        public void run() { }
    };
    void real() { }
}
"""
    assert names(src(content)) == ["real"]


def test_a_field_initializer_ends_at_its_first_semicolon_outside_a_brace_body():
    # javac rejects `f(a;`; the members after it are still read
    content = """\
class B {
    int x = f(a;
    int keep() { return 1; }
    int y = 2;
    int after() { return 2; }
}
"""
    assert [signature(d) for d in extract_methods(src(content))] == ["B#keep()", "B#after()"]


def test_a_local_class_in_a_field_initializers_anonymous_class_is_a_named_type():
    content = """\
class A {
    Runnable r = new Runnable() { public void run() { class L { int k() { return 1; } } } };
}
"""
    assert [signature(d) for d in extract_methods(src(content))] == ["A.L#k()"]


def test_local_named_class_methods_included():
    content = """\
class A {
    void outer() {
        class Local {
            void inner() { }
        }
        new Local().inner();
    }
}
"""
    decls = extract_methods(src(content))
    assert [d.name for d in decls] == ["outer", "inner"]
    assert decls[1].containerChain == ["A", "Local"]


SHAPES = """\
package demo;

public class Outer<T> {
    @Override
    public final String toString() { return "o"; }

    @SuppressWarnings({"unchecked", "rawtypes"})
    static <K extends Comparable<K>> java.util.Map<K, T[]> index(java.util.List<? super K> keys, int[][] grid, String... rest) {
        return null;
    }

    protected static class Inner {
        private synchronized void run(final java.util.Map<String, java.util.List<Integer>> m) {}

        interface Deep {
            default int depth(Outer.Inner self) { return 3; }
        }
    }

    enum Kind {
        A, B;

        Kind next() { return B; }
    }
}
"""


def _snapshot_sources(name, request, tmp_path_factory) -> dict[str, str]:
    if name == "golden":
        return corpus_files()
    if name == "shapes":
        return {"src/demo/Outer.java": SHAPES}
    if name == "generated":
        return {"Unit%d.java" % seed: generate_unit(random.Random(seed), 400).source for seed in (3, 4, 5)}
    if name == "fixture":
        ledger = request.getfixturevalue("fixture_repo")
    else:
        ledger = build_layout_repo(tmp_path_factory.mktemp("layout"))
    repo = GitRepo(str(ledger["repo"]))
    blobs = repo.ls_tree(ledger["snapshot"])
    texts = repo.read_blobs(blobs.values())
    return {path: texts[blob] for path, blob in blobs.items()}


@pytest.mark.parametrize("name", ["fixture", "layout", "golden", "shapes", "generated"])
def test_method_records_rebuild_the_extracted_declarations(name, request, tmp_path_factory):
    """Trace starts from the extract stage's records, so a record read back
    from methods.ndjson must give the declaration extraction found."""
    decls = [(path, decl) for path, text in _snapshot_sources(name, request, tmp_path_factory).items()
             for decl in extract_methods(normalize_source(text))]
    assert decls
    for path, decl in decls:
        record = json.loads(json.dumps(method_record(path, decl)))
        rebuilt = decl_from_record(record)
        assert rebuilt == decl, signature(decl)
        assert method_record(path, rebuilt) == record, signature(decl)
