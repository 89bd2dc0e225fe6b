"""Extraction finds every type in its brace pass (`_Extractor._blocks`) and
reads member headers only inside type bodies, against the full scan it
replaced (`oracles.extract_methods_reference`), which walked each code block
that holds a type word token by token and named a type where its header loop
met one: the same
declarations, field by field and body blocks included, in the same order,
or the same error type, message and line. Covers every version of the three
test histories and of the benchmark's two repositories, the golden corpus,
seeded compositions of the lexer test's pieces with Java headers, and hand
cases. The compositions on which the two differ are pinned, and javac
rejects each of them."""

import random
import shutil
import subprocess
from dataclasses import astuple

import pytest

from methodlens.gitrepo import GitRepo
from methodlens.java_extract import (ExtractionError, LexicalError, _Extractor, extract_methods, normalize_source,
                                     signature)
from decl_gen import generate_unit
from golden_corpus import corpus_files
from oracles import extract_methods_reference
from test_extract import SUPERTYPE_CASES
from test_lexer_memo import bench_repos, chain_versions, layout_repo, small_history  # noqa: F401 (fixtures)
from test_lexer_oracle import PIECES, WEIGHTS


def outcome(extract, text):
    try:
        return [astuple(d) for d in extract(text)]  # every field, bodyBlock included
    except (ExtractionError, LexicalError) as err:
        return (type(err), str(err), err.line)


def counts(text: str) -> tuple[bool, int, int]:
    """(whether it fails, its declarations, its blocks that are no type body)."""
    try:
        declarations = extract_methods(text)
    except (ExtractionError, LexicalError):
        return True, 0, 0
    close, types = _Extractor(text, None)._blocks()
    return False, len(declarations), len(close) - len(types)


def assert_extracts_as_the_full_scan(text: str) -> tuple[bool, int, int]:
    assert outcome(extract_methods, text) == outcome(extract_methods_reference, text), text
    return counts(text)


@pytest.mark.parametrize("name, versions, failing, declarations", [
    ("fixture", 14, 0, 53), ("layout", 8, 0, 15), ("small", 6, 1, 12),
    ("deep-history", 35, 1, 100), ("wide-snapshot", 35, 1, 100)])
def test_every_version_on_the_chain_extracts_as_the_full_scan_does(name, versions, failing, declarations, request):
    if name in ("deep-history", "wide-snapshot"):
        generated = request.getfixturevalue("bench_repos")[name]
        repo, snapshot = generated.path, generated.head
    else:
        ledger = request.getfixturevalue({"fixture": "fixture_repo", "layout": "layout_repo",
                                          "small": "small_history"}[name])
        repo, snapshot = ledger["repo"], ledger["snapshot"]
    seen = [assert_extracts_as_the_full_scan(text)
            for texts in chain_versions(GitRepo(str(repo)), snapshot).values() for text in texts]
    assert (len(seen), sum(f for f, _, _ in seen), sum(d for _, d, _ in seen)) == (versions, failing, declarations)
    assert sum(p for _, _, p in seen) > 0


def test_the_golden_corpus_extracts_as_the_full_scan_does():
    seen = [assert_extracts_as_the_full_scan(normalize_source(text)) for text in corpus_files().values()]
    assert sum(d for _, d, _ in seen) > 0 and sum(p for _, _, p in seen) > 0


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_generated_units_extract_as_the_full_scan_does(seed):
    """The same declarations but for the methods of local types in an enum
    constant's argument (`decl_gen`'s enum `{n}Args`), which the full scan
    stepped over with the argument list."""
    text = generate_unit(random.Random(seed), 700).source
    got = outcome(extract_methods, text)
    in_arguments = [d for d in got if d[7][-1] + "Args" in d[7]]  # d[7] is the container chain
    assert in_arguments
    assert [d for d in got if d not in in_arguments] == outcome(extract_methods_reference, text)


# (opening, closing) around a block: types, then members of a type body,
# then blocks inside code
TYPES = [("class A", ""), ("interface I", ""), ("enum E", ""), ("record R(int a)", ""), ("@interface N", ""),
         ("class D implements X, Y", "")]
MEMBERS = [("void m()", ""), ("int n(int a, String b) throws E", ""), ("public static <T> T g(T t)", ""),
           ("A()", ""), ("static", ""), ("", "")]
CODE = [("", ""), ("Object o = new Object()", ";"), ("run(() ->", ");"), ("f(", ")"), ("if (x)", ""),
        ("for (int i = 0; i < n; i++)", ""), ("int[] v =", ";"), ("new Thread()", ".start();")]
STATEMENTS = ["return x;", "f(a, b);", "int x = 1;", "Class<?> c = Foo.class;", "g(x -> y);", "int f;",
              "abstract void h();", "String s = \"record\";", "record", "enum", ",", "A, B;"]


def compose(rng: random.Random, in_type: bool, depth: int = 0) -> str:
    """A block's content: blocks, statements and, now and then, lexer pieces."""
    parts = []
    for _ in range(rng.randrange(1, 5)):
        roll = rng.random()
        if roll < 0.5 and depth < 4:
            kind = rng.choice([TYPES, MEMBERS, MEMBERS] if in_type else [TYPES, CODE, CODE])
            opening, closing = rng.choice(kind)
            parts.append(f"{opening} {{\n{compose(rng, kind is TYPES, depth + 1)}\n}}{closing}")
        elif roll < 0.95:
            parts.append(rng.choice(STATEMENTS))
        else:
            parts.append("".join(rng.choices(PIECES, WEIGHTS, k=rng.randrange(1, 4))))
    return " ".join(parts)


def compositions() -> list[str]:
    rng = random.Random(20261019)
    return [normalize_source(f"class T {{ {compose(rng, in_type=True)} }}") for _ in range(3000)]


# The compositions whose declarations differ from the reference's, by index,
# with the signatures each gives. Each is malformed Java: a stray `record`,
# `enum`, `=`, `,`, `(` or `@` in a type body made the reference's header
# loop name a type the brace pass does not, or miss one it finds.
DIFFERING_COMPOSITIONS = {
    233: ["T.R#m()", "T.R#m()"], 668: ["T.A#m()", "T.A.N#n(int,String)"], 729: ["T#g(T)", "T.R#g(T)"],
    977: ["T.E#n(int,String)", "T#n(int,String)"], 1674: ["T.D#g(T)"], 1939: ["T#m()", "T.N#n(int,String)"],
    1958: ["T.I#g(T)", "T.I#m()"], 2020: ["T#g(T)", "T#m()", "T#n(int,String)"],
    2760: ["T#g(T)", "T#m()"], 2852: ["T.E#n(int,String)", "T.E#g(T)"], 2943: ["T.record.N#n(int,String)"],
    2959: ["T#g(T)", "T.E#g(T)", "T.D#m()"],
}


def test_seeded_compositions_extract_as_the_full_scan_does():
    seen = []
    for index, text in enumerate(compositions()):
        if index in DIFFERING_COMPOSITIONS:
            got = [signature(d) for d in extract_methods(text)]
            assert got == DIFFERING_COMPOSITIONS[index] != [signature(d) for d in extract_methods_reference(text)]
            seen.append(counts(text))
        else:
            seen.append(assert_extracts_as_the_full_scan(text))
    failing = sum(f for f, _, _ in seen)
    with_declarations = sum(d > 0 for _, d, _ in seen)
    with_code_blocks = sum(c > 0 for _, _, c in seen)
    assert min(failing, with_declarations, with_code_blocks, len(seen) - failing) > 500, (
        failing, with_declarations, with_code_blocks)


def test_the_differing_compositions_do_not_compile_with_javac(tmp_path):
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not on PATH")
    texts = compositions()
    paths = []
    for index in DIFFERING_COMPOSITIONS:
        paths.append(tmp_path / f"T{index}.java")
        paths[-1].write_text(texts[index].replace("class T ", f"class T{index} ", 1), encoding="utf-8")
    done = subprocess.run([javac, "-proc:none", "-Xmaxerrs", "100000", "-d", str(tmp_path), *map(str, paths)],
                          capture_output=True, text=True)
    assert {path.name for path in paths if f"{path.name}:" not in done.stderr} == set()


HAND_CASES = {
    "a paren pair crossing a brace": "class A { void m() { f( { ) } } void n() { } }",
    "a paren pair crossing a closing brace": "class A { void m() { f( } ) { } void n() { } }",
    "an unbalanced '(' in a body": "class A { void m() { f(; } void n() { } }",
    "an unbalanced ')' in a body": "class A { void m() { f); } void n() { } }",
    "a ')' before a '(' in a body": "class A { void m() { x ) ; ( } int n() { return 0; } }",
    "Foo.class in a body": "class A { void m() { Class<?> c = Foo.class; } void n() { } }",
    "a local class": "class A { void m() { class L { void x() { } } } }",
    "a local record": "class A { void m() { record P(int a) { int twice() { return 2 * a; } } } }",
    "a local enum": "class A { void m() { enum K { X; int v() { return 1; } } } }",
    "a local interface": "class A { void m() { interface J { default int v() { return 1; } } } }",
    "a local class inside a lambda inside call parens":
        "class A { void m() { run(() -> { class L { void x() { } } }); } void n() { } }",
    "a local record inside an anonymous class inside call parens":
        "class A { void m() { run(new R() { public void run() { record P(int a) { int k() { return a; } } } }); } }",
    "a local class inside a lambda inside an if condition":
        "class A { void m() { if (test(() -> { class L { void x() { } } })) { go(); } } void n() { } }",
    "a local interface inside a static initializer's call parens":
        "class A { static { run(() -> { interface J { default int v() { return 1; } } }); } void n() { } }",
    "an unclosed annotation '(' in a body": "class A { void m() { @N( int x; } void n() { } }",
    "an unclosed annotation '(' before a type": "@N( class A { void m() { } }",
    "an unclosed annotation '(' on a member": "class A { @N( void m() { } void n() { } }",
    "anonymous classes with methods":
        "class A { Runnable r = new Runnable() { public void run() { go(); } };\n"
        "  void m() { new Thread() { public void run() { } }.start(); } }",
    "initializer blocks": "class A { static { init(); } { inst(); } void m() { } }",
    "@interface": "@interface N { int v() default 1; }\nclass A { @interface In { } void m() { @N(v = 2) int x; } }",
    "a record header": "record R(int a) { R { check(a); } int a2() { return a; } }",
    "nested plain blocks": "class A { int m(int x) { if (x > 0) { while (f(x)) { x--; } } return x; } }",
    **{f"two supertypes: {two}": f"{two} {{ {member} }}" for two, _, member, _ in SUPERTYPE_CASES},
    "two supertypes around a nested type": "class O implements X, Y { static class In { void deep() { } } }",
    "result dimensions after the parameter list": "class A { int g()[] { return null; } void n() { } }",
    "type annotations in a throws clause":
        "class A { void t() throws @TU RuntimeException { } void u() throws java.lang.@TU RuntimeException, "
        "@TU Error { f(); } }",
    "a nested record whose annotated component has an array value":
        'class O { record R(@JsonAlias({"a", "b"}) String name) { String k() { return name; } } void z() { } }',
    "a nested record whose components' annotations name array elements":
        "class O { record R(@A(v = {1, 2}) int c, @B({}) int d) { int k() { return c; } } void z() { } }",
    "an array value in a nested type's type parameter annotation": "class O { class A<@Ann({1}) T> { void m() { } } }",
    "an array value in a nested type's supertype annotation":
        "class O { static class A implements @Ann({1}) Runnable { public void run() { } } }",
}


@pytest.mark.parametrize("text", HAND_CASES.values(), ids=HAND_CASES.keys())
def test_hand_cases_extract_as_the_full_scan_does(text):
    assert_extracts_as_the_full_scan(text)


def test_a_crossing_paren_pair_and_a_two_supertype_body_keep_their_outcomes():
    """Pinned outcomes of two hand cases: a paren pair in code is not read,
    so a block it crosses ends at its own '}', and only `A`'s body is a type
    body; a body after a two-supertype header is the type body of the
    identifier after `interface`, however the ',' splits the header, and its
    method is kept."""
    crossing = HAND_CASES["a paren pair crossing a brace"]
    assert [d.name for d in extract_methods(crossing)] == ["m", "n"]
    assert _Extractor(crossing, None)._blocks() == ({10: 12, 7: 13, 18: 19, 2: 20}, {2: ("A",)})
    two = HAND_CASES["two supertypes: interface I extends X, Y"]
    assert [signature(d) for d in extract_methods(two)] == ["I#m()"]
    assert _Extractor(two, None)._blocks() == ({12: 16, 6: 17}, {6: ("I",)})  # m's body, the type body


def test_an_unclosed_paren_fails_only_in_a_type_bodys_member_headers():
    """Pinned outcomes of hand cases: a '(' that never closes fails the
    file in a member header or a member's annotation, and nowhere else."""
    assert [d.name for d in extract_methods(HAND_CASES["an unbalanced '(' in a body"])] == ["m", "n"]
    assert [d.name for d in extract_methods(HAND_CASES["an unclosed annotation '(' in a body"])] == ["m", "n"]
    assert [d.name for d in extract_methods(HAND_CASES["an unclosed annotation '(' before a type"])] == ["m"]
    for text in (HAND_CASES["an unclosed annotation '(' on a member"], "class A { void m( { } void n() { } }"):
        with pytest.raises(ExtractionError, match="^line 1: unbalanced parentheses$"):
            extract_methods(text)
