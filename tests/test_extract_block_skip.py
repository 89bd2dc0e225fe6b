"""Extraction steps over the blocks that cannot hold a declaration
(`_Extractor._blocks`), against the scan of every block it replaced
(`oracles.extract_methods_full_scan`): the same declarations, field by field
and body blocks included, or the same error type, message and line. Covers
every version of the three test histories and of the benchmark's two
repositories, the golden corpus, seeded compositions of the lexer test's
pieces with Java headers, and hand cases."""

import random
from dataclasses import astuple

import pytest

from methodlens.gitrepo import GitRepo
from methodlens.java_extract import (ExtractionError, LexicalError, _Extractor, extract_methods, normalize_source,
                                     signature)
from golden_corpus import corpus_files
from oracles import extract_methods_full_scan
from test_extract import SUPERTYPE_CASES
from test_lexer_memo import bench_repos, chain_versions, layout_repo, small_history  # noqa: F401 (fixtures)
from test_lexer_oracle import PIECES, WEIGHTS


def outcome(extract, text):
    try:
        return [astuple(d) for d in extract(text)]  # every field, bodyBlock included
    except (ExtractionError, LexicalError) as err:
        return (type(err), str(err), err.line)


def assert_extracts_as_the_full_scan(text: str) -> tuple[bool, int, int]:
    """(whether it fails, its declarations, its plain blocks)."""
    got = outcome(extract_methods, text)
    assert got == outcome(extract_methods_full_scan, text), text
    if isinstance(got, tuple):
        return True, 0, 0
    return False, len(got), len(_Extractor(text, None)._blocks())


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


def test_seeded_compositions_extract_as_the_full_scan_does():
    rng = random.Random(20261019)
    seen = [assert_extracts_as_the_full_scan(normalize_source(f"class T {{ {compose(rng, in_type=True)} }}"))
            for _ in range(3000)]
    failing = sum(f for f, _, _ in seen)
    with_declarations = sum(d > 0 for _, d, _ in seen)
    with_plain_blocks = sum(p > 0 for _, _, p in seen)
    assert min(failing, with_declarations, with_plain_blocks, len(seen) - failing) > 500, (
        failing, with_declarations, with_plain_blocks)


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
}


@pytest.mark.parametrize("text", HAND_CASES.values(), ids=HAND_CASES.keys())
def test_hand_cases_extract_as_the_full_scan_does(text):
    assert_extracts_as_the_full_scan(text)


def test_a_crossing_paren_pair_and_a_two_supertype_body_keep_their_outcomes():
    """Pinned outcomes of two hand cases: a block a paren pair leaves is
    scanned, not stepped over; a body after a two-supertype header holds
    no type word, so `_blocks` marks it plain, yet it is scanned as the
    type body it is and its method is kept."""
    crossing = HAND_CASES["a paren pair crossing a brace"]
    assert [d.name for d in extract_methods(crossing)] == ["m"]
    assert _Extractor(crossing, None)._blocks() == {18: 19}  # n's body alone
    two = HAND_CASES["two supertypes: interface I extends X, Y"]
    assert [signature(d) for d in extract_methods(two)] == ["I#m()"]
    assert _Extractor(two, None)._blocks() == {6: 17, 12: 16}  # the type body and m's
