"""nvar and ncomp, which the statement walk reads, against the linear scan
that read them before (`oracles._mcclure`): equal on the golden corpus, on
generated units and on every Java blob of the fixture repository, and apart
only where a try or synchronized header or a case label holds a ternary or
a brace body."""

import random
import shutil
import subprocess

import pytest

from methodlens.gitrepo import GitRepo
from methodlens.java_extract import ExtractionError, LexicalError, extract_methods, normalize_source, tokenize
from methodlens.metrics import _body_slice, compute_metric_vector

from decl_gen import generate_unit
from golden_corpus import corpus_files
from oracles import _mcclure


def _walk_and_reference(texts: dict[str, str]) -> dict[str, tuple[tuple[int, int], tuple[int, int]]]:
    """{name: ((nvar, ncomp) of the walk, of the reference)} for every method
    of each text that extracts."""
    out = {}
    for name, text in texts.items():
        try:
            decls = extract_methods(normalize_source(text))
        except (ExtractionError, LexicalError):
            continue
        for k, decl in enumerate(decls):
            v = compute_metric_vector(decl)
            out[f"{name}#{k} {decl.name}"] = (v.nvar, v.ncomp), _mcclure(_body_slice(tokenize(decl.bodyText)))
    return out


def _assert_equal(pairs, at_least: int) -> None:
    assert len(pairs) >= at_least
    assert {name: pair for name, pair in pairs.items() if pair[0] != pair[1]} == {}


def test_the_walk_equals_the_reference_on_the_golden_corpus():
    _assert_equal(_walk_and_reference(corpus_files()), 40)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_the_walk_equals_the_reference_on_generated_units(seed):
    _assert_equal(_walk_and_reference({f"Unit{seed}": generate_unit(random.Random(seed), 400).source}), 400)


def test_the_walk_equals_the_reference_on_every_blob_of_the_fixture_repo(fixture_repo):
    repo = fixture_repo["repo"]
    listing = subprocess.run(["git", "-C", str(repo), "rev-list", "--all", "--objects"],
                             capture_output=True, text=True, check=True).stdout
    blobs = dict(line.split(" ", 1) for line in listing.splitlines() if line.endswith(".java"))
    with GitRepo(str(repo)) as git:
        texts = git.read_blobs(blobs)
    _assert_equal(_walk_and_reference({f"{blobs[oid]}@{oid}": text for oid, text in texts.items()}), 30)


# (body, (nvar, ncomp) of the walk, of the reference).  A try or
# synchronized header is read like any other control-structure header: its
# brace bodies are not walked and a ternary in it is no decision, and
# neither is a ternary in a case label.  Each body is a statement list of a
# method of `mcclure_class`, which javac 17 compiles.
HAND_CASES = [
    ("synchronized (a > b ? this : o) { go(); }", (0, 0), (2, 1)),
    ("try (R r = a > b ? p : q) { }", (0, 0), (2, 1)),
    ("try (R r = open(() -> { if (x > 1) { go(); } })) { }", (0, 0), (1, 1)),
    ("synchronized (get(() -> { if (a > 1) return 1; return 2; })) { go(); }", (0, 0), (1, 1)),
    ("switch (k) { case A ? 1 : 2: go(); }", (1, 0), (2, 0)),
    # a switch expression's selector, and a ternary in a `case ->` arm
    ("int y = switch (k) { case 1 -> 2; default -> 0; };", (1, 0), (1, 0)),
    ("int y = switch (k) { case 1 -> k > 0 ? 1 : 2; default -> 0; };", (1, 1), (1, 1)),
]


def mcclure_class(*bodies):
    """Class M with one method `m<k>` per body, over M's members."""
    methods = "".join(f"    void m{k}() {{ {body} }}\n" for k, body in enumerate(bodies))
    return ("class M {\n    static final boolean A = true;\n"
            "    interface R extends AutoCloseable { void close(); }\n"
            "    int a, b, k, x;\n    Object o;\n    R p, q;\n"
            "    R open(Runnable r) { return p; }\n"
            "    Object get(java.util.function.IntSupplier s) { return o; }\n"
            "    void go() { }\n" + methods + "}\n")


@pytest.mark.parametrize("body, walk, reference", HAND_CASES)
def test_hand_cases(body, walk, reference):
    [decl] = [d for d in extract_methods(normalize_source(mcclure_class(body))) if d.name == "m0"]
    v = compute_metric_vector(decl)
    assert (v.nvar, v.ncomp) == walk
    assert _mcclure(_body_slice(tokenize(decl.bodyText))) == reference


def test_the_hand_cases_compile_with_javac(tmp_path):
    javac = shutil.which("javac")
    if javac is None:
        pytest.skip("javac is not on PATH")
    path = tmp_path / "M.java"
    path.write_text(mcclure_class(*(body for body, _, _ in HAND_CASES)), encoding="utf-8")
    done = subprocess.run([javac, "-proc:none", "-d", str(tmp_path), str(path)], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
