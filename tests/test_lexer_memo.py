"""The line memo of `tokenize` against the per-position reference lexer
(`oracles.tokenize_reference`): every version of a file, lexed after the
versions before it through one shared memo, gives the reference's tokens at
the same lines and columns, or its LexicalError message and line. Covers the
trace stage's own walk over three repositories and seeded edit sequences,
and the body block extraction takes from a file's tokens against a lex of
the declaration alone."""

import random
from collections import Counter
from pathlib import Path

import pytest

from methodlens import java_extract
from methodlens.gitrepo import GitRepo
from methodlens.java_extract import (ExtractionError, LexicalError, body_block, extract_methods, normalize_source,
                                     tokenize)
from methodlens.pipeline import PipelineConfig, decl_from_record, method_record, read_ndjson, run_stage
from golden_corpus import corpus_files
from oracles import tokenize_reference
from repo_builder import build_layout_repo, commit_files, init_repo
from test_lexer_oracle import PIECES, RARE, lex


def lex_with(memo, source):
    try:
        tokens = tokenize(source, memo)
    except LexicalError as err:
        return ("error", str(err), err.line)
    assert all(t.line_count == t.text.count("\n") + 1 for t in tokens), repr(source)
    return [tuple(t[:4]) for t in tokens]


# --- the trace stage's walk ------------------------------------------------

SMALL_HISTORY = [
    # (tag, content of src/Doc.java); each version shifts, edits or breaks
    # lines that cross a line end
    ("c01", 'class Doc {\n  /** Doc\n   * it\'s "here" */\n  int a(int v) {\n    return v + 1;\n  }\n}\n'),
    ("c02", 'class Doc {\n  /** Doc\n   * it\'s "here" */\n  int a(int v) {\n    return v + 1;\n  }\n'
            '  String t() {\n    return """\n      one /* not a comment\n      """;\n  }\n}\n'),
    ("c03", 'class Doc {\n  int z;\n  /** Doc\n   * it\'s "here" */\n  int a(int v) {\n    return v + 1;\n  }\n'
            '  String t() {\n    return """\n      one /* not a comment\n      """;\n  }\n'
            '  String u() {\n    return "a\\\n b";\n  }\n}\n'),
    ("c04", 'class Doc {\n  int z;\n  /* open\n  int a(int v) {\n    return v + 1;\n  }\n}\n'),
    ("c05", 'class Doc {\n  int z;\n\f  int a(int v) { /* x */ return v + 1; }\n'
            '  String u() {\n    return "a\\\n b";\n  }\n  char c() { return \'\\\n\'; }\n}\n'),
    ("c06", 'class Doc {\n  int z;\n\f  int a(int v) { /* x */ return v + 2; }\n'
            '  String u() {\n    return "a\\\n b";\n  }\n  char c() { return \'\\\n\'; }\n  int y;\n}\n'),
]


def build_small_history(root: Path) -> dict:
    repo = init_repo(root, "lexer-history")
    shas = {tag: commit_files(repo, tag, f"edit {tag}", {"src/Doc.java": content})
            for tag, content in SMALL_HISTORY}
    return {"repo": repo, "snapshot": shas["c06"]}


@pytest.fixture(scope="module")
def small_history(tmp_path_factory):
    return build_small_history(tmp_path_factory.mktemp("lexer-history"))


@pytest.fixture(scope="module")
def layout_repo(tmp_path_factory):
    return build_layout_repo(tmp_path_factory.mktemp("layout"))


@pytest.mark.parametrize("name, versions, errors, files", [
    ("fixture", 10, 0, 3), ("layout", 4, 0, 2), ("small", 5, 1, 1)])
def test_trace_lexes_every_version_as_the_reference_does(name, versions, errors, files, request, tmp_path,
                                                         monkeypatch):
    ledger = request.getfixturevalue({"fixture": "fixture_repo", "layout": "layout_repo",
                                      "small": "small_history"}[name])
    real_tokenize = java_extract.tokenize
    memos = []
    outcomes = []

    def checked(source, memo=None):
        expected = lex(tokenize_reference, source)
        if memo is not None:
            memos.append(memo)
            outcomes.append(isinstance(expected, tuple))
        try:
            tokens = real_tokenize(source, memo)
        except LexicalError as err:
            assert ("error", str(err), err.line) == expected, repr(source)
            raise
        assert [tuple(t[:4]) for t in tokens] == expected, repr(source)
        return tokens

    monkeypatch.setattr(java_extract, "tokenize", checked)
    config = PipelineConfig(repo=str(ledger["repo"]), commit=ledger["snapshot"], out=str(tmp_path), project="p")
    git = GitRepo(config.repo)
    run_stage("extract", config, {}, git, ledger["snapshot"])
    run_stage("trace", config, {"methods.ndjson": tmp_path / "methods.ndjson"}, git, ledger["snapshot"])
    # the versions trace extracted, in trace order, each file's through one memo
    assert (len(outcomes), sum(outcomes), len({id(memo) for memo in memos})) == (versions, errors, files)


# --- body blocks from the file's tokens ------------------------------------

def chain_versions(git: GitRepo, snapshot: str) -> dict[str, list[str]]:
    """path -> the distinct texts it has on the first-parent chain, newest
    first, as trace meets them."""
    chain, _ = git.first_parent_history(snapshot)
    blobs: dict[str, dict[str, None]] = {}
    for commit in chain:
        for path, blob in git.ls_tree(commit.id).items():
            blobs.setdefault(path, {})[blob] = None
    texts = git.read_blobs(blob for ids in blobs.values() for blob in ids)
    return {path: [normalize_source(texts[blob]) for blob in ids] for path, ids in blobs.items()}


def assert_blocks_match_their_records(path: str, declarations) -> int:
    """Each declaration's body block, as extraction took it from the file's
    tokens, against the one a lex of its record's body alone finds."""
    for decl in declarations:
        assert decl.bodyBlock is not None, (path, decl.name)
        assert decl.bodyBlock == body_block(decl_from_record(method_record(path, decl))), (path, decl.name)
    return len(declarations)


@pytest.fixture(scope="module")
def bench_repos(bench_run, tmp_path_factory):
    """The benchmark's repositories at their tiny shapes, seed 1."""
    generate = bench_run.generate_repo
    return {name: generate(bench_run.TINY[name][0], 1, tmp_path_factory.mktemp("bench") / name)
            for name in ("deep-history", "wide-snapshot")}


@pytest.mark.parametrize("name, compared", [("fixture", 53), ("layout", 15), ("small", 12),
                                            ("deep-history", 100), ("wide-snapshot", 100)])
def test_every_body_block_is_the_same_through_its_files_memo(name, compared, request):
    """Each declaration of every version on the chain, its file's versions
    extracted through one memo, newest first, as trace walks them."""
    if name in ("deep-history", "wide-snapshot"):
        generated = request.getfixturevalue("bench_repos")[name]
        repo, snapshot = generated.path, generated.head
    else:
        ledger = request.getfixturevalue({"fixture": "fixture_repo", "layout": "layout_repo",
                                          "small": "small_history"}[name])
        repo, snapshot = ledger["repo"], ledger["snapshot"]
    seen = 0
    for path, texts in chain_versions(GitRepo(str(repo)), snapshot).items():
        memo = {}
        for text in texts:
            try:
                declarations = extract_methods(normalize_source(text), memo)
            except (ExtractionError, LexicalError):
                continue
            seen += assert_blocks_match_their_records(path, declarations)
    assert seen == compared


ONE_LINE_SOURCES = [
    # a header sharing its line with the class's '{': both lexes take the
    # block from that earlier brace
    "class A { int a() { return 1; } }",
    "class A { int b() { return 29; } }",
    "class A { int a() { return 1; } int b() { return 2; } }",
    "class A { int calc(int v) {\n  int a = v * 2;\n  int b = a + v;\n  return b - 1;\n} }",
    "class A { int other(int v) {\n  return inner(v, v + 1, v + 2) ^ mask ^ seed;\n} }",
    # braces in an annotation's arguments and in a comment before the body
    "class A {\n  @Tags({\"a\", \"b\"}) int a() { return 1; }\n}",
    "class A {\n  /* { */ int a() /* { */ { return 1; }\n  int b() // {\n  { return 2; }\n}",
]


def test_every_body_block_of_the_golden_corpus_and_one_line_sources_is_the_same():
    sources = {**corpus_files(), **{f"One{k}.java": text for k, text in enumerate(ONE_LINE_SOURCES)}}
    seen = sum(assert_blocks_match_their_records(path, extract_methods(normalize_source(text)))
               for path, text in sources.items())
    assert seen == 51


def test_trace_lexes_whole_versions_and_each_record_body_at_most_once(fixture_repo, tmp_path, monkeypatch):
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"], out=str(tmp_path),
                            project="p")
    git = GitRepo(config.repo)
    run_stage("extract", config, {}, git, fixture_repo["snapshot"])
    real_tokenize = java_extract.tokenize
    lexed = []
    monkeypatch.setattr(java_extract, "tokenize",
                        lambda source, memo=None: lexed.append(source) or real_tokenize(source, memo))
    run_stage("trace", config, {"methods.ndjson": tmp_path / "methods.ndjson"}, git, fixture_repo["snapshot"])
    versions = {text for texts in chain_versions(git, fixture_repo["snapshot"]).values() for text in texts}
    _, records = read_ndjson(tmp_path / "methods.ndjson")
    bodies = {record["body"] for record in records}
    whole = [text for text in lexed if text in versions]
    alone = Counter(text for text in lexed if text not in versions)
    assert len(whole) == 10  # the parent-side versions trace extracts
    # a snapshot target with no exact match in its first parent-side version
    assert alone and set(alone) <= bodies and set(alone.values()) == {1}, alone


# --- seeded edit sequences -------------------------------------------------

# the oracle's alphabet within a line, plus form feeds and the trailing
# backslash, as pieces of whole lines
LINE_PIECES = [p for p in PIECES if p != "\n"] + ["\f", '"a\\', "/* c", "c */", '"""', "\"\"\";", "'\\"]
LINE_RARE = RARE | {'"a\\', "'\\", "/* c"}
LINE_WEIGHTS = [1 if p in LINE_RARE else 6 for p in LINE_PIECES]


def random_line(rng: random.Random) -> str:
    line = "".join(rng.choices(LINE_PIECES, LINE_WEIGHTS, k=rng.randrange(0, 7)))
    return line + "\\" if rng.random() < 0.08 else line


def edit(rng: random.Random, lines: list[str]) -> None:
    """One edit: insert, delete, replace or move a line, or append to one."""
    op = rng.randrange(5)
    at = rng.randrange(len(lines) + 1)
    if op == 0 or not lines:
        lines.insert(at, random_line(rng))
        return
    at = min(at, len(lines) - 1)
    if op == 1 and len(lines) > 1:
        del lines[at]
    elif op == 2:
        lines[at] = random_line(rng)
    elif op == 3:
        lines.insert(rng.randrange(len(lines) + 1), lines.pop(at))
    else:
        lines[at] += rng.choice(LINE_PIECES)


def test_seeded_edit_sequences_lex_as_the_reference_does_through_one_memo():
    rng = random.Random(20241018)
    outcomes = {"tokens": 0, "error": 0}
    shifted_hits = 0
    for _ in range(600):
        memo = {}
        lines = [random_line(rng) for _ in range(rng.randrange(1, 10))]
        for _ in range(8):
            source = "\n".join(lines)
            kept = {text: tokens[0].line for text, tokens in memo.items() if tokens}
            expected = lex(tokenize_reference, source)
            assert lex_with(memo, source) == expected, repr(source)
            outcomes["error" if isinstance(expected, tuple) else "tokens"] += 1
            shifted_hits += sum(text in kept and kept[text] != k for k, text in enumerate(lines, 1))
            edit(rng, lines)
    assert min(outcomes.values()) > 1000, outcomes
    assert shifted_hits > 500  # cached lines met again on another line number


@pytest.mark.parametrize("versions", [
    ['x = "a\\', 'b";'],  # a string continued by a trailing backslash
    ["c = '\\", "';"],  # a char literal continued the same way
    ['s = """', '  a /* b', '  """;', "/* c", " */ d"],  # a text block, then a block comment
    ['"""', '"""'],
    ["/* a", "b */"],
    ["/*", "x"],  # unterminated
    ['"""', "x"],  # unterminated
])
def test_crossing_lines_lex_in_context(versions):
    memo = {}
    for k in range(len(versions)):
        for shift in range(3):
            source = "\n" * shift + "\n".join(versions[k:] + versions[:k])
            assert lex_with(memo, source) == lex(tokenize_reference, source), repr(source)


def test_a_cached_line_is_renumbered_and_a_failing_line_is_not_kept():
    memo = {}
    first = tokenize("int a;\nint b;", memo)
    again = tokenize("int b;\nint a;", memo)
    assert [(t.text, t.line) for t in first] == [("int", 1), ("a", 1), (";", 1), ("int", 2), ("b", 2), (";", 2)]
    assert [(t.text, t.line) for t in again] == [("int", 1), ("b", 1), (";", 1), ("int", 2), ("a", 2), (";", 2)]
    assert set(memo) == {"int a;", "int b;"}
    with pytest.raises(LexicalError, match="line 2: unexpected character '#'"):
        tokenize("int a;\nx # y", memo)
    assert "x # y" not in memo
    with pytest.raises(LexicalError, match="line 1: unexpected character '#'"):
        tokenize("x # y", memo)
