"""The file-at-a-time backward walk (`history.trace_method`) against the
per-method walk it replaced (`oracles.trace_method_reference`): every field
of every history is equal on the fixture, layout and small-history
repositories, on a hand-built history with a rename, a revert, an
unparseable parent version, methods of one file introduced at different
steps and one introduced by the renaming commit, and on one with a file
deleted and added again; that a file's steps are the commits and statuses
that `git log --follow` lists, down to the file's addition; and that the
walk keeps a version's declarations only until the last step that reads
it."""

import gc
import weakref
from collections import Counter

import pytest

from methodlens import history
from methodlens.gitrepo import GitRepo
from methodlens.history import TraceSession, trace_method
from methodlens.java_extract import extract_methods, normalize_source
from oracles import follow_history, trace_method_reference
from repo_builder import build_layout_repo, commit_files, init_repo
from test_lexer_memo import build_small_history

THETA = 0.75  # the default matching threshold, PipelineConfig.theta
FIRST_V1 = "  int first(int v) {\n    int w = v * 3;\n    return w + 1;\n  }\n"
FIRST_V2 = FIRST_V1.replace("w + 1", "w + 2")
SECOND_V1 = "  int second(int v) {\n    return v - 4;\n  }\n"
SECOND_V2 = SECOND_V1.replace("v - 4", "v - 5")
OLD_V1 = "  int old(int v) {\n    return v * 7;\n  }\n"
OLD_V2 = OLD_V1.replace("v * 7", "v * 8")
FRESH = "  int fresh() {\n    return 0;\n  }\n"
THIRD = "  int third() {\n    return 3;\n  }\n"
UNLEXABLE = '  String s = "open;\n'


def _java(cls: str, *members: str) -> str:
    return f"class {cls} {{\n" + "".join(members) + "}\n"


WALK_HISTORY = [
    ("c01", "add A and C", {"src/A.java": _java("A", FIRST_V1), "src/C.java": _java("C", OLD_V1)}),
    ("c02", "edit first and old", {"src/A.java": _java("A", FIRST_V2), "src/C.java": _java("C", OLD_V2)}),
    # A's c01 version comes back: the parent-side blob of c02 and of c04
    ("c03", "revert first, replace old", {"src/A.java": _java("A", FIRST_V1), "src/C.java": _java("C", FRESH)}),
    ("c04", "add second", {"src/A.java": _java("A", FIRST_V1, SECOND_V1)}),
    ("c05", "break A", {"src/A.java": _java("A", FIRST_V1, SECOND_V1, UNLEXABLE)}),
    ("c06", "mend A, edit second", {"src/A.java": _java("A", FIRST_V1, SECOND_V2)}),
    ("c07", "rename A to B, add third", {"src/A.java": None, "src/B.java": _java("B", FIRST_V1, SECOND_V2, THIRD)}),
]


# src/A.java is deleted and later added again with the same method
READDED_HISTORY = [
    ("c01", "add A and C", {"src/A.java": _java("A", FIRST_V1), "src/C.java": _java("C", OLD_V1)}),
    ("c02", "drop A", {"src/A.java": None}),
    ("c03", "edit old", {"src/C.java": _java("C", OLD_V2)}),
    ("c04", "add A again", {"src/A.java": _java("A", FIRST_V1)}),
    ("c05", "edit first", {"src/A.java": _java("A", FIRST_V2)}),
]


def build_walk_history(root) -> dict:
    repo = init_repo(root, "walk-history")
    shas = {tag: commit_files(repo, tag, message, files) for tag, message, files in WALK_HISTORY}
    return {"repo": repo, "snapshot": shas["c07"], "shas": shas}


@pytest.fixture(scope="module")
def walk_history(tmp_path_factory):
    return build_walk_history(tmp_path_factory.mktemp("walk"))


@pytest.fixture(scope="module")
def readded_history(tmp_path_factory):
    repo = init_repo(tmp_path_factory.mktemp("readded"), "readded-history")
    shas = {tag: commit_files(repo, tag, message, files) for tag, message, files in READDED_HISTORY}
    return {"repo": repo, "snapshot": shas["c05"], "shas": shas}


@pytest.fixture(scope="module")
def layout_history(tmp_path_factory):
    return build_layout_repo(tmp_path_factory.mktemp("layout"))


@pytest.fixture(scope="module")
def small_history(tmp_path_factory):
    return build_small_history(tmp_path_factory.mktemp("small"))


def snapshot_methods(git: GitRepo, snapshot: str) -> dict[str, list]:
    """The snapshot's Java files and their declarations, extracted afresh."""
    texts = git.read_blobs(f"{snapshot}:{path}" for path in git.ls_tree(snapshot) if path.endswith(".java"))
    return {name.split(":", 1)[1]: extract_methods(normalize_source(text))
            for name, text in texts.items()}


@pytest.mark.parametrize("name, methods", [("fixture", 11), ("layout", 7), ("small", 3), ("walk", 4),
                                           ("readded", 2)])
def test_the_file_walk_gives_the_per_method_walks_histories(name, methods, request):
    ledger = request.getfixturevalue({"fixture": "fixture_repo", "layout": "layout_history",
                                      "small": "small_history", "walk": "walk_history",
                                      "readded": "readded_history"}[name])
    git = GitRepo(str(ledger["repo"]))
    session = TraceSession(git, ledger["snapshot"], THETA, project="p")
    reference = TraceSession(git, ledger["snapshot"], THETA, project="p")
    # each walk gets declarations of its own, as it caches body blocks on them
    alone = snapshot_methods(git, ledger["snapshot"])
    traced = 0
    for path, decls in snapshot_methods(git, ledger["snapshot"]).items():
        got = trace_method(session, path, decls)
        want = [trace_method_reference(reference, decl, path) for decl in alone[path]]
        assert [h.identity for h in got] == [h.identity for h in want]
        for g, w in zip(got, want):
            assert (g.introduction.id, g.introductionPath) == (w.introduction.id, w.introductionPath), g.identity
            assert (g.introductionDecl.bodyText, g.introductionDecl.startLine) == \
                   (w.introductionDecl.bodyText, w.introductionDecl.startLine), g.identity
            assert g.revisions == w.revisions, g.identity
            assert g == w
        traced += len(got)
    assert traced == methods


@pytest.mark.parametrize("name, files, cut", [
    ("fixture", 3, 0), ("layout", 4, 0), ("readded", 2, 1), ("deep-history", 8, 0), ("deep-history@5", 8, 0),
    ("wide-snapshot", 6, 0), ("wide-snapshot@5", 6, 0)])
def test_a_files_steps_are_what_git_log_follow_lists_down_to_its_addition(name, files, cut, request, bench_run,
                                                                          tmp_path):
    """Every snapshot file's steps, the root's additions included, against
    git's own rename-following listing, cut after the file's addition;
    `cut` counts the files whose listing goes on past it."""
    if name.startswith(("deep-history", "wide-snapshot")):
        workload, _, seed = name.partition("@")
        generated = bench_run.generate_repo(bench_run.WORKLOADS[workload][0], int(seed or 1), tmp_path / "repo")
        repo, snapshot = generated.path, generated.head
    else:
        ledger = request.getfixturevalue({"fixture": "fixture_repo", "layout": "layout_history",
                                          "readded": "readded_history"}[name])
        repo, snapshot = ledger["repo"], ledger["snapshot"]
    git = GitRepo(str(repo))
    session = TraceSession(git, snapshot, THETA)
    paths = git.ls_tree(snapshot)
    went_on = 0
    for path in paths:
        listed = follow_history(repo, snapshot, path)
        added = [status for _, status in listed].index("A") + 1
        assert [(session.chain[k].id, change.status[0]) for k, change in session.steps(path)] == listed[:added], path
        went_on += added < len(listed)
    assert (len(paths), went_on) == (files, cut)


def test_a_file_added_again_starts_its_methods_at_its_new_addition(readded_history):
    git = GitRepo(str(readded_history["repo"]))
    session = TraceSession(git, readded_history["snapshot"], THETA, project="p")
    shas = readded_history["shas"]
    [first] = trace_method(session, "src/A.java", snapshot_methods(git, readded_history["snapshot"])["src/A.java"])
    # the deleted file held the same method, but its history is not this one's
    assert (first.introduction.id, first.introductionPath, [r.commit.id for r in first.revisions]) == \
           (shas["c04"], "src/A.java", [shas["c05"]])


def test_the_hand_built_history_has_each_event(walk_history):
    git = GitRepo(str(walk_history["repo"]))
    session = TraceSession(git, walk_history["snapshot"], THETA, project="p")
    shas = walk_history["shas"]
    got = {}
    for path, decls in snapshot_methods(git, walk_history["snapshot"]).items():
        for h in trace_method(session, path, decls):
            got[h.identity.signature] = (h.introduction.id, h.introductionPath, [r.commit.id for r in h.revisions])
    assert got == {
        # edited at c02, reverted at c03; renamed with its file at c07
        "B#first(int)": (shas["c01"], "src/A.java", [shas["c02"], shas["c03"]]),
        # c06's edit is seen from c05's side, as c05's version does not lex
        "B#second(int)": (shas["c04"], "src/A.java", [shas["c05"]]),
        # introduced where the file got its name: the new name is its path
        "B#third()": (shas["c07"], "src/B.java", []),
        "C#fresh()": (shas["c03"], "src/C.java", []),
    }
    assert (session.files_traced, session.blobs_read, session.failures) == (2, 7, 1)


def test_the_walk_extracts_nothing_older_than_the_last_introduction(walk_history, monkeypatch):
    extracted = []
    real_extract = history.extract_methods
    monkeypatch.setattr(history, "extract_methods",
                        lambda text, memo=None: extracted.append(text) or real_extract(text, memo))
    git = GitRepo(str(walk_history["repo"]))
    session = TraceSession(git, walk_history["snapshot"], THETA, project="p")
    methods = snapshot_methods(git, walk_history["snapshot"])
    [fresh] = trace_method(session, "src/C.java", methods["src/C.java"])
    assert fresh.introduction.id == walk_history["shas"]["c03"]
    # both parent-side versions are read, only c02's is extracted: c01's is
    # older than the file's last introduction
    assert session.blobs_read == 2 and extracted == [_java("C", OLD_V2)]
    extracted.clear()
    trace_method(session, "src/B.java", methods["src/B.java"])
    # c01's version of A, the parent side of both c02 and c04, once
    assert Counter(extracted) == Counter([_java(cls, *members) for cls, members in [
        ("A", (FIRST_V1, SECOND_V2)), ("A", (FIRST_V1, SECOND_V1, UNLEXABLE)), ("A", (FIRST_V1, SECOND_V1)),
        ("A", (FIRST_V1,)), ("A", (FIRST_V2,))]])


def test_a_version_lives_until_the_last_step_that_reads_it(walk_history, monkeypatch):
    versions = []  # weak references to each extracted version's declarations
    real_extract = history.extract_methods

    def extract(text, memo=None):
        decls = real_extract(text, memo)
        versions.append([weakref.ref(d) for d in decls])
        return decls

    held = {}  # what the walk's `current` holds, mirrored from the matches
    steps = []  # per match call: the version matched against, stray versions
    real_match = history.match_method

    def match(prev_methods, target, *args):
        gc.collect()
        [step] = [j for j, refs in enumerate(versions)
                  if len(refs) == len(prev_methods) and all(r() is d for r, d in zip(refs, prev_methods))]
        stray = {j for j, refs in enumerate(versions) for r in refs
                 if j != step and r() is not None and id(r()) not in held}
        steps.append((step, stray))
        matched = real_match(prev_methods, target, *args)
        if matched is not None:
            del held[id(target)]
            held[id(matched)] = matched
        return matched

    monkeypatch.setattr(history, "extract_methods", extract)
    monkeypatch.setattr(history, "match_method", match)
    git = GitRepo(str(walk_history["repo"]))
    session = TraceSession(git, walk_history["snapshot"], THETA, project="p")
    decls = snapshot_methods(git, walk_history["snapshot"])["src/B.java"]
    held.update((id(d), d) for d in decls)
    trace_method(session, "src/B.java", decls)
    # the versions of A at c06, c04, c01 and c02 (c05's does not lex), one
    # match call per method still traced; c01's version, the parent side of
    # c04 and of c02, is not extracted again, so it lives from the one step
    # to the other, while nothing of a version whose last step is passed
    # lives but what `current` holds
    assert len(versions) == 4
    assert steps == [(0, set())] * 3 + [(1, set())] * 2 + [(2, set())] * 2 + [(3, set()), (2, set())]
