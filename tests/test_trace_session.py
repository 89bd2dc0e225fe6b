"""How the trace stage reads git and lexes: the same four git processes
for any pipeline run, one `cat-file --batch` child shared by extract and
trace and none left running when a run or a stage subcommand ends, at most
one batch per traced file (none for a file with no parent-side version),
one extraction per parent-side version the file's
walk reaches and none older, no body-block lex for an extracted declaration
and one for a declaration rebuilt from its record, and a counted summary of
what it read, failed to extract and lexed; the line memo that lives for one
traced file, which in a pipeline run is the one extract lexed the file
through, so that the run lexes no line of a file twice; the same summary
of the extract stage; and the line a pipeline run ends with, which counts
the git processes it started."""

import logging
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

from methodlens import cli, history, java_extract, pipeline
from methodlens.cli import main
from methodlens.gitrepo import GitRepo
from methodlens.history import TraceSession, match_method, trace_method
from methodlens.java_extract import extract_methods, normalize_source
from methodlens.pipeline import (PipelineConfig, StageError, decl_from_record, method_record, read_ndjson,
                                 run_pipeline, run_stage)
from repo_builder import commit_files, init_repo

THETA = 0.75  # the default matching threshold, PipelineConfig.theta


def test_pipeline_git_processes_do_not_grow_with_the_chain(fixture_repo, tmp_path, git_children):
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    run_pipeline(config)
    _, records = read_ndjson(tmp_path / "methods.ndjson")
    assert len({r["file"] for r in records}) == 3
    # the snapshot, resolved once; extract's listing (trace never lists the
    # snapshot) and the one cat-file child that reads extract's blobs and
    # every traced file's; trace's one `git log`
    assert git_children.names() == ["rev-parse", "ls-tree", "cat-file", "log"]
    assert git_children.running() == []


def test_a_run_logs_the_stages_it_ran_and_skipped_and_its_git_processes(fixture_repo, tmp_path, caplog):
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    with caplog.at_level(logging.INFO, logger="methodlens.pipeline"):
        run_pipeline(config)
        run_pipeline(replace(config, indicator="revisions"))
        run_pipeline(replace(config, indicator="revisions"))
    lines = [r.getMessage() for r in caplog.records
             if r.name == "methodlens.pipeline" and r.getMessage().startswith("pipeline:")]
    # a rerun resolves the snapshot and starts nothing else
    assert lines == [
        "pipeline: ran extract, trace, label, pareto, bugs, correlate, rank, train; skipped none; "
        "git processes started: 4",
        "pipeline: ran label, pareto, bugs, correlate, rank, train; skipped extract, trace; "
        "git processes started: 1",
        "pipeline: ran none; skipped extract, trace, label, pareto, bugs, correlate, rank, train; "
        "git processes started: 1",
    ]


def test_a_failing_pipeline_leaves_no_git_process_running(fixture_repo, tmp_path, git_children, monkeypatch):
    def failing_trace(session, path, decls):
        raise RuntimeError("trace failed")  # after extract started the cat-file child

    monkeypatch.setattr("methodlens.pipeline.trace_method", failing_trace)
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    with pytest.raises(StageError) as failed:
        run_pipeline(config)
    # while the traceback keeps run_pipeline's frame, and so its repository,
    # alive: the run stopped the child itself
    assert failed.traceback and git_children.names().count("cat-file") == 1
    assert git_children.running() == []


def test_the_stage_subcommands_leave_no_git_process_running(fixture_repo, tmp_path, git_children, monkeypatch):
    # keep each opened repository, so that only the subcommand, not its
    # finalizer, can have stopped the child
    opened = []
    real_open = cli.open_snapshot
    monkeypatch.setattr(cli, "open_snapshot", lambda config: opened.append(real_open(config)) or opened[-1])
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(tmp_path)]) == 0
    assert ("cat-file" in git_children.names(), git_children.running()) == (True, [])
    del git_children[:]
    assert main(["trace", "--repo", repo, "--commit", sha, "--methods", str(tmp_path / "methods.ndjson"),
                 "--out", str(tmp_path)]) == 0
    assert ("cat-file" in git_children.names(), git_children.running()) == (True, [])
    assert len(opened) == 2


def test_the_trace_subcommand_opens_the_repository_once(fixture_repo, tmp_path, git_children):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(tmp_path)]) == 0
    methods = tmp_path / "methods.ndjson"
    config = PipelineConfig(repo=repo, commit=sha, out=str(tmp_path / "stage"))
    Path(config.out).mkdir()
    with GitRepo(repo) as git:
        del git_children[:]
        run_stage("trace", config, {"methods.ndjson": methods}, git, sha)
    stage_calls = git_children.names()
    del git_children[:]
    assert main(["trace", "--repo", repo, "--commit", sha, "--methods", str(methods),
                 "--out", str(tmp_path)]) == 0
    # the snapshot, resolved once, then the stage's own processes
    assert stage_calls == ["log", "cat-file"]
    assert git_children.names() == ["rev-parse", *stage_calls]


def test_match_method_lexes_each_declaration_once(monkeypatch):
    source = "class A {\n" + "".join(
        f"  int m{i}(int v) {{\n    int a = v * {i};\n    return a + {i * 7} - v;\n  }}\n" for i in range(6)
    ) + "}\n"
    prev = extract_methods(normalize_source(source))
    target = extract_methods(normalize_source(source.replace("m3(", "renamed(")))[3]
    lexed = []
    real_tokenize = java_extract.tokenize
    monkeypatch.setattr(java_extract, "tokenize",
                        lambda text, memo=None: lexed.append(text) or real_tokenize(text, memo))
    for _ in range(2):
        assert match_method(prev, target, THETA).name == "m3"
    assert lexed == []  # extraction handed every declaration its body block
    rebuilt = decl_from_record(method_record("A.java", target))
    for _ in range(2):
        assert match_method(prev, rebuilt, THETA).name == "m3"
    assert lexed == [target.bodyText]


def test_trace_counts_the_historical_version_that_fails_to_extract(tmp_path, caplog):
    repo = init_repo(tmp_path, "unlexable")
    method = "  int keep(int v) {\n    return v + 1;\n  }\n"
    commit_files(repo, "c01", "add", {"src/A.java": "class A {\n" + method + "}\n"})
    commit_files(repo, "c02", "break", {"src/A.java": "class A {\n" + method + '  String s = "open;\n}\n'})
    snapshot = commit_files(repo, "c03", "mend", {"src/A.java": "class A {\n" + method + "  int x;\n}\n"})
    config = PipelineConfig(repo=str(repo), commit=snapshot, out=str(tmp_path / "out"), project="p")
    Path(config.out).mkdir()
    git = GitRepo(str(repo))
    methods = Path(config.out) / "methods.ndjson"
    with caplog.at_level(logging.INFO, logger="methodlens"):
        run_stage("extract", config, {}, git, snapshot)
        run_stage("trace", config, {"methods.ndjson": methods}, git, snapshot)
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trace:")]
    # the two parent-side versions; the snapshot version is not read. Their
    # 7 + 6 lines hold 6 distinct ones that lex: c02's first four (its fifth
    # fails and is not kept), then c01's closing "}" and its empty last line
    assert summary == ["trace: 3 chain commits, 1 files traced, 2 blobs read, "
                       "1 historical versions failed to extract, 13 version lines, 0 carried from extract, "
                       "6 lexed alone, "
                       "0 body comparisons, 0 ruled out by the length or bag bound, 0 cut off at theta"]
    assert sum("extraction failed" in r.getMessage() for r in caplog.records) == 1
    _, [record] = read_ndjson(Path(config.out) / "histories.ndjson")
    assert len(record["revisions"]) == 0  # the unreadable parent is skipped, not a revision


def test_trace_starts_no_process_for_a_file_with_no_parent_side_version(tmp_path, git_children, caplog):
    repo = init_repo(tmp_path, "added-once")
    commit_files(repo, "c01", "root", {"src/A.java": "class A {\n  int a() { return 1; }\n}\n"})
    snapshot = commit_files(repo, "c02", "add B", {"src/B.java": "class B {\n  int b() { return 2; }\n}\n"})
    config = PipelineConfig(repo=str(repo), commit=snapshot, out=str(tmp_path / "out"), project="p")
    Path(config.out).mkdir()
    methods = Path(config.out) / "methods.ndjson"
    with GitRepo(str(repo)) as git:
        run_stage("extract", config, {}, git, snapshot)
    git = GitRepo(str(repo))  # with no cat-file child yet, which a blob read would start
    del git_children[:]
    with caplog.at_level(logging.INFO, logger="methodlens"):
        run_stage("trace", config, {"methods.ndjson": methods}, git, snapshot)
    assert git_children.names() == ["log"]
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trace:")]
    # the 2 lines lexed alone are the one-line introductions, measured through their files' memos
    assert summary == ["trace: 2 chain commits, 2 files traced, 0 blobs read, "
                       "0 historical versions failed to extract, 0 version lines, 0 carried from extract, "
                       "2 lexed alone, "
                       "0 body comparisons, 0 ruled out by the length or bag bound, 0 cut off at theta"]
    _, records = read_ndjson(Path(config.out) / "histories.ndjson")
    assert [(r["identity"]["signature"], r["revisions"]) for r in records] == [("A#a()", []), ("B#b()", [])]


def test_extract_counts_the_snapshot_file_that_fails_to_extract(tmp_path, caplog):
    repo = init_repo(tmp_path, "unlexable-snapshot")
    snapshot = commit_files(repo, "c01", "add", {
        "src/A.java": "class A {\n  int keep(int v) {\n    return v + 1;\n  }\n}\n",
        "src/B.java": 'class B {\n  String s = "open;\n}\n',
        "src/C.java": "class C {\n  void a() {}\n  void b() {}\n}\n",
        "README.md": "not java\n",
    })
    config = PipelineConfig(repo=str(repo), commit=snapshot, out=str(tmp_path / "out"), project="p")
    Path(config.out).mkdir()
    with caplog.at_level(logging.INFO, logger="methodlens"):
        run_stage("extract", config, {}, GitRepo(str(repo)), snapshot)
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("extract:")]
    assert summary == ["extract: 3 files read, 3 methods, 1 files failed to extract"]
    _, records = read_ndjson(Path(config.out) / "methods.ndjson")
    assert sorted(r["signature"] for r in records) == ["A#keep(int)", "C#a()", "C#b()"]


def test_trace_summary_counts_version_lines_and_lines_lexed_alone(fixture_repo, tmp_path, monkeypatch, caplog):
    snapshot = []
    real_snapshot_extract = pipeline.extract_methods
    monkeypatch.setattr(pipeline, "extract_methods",
                        lambda text, memo=None: snapshot.append((text, memo)) or real_snapshot_extract(text, memo))
    extracted = []
    real_extract = history.extract_methods
    monkeypatch.setattr(history, "extract_methods",
                        lambda text, memo=None: extracted.append((text, memo)) or real_extract(text, memo))
    measured = []
    real_measure = pipeline.compute_metric_vector
    monkeypatch.setattr(pipeline, "compute_metric_vector",
                        lambda decl, memo=None: measured.append((decl.bodyText, memo)) or real_measure(decl, memo))
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    with caplog.at_level(logging.INFO, logger="methodlens"):
        run_pipeline(config)
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trace:")]
    # of the 8 body comparisons, the bounds rule out 6 and the other 2 reach theta
    assert summary == ["trace: 11 chain commits, 3 files traced, 10 blobs read, "
                       "0 historical versions failed to extract, 238 version lines, 55 carried from extract, "
                       "10 lexed alone, 8 body comparisons, 6 ruled out by the length or bag bound, "
                       "0 cut off at theta"]

    def lexed_alone(content: str) -> set[str]:
        """The distinct lines of `content` that no token can cross."""
        return {line for line in content.split("\n") if not ("/*" in line or '"""' in line or line.endswith("\\"))}

    # the same counts from the snapshot files extract lexed, each through
    # the memo it hands to trace (carried), and from the versions trace
    # extracted (every line) and those versions and the introductions it
    # measured through the file's memo (lexed alone, less what was carried);
    # by id of a memo that `snapshot` keeps alive
    carried = {id(memo): lexed_alone(content) for content, memo in snapshot}
    alone: dict[int, set[str]] = {}
    for content, memo in extracted + measured:
        alone.setdefault(id(memo), set()).update(lexed_alone(content))
    assert sum(content.count("\n") + 1 for content, _ in extracted) == 238
    assert len(measured) == 11 and {id(memo) for _, memo in measured} <= {id(memo) for _, memo in extracted}
    # each traced file is walked through the memo extract lexed it through
    assert (len(carried), sum(map(len, carried.values()))) == (3, 55) and set(alone) == set(carried)
    assert sum(len(lines - carried[key]) for key, lines in alone.items()) == 10


def test_trace_extracts_each_parent_side_version_it_reaches_once(fixture_repo, monkeypatch):
    git = GitRepo(str(fixture_repo["repo"]))
    snapshot = fixture_repo["snapshot"]
    session = TraceSession(git, snapshot, THETA)
    methods = {path: extract_methods(normalize_source(git.file_at(snapshot, path)))
               for path in git.ls_files(snapshot)}
    extracted = []
    real_extract = history.extract_methods
    monkeypatch.setattr(history, "extract_methods",
                        lambda text, memo=None: extracted.append(text) or real_extract(text, memo))
    reached = []
    for path, decls in methods.items():
        oldest = max(session.chain.index(h.introduction) for h in trace_method(session, path, decls))
        # the parent-side versions down to the step of the file's last
        # introduction, and none older
        blobs = {change.oldBlob for k, change in session.steps(path)
                 if k <= oldest and change.status[0] not in ("A", "D")}
        texts = git.read_blobs(blobs)
        reached += [normalize_source(texts[blob]) for blob in blobs]
    assert len(extracted) == 10 and Counter(extracted) == Counter(reached)


def test_each_traced_file_lexes_its_versions_through_a_memo_of_its_own(fixture_repo, monkeypatch):
    git = GitRepo(str(fixture_repo["repo"]))
    snapshot = fixture_repo["snapshot"]
    session = TraceSession(git, snapshot, THETA)
    memos = []
    real_extract = history.extract_methods
    monkeypatch.setattr(history, "extract_methods",
                        lambda file, memo=None: memos.append(memo) or real_extract(file, memo))
    file_memos = []
    for path in ("src/Util.java", "src/core/Alpha.java"):
        memos.clear()
        trace_method(session, path, extract_methods(normalize_source(git.file_at(snapshot, path))))
        assert memos and all(memo is memos[0] for memo in memos)
        file_memos.append(memos[0])
        assert session.lines_lexed_alone == sum(map(len, file_memos))
    first, second = file_memos
    # lines the files share ("}", blank lines) are lexed again, not carried over
    assert "}" in first and "}" in second
    assert not {id(tokens) for tokens in first.values()} & {id(tokens) for tokens in second.values()}


def test_trace_takes_over_the_memos_extract_lexed_through_and_the_run_keeps_none(tmp_path, monkeypatch):
    repo = init_repo(tmp_path, "handed-over")
    commit_files(repo, "c01", "add", {
        "src/A.java": "class A {\n  int keep(int v) {\n    return v + 1;\n  }\n}\n",
        "src/B.java": 'class B {\n  String s = "open;\n  int b() { return 2; }\n}\n',  # fails to extract
        "src/C.java": "class C {\n  void a() {}\n  void b() {}\n}\n",
        "src/D.java": "class D {\n  int x;\n}\n",  # no method to trace
    })
    # older than the age window at the snapshot, so that label has methods
    snapshot = commit_files(repo, "c11", "later", {})
    config = PipelineConfig(repo=str(repo), commit=snapshot, out=str(tmp_path / "out"), project="p")
    methods_path = Path(config.out) / "methods.ndjson"
    held = {}  # stage -> the memos the run's table holds when the stage returns

    def holding(name):
        real = getattr(pipeline, f"run_{name}")

        def run(*args, **kwargs):
            real(*args, **kwargs)
            held[name] = dict(pipeline._RUN_READS.get()[methods_path]["memos"])

        monkeypatch.setattr(pipeline, f"run_{name}", run)

    holding("extract")
    holding("trace")
    walked = {}  # path -> the memo trace walked the file through
    real_trace = pipeline.trace_method

    def tracing(session, path, decls, memo=None):
        walked[path] = memo
        return real_trace(session, path, decls, memo)

    monkeypatch.setattr(pipeline, "trace_method", tracing)
    run_pipeline(config)
    handed = held["extract"]
    assert sorted(handed) == ["src/A.java", "src/C.java"]
    assert "    return v + 1;" in handed["src/A.java"]
    assert all(walked[path] is memo for path, memo in handed.items()) and len(walked) == 2
    assert held["trace"] == {}
    assert pipeline._RUN_READS.get() is None


def lexes_per_file(config: PipelineConfig, snapshot_texts: dict[str, str], monkeypatch) -> Counter:
    """(file, line) -> how often a pipeline run lexed that line on its own,
    for the lines that no token can cross; a line is the file's when
    extract lexes the file, or trace has walked it last."""
    current = []
    real_snapshot_extract = pipeline.extract_methods

    def extracting(text, memo=None):
        current[:] = [snapshot_texts[text]]
        return real_snapshot_extract(text, memo)

    real_trace = pipeline.trace_method

    def tracing(session, path, decls, memo=None):
        current[:] = [path]
        return real_trace(session, path, decls, memo)

    lexed = Counter()
    real_lex_from = java_extract._lex_from

    def lex_from(source, pos, line, out):
        if "\n" not in source and not ("/*" in source or '"""' in source or source.endswith("\\")):
            lexed[current[0], source] += 1
        return real_lex_from(source, pos, line, out)

    monkeypatch.setattr(pipeline, "extract_methods", extracting)
    monkeypatch.setattr(pipeline, "trace_method", tracing)
    monkeypatch.setattr(java_extract, "_lex_from", lex_from)
    run_pipeline(config)
    return lexed


@pytest.mark.parametrize("name", ["fixture", "wide-snapshot"])
def test_a_pipeline_run_lexes_each_line_of_a_file_once(name, request, tmp_path, monkeypatch):
    if name == "fixture":
        ledger = request.getfixturevalue("fixture_repo")
        repo, snapshot = ledger["repo"], ledger["snapshot"]
    else:
        bench_run = request.getfixturevalue("bench_run")
        generated = bench_run.generate_repo(bench_run.TINY[name][0], 1, tmp_path / name)
        repo, snapshot = generated.path, generated.head
    git = GitRepo(str(repo))
    snapshot_texts = {normalize_source(git.file_at(snapshot, path)): path for path in git.ls_files(snapshot)}
    config = PipelineConfig(repo=str(repo), commit=snapshot, out=str(tmp_path / "out"), project="p")
    lexed = lexes_per_file(config, snapshot_texts, monkeypatch)
    # extract's lines and trace's: every file's lines, its historical versions' included
    assert {path for path, _ in lexed} == set(snapshot_texts.values())
    assert [key for key, times in lexed.items() if times > 1] == []
