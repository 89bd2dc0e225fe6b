"""How the trace stage reads git and lexes: a bounded number of git
processes per run, at most one batch per traced file (none for a file with
no parent-side version), one extraction per parent-side version the file's
walk reaches and none older, no body-block lex for an extracted declaration
and one for a declaration rebuilt from its record, and a counted summary of
what it read, failed to extract and lexed; the line memo that lives for one
traced file; and the same summary of the extract stage."""

import logging
import subprocess
from collections import Counter
from pathlib import Path

from methodlens import history, java_extract
from methodlens.cli import main
from methodlens.gitrepo import GitRepo
from methodlens.history import TraceConfig, TraceSession, match_method, trace_method
from methodlens.java_extract import extract_methods, normalize_source
from methodlens.pipeline import (PipelineConfig, decl_from_record, method_record, read_ndjson, run_pipeline,
                                 run_stage)
from repo_builder import commit_files, init_repo


def test_pipeline_git_processes_do_not_grow_with_the_chain(fixture_repo, tmp_path, monkeypatch):
    calls = []
    real_run = subprocess.run

    def counting_run(args, *rest, **kwargs):
        calls.append(args[3] if args[1] == "-C" else args[1])
        return real_run(args, *rest, **kwargs)

    monkeypatch.setattr("methodlens.gitrepo.subprocess.run", counting_run)
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    run_pipeline(config)
    _, records = read_ndjson(tmp_path / "methods.ndjson")
    traced_files = len({r["file"] for r in records})
    assert traced_files == 3
    assert len(calls) <= traced_files + 5, calls
    assert calls.count("rev-parse") == 2  # --git-dir, then the snapshot once
    assert calls.count("ls-tree") == 1  # extract's; trace never lists the snapshot
    assert calls.count("log") == 1 and calls.count("cat-file") == traced_files + 1
    assert "diff-tree" not in calls


def test_the_trace_subcommand_opens_the_repository_once(fixture_repo, tmp_path, monkeypatch):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(tmp_path)]) == 0
    methods = tmp_path / "methods.ndjson"
    git = GitRepo(repo)
    calls = []
    real_run = subprocess.run
    monkeypatch.setattr("methodlens.gitrepo.subprocess.run",
                        lambda args, *rest, **kw: calls.append(args[3]) or real_run(args, *rest, **kw))
    config = PipelineConfig(repo=repo, commit=sha, out=str(tmp_path / "stage"))
    Path(config.out).mkdir()
    run_stage("trace", config, {"methods.ndjson": methods}, git, sha)
    stage_calls, calls[:] = list(calls), []
    assert main(["trace", "--repo", repo, "--commit", sha, "--methods", str(methods),
                 "--out", str(tmp_path)]) == 0
    # --git-dir and the snapshot, once each, then the stage's own processes
    assert calls == ["rev-parse", "rev-parse", *stage_calls]


def test_match_method_lexes_each_declaration_once(monkeypatch):
    source = "class A {\n" + "".join(
        f"  int m{i}(int v) {{\n    int a = v * {i};\n    return a + {i * 7} - v;\n  }}\n" for i in range(6)
    ) + "}\n"
    prev = extract_methods(normalize_source("A.java", source))
    target = extract_methods(normalize_source("A.java", source.replace("m3(", "renamed(")))[3]
    lexed = []
    real_tokenize = java_extract.tokenize
    monkeypatch.setattr(java_extract, "tokenize",
                        lambda text, memo=None: lexed.append(text) or real_tokenize(text, memo))
    for _ in range(2):
        assert match_method(prev, target, TraceConfig()).name == "m3"
    assert lexed == []  # extraction handed every declaration its body block
    rebuilt = decl_from_record(method_record("A.java", target))
    for _ in range(2):
        assert match_method(prev, rebuilt, TraceConfig()).name == "m3"
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
                       "1 historical versions failed to extract, 13 version lines, 6 lexed alone"]
    assert sum("extraction failed" in r.getMessage() for r in caplog.records) == 1
    _, [record] = read_ndjson(Path(config.out) / "histories.ndjson")
    assert len(record["revisions"]) == 0  # the unreadable parent is skipped, not a revision


def test_trace_starts_no_process_for_a_file_with_no_parent_side_version(tmp_path, monkeypatch, caplog):
    repo = init_repo(tmp_path, "added-once")
    commit_files(repo, "c01", "root", {"src/A.java": "class A {\n  int a() { return 1; }\n}\n"})
    snapshot = commit_files(repo, "c02", "add B", {"src/B.java": "class B {\n  int b() { return 2; }\n}\n"})
    config = PipelineConfig(repo=str(repo), commit=snapshot, out=str(tmp_path / "out"), project="p")
    Path(config.out).mkdir()
    git = GitRepo(str(repo))
    methods = Path(config.out) / "methods.ndjson"
    run_stage("extract", config, {}, git, snapshot)
    calls = []
    real_run = subprocess.run
    monkeypatch.setattr("methodlens.gitrepo.subprocess.run",
                        lambda args, *rest, **kw: calls.append(args[3]) or real_run(args, *rest, **kw))
    with caplog.at_level(logging.INFO, logger="methodlens"):
        run_stage("trace", config, {"methods.ndjson": methods}, git, snapshot)
    assert calls == ["log"]
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trace:")]
    assert summary == ["trace: 2 chain commits, 2 files traced, 0 blobs read, "
                       "0 historical versions failed to extract, 0 version lines, 0 lexed alone"]
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
    extracted = []
    real_extract = history.extract_methods
    monkeypatch.setattr(history, "extract_methods",
                        lambda file, memo=None: extracted.append((file.content, memo)) or real_extract(file, memo))
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    with caplog.at_level(logging.INFO, logger="methodlens"):
        run_pipeline(config)
    summary = [r.getMessage() for r in caplog.records if r.getMessage().startswith("trace:")]
    assert summary == ["trace: 11 chain commits, 3 files traced, 10 blobs read, "
                       "0 historical versions failed to extract, 238 version lines, 59 lexed alone"]
    # the same counts from the versions trace extracted: every line, and the
    # distinct lines of each file's versions that no token can cross
    alone: dict[int, set[str]] = {}  # by id of a memo that `extracted` keeps alive
    for content, memo in extracted:
        alone.setdefault(id(memo), set()).update(
            line for line in content.split("\n") if not ("/*" in line or '"""' in line or line.endswith("\\")))
    assert sum(content.count("\n") + 1 for content, _ in extracted) == 238
    assert (len(alone), sum(map(len, alone.values()))) == (3, 59)


def test_trace_extracts_each_parent_side_version_it_reaches_once(fixture_repo, monkeypatch):
    git = GitRepo(str(fixture_repo["repo"]))
    snapshot = fixture_repo["snapshot"]
    session = TraceSession(git, snapshot, TraceConfig())
    methods = {path: extract_methods(normalize_source(path, git.file_at(snapshot, path)))
               for path in git.ls_files(snapshot)}
    extracted = []
    real_extract = history.extract_methods
    monkeypatch.setattr(history, "extract_methods",
                        lambda file, memo=None: extracted.append(file.content) or real_extract(file, memo))
    reached = []
    for path, decls in methods.items():
        oldest = max(session.chain.index(h.introduction) for h in trace_method(session, path, decls))
        # the parent-side versions down to the step of the file's last
        # introduction, and none older
        blobs = {change.oldBlob for k, change in session.steps(path)
                 if k <= oldest and change.status[0] not in ("A", "D")}
        texts = git.read_blobs(blobs)
        reached += [normalize_source(path, texts[blob]).content for blob in blobs]
    assert len(extracted) == 10 and Counter(extracted) == Counter(reached)


def test_each_traced_file_lexes_its_versions_through_a_memo_of_its_own(fixture_repo, monkeypatch):
    git = GitRepo(str(fixture_repo["repo"]))
    snapshot = fixture_repo["snapshot"]
    session = TraceSession(git, snapshot, TraceConfig())
    memos = []
    real_extract = history.extract_methods
    monkeypatch.setattr(history, "extract_methods",
                        lambda file, memo=None: memos.append(memo) or real_extract(file, memo))
    file_memos = []
    for path in ("src/Util.java", "src/core/Alpha.java"):
        memos.clear()
        trace_method(session, path, extract_methods(normalize_source(path, git.file_at(snapshot, path))))
        assert memos and all(memo is memos[0] for memo in memos)
        file_memos.append(memos[0])
        assert session.lines_lexed_alone == sum(map(len, file_memos))
    first, second = file_memos
    # lines the files share ("}", blank lines) are lexed again, not carried over
    assert "}" in first and "}" in second
    assert not {id(tokens) for tokens in first.values()} & {id(tokens) for tokens in second.values()}
