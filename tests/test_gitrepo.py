"""The bulk history reader against the per-commit and per-blob reference
readers of GitRepo: one `git log` must report what `changes` reports for
every first-parent commit, and the one `cat-file --batch` child what
`file_at` reads, over any number of calls; the child's start, stop and
failures; and opening a repository, which starts no process, and resolving
a commit in it, which starts one."""

import gc
import subprocess
import threading

import pytest

from methodlens.cli import main
from methodlens.gitrepo import GitRepo, RepoAccessError, UnknownCommit
from methodlens.pipeline import PipelineConfig, open_snapshot
from repo_builder import build_layout_repo, commit_files, init_repo


@pytest.fixture(scope="module")
def layout_repo(tmp_path_factory):
    return build_layout_repo(tmp_path_factory.mktemp("layout"))


@pytest.fixture(params=["fixture", "layout"])
def history(request, fixture_repo, layout_repo):
    ledger = fixture_repo if request.param == "fixture" else layout_repo
    repo = GitRepo(str(ledger["repo"]))
    chain, changes = repo.first_parent_history(ledger["snapshot"])
    return repo, chain, changes


def _parent(chain, k):
    return chain[k + 1].id if k + 1 < len(chain) else None


def test_chain_equals_first_parent_chain(history):
    repo, chain, changes = history
    assert chain == repo.first_parent_chain(chain[0].id)
    assert len(changes) == len(chain)


def test_changes_equal_diff_tree_for_every_chain_commit(history):
    repo, chain, changes = history
    for k, commit in enumerate(chain):
        got = {path: (c.status, c.oldPath) for path, c in changes[k].items()}
        assert got == repo.changes(_parent(chain, k), commit.id), commit.message


def test_layout_history_has_every_kind_of_event(layout_repo):
    repo = GitRepo(str(layout_repo["repo"]))
    chain, changes = repo.first_parent_history(layout_repo["snapshot"])
    by_message = {c.message.strip(): changes[k] for k, c in enumerate(chain)}
    rename = by_message["rename Alpha to Beta"]["src/Beta.java"]
    assert rename.status.startswith("R") and rename.status != "R100"
    assert rename.oldPath == "src/Alpha.java"
    moved = by_message["move Crlf, drop notes"]
    assert moved["lib/Crlf.java"].oldPath == "src/Crlf.java"
    assert moved["docs/notes.txt"].status == "D"
    assert by_message["nothing"] == {}
    merge = by_message["Merge branch 'side'"]
    assert set(merge) == {"src/Side.java", "src/Beta.java"}
    assert merge["src/Side.java"].oldBlob is None  # an addition has no parent side
    assert all(c.status == "A" for c in changes[-1].values())  # the root
    assert "src/sp ace é.java" in by_message["main work"]
    assert chain[1].message.startswith("Merge") and repo.resolve_commit(chain[1].id + "^1") == chain[2].id


def test_read_blobs_equals_file_at_for_every_old_side_blob(history):
    repo, chain, changes = history
    wanted = {}
    for k, commit in enumerate(chain):
        for path, change in changes[k].items():
            if change.oldBlob is not None:
                wanted[change.oldBlob] = (_parent(chain, k), change.oldPath or path)
    assert wanted
    texts = repo.read_blobs(wanted)
    assert set(texts) == set(wanted)
    for blob, (commit, path) in wanted.items():
        assert texts[blob] == repo.file_at(commit, path), path


def test_read_blobs_keeps_crlf_and_maps_absent_names_to_none(layout_repo):
    repo = GitRepo(str(layout_repo["repo"]))
    snapshot = layout_repo["snapshot"]
    blobs = repo.ls_tree(snapshot)
    assert list(blobs) == repo.ls_files(snapshot)
    absent = "0" * 40
    texts = repo.read_blobs([blobs["lib/Crlf.java"], absent, f"{snapshot}:no/such.java", snapshot])
    assert "\r\n" in texts[blobs["lib/Crlf.java"]]
    assert texts[blobs["lib/Crlf.java"]] == repo.file_at(snapshot, "lib/Crlf.java")
    assert texts[absent] is None and repo.file_at(absent, "lib/Crlf.java") is None
    assert texts[f"{snapshot}:no/such.java"] is None
    assert texts[snapshot] is None  # a commit, not a blob
    assert repo.read_blobs([]) == {}


def test_repeated_reads_share_one_child_and_equal_file_at(layout_repo, git_children):
    repo = GitRepo(str(layout_repo["repo"]))
    chain, changes = repo.first_parent_history(layout_repo["snapshot"])
    # every changed path at every chain commit, a tree, an absent path, and
    # names the child's line reader would alter (a trailing CR is stripped,
    # a newline splits the name in two), which must not shift later replies
    paths = {path for commit_changes in changes for path in commit_changes}
    paths |= {"src", "no/such.java", "lib/Crlf.java\r", "lib/Crlf.java\nsrc/Beta.java"}
    wanted = {f"{commit.id}:{path}": (commit.id, path) for commit in chain for path in sorted(paths)}
    names = list(wanted)
    del git_children[:]
    texts = {}
    for part in (names[::3], names[1::3], names[2::3], names[::2]):  # the last reads each name again
        texts.update(repo.read_blobs(part))
    assert git_children.names() == ["cat-file"]
    assert set(texts) == set(wanted)
    assert any(text is not None and "\r\n" in text for text in texts.values())
    for name, (commit, path) in wanted.items():
        assert texts[name] == repo.file_at(commit, path), name
    repo.close()
    assert git_children.running() == []


def test_a_read_of_more_names_than_a_pipe_holds_does_not_block(layout_repo, git_children):
    repo = GitRepo(str(layout_repo["repo"]))
    snapshot = layout_repo["snapshot"]
    files = {path: repo.file_at(snapshot, path) for path in repo.ls_tree(snapshot)}
    # distinct spellings of each snapshot file, whose replies fill a pipe
    # long before their names do, between names that are absent
    present = {f"{snapshot[:k]}{'~0' * j}:{path}": path for path in files for k in range(12, 41) for j in range(12)}
    absent = [f"{snapshot}:no/such/directory/File{i:05d}.java" for i in range(600)]
    longer_than_a_chunk = f"{snapshot}:" + "deep/" * 1000 + "X.java"
    names = [*absent[:300], *present, longer_than_a_chunk, *absent[300:]]
    assert sum(len(name.encode()) + 1 for name in names) > 64 * 1024
    texts = {}
    # in a thread, so that a deadlock fails the test instead of hanging it
    reader = threading.Thread(target=lambda: texts.update(repo.read_blobs(names)), daemon=True)
    reader.start()
    reader.join(timeout=60)
    blocked = reader.is_alive()
    if blocked:  # end the child, so that the reader and the test run can end
        for _, proc in git_children:
            proc.kill()
        reader.join()
    assert not blocked, "read_blobs blocked"
    assert list(texts) == names
    assert all(texts[name] is None for name in absent + [longer_than_a_chunk])
    assert all(texts[name] == files[path] for name, path in present.items())
    repo.close()


def test_close_stops_the_child_and_a_later_read_starts_another(layout_repo, git_children):
    name = f"{layout_repo['snapshot']}:lib/Crlf.java"
    with GitRepo(str(layout_repo["repo"])) as repo:
        first = repo.read_blobs([name])
        assert first[name] is not None and git_children.running() == ["cat-file"]
        repo.close()
        assert git_children.running() == []
        assert repo.read_blobs([name]) == first
        assert git_children.running() == ["cat-file"]
    assert git_children.names().count("cat-file") == 2 and git_children.running() == []
    repo.close()  # closing a closed repository does nothing


def test_a_repository_dropped_unclosed_stops_its_child(layout_repo, git_children):
    repo = GitRepo(str(layout_repo["repo"]))
    repo.read_blobs([f"{layout_repo['snapshot']}:lib/Crlf.java"])
    assert git_children.running() == ["cat-file"]
    del repo
    gc.collect()
    assert git_children.running() == []


@pytest.mark.parametrize("cat_file", ["exit 0", "printf '%s blob 100\\nshort' 0123; exit 0"],
                         ids=["exits-at-once", "short-reply"])
def test_a_cat_file_child_that_exits_early_raises(layout_repo, tmp_path, monkeypatch, git_children, cat_file):
    wrapper = tmp_path / "git-wrapper"
    wrapper.write_text(f'#!/bin/sh\nif [ "$3" = cat-file ]; then {cat_file}; fi\nexec git "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("METHODLENS_GIT", str(wrapper))
    repo = GitRepo(str(layout_repo["repo"]))
    for _ in range(2):  # the failed child is stopped; the next read starts another
        with pytest.raises(RepoAccessError):
            repo.read_blobs([f"{layout_repo['snapshot']}:lib/Crlf.java"])
        assert git_children.running() == []
    assert git_children.names().count("cat-file") == 2


def test_a_cat_file_child_that_cannot_start_raises(layout_repo, tmp_path):
    repo = GitRepo(str(layout_repo["repo"]))
    repo.git = str(tmp_path / "no-such-git")
    with pytest.raises(RepoAccessError, match="cannot invoke"):
        repo.read_blobs([layout_repo["snapshot"]])


# --- opening a repository and resolving its snapshot ------------------------------


@pytest.fixture(scope="module")
def one_commit(tmp_path_factory):
    """A one-commit work tree with a subdirectory, and a bare clone of it."""
    root = tmp_path_factory.mktemp("resolve")
    repo = init_repo(root, "work")
    snapshot = commit_files(repo, "c01", "add", {"src/A.java": "class A {\n  int f() { return 1; }\n}\n"})
    subprocess.run(["git", "clone", "-q", "--bare", str(repo), str(root / "bare.git")], check=True)
    (root / "plain").mkdir()
    return {"root": root, "snapshot": snapshot}


# (directory under the fixture's root, --commit, the error line's text after
# "repository error: ", or None for a commit that resolves); "{snapshot}"
# and "{git}" are filled in, and a line ending in ": " is checked as a prefix,
# since its rest is git's own message
RESOLVE_CASES = {
    "not-a-repository": ("plain", "{snapshot}",
                         "not a readable git repository: {path}: git rev-parse --verify failed: fatal: "),
    "missing-path": ("nope", "{snapshot}",
                     "not a readable git repository: {path}: git rev-parse --verify failed: fatal: "),
    "bare": ("bare.git", "{snapshot}", None),
    "work-tree-subdirectory": ("work/src", "{snapshot}", None),
    "unknown-full-id": ("work", "f" * 40, "f" * 40),
    "unknown-ref": ("bare.git", "no-such-ref", "no-such-ref"),
    "missing-git": ("work", "{snapshot}",
                    "not a readable git repository: {path}: cannot invoke '{git}': "
                    "[Errno 2] No such file or directory: '{git}'"),
}


@pytest.mark.parametrize("case", list(RESOLVE_CASES))
def test_opening_starts_no_process_and_resolving_starts_one(one_commit, tmp_path, monkeypatch, capsys,
                                                             git_children, case):
    where, commit, error = RESOLVE_CASES[case]
    path, git = one_commit["root"] / where, tmp_path / "no-such-git"
    if case == "missing-git":
        monkeypatch.setenv("METHODLENS_GIT", str(git))
    commit = commit.format(snapshot=one_commit["snapshot"])
    repo = GitRepo(str(path))
    assert (git_children, repo.processes) == ([], 0)

    config = PipelineConfig(repo=str(path), commit=commit, out=str(tmp_path / "out"))
    if error is None:
        assert open_snapshot(config)[1] == one_commit["snapshot"]
    else:
        raises = UnknownCommit if error == commit else RepoAccessError
        with pytest.raises(raises):
            open_snapshot(config)
    # a missing git starts nothing; any other open starts its one rev-parse
    assert git_children.names() == ([] if case == "missing-git" else ["rev-parse"])

    del git_children[:]
    code = main(["extract", "--repo", str(path), "--commit", commit, "--out", config.out])
    err = capsys.readouterr().err
    if error is None:
        assert (code, err) == (0, "")
        assert git_children.names() == ["rev-parse", "ls-tree", "cat-file"]
        return
    line = "repository error: " + error.format(path=path, git=git)
    assert code == 3 and err.endswith("\n") and err.count("\n") == 1
    assert err.startswith(line) if line.endswith(": ") else err == line + "\n"
    assert not (tmp_path / "out").exists()
