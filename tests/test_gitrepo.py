"""The bulk history reader against the per-commit and per-blob reference
readers of GitRepo: one `git log` must report what `changes` reports for
every first-parent commit, and the one `cat-file --batch` child what
`file_at` reads, over any number of calls; the child's start, stop and
failures."""

import gc
import threading

import pytest

from methodlens.gitrepo import GitRepo, RepoAccessError
from repo_builder import build_layout_repo


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
