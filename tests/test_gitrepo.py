"""The bulk history reader against the per-commit and per-blob reference
readers of GitRepo: one `git log` must report what `changes` reports for
every first-parent commit, and one `cat-file --batch` what `file_at` reads."""

import pytest

from methodlens.gitrepo import GitRepo
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
    assert chain[1].message.startswith("Merge") and chain[1].firstParentId == chain[2].id


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
