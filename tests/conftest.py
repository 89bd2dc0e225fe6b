import subprocess
import sys
from pathlib import Path

import pytest

# make tests/ importable for the oracle/ledger helpers
sys.path.insert(0, str(Path(__file__).resolve().parent))


@pytest.fixture(scope="session")
def fixture_repo(tmp_path_factory):
    from repo_builder import build_fixture_repo

    return build_fixture_repo(tmp_path_factory.mktemp("fixture"))


@pytest.fixture(scope="session")
def bench_run():
    """The benchmark's `perfbench/run.py` module, imported (never changed)
    for its workload shapes and the names its tracer patches."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    import run

    return run


class GitChildren(list):
    """(git subcommand, process) for every process methodlens.gitrepo
    starts; `subprocess.run` starts its processes through `Popen` too."""

    def names(self) -> list[str]:
        return [name for name, _ in self]

    def running(self) -> list[str]:
        return [name for name, proc in self if proc.poll() is None]


@pytest.fixture
def git_children(monkeypatch) -> GitChildren:
    children = GitChildren()
    real_popen = subprocess.Popen

    def recording_popen(args, *rest, **kwargs):
        proc = real_popen(args, *rest, **kwargs)
        children.append((args[3] if args[1] == "-C" else args[1], proc))
        return proc

    monkeypatch.setattr("methodlens.gitrepo.subprocess.Popen", recording_popen)
    return children
