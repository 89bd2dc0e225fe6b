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
