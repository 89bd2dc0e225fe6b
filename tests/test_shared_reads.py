"""At most one parse of each artifact per pipeline run, and none of an
artifact the run wrote: the stages of one `run_pipeline` call share their
parses, a stage that writes an artifact a later stage reads hands the run
what a parse of its bytes gives, and nothing is shared outside a run."""

import dataclasses
import math
import struct
from collections import Counter
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import pytest

from methodlens import pipeline
from methodlens.cli import main
from methodlens.pipeline import PipelineConfig, StageError, labeled_record, run_pipeline, write_ndjson
from synth import labeled


@pytest.fixture
def parses(monkeypatch) -> Counter:
    """The number of times each file name was parsed."""
    counted = Counter()
    real = pipeline.read_ndjson
    monkeypatch.setattr(pipeline, "read_ndjson", lambda path: counted.update([Path(path).name]) or real(path))
    return counted


@pytest.fixture
def config(fixture_repo, tmp_path) -> PipelineConfig:
    return PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                          out=str(tmp_path / "out"), project="fixture", seed=7)


def test_a_run_parses_each_artifact_once(config, parses):
    """A cold run writes every artifact it reads, so it parses none."""
    assert set(run_pipeline(config).values()) == {"ran"}
    assert parses == {}
    assert pipeline._RUN_READS.get() is None


def test_each_rerun_parses_again(config, parses):
    """A rerun parses the one artifact it reads and did not write."""
    run_pipeline(config)
    for indicator in ("revisions", "diffSize"):
        parses.clear()
        status = run_pipeline(replace(config, indicator=indicator))
        assert [stage for stage, state in status.items() if state == "skipped"] == ["extract", "trace"]
        assert parses == {"histories.ndjson": 1}


@pytest.fixture
def tables(monkeypatch) -> list[dict]:
    """The read table of each run_pipeline call, kept after the call ends."""
    kept = []
    real = pipeline._shared_reads

    @contextmanager
    def keeping():
        with real():
            kept.append(pipeline._RUN_READS.get())
            yield

    monkeypatch.setattr(pipeline, "_shared_reads", keeping)
    return kept


_SCALARS = (str, int, bool, type(None))


def strictly_equal(a, b) -> bool:
    """Deep equality that tells a list from a tuple and an int from a float
    from a bool, and compares floats by their bits, NaN included.  Dicts
    are compared key by key, not in order: no stage iterates a record's
    keys, and a parse holds them sorted as they are written."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return struct.pack("<d", a) == struct.pack("<d", b)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(strictly_equal, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(strictly_equal(a[key], b[key]) for key in a)
    if dataclasses.is_dataclass(a):
        return all(strictly_equal(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    assert isinstance(a, _SCALARS), type(a)
    return a == b


def test_strict_equality_tells_what_plain_equality_does_not():
    negative_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000000))[0]
    assert strictly_equal({"a": [1, 2.5, math.nan]}, {"a": [1, 2.5, float("nan")]})
    for a, b in (([1], (1,)), (1, 1.0), (True, 1), (0.0, -0.0), (math.nan, negative_nan),
                 (labeled(1), replace(labeled(1), bugCountHighRecall=0.0))):
        assert not strictly_equal(a, b) and not strictly_equal([{"k": a}], [{"k": b}])


# what each artifact's load is, for the loads that parse a file
PARSERS = {"methods.ndjson": "read_ndjson", "histories.ndjson": "read_ndjson", "dataset.ndjson": "_parse_dataset"}


def test_what_a_stage_shares_equals_a_parse_of_what_it_wrote(config, tables, parses):
    # the cold run shares all three artifacts; the rerun parses histories.ndjson
    # and shares the dataset it wrote
    for run, (shared, parsed) in enumerate([
            (["dataset.ndjson", "histories.ndjson", "methods.ndjson"], {}),
            (["dataset.ndjson", "histories.ndjson"], {"histories.ndjson": 1})]):
        parses.clear()
        run_pipeline(replace(config, indicator=("editDistance", "revisions")[run]))
        assert parses == parsed
        table = tables[run]
        assert sorted(path.name for path in table) == shared
        for path, loads in table.items():
            load = getattr(pipeline, PARSERS[path.name])
            # the rest parse nothing: the correlation table, and the line
            # memos extract hands to trace
            assert all(other == "memos" or other.startswith("correlations ") for other in loads if other is not load)
            assert strictly_equal(loads[load], load(path)), path.name


@pytest.mark.parametrize("artifact", ["methods.ndjson", "histories.ndjson", "dataset.ndjson"])
def test_a_stage_that_fails_after_its_write_shares_nothing(config, tables, monkeypatch, artifact):
    real = pipeline._atomic_write

    def write_then_fail(path, data):
        real(path, data)
        if path.name == artifact:
            raise OSError("failed after the write")

    monkeypatch.setattr(pipeline, "_atomic_write", write_then_fail)
    with pytest.raises(StageError, match="failed after the write$"):
        run_pipeline(config)
    [table] = tables
    written = list(PARSERS)[:list(PARSERS).index(artifact)]
    assert (Path(config.out) / artifact).exists()
    assert sorted(path.name for path in table) == sorted(written)


def test_a_failed_stage_leaves_no_table_behind(config, parses, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    real = pipeline.run_correlate
    monkeypatch.setattr(pipeline, "run_correlate", broken)
    with pytest.raises(StageError, match=r"^stage 'correlate' failed: boom$"):
        run_pipeline(config)
    assert pipeline._RUN_READS.get() is None

    monkeypatch.setattr(pipeline, "run_correlate", real)
    parses.clear()
    status = run_pipeline(config)
    assert [stage for stage, state in status.items() if state == "ran"] == ["correlate", "rank", "train"]
    assert parses == {"histories.ndjson": 1, "dataset.ndjson": 1}


def test_a_malformed_dataset_fails_in_pareto(config, monkeypatch):
    def malformed_label(config, out, digests, *, histories_path):
        (out / "dataset.ndjson").write_text('{"stage": "label"}\n{"label": "good"}\n')

    monkeypatch.setattr(pipeline, "run_label", malformed_label)
    dataset = Path(config.out) / "dataset.ndjson"
    with pytest.raises(StageError) as failed:
        run_pipeline(config)
    assert str(failed.value) == f"stage 'pareto' failed: {dataset} is malformed: missing field 'identity'"


def test_a_write_drops_the_parse_of_its_path(tmp_path, parses):
    dataset = tmp_path / "dataset.ndjson"
    write_ndjson(dataset, "label", {}, [labeled_record(labeled(1), 0, 0.0)])
    with pipeline._shared_reads():
        first = pipeline._load_dataset(dataset)
        assert pipeline._load_dataset(dataset) is first
        write_ndjson(dataset, "label", {}, [labeled_record(labeled(i), 0, 0.0) for i in (2, 3)])
        assert len(pipeline._load_dataset(dataset)) == 2
    assert parses == {"dataset.ndjson": 2}


def test_a_load_that_raises_keeps_nothing(tmp_path, parses):
    dataset = tmp_path / "dataset.ndjson"
    dataset.write_text("not json\n")
    with pipeline._shared_reads():
        for _ in range(2):
            with pytest.raises(pipeline.MalformedInput):
                pipeline._load_dataset(dataset)
    assert parses == {"dataset.ndjson": 2}


def test_subcommands_and_direct_runner_calls_parse_every_time(config, parses, capsys):
    run_pipeline(config)
    out = Path(config.out)
    dataset, histories = str(out / "dataset.ndjson"), str(out / "histories.ndjson")
    parses.clear()
    for _ in range(2):
        assert main(["rank", "--labeled", dataset, "--histories", histories, "--out", str(out / "sub")]) == 0
    assert parses == {"histories.ndjson": 2, "dataset.ndjson": 2}

    parses.clear()
    for _ in range(2):
        pipeline.run_correlate(config, out, {}, dataset_path=Path(dataset))
    assert parses == {"dataset.ndjson": 2}


def test_a_run_computes_the_correlation_table_once(config, monkeypatch):
    tables = []
    real = pipeline.correlation_table
    monkeypatch.setattr(pipeline, "correlation_table", lambda *args, **kwargs: tables.append(1) or real(*args, **kwargs))
    run_pipeline(config)
    assert len(tables) == 1

    out = Path(config.out)
    tables.clear()
    for _ in range(2):
        pipeline.run_correlate(config, out, {}, dataset_path=out / "dataset.ndjson")
        pipeline.run_rank(config, out, {}, dataset_path=out / "dataset.ndjson",
                          histories_path=out / "histories.ndjson")
    assert len(tables) == 4
