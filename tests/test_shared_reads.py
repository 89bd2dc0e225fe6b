"""One parse of each artifact per pipeline run: the stages of one
`run_pipeline` call share their parses, and nothing is shared outside it."""

from collections import Counter
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
    assert set(run_pipeline(config).values()) == {"ran"}
    assert parses == {"methods.ndjson": 1, "histories.ndjson": 1, "dataset.ndjson": 1}
    assert pipeline._RUN_READS.get() is None


def test_each_rerun_parses_again(config, parses):
    run_pipeline(config)
    for indicator in ("revisions", "diffSize"):
        parses.clear()
        status = run_pipeline(replace(config, indicator=indicator))
        assert [stage for stage, state in status.items() if state == "skipped"] == ["extract", "trace"]
        assert parses == {"histories.ndjson": 1, "dataset.ndjson": 1}


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
