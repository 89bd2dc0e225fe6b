"""Trace measures each history's inception metrics once and stores them in
`histories.ndjson` as `introduction.metrics`; label reads them there and
measures nothing, so a label-only rerun costs no metric work.  An output
directory or a histories file of an older version, which has no stored
metrics, is traced again or rejected by name."""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from methodlens import pipeline
from methodlens.cli import main
from methodlens.java_extract import extract_methods, normalize_source
from methodlens.metrics import compute_metric_vector
from methodlens.pipeline import (
    STAGES,
    PipelineConfig,
    _json_line,
    decl_from_record,
    read_ndjson,
    run_pipeline,
)

from golden_corpus import corpus_files
from repo_builder import commit_files, init_repo

ARTIFACTS = ("methods.ndjson", "histories.ndjson", "dataset.ndjson", "pareto.csv",
             "bugs_high_recall.csv", "bugs_high_precision.csv", "correlations.csv",
             "surprisingly_good.ndjson", "surprisingly_ugly.ndjson", "report.json", "manifest.json")


def fixture_config(fixture_repo, out: Path) -> PipelineConfig:
    return PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                          out=str(out), project="fixture", seed=7)


@pytest.fixture
def measured(monkeypatch):
    """The declarations the pipeline measures, in call order."""
    decls = []
    monkeypatch.setattr(pipeline, "compute_metric_vector",
                        lambda decl: decls.append(decl) or compute_metric_vector(decl))
    return decls


def test_a_cold_run_measures_each_history_once_and_label_reruns_measure_nothing(
        fixture_repo, tmp_path, measured):
    config = fixture_config(fixture_repo, tmp_path / "out")
    run_pipeline(config)
    _, histories = read_ndjson(tmp_path / "out" / "histories.ndjson")
    assert len(histories) == 11  # the young method too
    assert len(measured) == len(histories)
    from_label = {stage: "skipped" if stage in ("extract", "trace") else "ran" for stage in STAGES}
    for change in ({"indicator": "revisions"}, {"window_years": 3.0},
                   {"ugly_fraction": 0.3}, {"high_recall_keywords": ("oops",)}):
        measured.clear()
        config = replace(config, **change)
        assert run_pipeline(config) == from_label, change
        assert measured == [], change


def _assert_stored_metrics_are_the_introductions(out: Path) -> None:
    _, histories = read_ndjson(out / "histories.ndjson")
    stored = {}
    for record in histories:
        metrics = record["introduction"]["metrics"]
        expected = compute_metric_vector(decl_from_record(record["introduction"]["method"])).as_dict()
        # the JSON text keeps int, float, bool and NaN apart, where == would not
        assert _json_line(metrics) == _json_line(expected)
        assert {k: type(v) for k, v in metrics.items()} == {k: type(v) for k, v in expected.items()}
        stored[json.dumps(record["identity"], sort_keys=True)] = _json_line(metrics)
    _, dataset = read_ndjson(out / "dataset.ndjson")
    assert dataset
    for record in dataset:
        assert _json_line(record["metrics"]) == stored[json.dumps(record["identity"], sort_keys=True)]


def test_stored_metrics_are_those_of_the_introduction_on_the_fixture_repo(fixture_repo, tmp_path):
    run_pipeline(fixture_config(fixture_repo, tmp_path))
    _assert_stored_metrics_are_the_introductions(tmp_path)


def test_stored_metrics_are_those_of_the_introduction_on_the_golden_corpus(tmp_path):
    repo = init_repo(tmp_path, "golden")
    commit_files(repo, "c01", "add the golden classes",
                 {f"src/{name}": content for name, content in corpus_files().items()})
    snapshot = commit_files(repo, "c11", "docs", {"README.md": "notes\n"})
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(repo=str(repo), commit=snapshot, out=str(out), project="golden"))
    _, histories = read_ndjson(out / "histories.ndjson")
    assert len(histories) == sum(len(extract_methods(normalize_source(content)))
                                 for content in corpus_files().values())
    _assert_stored_metrics_are_the_introductions(out)


def _strip_metrics(path: Path) -> None:
    """Rewrite a histories file as versions before 0.2.0 wrote it."""
    lines = path.read_text(encoding="utf-8").splitlines()
    records = [json.loads(line) for line in lines[1:]]
    for record in records:
        del record["introduction"]["metrics"]
    path.write_text("\n".join([lines[0], *map(_json_line, records)]) + "\n", encoding="utf-8")


def test_an_output_directory_of_the_previous_version_runs_every_stage_once(
        fixture_repo, tmp_path, monkeypatch):
    old = fixture_config(fixture_repo, tmp_path / "old")
    with monkeypatch.context() as patch:
        patch.setattr(pipeline, "TOOL_VERSION", "0.1.0")
        run_pipeline(old)
    _strip_metrics(tmp_path / "old" / "histories.ndjson")
    indicator = replace(old, indicator="revisions")
    assert set(run_pipeline(indicator).values()) == {"ran"}
    clean = tmp_path / "clean"
    run_pipeline(replace(indicator, out=str(clean)))
    assert [name for name in ARTIFACTS
            if (tmp_path / "old" / name).read_bytes() != (clean / name).read_bytes()] == []


def test_label_rejects_a_histories_file_without_metrics_by_name(fixture_repo, tmp_path, capsys):
    run_pipeline(fixture_config(fixture_repo, tmp_path))
    histories = tmp_path / "old.ndjson"
    histories.write_bytes((tmp_path / "histories.ndjson").read_bytes())
    _strip_metrics(histories)
    out = tmp_path / "label"
    assert main(["label", "--histories", str(histories), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: stage 'label' failed: ")
    assert f"{histories} holds no introduction metrics" in err and "run trace again" in err
    assert not (out / "dataset.ndjson").exists()


def test_label_names_a_histories_file_whose_metrics_lack_one(fixture_repo, tmp_path, capsys):
    run_pipeline(fixture_config(fixture_repo, tmp_path))
    lines = (tmp_path / "histories.ndjson").read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    del record["introduction"]["metrics"]["size"]
    histories = tmp_path / "short.ndjson"
    histories.write_text("\n".join([lines[0], _json_line(record), *lines[2:]]) + "\n", encoding="utf-8")
    out = tmp_path / "label"
    assert main(["label", "--histories", str(histories), "--out", str(out)]) == 4
    assert f"{histories} is malformed: " in capsys.readouterr().err
    assert not (out / "dataset.ndjson").exists()
