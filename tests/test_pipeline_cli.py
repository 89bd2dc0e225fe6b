"""Configuration parsing, CLI subcommands, stage artifact schemas, and the
plot-data emitter."""

import json
import math
import os
import stat
from pathlib import Path

import pytest

from methodlens import pipeline
from methodlens.cli import main
from methodlens.pipeline import (
    ConfigError,
    PipelineConfig,
    emit_plot_data,
    labeled_record,
    read_ndjson,
    validate_config,
    write_ndjson,
)


# --- configuration ---------------------------------------------------------------

def write_config(tmp_path, text):
    path = tmp_path / "methodlens.conf"
    path.write_text(text, encoding="utf-8")
    return path


def test_empty_config_is_all_defaults(tmp_path):
    config = validate_config(write_config(tmp_path, ""))
    assert config == PipelineConfig()
    assert config.window_years == 5.0
    assert config.ugly_fraction == 0.2
    assert config.theta == 0.75
    assert config.indicator == "editDistance"


def test_config_parses_values_and_comments(tmp_path):
    config = validate_config(write_config(tmp_path, """
# tuning
ugly_fraction = 0.2
indicator = addition-only
theta = 0.9
high_recall_keywords = oops, broke
"""))
    assert config.ugly_fraction == 0.2
    assert config.indicator == "additionOnly"
    assert config.theta == 0.9
    assert config.high_recall_keywords == ("oops", "broke")


def test_config_rejects_out_of_range_fraction(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write_config(tmp_path, "ugly_fraction = -1"))
    assert "line 1" in str(err.value)


def test_config_rejects_unknown_key(tmp_path):
    with pytest.raises(ConfigError) as err:
        validate_config(write_config(tmp_path, "\nnot_a_key = 3"))
    assert "line 2" in str(err.value)


def test_config_rejects_type_mismatch(tmp_path):
    with pytest.raises(ConfigError):
        validate_config(write_config(tmp_path, "seed = soon"))


def test_config_round_trips_losslessly(tmp_path):
    config = PipelineConfig(repo="/x", commit="abc", window_years=3.5, seed=11,
                            indicator="diffSize", high_recall_keywords=("boom", "oops"))
    path = write_config(tmp_path, config.to_text())
    assert validate_config(path) == config


# --- CLI over the fixture repository ----------------------------------------

@pytest.fixture(scope="module")
def cli_artifacts(fixture_repo, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-out")
    repo = str(fixture_repo["repo"])
    sha = fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(out)]) == 0
    assert main(["trace", "--repo", repo, "--commit", sha, "--out", str(out),
                 "--methods", str(out / "methods.ndjson"),
                 "--window-years", "5", "--theta", "0.75"]) == 0
    assert main(["label", "--histories", str(out / "histories.ndjson"),
                 "--indicator", "edit-distance", "--ugly-fraction", "0.2",
                 "--out", str(out)]) == 0
    return fixture_repo, out


def test_cli_extract_records_have_documented_fields(cli_artifacts):
    _, out = cli_artifacts
    header, records = read_ndjson(out / "methods.ndjson")
    assert header["schemaVersion"] == 1
    assert header["stage"] == "extract"
    assert header["toolVersion"]
    assert "inputDigests" in header
    assert len(records) == 11
    for record in records:
        assert set(record) >= {"file", "signature", "name", "startLine", "endLine",
                               "modifiers", "annotations", "body"}


def test_cli_metrics_annotates_and_emits_17_column_csv(cli_artifacts, tmp_path):
    _, out = cli_artifacts
    csv_path = tmp_path / "metrics.csv"
    assert main(["metrics", "--methods", str(out / "methods.ndjson"),
                 "--csv", str(csv_path)]) == 0
    _, records = read_ndjson(out / "methods.ndjson")
    assert all("metrics" in r for r in records)
    assert all(len(r["metrics"]) == 17 for r in records)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("size,mccabe,nvar,ncomp,indentStd,maxBlockDepth,fanout,"
                        "halsteadLength,maintainabilityIndex,readability,"
                        "simpleReadability,parameters,variables,commentRatio,"
                        "getterSetter,isPublic,isStatic")
    assert len(lines[0].split(",")) == 17
    assert len(lines) == 1 + len(records)


def test_cli_histories_schema(cli_artifacts):
    _, out = cli_artifacts
    header, records = read_ndjson(out / "histories.ndjson")
    assert header["stage"] == "trace"
    assert header["snapshotTime"] > 0
    for record in records:
        assert set(record) == {"identity", "introduction", "revisions", "indicators"}
        for revision in record["revisions"]:
            assert set(revision) >= {"commit", "time", "added", "deleted",
                                     "editDistance", "message"}
            assert revision["added"] + revision["deleted"] >= 1
            assert revision["editDistance"] >= 1


def test_cli_dataset_partitions_labels(cli_artifacts):
    _, out = cli_artifacts
    _, records = read_ndjson(out / "dataset.ndjson")
    assert len(records) == 10  # youngster filtered by age
    assert {r["label"] for r in records} <= {"good", "bad", "ugly"}
    assert sum(1 for r in records if r["label"] == "ugly") == 2


def test_cli_curves_and_rank_and_train(cli_artifacts, tmp_path):
    _, out = cli_artifacts
    labeled = str(out / "dataset.ndjson")
    histories = str(out / "histories.ndjson")
    assert main(["pareto", "--labeled", labeled, "--out", str(out)]) == 0
    assert main(["bugs", "--labeled", labeled, "--dataset", "high-precision",
                 "--out", str(out)]) == 0
    assert main(["bugs", "--labeled", labeled, "--dataset", "high-recall",
                 "--out", str(out)]) == 0
    assert main(["correlate", "--labeled", labeled, "--out", str(out)]) == 0
    assert main(["rank", "--labeled", labeled, "--histories", histories,
                 "--top", "50", "--per-project", "2", "--out", str(out)]) == 0
    assert main(["train", "--dataset", labeled, "--approach", "1",
                 "--seed", "3", "--out", str(out)]) == 0

    pareto = (out / "pareto.csv").read_text().splitlines()
    assert pareto[0] == "project,fraction,captured"
    captured = [float(line.split(",")[2]) for line in pareto[1:]]
    assert captured == sorted(captured)  # nondecreasing in the fraction

    good_header, good_records = read_ndjson(out / "surprisingly_good.ndjson")
    assert good_header["stage"] == "rank"
    for record in good_records:
        assert record["label"] == "good"
        assert "source" in record and "history" in record

    report = json.loads((out / "report.json").read_text())
    assert report["approach"] == 1
    assert report["status"] == "not-trainable"  # single-project corpus


def test_subcommands_write_the_pipeline_bytes(fixture_repo, tmp_path):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    staged, piped = tmp_path / "staged", tmp_path / "piped"
    methods, histories, dataset = (str(staged / name) for name in
                                   ("methods.ndjson", "histories.ndjson", "dataset.ndjson"))
    for argv in (["extract"],
                 ["trace", "--methods", methods],
                 ["label", "--histories", histories],
                 ["pareto", "--labeled", dataset],
                 ["bugs", "--labeled", dataset, "--dataset", "high-recall"],
                 ["bugs", "--labeled", dataset, "--dataset", "high-precision"],
                 ["correlate", "--labeled", dataset],
                 ["rank", "--labeled", dataset, "--histories", histories],
                 ["train", "--dataset", dataset]):
        assert main([*argv, "--repo", repo, "--commit", sha, "--seed", "7", "--out", str(staged)]) == 0
    assert main(["pipeline", "--repo", repo, "--commit", sha, "--seed", "7", "--out", str(piped)]) == 0
    names = sorted(path.name for path in piped.iterdir() if path.name != "manifest.json")
    assert len(names) == 10
    assert [name for name in names if (staged / name).read_bytes() != (piped / name).read_bytes()] == []


def test_cli_report_emits_series_x_y(cli_artifacts):
    _, out = cli_artifacts
    assert main(["report", "--artifacts", str(out)]) == 0
    for name in ("pareto_cdf.csv", "bugs_high_recall_cdf.csv",
                 "bugs_high_precision_cdf.csv", "prediction_pr_cdf.csv"):
        lines = (out / "plots" / name).read_text().splitlines()
        assert lines[0] == "series,x,y"
    pareto = (out / "plots" / "pareto_cdf.csv").read_text().splitlines()
    # single project: one point per fraction
    series = {line.split(",")[0] for line in pareto[1:]}
    assert series == {"pareto-top5", "pareto-top10", "pareto-top15", "pareto-top20"}


# --- prediction points of a trainable multi-project corpus --------------------

@pytest.fixture(scope="module")
def trainable_dataset(tmp_path_factory):
    """Five separable projects with 15% of the labels flipped, so the scores
    are not all 1.0, plus one project without ugly methods, whose held-out
    scores are undefined (nan) under approach 2."""
    import random

    from synth import labeled, metric_vector, separable_corpus

    methods = separable_corpus(projects=5, per_project=20, seed=3, bad_share=0.1)
    rng = random.Random(1)
    for m in methods:
        if rng.random() < 0.15:
            m.label = "good" if m.label == "ugly" else "ugly"
    methods += [labeled(1000 + i, project="quiet", metrics=metric_vector(size=5 + i)) for i in range(10)]
    path = tmp_path_factory.mktemp("trainable") / "dataset.ndjson"
    write_ndjson(path, "label", {}, [labeled_record(m, 0, 2000.0) for m in methods])
    return path


CDF_CSV = {
    1: """project,precision,recall
test:forest,0.6666666666666666,0.5
test:logistic,0.6666666666666666,0.5
test:tree,0.6666666666666666,0.5
""",
    2: """project,precision,recall
proj0,0.8571428571428571,0.6
proj0,0.8571428571428571,0.6
proj0,0.7777777777777778,0.7
proj1,0.6666666666666666,0.5
proj1,0.6666666666666666,0.5
proj1,0.6666666666666666,0.5
proj2,0.8,1.0
proj2,0.8,1.0
proj2,0.6666666666666666,0.75
proj3,1.0,0.7142857142857143
proj3,1.0,0.7142857142857143
proj3,0.7142857142857143,0.7142857142857143
proj4,0.8571428571428571,1.0
proj4,0.8571428571428571,1.0
proj4,0.8333333333333334,0.8333333333333334
quiet,nan,nan
quiet,nan,nan
quiet,nan,nan
""",
}

PREDICTION_CDF = {
    1: """series,x,y
precision-ugly-forest,0.6666666666666666,1.0
recall-ugly-forest,0.5,1.0
precision-ugly-logistic,0.6666666666666666,1.0
recall-ugly-logistic,0.5,1.0
precision-ugly-tree,0.6666666666666666,1.0
recall-ugly-tree,0.5,1.0
""",
    2: """series,x,y
precision-ugly-forest,0.6666666666666666,0.2
precision-ugly-forest,0.8,0.4
precision-ugly-forest,0.8571428571428571,0.6
precision-ugly-forest,0.8571428571428571,0.8
precision-ugly-forest,1.0,1.0
recall-ugly-forest,0.5,0.2
recall-ugly-forest,0.6,0.4
recall-ugly-forest,0.7142857142857143,0.6
recall-ugly-forest,1.0,0.8
recall-ugly-forest,1.0,1.0
precision-ugly-logistic,0.6666666666666666,0.2
precision-ugly-logistic,0.8,0.4
precision-ugly-logistic,0.8571428571428571,0.6
precision-ugly-logistic,0.8571428571428571,0.8
precision-ugly-logistic,1.0,1.0
recall-ugly-logistic,0.5,0.2
recall-ugly-logistic,0.6,0.4
recall-ugly-logistic,0.7142857142857143,0.6
recall-ugly-logistic,1.0,0.8
recall-ugly-logistic,1.0,1.0
precision-ugly-tree,0.6666666666666666,0.2
precision-ugly-tree,0.6666666666666666,0.4
precision-ugly-tree,0.7142857142857143,0.6
precision-ugly-tree,0.7777777777777778,0.8
precision-ugly-tree,0.8333333333333334,1.0
recall-ugly-tree,0.5,0.2
recall-ugly-tree,0.7,0.4
recall-ugly-tree,0.7142857142857143,0.6
recall-ugly-tree,0.75,0.8
recall-ugly-tree,0.8333333333333334,1.0
""",
}


@pytest.mark.parametrize("approach", [1, 2])
def test_cli_train_cdf_csv_and_prediction_cdf(trainable_dataset, tmp_path, approach):
    labeled = str(trainable_dataset)
    out = str(tmp_path)
    cdf_csv = tmp_path / "pr.csv"
    assert main(["train", "--dataset", labeled, "--approach", str(approach), "--seed", "5",
                 "--out", out, "--cdf-csv", str(cdf_csv)]) == 0
    assert cdf_csv.read_text() == CDF_CSV[approach]

    assert main(["pareto", "--labeled", labeled, "--out", out]) == 0
    for dataset in ("high-recall", "high-precision"):
        assert main(["bugs", "--labeled", labeled, "--dataset", dataset, "--out", out]) == 0
    assert main(["report", "--artifacts", out]) == 0
    assert (tmp_path / "plots" / "prediction_pr_cdf.csv").read_text() == PREDICTION_CDF[approach]


def test_cli_exit_code_repo_error(fixture_repo, tmp_path):
    code = main(["extract", "--repo", str(fixture_repo["repo"]),
                 "--commit", "f" * 40, "--out", str(tmp_path)])
    assert code == 3


def test_cli_exit_code_missing_repo(tmp_path):
    code = main(["extract", "--repo", str(tmp_path / "nope"),
                 "--commit", "abc", "--out", str(tmp_path)])
    assert code == 3


def test_cli_exit_code_config_error(fixture_repo, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("mystery = 1\n")
    code = main(["extract", "--repo", str(fixture_repo["repo"]),
                 "--commit", fixture_repo["snapshot"], "--config", str(bad),
                 "--out", str(tmp_path)])
    assert code == 2


def test_cli_exit_code_missing_stage(tmp_path):
    (tmp_path / "empty").mkdir()
    code = main(["report", "--artifacts", str(tmp_path / "empty")])
    assert code == 4


def test_git_executable_override(fixture_repo, tmp_path, monkeypatch):
    monkeypatch.setenv("METHODLENS_GIT", str(tmp_path / "no-such-git"))
    code = main(["extract", "--repo", str(fixture_repo["repo"]),
                 "--commit", fixture_repo["snapshot"], "--out", str(tmp_path)])
    assert code == 3


# --- atomic artifact writes ----------------------------------------------------

class _BeforeFirstReplace:
    """Stands in for the os module inside methodlens.pipeline and calls
    `hook` once, just before the first replace."""

    def __init__(self, hook):
        self.hook = hook

    def __getattr__(self, name):
        return getattr(os, name)

    def replace(self, src, dst):
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()
        os.replace(src, dst)


def test_atomic_write_survives_a_concurrent_writer_of_the_same_path(tmp_path, monkeypatch):
    target = tmp_path / "report.json"
    monkeypatch.setattr(pipeline, "os", _BeforeFirstReplace(lambda: pipeline._atomic_write(target, b"inner\n")))
    pipeline._atomic_write(target, b"outer\n")
    assert target.read_bytes() == b"outer\n"
    assert [path.name for path in tmp_path.iterdir()] == ["report.json"]
    umask = os.umask(0)
    os.umask(umask)
    assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~umask


def test_atomic_write_removes_its_temporary_file_on_failure(tmp_path, monkeypatch):
    def fail():
        raise OSError("no space left on device")

    monkeypatch.setattr(pipeline, "os", _BeforeFirstReplace(fail))
    with pytest.raises(OSError):
        pipeline._atomic_write(tmp_path / "pareto.csv", b"project,fraction,captured\n")
    assert list(tmp_path.iterdir()) == []


def test_emit_plot_data_missing_stage_raises(tmp_path):
    from methodlens.pipeline import MissingStage

    with pytest.raises(MissingStage):
        emit_plot_data(tmp_path)
