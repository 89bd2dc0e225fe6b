"""Configuration parsing, CLI subcommands, stage artifact schemas, and the
plot-data emitter."""

import json
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from methodlens import ml, pipeline
from methodlens.cli import build_parser, load_config, main
from methodlens.history import DAYS_PER_YEAR, compute_indicators
from methodlens.pipeline import (
    INDICATOR_ALIASES,
    STAGES,
    ConfigError,
    PipelineConfig,
    StageError,
    emit_plot_data,
    labeled_record,
    read_ndjson,
    run_pipeline,
    validate_config,
    write_ndjson,
)
from repo_builder import commit_files, init_repo


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


def test_jobs_other_than_one_is_a_config_error(tmp_path):
    assert validate_config(write_config(tmp_path, "jobs = 1")).jobs == 1
    with pytest.raises(ConfigError, match="line 1: jobs must be 1: tracing is single-process"):
        validate_config(write_config(tmp_path, "jobs = 4"))
    with pytest.raises(ConfigError, match="single-process"):
        PipelineConfig(jobs=2)
    with pytest.raises(SystemExit):
        main(["pipeline", "--jobs", "2"])


# (key, file value, subcommand argv with the same value as a flag)
OUT_OF_RANGE = [
    ("window_years", "0", ["pipeline", "--window-years", "0"]),
    ("window_years", "-2", ["pipeline", "--window-years", "-2"]),
    ("theta", "3", ["pipeline", "--theta", "3"]),
    ("theta", "0", ["pipeline", "--theta", "0"]),
    ("ugly_fraction", "1.5", ["label", "--histories", "h.ndjson", "--ugly-fraction", "1.5"]),
    ("top_n", "0", ["rank", "--labeled", "d.ndjson", "--histories", "h.ndjson", "--top", "0"]),
    ("per_project_cap", "-3", ["rank", "--labeled", "d.ndjson", "--histories", "h.ndjson",
                               "--per-project", "-3"]),
    ("seed", "-1", ["pipeline", "--seed", "-1"]),
]


@pytest.mark.parametrize("key, value, argv", OUT_OF_RANGE)
def test_flags_get_the_range_check_of_config_values(fixture_repo, tmp_path, capsys, key, value, argv):
    with pytest.raises(ConfigError) as err:
        validate_config(write_config(tmp_path, f"{key} = {value}"))
    assert str(err.value).startswith("line 1: ")
    message = str(err.value)[len("line 1: "):]
    out = tmp_path / "out"
    code = main([*argv, "--repo", str(fixture_repo["repo"]), "--commit", fixture_repo["snapshot"],
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("key", ["high_recall_keywords", "high_precision_bug_words",
                                 "high_precision_fix_words"])
def test_an_uppercase_bug_word_is_a_config_error(fixture_repo, tmp_path, capsys, key):
    with pytest.raises(ConfigError, match=f"^{key} must be a non-empty lowercase list$"):
        PipelineConfig(**{key: ("fix", "Bug")})
    config = write_config(tmp_path, f"{key} = Fix, Bug\n")
    out = tmp_path / "out"
    code = main(["pipeline", "--repo", str(fixture_repo["repo"]), "--commit", fixture_repo["snapshot"],
                 "--config", str(config), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: line 1: {key} must be a non-empty lowercase list\n"
    assert not (out / "methods.ndjson").exists()


def test_config_round_trips_losslessly(tmp_path):
    """A file that states every key parses to the config it states."""
    path = write_config(tmp_path, """\
approach = 1
commit = abc
files = *
high_precision_bug_words = error,bug,mistake,incorrect,fault,defect,flaw,misfeature
high_precision_fix_words = fix,address,resolve
high_recall_keywords = boom, oops
indicator = diff-size
jobs = 1
out = artifacts
per_project_cap = 2
project =
repo = /x
seed = 11
theta = 0.75
top_n = 50
ugly_fraction = 0.2
window_years = 3.5
""")
    assert validate_config(path) == PipelineConfig(repo="/x", commit="abc", window_years=3.5, seed=11,
                                                   indicator="diffSize", high_recall_keywords=("boom", "oops"))


def test_an_unknown_indicator_is_a_config_error(tmp_path):
    with pytest.raises(ConfigError, match="^unknown indicator 'bogus'$"):
        PipelineConfig(indicator="bogus")
    with pytest.raises(ConfigError, match="^line 1: unknown indicator 'bogus'$"):
        validate_config(write_config(tmp_path, "indicator = bogus"))


def test_an_indicator_alias_names_its_indicator_in_files_flags_and_calls(tmp_path):
    for alias, name in INDICATOR_ALIASES.items():
        assert PipelineConfig(indicator=alias).indicator == name
        assert validate_config(write_config(tmp_path, f"indicator = {alias}")).indicator == name
        args = build_parser().parse_args(["pareto", "--labeled", "d.ndjson", "--indicator", alias])
        assert load_config(args).indicator == name


def test_flags_set_the_config_fields_they_name():
    args = build_parser().parse_args(["rank", "--labeled", "d.ndjson", "--histories", "h.ndjson",
                                      "--top", "3", "--per-project", "1"])
    config = load_config(args)
    assert (config.top_n, config.per_project_cap) == (3, 1)
    args = build_parser().parse_args(["pipeline", "--repo", "r", "--commit", "c", "--out", "o", "--seed", "4",
                                      "--files", "*.java", "--indicator", "diff-size", "--ugly-fraction", "0.1",
                                      "--theta", "0.5", "--window-years", "2", "--approach", "2"])
    assert load_config(args) == PipelineConfig(repo="r", commit="c", out="o", seed=4, files="*.java",
                                               indicator="diffSize", ugly_fraction=0.1, theta=0.5,
                                               window_years=2.0, approach=2)


# --- CLI over the fixture repository ----------------------------------------

@pytest.fixture(scope="module")
def cli_artifacts(fixture_repo, tmp_path_factory):
    out = tmp_path_factory.mktemp("cli-out")
    repo = str(fixture_repo["repo"])
    sha = fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(out)]) == 0
    assert main(["trace", "--repo", repo, "--commit", sha, "--out", str(out),
                 "--methods", str(out / "methods.ndjson"), "--theta", "0.75"]) == 0
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
    methods_before = (out / "methods.ndjson").read_bytes()
    assert main(["metrics", "--methods", str(out / "methods.ndjson"), "--out", str(tmp_path),
                 "--csv", str(csv_path)]) == 0
    assert (out / "methods.ndjson").read_bytes() == methods_before
    header, records = read_ndjson(tmp_path / "metrics.ndjson")
    assert header["stage"] == "metrics"
    _, methods = read_ndjson(out / "methods.ndjson")
    assert [{k: v for k, v in r.items() if k != "metrics"} for r in records] == methods
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
    assert "windowYears" not in header
    for record in records:
        assert set(record) == {"identity", "introduction", "revisions"}
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


def test_cli_rank_logs_a_short_candidate_list_as_a_warning_line(cli_artifacts, tmp_path):
    _, out = cli_artifacts
    # a process of its own: main's logging setup is what writes the line
    env = {**os.environ, "PYTHONPATH": str(Path(pipeline.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "methodlens.cli", "rank", "--top", "3",
                           "--labeled", str(out / "dataset.ndjson"), "--histories", str(out / "histories.ndjson"),
                           "--out", str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "WARNING methodlens.stats: only 2 good candidates available (requested 3)" in proc.stderr.splitlines()
    assert "UserWarning" not in proc.stderr


def test_cli_rank_fails_when_the_histories_miss_a_ranked_method(cli_artifacts, tmp_path, capsys):
    _, out = cli_artifacts
    histories = tmp_path / "histories.ndjson"
    write_ndjson(histories, "trace", {}, [])
    first = read_ndjson(out / "dataset.ndjson")[1][0]["identity"]
    code = main(["rank", "--labeled", str(out / "dataset.ndjson"), "--histories", str(histories),
                 "--out", str(tmp_path)])
    assert code == 4
    err = capsys.readouterr().err
    assert "stage 'rank' failed" in err and str(histories) in err
    assert pipeline.identity_from_record(first).as_str() in err
    assert not (tmp_path / "surprisingly_good.ndjson").exists()


def test_cli_rank_fails_when_a_ranked_history_has_no_source(cli_artifacts, tmp_path, capsys):
    _, out = cli_artifacts
    header, records = read_ndjson(out / "histories.ndjson")
    for record in records:
        del record["introduction"]["method"]
    histories = tmp_path / "histories.ndjson"
    write_ndjson(histories, "trace", {}, records, extra_header=header)
    code = main(["rank", "--labeled", str(out / "dataset.ndjson"), "--histories", str(histories),
                 "--out", str(tmp_path)])
    assert code == 4
    assert f"{histories} is malformed: missing field 'method'" in capsys.readouterr().err
    assert not (tmp_path / "surprisingly_good.ndjson").exists()


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


@pytest.mark.parametrize("repo_flags", [False, True], ids=["without-repo", "git-missing"])
def test_the_stages_after_trace_open_no_repository_and_write_the_pipeline_bytes(fixture_repo, tmp_path, monkeypatch,
                                                                                git_children, repo_flags):
    """Only extract and trace read the repository, so the later subcommands
    start no git process and ignore --repo/--commit."""
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    staged, piped = tmp_path / "staged", tmp_path / "piped"
    assert main(["pipeline", "--repo", repo, "--commit", sha, "--seed", "7", "--out", str(piped)]) == 0
    histories, dataset = str(piped / "histories.ndjson"), str(staged / "dataset.ndjson")
    monkeypatch.setenv("METHODLENS_GIT", str(tmp_path / "no-such-git"))
    del git_children[:]
    flags = ["--repo", repo, "--commit", sha] if repo_flags else []
    for argv in (["label", "--histories", histories],
                 ["pareto", "--labeled", dataset],
                 ["bugs", "--labeled", dataset, "--dataset", "high-recall"],
                 ["bugs", "--labeled", dataset, "--dataset", "high-precision"],
                 ["correlate", "--labeled", dataset],
                 ["rank", "--labeled", dataset, "--histories", histories],
                 ["train", "--dataset", dataset]):
        assert main([*argv, *flags, "--seed", "7", "--out", str(staged)]) == 0
    assert git_children == []
    names = sorted(path.name for path in staged.iterdir())
    assert names == sorted(artifact for stage in STAGES.values() if not stage.reads_repo
                           for artifact in stage.outputs)
    assert [name for name in names if (staged / name).read_bytes() != (piped / name).read_bytes()] == []


def test_metrics_between_two_pipeline_runs_changes_no_pipeline_output(fixture_repo, tmp_path):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    clean, rerun = tmp_path / "clean", tmp_path / "rerun"
    common = ["--repo", repo, "--commit", sha, "--seed", "7"]
    assert main(["pipeline", *common, "--out", str(clean)]) == 0
    assert main(["pipeline", *common, "--out", str(rerun)]) == 0
    assert main(["metrics", "--methods", str(rerun / "methods.ndjson"), "--out", str(rerun)]) == 0
    assert main(["pipeline", *common, "--out", str(rerun)]) == 0
    names = sorted(path.name for path in clean.iterdir())
    assert len(names) == 11 and "manifest.json" in names
    assert [name for name in names if (clean / name).read_bytes() != (rerun / name).read_bytes()] == []


def test_pipeline_reruns_a_stage_whose_output_a_subcommand_wrote_over(fixture_repo, tmp_path, capsys):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    clean, rerun = tmp_path / "clean", tmp_path / "rerun"
    common = ["--repo", repo, "--commit", sha, "--seed", "7"]
    assert main(["pipeline", *common, "--out", str(clean)]) == 0
    assert main(["pipeline", *common, "--out", str(rerun)]) == 0
    assert main(["label", "--histories", str(rerun / "histories.ndjson"), "--indicator", "revisions",
                 "--out", str(rerun)]) == 0
    capsys.readouterr()
    assert main(["pipeline", *common, "--out", str(rerun)]) == 0
    # label writes dataset.ndjson's bytes back, so nothing downstream runs
    assert capsys.readouterr().out.splitlines() == [
        "extract: skipped", "trace: skipped", "label: ran", "pareto: skipped", "bugs: skipped",
        "correlate: skipped", "rank: skipped", "train: skipped"]
    names = sorted(path.name for path in clean.iterdir())
    assert len(names) == 11 and "manifest.json" in names
    assert [name for name in names if (clean / name).read_bytes() != (rerun / name).read_bytes()] == []


@pytest.mark.xfail(strict=True, raises=StageError,
                   reason="bodyText starts at the header's line, inside the comment that "
                          "ends there, so the apostrophe lexes as an unterminated character literal")
def test_pipeline_runs_on_a_method_header_after_a_block_comment_on_its_line(tmp_path):
    repo = init_repo(tmp_path, "mid-comment")
    commit_files(repo, "c01", "add", {"src/A.java": (
        "class A {\n"
        "  /* note\n"
        "     it's here */ int f(int v) { return v + 1; }\n"
        "}\n"
    )})
    snapshot = commit_files(repo, "c11", "docs", {"README.md": "notes\n"})
    config = PipelineConfig(repo=str(repo), commit=snapshot, out=str(tmp_path / "out"), project="p")
    status = run_pipeline(config)
    assert set(status.values()) == {"ran"}


def test_an_operator_in_a_parameter_annotation_keeps_the_next_parameter(tmp_path):
    """The `>>` in the annotation's argument closes no type argument list, so
    `b` stays a parameter of its own, and `a` stays out of the signature."""
    repo = init_repo(tmp_path, "annotated-parameter")
    source = ("class A {\n"
              "  int m(@Size(max = Integer.MAX_VALUE >> 1) int a, int b) {\n    return %s;\n  }\n\n"
              "  int g(int v) {\n    return v;\n  }\n"
              "}\n")
    commit_files(repo, "c01", "add", {"src/A.java": source % "a"})
    snapshot = commit_files(repo, "c11", "edit", {"src/A.java": source % "a + b"})
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(repo=str(repo), commit=snapshot, out=str(out), project="p"))
    _, methods = read_ndjson(out / "methods.ndjson")
    _, histories = read_ndjson(out / "histories.ndjson")
    assert [m["signature"] for m in methods] == ["A#m(int,int)", "A#g(int)"]
    history = histories[[h["identity"]["signature"] for h in histories].index("A#m(int,int)")]
    assert history["introduction"]["metrics"]["parameters"] == 2
    assert len(history["revisions"]) == 1


def test_a_type_whose_supertype_list_changes_keeps_its_methods_histories(tmp_path):
    """D drops its second supertype at c03 and E gains one at c04; neither
    edit touches a method, so every method is introduced at c01 and `size`'s
    revisions are its two body edits, one on each side of the header edit."""
    repo = init_repo(tmp_path, "supertypes")
    d_source = ("class D implements %s {\n"
                "  public void run() {\n  }\n\n"
                "  int size() {\n    return %s;\n  }\n"
                "}\n")
    e_source = ("class E implements %s {\n"
                "  public void run() {\n  }\n\n"
                "  public int compareTo(E o) {\n    return 0;\n  }\n\n"
                "  int size() {\n    return %s;\n  }\n"
                "}\n")
    shas = {
        # C, with no supertype, is the control
        "c01": commit_files(repo, "c01", "add", {"src/C.java": ("class C {\n  int f() {\n    return 0;\n  }\n\n"
                                                                "  int g() {\n    return 1;\n  }\n}\n"),
                                                 "src/D.java": d_source % ("Runnable, Cloneable", "1"),
                                                 "src/E.java": e_source % ("Runnable", "1")}),
        "c02": commit_files(repo, "c02", "edit", {"src/D.java": d_source % ("Runnable, Cloneable", "2"),
                                                  "src/E.java": e_source % ("Runnable", "2")}),
        "c03": commit_files(repo, "c03", "drop Cloneable", {"src/D.java": d_source % ("Runnable", "2")}),
        "c04": commit_files(repo, "c04", "add Comparable", {"src/E.java": e_source % ("Runnable, Comparable<E>", "2")}),
        "c05": commit_files(repo, "c05", "edit", {"src/D.java": d_source % ("Runnable", "3"),
                                                  "src/E.java": e_source % ("Runnable, Comparable<E>", "3")}),
    }
    # a snapshot past the age window, so that label has methods to label
    snapshot = commit_files(repo, "c11", "docs", {"README.md": "notes\n"})
    out = tmp_path / "out"
    run_pipeline(PipelineConfig(repo=str(repo), commit=snapshot, out=str(out), project="p"))
    _, methods = read_ndjson(out / "methods.ndjson")
    _, histories = read_ndjson(out / "histories.ndjson")
    expected = ["C#f()", "C#g()", "D#run()", "D#size()", "E#run()", "E#compareTo(E)", "E#size()"]
    assert [m["signature"] for m in methods] == expected
    traced = {h["identity"]["signature"]: h for h in histories}
    assert sorted(traced) == sorted(expected)
    for sig, history in traced.items():
        assert history["introduction"]["commit"] == shas["c01"], sig
        revisions = [r["commit"] for r in history["revisions"]]
        assert revisions == ([shas["c02"], shas["c05"]] if sig.endswith("#size()") else []), sig


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
    from dataclasses import replace

    from synth import labeled, metric_vector, separable_corpus

    rng = random.Random(1)
    methods = [replace(m, label="good" if m.label == "ugly" else "ugly") if rng.random() < 0.15 else m
               for m in separable_corpus(projects=5, per_project=20, seed=3, bad_share=0.1)]
    methods += [labeled(1000 + i, project="quiet", metrics=metric_vector(size=5 + i)) for i in range(10)]
    path = tmp_path_factory.mktemp("trainable") / "dataset.ndjson"
    write_ndjson(path, "label", {}, [labeled_record(m, 0, 2000.0) for m in methods])
    return path


CDF_CSV = {
    1: """project,classifier,precision,recall
,forest,0.6666666666666666,0.5
,logistic,0.6666666666666666,0.5
,tree,0.6666666666666666,0.5
""",
    2: """project,classifier,precision,recall
proj0,forest,0.8571428571428571,0.6
proj0,logistic,0.8571428571428571,0.6
proj0,tree,0.7777777777777778,0.7
proj1,forest,0.6666666666666666,0.5
proj1,logistic,0.6666666666666666,0.5
proj1,tree,0.6666666666666666,0.5
proj2,forest,0.8,1.0
proj2,logistic,0.8,1.0
proj2,tree,0.6666666666666666,0.75
proj3,forest,1.0,0.7142857142857143
proj3,logistic,1.0,0.7142857142857143
proj3,tree,0.7142857142857143,0.7142857142857143
proj4,forest,0.8571428571428571,1.0
proj4,logistic,0.8571428571428571,1.0
proj4,tree,0.8333333333333334,0.8333333333333334
quiet,forest,nan,nan
quiet,logistic,nan,nan
quiet,tree,nan,nan
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


def test_cli_trace_commit_must_be_the_extracted_snapshot(fixture_repo, tmp_path):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(tmp_path)]) == 0
    trace = ["trace", "--repo", repo, "--out", str(tmp_path), "--methods", str(tmp_path / "methods.ndjson")]
    assert main(trace + ["--commit", f"{sha}~3"]) == 2
    assert not (tmp_path / "histories.ndjson").exists()
    assert main(trace + ["--commit", sha]) == 0
    assert read_ndjson(tmp_path / "histories.ndjson")[0]["snapshot"] == sha


def test_cli_trace_reads_its_methods_file_once(fixture_repo, tmp_path, monkeypatch):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(tmp_path)]) == 0
    methods = tmp_path / "methods.ndjson"
    reads = []
    real_read = pipeline.read_ndjson

    def counting_read(path):
        reads.append(Path(path))
        return real_read(path)

    monkeypatch.setattr("methodlens.pipeline.read_ndjson", counting_read)
    monkeypatch.setattr("methodlens.cli.read_ndjson", counting_read)
    assert main(["trace", "--repo", repo, "--commit", sha, "--out", str(tmp_path),
                 "--methods", str(methods)]) == 0
    assert reads.count(methods) == 1


def test_trace_has_no_window_flag(fixture_repo, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["trace", "--repo", str(fixture_repo["repo"]), "--commit", fixture_repo["snapshot"],
              "--methods", str(tmp_path / "methods.ndjson"), "--window-years", "5",
              "--out", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: methodlens") and "unrecognized arguments: --window-years 5" in err


def test_trace_takes_the_project_from_the_methods_header(fixture_repo, tmp_path):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    config = write_config(tmp_path, "project = alpha\n")
    assert main(["extract", "--repo", repo, "--commit", sha, "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    assert main(["trace", "--repo", repo, "--commit", sha, "--methods", str(tmp_path / "methods.ndjson"),
                 "--out", str(tmp_path)]) == 0
    _, records = read_ndjson(tmp_path / "histories.ndjson")
    assert records and {r["identity"]["project"] for r in records} == {"alpha"}


def test_label_indicators_follow_the_label_window(fixture_repo, tmp_path):
    repo, sha = str(fixture_repo["repo"]), fixture_repo["snapshot"]
    assert main(["extract", "--repo", repo, "--commit", sha, "--out", str(tmp_path)]) == 0
    assert main(["trace", "--repo", repo, "--commit", sha, "--methods", str(tmp_path / "methods.ndjson"),
                 "--out", str(tmp_path)]) == 0
    config = write_config(tmp_path, "window_years = 3\n")
    assert main(["label", "--histories", str(tmp_path / "histories.ndjson"), "--config", str(config),
                 "--out", str(tmp_path)]) == 0
    _, histories = read_ndjson(tmp_path / "histories.ndjson")
    by_key = {pipeline.identity_from_record(r["identity"]).as_str(): pipeline.history_from_record(r)
              for r in histories}
    _, records = read_ndjson(tmp_path / "dataset.ndjson")
    assert records
    three_years = 3 * DAYS_PER_YEAR
    for record in records:
        history = by_key[pipeline.identity_from_record(record["identity"]).as_str()]
        assert record["indicators"] == pipeline.indicators_record(compute_indicators(history, three_years))


def test_common_flags_before_the_subcommand_are_rejected(fixture_repo, tmp_path, capsys):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["-v", "--repo", str(fixture_repo["repo"]), "pipeline",
              "--commit", fixture_repo["snapshot"], "--out", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: methodlens")
    assert not out.exists()


def test_cli_exit_code_missing_repo(tmp_path):
    code = main(["extract", "--repo", str(tmp_path / "nope"),
                 "--commit", "abc", "--out", str(tmp_path)])
    assert code == 3


@pytest.mark.parametrize("missing", ["repo", "commit"])
@pytest.mark.parametrize("argv", [["extract"], ["trace", "--methods", "methods.ndjson"], ["pipeline"]],
                         ids=["extract", "trace", "pipeline"])
def test_the_repository_stages_require_repo_and_commit(fixture_repo, tmp_path, capsys, argv, missing):
    given = {"repo": str(fixture_repo["repo"]), "commit": fixture_repo["snapshot"]}
    del given[missing]
    out = tmp_path / "out"
    flags = [arg for key, value in given.items() for arg in (f"--{key}", value)]
    assert main([*argv, *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: --{missing} is required (flag or config file)\n"
    assert not out.exists()


def test_cli_exit_code_config_error(fixture_repo, tmp_path):
    bad = tmp_path / "bad.conf"
    bad.write_text("mystery = 1\n")
    code = main(["extract", "--repo", str(fixture_repo["repo"]),
                 "--commit", fixture_repo["snapshot"], "--config", str(bad),
                 "--out", str(tmp_path)])
    assert code == 2


def test_cli_exit_code_missing_stage(tmp_path, capsys):
    (tmp_path / "empty").mkdir()
    code = main(["report", "--artifacts", str(tmp_path / "empty")])
    assert code == 4
    assert capsys.readouterr().err == f"error: pareto.csv not found in {tmp_path / 'empty'}\n"
    assert list((tmp_path / "empty").iterdir()) == []


def test_report_on_a_missing_directory_makes_none(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["report", "--artifacts", "typo"]) == 4
    assert capsys.readouterr().err == "error: pareto.csv not found in typo\n"
    assert list(tmp_path.iterdir()) == []


def test_report_without_a_train_report_writes_no_plots(tmp_path, capsys):
    for name in ("pareto.csv", "bugs_high_recall.csv", "bugs_high_precision.csv"):
        (tmp_path / name).write_text("project,fraction,captured\np,0.05,0.5\n")
    assert main(["report", "--artifacts", str(tmp_path)]) == 4
    assert capsys.readouterr().err == f"error: report.json not found in {tmp_path}\n"
    assert not (tmp_path / "plots").exists()


# a methods.ndjson record without a signature, under a header written at
# the fixture's snapshot
UNSIGNED = ('{"project": "p", "snapshot": "SNAPSHOT"}\n'
            '{"file": "A.java", "name": "m", "startLine": 1, "endLine": 1, "body": "m() {}"}\n')
ARRAY_RECORD = '{"project": "p", "snapshot": "SNAPSHOT"}\n[1]\n'
IDENTITY = '{"project": "p", "file": "A.java", "signature": "A#m()", "startLine": 1}'
# a histories.ndjson record without its introduction
UNINTRODUCED = f'{{"snapshotTime": 0}}\n{{"identity": {IDENTITY}, "revisions": []}}\n'
# a dataset.ndjson or histories.ndjson record without an identity
UNIDENTIFIED = '{"snapshotTime": 0}\n{"label": "good", "introduction": {}}\n'

# (subcommand argv, input file under {d} made malformed, its content, the
# reason the error line gives)
MALFORMED_INPUTS = [
    pytest.param(["trace", "--methods", "{d}/methods.ndjson"], "methods.ndjson", "not json\n", "", id="trace"),
    pytest.param(["trace", "--methods", "{d}/methods.ndjson"], "methods.ndjson", UNSIGNED,
                 "missing field 'signature'", id="trace-record"),
    pytest.param(["trace", "--methods", "{d}/methods.ndjson"], "methods.ndjson", ARRAY_RECORD, "",
                 id="trace-non-object-record"),
    pytest.param(["metrics", "--methods", "{d}/methods.ndjson"], "methods.ndjson", "not json\n", "", id="metrics"),
    pytest.param(["metrics", "--methods", "{d}/methods.ndjson"], "methods.ndjson", "[1]\n", "", id="metrics-array"),
    pytest.param(["metrics", "--methods", "{d}/methods.ndjson"], "methods.ndjson", UNSIGNED,
                 "missing field 'signature'", id="metrics-record"),
    pytest.param(["metrics", "--methods", "{d}/methods.ndjson"], "methods.ndjson", ARRAY_RECORD, "",
                 id="metrics-non-object-record"),
    pytest.param(["label", "--histories", "{d}/histories.ndjson"], "histories.ndjson", "not json\n", "",
                 id="label"),
    pytest.param(["label", "--histories", "{d}/histories.ndjson"], "histories.ndjson", '{"stage": "trace"}\n',
                 "missing field 'snapshotTime'", id="label-header"),
    pytest.param(["label", "--histories", "{d}/histories.ndjson"], "histories.ndjson", UNINTRODUCED,
                 "missing field 'introduction'", id="label-record"),
    pytest.param(["pareto", "--labeled", "{d}/dataset.ndjson"], "dataset.ndjson", UNIDENTIFIED,
                 "missing field 'identity'", id="pareto-record"),
    pytest.param(["rank", "--labeled", "{d}/dataset.ndjson", "--histories", "{d}/histories.ndjson"],
                 "histories.ndjson", UNIDENTIFIED, "missing field 'identity'", id="rank-record"),
    pytest.param(["report", "--artifacts", "{d}"], "report.json", "{not json", "", id="report-json"),
    pytest.param(["report", "--artifacts", "{d}"], "report.json", "[]", "", id="report-json-array"),
    pytest.param(["report", "--artifacts", "{d}"], "pareto.csv", "project,fraction,captured\np,top-5,0.5\n", "",
                 id="report-csv"),
]


@pytest.mark.parametrize("argv, broken, content, reason", MALFORMED_INPUTS)
def test_a_malformed_input_file_is_a_stage_failure_naming_the_file(fixture_repo, tmp_path, capsys,
                                                                  argv, broken, content, reason):
    for name in ("pareto.csv", "bugs_high_recall.csv", "bugs_high_precision.csv"):
        (tmp_path / name).write_text("project,fraction,captured\np,0.05,0.5\n")
    (tmp_path / "report.json").write_text('{"approach": 1, "classifiers": {}}')
    (tmp_path / "dataset.ndjson").write_text('{"stage": "label"}\n')
    (tmp_path / broken).write_text(content.replace("SNAPSHOT", fixture_repo["snapshot"]))
    code = main([arg.format(d=tmp_path) for arg in argv]
                + ["--repo", str(fixture_repo["repo"]), "--commit", fixture_repo["snapshot"],
                   "--out", str(tmp_path / "out")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{tmp_path / broken} is malformed: {reason}" in err


@pytest.mark.parametrize("argv, prefix", [
    (["correlate", "--labeled", "{f}"], "error: stage 'correlate' failed: "),
    (["metrics", "--methods", "{f}"], "error: "),
], ids=["stage", "metrics"])
def test_a_malformed_input_is_named_once_in_the_error_line(tmp_path, capsys, argv, prefix):
    broken = tmp_path / "d.ndjson"
    broken.write_text("not json\n")
    assert main([arg.format(f=broken) for arg in argv] + ["--out", str(tmp_path / "out")]) == 4
    assert capsys.readouterr().err.startswith(f"{prefix}{broken} is malformed: ")


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


def test_grid_configs_and_report_json_record_every_fixed_hyperparameter(trainable_dataset, tmp_path):
    """The values no grid tunes are constants of `methodlens.ml`, and each
    config's description, so approach 1's `report.json`, still records them."""
    from methodlens import ml

    logistic = {"learningRate": 0.1, "maxIter": 5000, "tol": 1e-8}
    tree = {"minSamplesLeaf": 1}
    forest = {"featuresPerSplit": 4, "bootstrap": True, "maxDepth": None, "minSamplesLeaf": 1}
    assert [config.describe() for config in ml.LOGISTIC_GRID] == [
        {"l2": 1.0, **logistic}, {"l2": 0.1, **logistic}, {"l2": 10.0, **logistic}]
    assert [config.describe() for config in ml.TREE_GRID] == [
        {"maxDepth": None, **tree}, {"maxDepth": 8, **tree}, {"maxDepth": 4, **tree}]
    assert [config.describe() for config in ml.FOREST_GRID] == [
        {"trees": 100, "seed": 0, **forest}, {"trees": 50, "seed": 0, **forest}]
    assert main(["train", "--dataset", str(trainable_dataset), "--approach", "1", "--seed", "5",
                 "--out", str(tmp_path)]) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert {name: entry["config"] for name, entry in report["classifiers"].items()} == {
        "logistic": {"l2": 1.0, **logistic},
        "tree": {"maxDepth": 4, **tree},
        "forest": {"trees": 100, "seed": 0, **forest},
    }
