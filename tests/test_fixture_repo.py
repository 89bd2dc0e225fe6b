"""End-to-end checks against the scripted fixture repository: the tracer
output and the full pipeline must match the construction ledger exactly."""

import json
import math
import subprocess
from dataclasses import replace
from pathlib import Path

import pytest

from methodlens.gitrepo import GitRepo, UnknownCommit
from methodlens.history import (
    DAYS_PER_YEAR,
    TraceSession,
    compute_indicators,
    filter_by_age,
    trace_method,
)
from methodlens.java_extract import extract_methods, normalize_source, signature
from methodlens.labeling import BugRuleConfig, bug_counts
from methodlens import pipeline
from methodlens.pipeline import STAGES, PipelineConfig, digest_file, read_ndjson, run_pipeline

THETA = 0.75  # the default matching threshold, PipelineConfig.theta


@pytest.fixture(scope="session")
def traced(fixture_repo):
    ledger = fixture_repo
    repo = GitRepo(str(ledger["repo"]))
    session = TraceSession(repo, ledger["snapshot"], THETA, project="fixture")
    histories = {}
    for path in repo.ls_files(ledger["snapshot"]):
        decls = extract_methods(normalize_source(repo.file_at(ledger["snapshot"], path)))
        for h in trace_method(session, path, decls):
            histories[h.identity.signature] = h
    return ledger, 5.0 * DAYS_PER_YEAR, histories


def test_commit_topology(fixture_repo):
    repo = GitRepo(str(fixture_repo["repo"]))
    chain = repo.first_parent_chain(fixture_repo["snapshot"])
    assert len(chain) == fixture_repo["first_parent_length"] == 11
    total = subprocess.run(
        ["git", "-C", str(fixture_repo["repo"]), "rev-list", "--all", "--count"],
        capture_output=True, check=True,
    ).stdout.decode().strip()
    assert int(total) == fixture_repo["total_commits"] == 12
    assert fixture_repo["merge_commit"] not in [c.id for c in chain[2:]]
    assert chain[1].id == fixture_repo["merge_commit"]  # merge sits below the snapshot


def test_unknown_commit_raises(fixture_repo):
    repo = GitRepo(str(fixture_repo["repo"]))
    with pytest.raises(UnknownCommit):
        repo.first_parent_chain("0" * 40)


def test_snapshot_extraction_finds_all_methods(traced):
    ledger, _, histories = traced
    assert set(histories) == set(ledger["methods"])


def test_introduction_commits_match_ledger(traced):
    ledger, _, histories = traced
    for sig, expected in ledger["methods"].items():
        assert histories[sig].introduction.id == expected["introduction"], sig


def test_revisions_match_ledger_exactly(traced):
    ledger, _, histories = traced
    for sig, expected in ledger["methods"].items():
        actual = histories[sig].revisions
        expected_revs = expected["revisions"]
        assert len(actual) == len(expected_revs), sig
        for got, want in zip(actual, expected_revs):
            assert got.commit.id == want["commit"], sig
            assert got.linesAdded == want["added"], sig
            assert got.linesDeleted == want["deleted"], sig
            assert got.editDistance == want["edit"], sig
            assert got.commit.message.strip() == want["message"], sig


def test_window_indicators_match_ledger(traced):
    ledger, window_days, histories = traced
    for sig, expected in ledger["methods"].items():
        ind = compute_indicators(histories[sig], window_days)
        want = expected["window"]
        assert ind.revisions == want["revisions"], sig
        assert ind.diffSize == want["diffSize"], sig
        assert ind.additionOnly == want["additionOnly"], sig
        assert ind.editDistance == want["editDistance"], sig


def test_age_filter_matches_ledger(traced):
    ledger, window_days, histories = traced
    kept = filter_by_age(list(histories.values()), ledger["snapshot_time"], window_days)
    assert sorted(h.identity.signature for h in kept) == ledger["eligible"]
    assert "Util#youngster()" not in {h.identity.signature for h in kept}


def test_bug_counts_match_ledger(traced):
    ledger, window_days, histories = traced
    counts = bug_counts(list(histories.values()), BugRuleConfig(), window_days)
    by_sig = {sig: counts[h.identity.as_str()] for sig, h in histories.items()}
    for sig, expected in ledger["methods"].items():
        assert by_sig[sig] == tuple(expected["bugs"]), sig


def test_pure_moves_and_renames_are_not_revisions(traced):
    ledger, _, histories = traced
    # the file move commit (c07) must not appear in any revision list
    move_sha = ledger["shas"]["c07"]
    for sig, h in histories.items():
        assert all(r.commit.id != move_sha for r in h.revisions), sig
    # the method rename commit (c08) is a revision for omegaPrime only
    rename_sha = ledger["shas"]["c08"]
    for sig, h in histories.items():
        hits = [r for r in h.revisions if r.commit.id == rename_sha]
        assert len(hits) == (1 if sig == "Util#omegaPrime()" else 0), sig


def test_comment_only_edit_counts_as_revision(traced):
    ledger, _, histories = traced
    helper = histories["Alpha#helper()"]
    assert [r.commit.id for r in helper.revisions] == [ledger["shas"]["c04"]]


def test_merge_commit_carries_side_branch_edit(traced):
    ledger, _, histories = traced
    log_one = histories["Logging#logOne(String)"]
    assert [r.commit.id for r in log_one.revisions] == [ledger["merge_commit"]]


def test_method_born_at_snapshot(traced):
    ledger, _, histories = traced
    youngster = histories["Util#youngster()"]
    assert youngster.revisions == []
    assert youngster.introduction.id == ledger["snapshot"]


# --- full pipeline over the fixture repository -----------------------------

ARTIFACTS = ("methods.ndjson", "histories.ndjson", "dataset.ndjson", "pareto.csv",
             "bugs_high_recall.csv", "bugs_high_precision.csv", "correlations.csv",
             "surprisingly_good.ndjson", "surprisingly_ugly.ndjson", "report.json")


@pytest.fixture(scope="session")
def pipeline_run(fixture_repo, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    config = PipelineConfig(
        repo=str(fixture_repo["repo"]),
        commit=fixture_repo["snapshot"],
        out=str(out),
        project="fixture",
        seed=7,
    )
    status = run_pipeline(config)
    return fixture_repo, config, out, status


def test_pipeline_runs_all_eight_stages(pipeline_run):
    _, _, out, status = pipeline_run
    assert list(status) == ["extract", "trace", "label", "pareto", "bugs",
                            "correlate", "rank", "train"]
    assert set(status.values()) == {"ran"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["stages"]) == 8
    for stage, entry in manifest["stages"].items():
        assert entry["outputs"] == {name: digest_file(out / name) for name in STAGES[stage].outputs}, stage


def test_pipeline_hashes_each_artifact_once_per_run(fixture_repo, tmp_path, monkeypatch):
    """A stage's input digests are the ones its upstream stage's outputs
    were hashed to, so neither a cold run nor a rerun hashes a file twice."""
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path), project="fixture", seed=7)
    hashed = []
    real = pipeline.digest_file
    monkeypatch.setattr(pipeline, "digest_file", lambda path: hashed.append(Path(path).name) or real(path))
    for expected in ("ran", "skipped"):
        hashed.clear()
        assert set(run_pipeline(config).values()) == {expected}
        assert sorted(hashed) == sorted(ARTIFACTS)


def test_pipeline_dataset_labels_match_ledger(pipeline_run):
    ledger, _, out, _ = pipeline_run
    _, records = read_ndjson(out / "dataset.ndjson")
    labels = {r["identity"]["signature"]: r["label"] for r in records}
    assert labels == ledger["labels"]
    ugly = sorted(sig for sig, label in labels.items() if label == "ugly")
    assert ugly == ["Alpha#alphaScaled(int)", "Alpha#fragile(int)"]


def test_pipeline_rerun_skips_everything(pipeline_run):
    _, config, _, _ = pipeline_run
    status = run_pipeline(config)
    assert set(status.values()) == {"skipped"}


def test_pipeline_stage_isolation(pipeline_run):
    _, config, out, _ = pipeline_run
    before = (out / "pareto.csv").read_bytes()
    (out / "pareto.csv").unlink()
    status = run_pipeline(config)
    assert status["pareto"] == "ran"
    assert all(state == "skipped" for stage, state in status.items() if stage != "pareto")
    assert (out / "pareto.csv").read_bytes() == before


def test_pipeline_reruns_the_dependents_of_a_deleted_artifact(pipeline_run):
    _, config, out, _ = pipeline_run
    before = {name: (out / name).read_bytes() for name in ARTIFACTS}
    (out / "histories.ndjson").unlink()
    status = run_pipeline(config)
    assert status["extract"] == "skipped"
    assert all(state == "ran" for stage, state in status.items() if stage != "extract")
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before


def test_pipeline_runs_every_stage_once_under_a_manifest_that_lists_output_names(pipeline_run):
    _, config, out, _ = pipeline_run
    before = {name: (out / name).read_bytes() for name in ARTIFACTS}
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest["stages"].values():
        entry["outputs"] = sorted(entry["outputs"])
    (out / "manifest.json").write_text(json.dumps(manifest))
    assert set(run_pipeline(config).values()) == {"ran"}
    assert {name: (out / name).read_bytes() for name in ARTIFACTS} == before
    assert set(run_pipeline(config).values()) == {"skipped"}


def test_pipeline_reruns_only_the_stages_a_change_reaches(fixture_repo, tmp_path):
    config = PipelineConfig(repo=str(fixture_repo["repo"]), commit=fixture_repo["snapshot"],
                            out=str(tmp_path / "rerun"), project="fixture", seed=7)
    run_pipeline(config)
    out = Path(config.out)
    stages = list(STAGES)
    from_label = {stage: "skipped" if stage in ("extract", "trace") else "ran" for stage in stages}
    five_years = (out / "dataset.ndjson").read_bytes()

    window = replace(config, window_years=3.0)
    assert run_pipeline(window) == from_label
    assert (out / "dataset.ndjson").read_bytes() != five_years
    clean = tmp_path / "clean"
    run_pipeline(replace(window, out=str(clean)))
    assert [name for name in ARTIFACTS if (out / name).read_bytes() != (clean / name).read_bytes()] == []

    indicator = replace(window, indicator="revisions")
    assert run_pipeline(indicator) == from_label
    theta = replace(indicator, theta=0.8)
    assert run_pipeline(theta) == {stage: "skipped" if stage == "extract" else "ran" for stage in stages}


def test_pipeline_deterministic_artifacts(pipeline_run, tmp_path_factory):
    ledger, config, out, _ = pipeline_run
    out2 = tmp_path_factory.mktemp("artifacts-again")
    config2 = PipelineConfig(**{**config.__dict__, "out": str(out2)})
    run_pipeline(config2)
    for name in ARTIFACTS:
        assert (out / name).read_bytes() == (out2 / name).read_bytes(), name


def test_pipeline_curve_files_well_formed(pipeline_run):
    _, _, out, _ = pipeline_run
    for name in ("pareto.csv", "bugs_high_recall.csv", "bugs_high_precision.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "project,fraction,captured"
        assert len(lines) == 1 + 4  # one project, four fractions
    correlations = (out / "correlations.csv").read_text().splitlines()
    assert correlations[0] == "metric,tau,p,n"
    assert len(correlations) == 1 + 17
