"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
and enforcing its runtime budget.  Run with `pytest tests/test_acceptance.py -v -s`.

Full-corpus reference results (e.g. precision/recall near 0.75-0.80 for ugly
prediction, a size-to-change rank correlation near 0.34, top-20% methods
holding 80%+ of changes and bugs, ~43% unchanged methods) come from
multi-project mining at a scale this repository does not bundle; criterion 8
therefore checks that every corresponding table and curve is emitted and
well-formed on any corpus, plus an optional smoke run on a real clone.
"""

import functools
import json
import math
import random
import time
from pathlib import Path

import pytest

from methodlens.gitrepo import GitRepo
from methodlens.history import (
    DAYS_PER_YEAR,
    TraceSession,
    compute_indicators,
    levenshtein,
    trace_method,
)
from methodlens.java_extract import extract_methods, normalize_source
from methodlens.labeling import BugRuleConfig, bug_counts, label_methods, pareto_curve
from methodlens.metrics import compute_metric_vector
from methodlens.ml import LogisticConfig, run_approach1, train_logistic
from methodlens.pipeline import (
    PipelineConfig,
    digest_file,
    digest_params,
    labeled_record,
    read_ndjson,
    run_pipeline,
    run_train,
    write_ndjson,
)
from methodlens.stats import kendall_tau_b

from golden_corpus import CORPUS, corpus_files, expected_vector
from oracles import kendall_tau_b_pairs, levenshtein_full_matrix
from repo_builder import build_fixture_repo
from synth import sample, separable_corpus

THETA = 0.75  # the default matching threshold, PipelineConfig.theta
INT_METRICS = ("size", "mccabe", "nvar", "ncomp", "maxBlockDepth", "fanout",
               "halsteadLength", "parameters", "variables")
BOOL_METRICS = ("getterSetter", "isPublic", "isStatic")
FLOAT_METRICS = ("indentStd", "maintainabilityIndex", "readability",
                 "simpleReadability", "commentRatio")


def criterion(number, title, budget_seconds):
    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_seconds, (
                    f"criterion {number} took {elapsed:.2f}s, budget {budget_seconds}s"
                )
            except BaseException:
                elapsed = time.perf_counter() - start
                print(f"ACCEPTANCE {number} ({title}): FAIL [{elapsed:.2f}s]")
                raise
            print(f"ACCEPTANCE {number} ({title}): PASS [{elapsed:.2f}s]")
        return run
    return wrap


@criterion(1, "metric oracle suite", 5.0)
def test_criterion_1_metric_oracles():
    assert len(CORPUS) >= 40
    declarations = {}
    for filename, content in corpus_files().items():
        for decl in extract_methods(normalize_source(content)):
            declarations[(filename[:-5], decl.name)] = decl
    assert len(declarations) == len(CORPUS)
    for method in CORPUS:
        decl = declarations[(method.class_name, method.name)]
        actual = compute_metric_vector(decl).as_dict()
        expected = expected_vector(method.text, method.ledger)
        for name in INT_METRICS:
            assert actual[name] == expected[name], (method.name, name)
        for name in BOOL_METRICS:
            assert actual[name] is expected[name], (method.name, name)
        for name in FLOAT_METRICS:
            assert abs(actual[name] - expected[name]) <= 1e-9, (method.name, name)


@criterion(2, "levenshtein properties", 5.0)
def test_criterion_2_levenshtein():
    rng = random.Random(20_24)
    alphabet = "abcde \n"
    pairs = []
    for _ in range(1000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 41)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randrange(0, 41)))
        pairs.append((a, b))
    for a, b in pairs:
        d = levenshtein(a, b)
        assert d == levenshtein_full_matrix(a, b)
        assert levenshtein(a, a) == 0
        assert d == levenshtein(b, a)
        assert abs(len(a) - len(b)) <= d <= max(len(a), len(b))
    for i in range(0, 300, 3):
        a, b = pairs[i]
        c = pairs[i + 1][0]
        assert levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c)


@criterion(3, "kendall tau-b oracle equivalence", 10.0)
def test_criterion_3_kendall_tau():
    rng = random.Random(7_77)
    checked = 0
    while checked < 200:
        n = rng.randrange(2, 301)
        ties = rng.choice((3, 5, 12, 50))
        x = [rng.randrange(0, ties) for _ in range(n)]
        y = [rng.randrange(0, ties) for _ in range(n)]
        if len(set(x)) <= 1 or len(set(y)) <= 1:
            continue
        tau, _ = kendall_tau_b(x, y)
        assert abs(tau - kendall_tau_b_pairs(x, y)) <= 1e-12
        checked += 1
    # exact self-correlation
    for n in (2, 5, 40, 300):
        xs = list(range(n))
        rng.shuffle(xs)
        tau, _ = kendall_tau_b(xs, xs)
        assert tau == 1.0
    # monotone-transform invariance
    x = [rng.random() for _ in range(150)]
    y = [rng.randrange(0, 9) for _ in range(150)]
    tau, _ = kendall_tau_b(x, y)
    tau2, _ = kendall_tau_b([math.exp(5 * v) for v in x], [v ** 3 for v in y])
    assert abs(tau - tau2) <= 1e-12


def _random_project(rng, index):
    n = rng.randrange(1, 80)
    methods = []
    for i in range(n):
        if rng.random() < 0.4:
            methods.append(sample(i, project=f"proj{index}"))
        else:
            methods.append(
                sample(i, project=f"proj{index}",
                       revisions=rng.randrange(1, 6), edit=rng.randrange(1, 400))
            )
    return methods


@criterion(4, "labeling invariants on 100 synthetic projects", 5.0)
def test_criterion_4_labeling_invariants():
    rng = random.Random(99_41)
    for index in range(100):
        methods = _random_project(rng, index)
        n = len(methods)
        labels = label_methods(methods)
        assert len(labels) == n  # partition: every method labeled exactly once
        counts = {"good": 0, "bad": 0, "ugly": 0}
        for value in labels.values():
            counts[value] += 1
        assert counts["good"] + counts["bad"] + counts["ugly"] == n
        changed = sum(1 for m in methods if m.indicators.revisions > 0)
        assert counts["ugly"] == min(int(0.2 * n + 1e-9), changed)
        for m in methods:
            is_good = labels[m.identity.as_str()] == "good"
            assert is_good == (m.indicators.revisions == 0)
        curve = None
        if any(m.indicators.editDistance > 0 for m in methods):
            curve = pareto_curve(methods)
        for c in (2, 10):
            scaled = [
                sample(i, project=m.identity.project,
                       revisions=m.indicators.revisions,
                       diff=m.indicators.diffSize,
                       add=m.indicators.additionOnly,
                       edit=m.indicators.editDistance * c)
                if m.indicators.revisions else sample(i, project=m.identity.project)
                for i, m in enumerate(methods)
            ]
            assert label_methods(scaled) == labels
            if curve is not None:
                assert pareto_curve(scaled).captured == curve.captured


@criterion(5, "pareto properties", 1.0)
def test_criterion_5_pareto():
    rng = random.Random(5_15)
    # nondecreasing on random data
    methods = [sample(i, revisions=1, edit=rng.randrange(1, 500)) for i in range(57)]
    curve = pareto_curve(methods, fractions=(0.05, 0.10, 0.15, 0.20, 0.6, 1.0))
    assert list(curve.captured) == sorted(curve.captured)
    assert curve.captured[-1] == 1.0
    # uniform mass
    for n in (4, 10, 23):
        uniform = [sample(i, revisions=1, edit=9) for i in range(n)]
        c = pareto_curve(uniform)
        for fraction, captured in zip(c.fractions, c.captured):
            assert captured == math.ceil(fraction * n - 1e-9) / n
    # a single method holding all the mass
    hot = [sample(0, revisions=1, edit=777)] + [sample(i) for i in range(1, 25)]
    assert pareto_curve(hot).captured[0] == 1.0
    # exact fixture value
    values = [50, 30, 10, 5, 3, 1, 1, 0, 0, 0]
    fixture = [
        sample(i, revisions=1, edit=v) if v else sample(i)
        for i, v in enumerate(values)
    ]
    assert pareto_curve(fixture).captured[3] == 0.80


@criterion(6, "fixture repository end-to-end", 30.0)
def test_criterion_6_fixture_repo(tmp_path):
    ledger = build_fixture_repo(tmp_path)
    repo = GitRepo(str(ledger["repo"]))
    session = TraceSession(repo, ledger["snapshot"], THETA, project="fixture")
    assert len(session.chain) == 11
    histories = {}
    for path in repo.ls_files(ledger["snapshot"]):
        decls = extract_methods(normalize_source(repo.file_at(ledger["snapshot"], path)))
        for history in trace_method(session, path, decls):
            histories[history.identity.signature] = history
    assert set(histories) == set(ledger["methods"])
    for sig, expected in ledger["methods"].items():
        history = histories[sig]
        assert history.introduction.id == expected["introduction"], sig
        got = [(r.commit.id, r.linesAdded, r.linesDeleted, r.editDistance)
               for r in history.revisions]
        want = [(r["commit"], r["added"], r["deleted"], r["edit"])
                for r in expected["revisions"]]
        assert got == want, sig
        indicators = compute_indicators(history, 5.0 * DAYS_PER_YEAR)
        assert indicators.revisions == expected["window"]["revisions"], sig
        assert indicators.diffSize == expected["window"]["diffSize"], sig
        assert indicators.additionOnly == expected["window"]["additionOnly"], sig
        assert indicators.editDistance == expected["window"]["editDistance"], sig
    counts = bug_counts(list(histories.values()), BugRuleConfig(), 5.0 * DAYS_PER_YEAR)
    by_sig = {sig: counts[h.identity.as_str()] for sig, h in histories.items()}
    for sig, expected in ledger["methods"].items():
        assert by_sig[sig] == tuple(expected["bugs"]), sig
    # high-recall vs high-precision divergence on the tangled commit
    assert by_sig["Util#compute(int)"] == (1, 1)
    assert by_sig["Alpha#fragile(int)"][0] == 1
    assert by_sig["Alpha#fragile(int)"][1] == 0


@criterion(7, "ml suite", 60.0)
def test_criterion_7_ml(tmp_path):
    methods = separable_corpus(projects=6, per_project=60, seed=12, bad_share=0.1)
    outcome = run_approach1(methods, seed=41)
    for name in ("logistic", "tree", "forest"):
        f_ugly = outcome["results"][name]["report"].perClass["ugly"].fMeasure
        assert f_ugly >= 0.95, (name, f_ugly)

    # byte-identical report.json for a fixed seed
    dataset = tmp_path / "dataset.ndjson"
    write_ndjson(dataset, "label", {}, [labeled_record(m, 0, 2000.0) for m in methods])
    config = PipelineConfig(seed=41, approach=1)
    reports = []
    for run_dir in ("a", "b"):
        out = tmp_path / run_dir
        out.mkdir()
        run_train(config, out, {"dataset.ndjson": digest_file(dataset)}, dataset_path=dataset)
        reports.append((out / "report.json").read_bytes())
    assert reports[0] == reports[1]

    # no test leakage through the scaler
    rows = __import__("methodlens.ml", fromlist=["build_feature_rows"]).build_feature_rows(methods)
    [model] = train_logistic([(rows, LogisticConfig())])
    import numpy as np

    from methodlens.metrics import METRIC_NAMES

    size_idx = METRIC_NAMES.index("size")
    outlier = np.zeros((1, len(METRIC_NAMES)))
    outlier[0, size_idx] = 1e6
    assert model.scaler.transform(outlier)[0, size_idx] > 1.0


@criterion(8, "pipeline emits all tables and curves", 120.0)
def test_criterion_8_artifact_completeness(tmp_path):
    ledger = build_fixture_repo(tmp_path)
    out = tmp_path / "artifacts"
    config = PipelineConfig(
        repo=str(ledger["repo"]), commit=ledger["snapshot"],
        out=str(out), project="fixture", seed=1,
    )
    status = run_pipeline(config)
    assert set(status.values()) == {"ran"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["stages"]) == 8

    for name in ("methods.ndjson", "histories.ndjson", "dataset.ndjson",
                 "surprisingly_good.ndjson", "surprisingly_ugly.ndjson"):
        header, _ = read_ndjson(out / name)
        assert header["schemaVersion"] == 1 and header["stage"], name

    for name in ("pareto.csv", "bugs_high_recall.csv", "bugs_high_precision.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "project,fraction,captured", name
        values = [float(line.split(",")[2]) for line in lines[1:]]
        finite = [v for v in values if not math.isnan(v)]
        assert all(0.0 <= v <= 1.0 for v in finite), name
        assert finite == sorted(finite), name  # nondecreasing per project

    correlations = (out / "correlations.csv").read_text().splitlines()
    assert correlations[0] == "metric,tau,p,n"
    assert len(correlations) == 18
    for line in correlations[1:]:
        _, tau, p, n = line.split(",")
        if tau != "nan":
            assert -1.0 <= float(tau) <= 1.0
            assert 0.0 <= float(p) <= 1.0
        assert int(n) >= 2

    report = json.loads((out / "report.json").read_text())
    assert "stageRecord" in report

    from methodlens.pipeline import emit_plot_data

    written = emit_plot_data(out)
    assert len(written) == 4
    for path in written:
        assert path.read_text().splitlines()[0] == "series,x,y"


SMOKE_ENV = "METHODLENS_SMOKE_REPO"


@pytest.mark.skipif("os.environ.get('METHODLENS_SMOKE_REPO') is None")
def test_optional_smoke_run_on_real_repository(tmp_path):
    """Non-CI smoke: point METHODLENS_SMOKE_REPO at a local Java clone
    (optionally METHODLENS_SMOKE_COMMIT at a snapshot sha)."""
    import os

    repo_path = os.environ[SMOKE_ENV]
    commit = os.environ.get("METHODLENS_SMOKE_COMMIT", "HEAD")
    out = tmp_path / "smoke"
    config = PipelineConfig(repo=repo_path, commit=commit, out=str(out), seed=3)
    status = run_pipeline(config)
    assert set(status) == {"extract", "trace", "label", "pareto", "bugs",
                           "correlate", "rank", "train"}
    for name in ("pareto.csv", "bugs_high_recall.csv", "bugs_high_precision.csv"):
        lines = (out / name).read_text().splitlines()
        assert lines[0] == "project,fraction,captured"
        values = [float(line.split(",")[2]) for line in lines[1:] if not line.endswith("nan")]
        assert all(0.0 <= v <= 1.0 for v in values)
