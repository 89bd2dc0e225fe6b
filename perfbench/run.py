"""methodlens benchmark: seeded, offline, closed-loop, one process.

    python3 perfbench/run.py --workload deep-history --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from `src/`. The
harness generates its inputs from the seed (a synthetic Java repository with
a ground-truth ledger, or a multi-project corpus), then repeats one cycle of
jobs until `--seconds` have passed, each job starting after the previous one
ends, with jobs = 1:

  pipeline  a cold run of every stage the workload has, into an empty
            directory (repository workloads: `run_pipeline`, 8 stages;
            corpus: pareto, bugs, correlate, rank and train on the merged
            dataset, the stages a multi-project corpus runs)
  rerun     the same run on the same directory with only the indicator
            changed from editDistance to revisions (repository workloads:
            extract and trace are skipped by digest)
  analyze   run_correlate, run_rank, run_train with approach 1 and 2 on the
            workload's dataset (single-project datasets take the
            not-trainable path)

Each sample is rescaled to a fixed host speed by a reference loop timed
around it (see Stopwatch), since the CPU of a shared VM slows by 1.5-2x for
long stretches. Every job's outputs are checked and digested; a job fails
if it raises, if an output is missing or malformed, or if its digest
differs from the first cycle's. With `--trace 0` the last line holds the
end-to-end metrics, with `--trace 1` the per-layer metrics from spans
recorded around the program's public functions (see LAYERS). The lines
before it describe the run.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from dataclasses import replace
from pathlib import Path

import checks
import gen_corpus
from gen_repo import RepoSpec, generate as generate_repo
from tracer import Tracer, median_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Sizes keep the shape of each workload while one cycle stays short enough
# for many samples per run (see README.md). The two numbers after the size
# are the batch sizes of the rerun and the analyze job (see `run`), chosen so
# that each batch takes about half a second.
WORKLOADS = {
    # trace cost grows with methods x first-parent chain length
    "deep-history": (RepoSpec(files=8, methods_per_file=6, initial_methods=4, commits=80, years=10,
                              files_per_commit=(1, 2), statements=(3, 6)), 3, 40),
    # many long methods, short chain: metrics, extraction and stats dominate
    "wide-snapshot": (RepoSpec(files=6, methods_per_file=12, initial_methods=12, commits=24, years=8,
                               files_per_commit=(1, 2), statements=(6, 10)), 1, 16),
    # the only workload on which the classifiers train
    "corpus": ((4, 40), 12, 1),
}
TINY = {
    "deep-history": (RepoSpec(files=6, methods_per_file=3, initial_methods=2, commits=24, years=10,
                              files_per_commit=(1, 2), statements=(2, 3)), 2, 2),
    "wide-snapshot": (RepoSpec(files=6, methods_per_file=3, initial_methods=2, commits=24, years=8,
                               files_per_commit=(1, 2), statements=(4, 6)), 1, 1),
    "corpus": ((4, 20), 2, 1),
}
SETUP_PROBES = 7
# Host speed gauge: on a shared VM the CPU slows by 1.5-2x for seconds to
# minutes at a time, which spreads raw medians of ten runs by 0.1-0.4. Every
# sample is therefore rescaled by a reference loop timed around it (see
# Stopwatch and Laps); REFERENCE_S is about the loop's time on an uncontended
# 2.0 GHz Xeon vCPU, so rescaled values stay near seconds.
REFERENCE_ITERATIONS = 80_000
REFERENCE_S = 0.024
LAP_S = 0.25
END_TO_END = (
    ("setup_s", "s"), ("pipeline_s", "s"), ("rerun_s", "s"), ("analyze_s", "s"), ("peak_rss_mb", "MB"),
)
JOBS = ("pipeline", "rerun", "analyze")


class Workdir:
    """Inputs and outputs of one run, under the checkout, removed at exit."""

    def __init__(self, workload: str, seed: int):
        self.path = ROOT / ".perfbench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)

    def fresh(self, name: str) -> Path:
        path = self.path / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir()
        return path

    def close(self) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass  # another run still uses it


def reference_loop() -> float:
    """Wall time of a fixed pure-Python loop of dict, string and integer work.
    It does not touch methodlens, so it gauges the host, not the program."""
    t0 = time.perf_counter()
    counts: dict[str, int] = {}
    for i in range(REFERENCE_ITERATIONS):
        key = "k%d" % (i % 512)
        counts[key] = counts.get(key, 0) + len(key)
    return time.perf_counter() - t0


class Stopwatch:
    """Job time rescaled to the host speed at which the reference loop takes
    REFERENCE_S. Only time between `resume` and `pause` counts. `lap` closes
    a segment with a reference reading and rescales it by the mean of the
    readings at its two ends; a long job calls it between its steps so that
    each step is rescaled by the host speed of its own moment."""

    def __init__(self, readings: list[float]):
        self.readings = readings
        self.before = self._read()
        self.t0: float | None = None
        self.segment = 0.0
        self.raw = 0.0
        self.scaled = 0.0

    def _read(self) -> float:
        reading = reference_loop()
        self.readings.append(reading)
        return reading

    def resume(self) -> None:
        self.t0 = time.perf_counter()

    def pause(self) -> None:
        self.segment += time.perf_counter() - self.t0
        self.t0 = None

    def open_seconds(self) -> float:
        """Counted time of the open segment."""
        return self.segment + (time.perf_counter() - self.t0 if self.t0 is not None else 0.0)

    def lap(self) -> None:
        running = self.t0 is not None
        if running:
            self.pause()
        after = self._read()
        self.raw += self.segment
        self.scaled += self.segment * REFERENCE_S / ((self.before + after) / 2)
        self.before, self.segment = after, 0.0
        if running:
            self.resume()


class Laps:
    """Lap points: the stage runners, trace_method and the classifier
    trainers, wrapped so that a call that starts after the open segment of
    the running stopwatch has counted LAP_S closes that segment first. Long
    jobs are so rescaled piece by piece; the check costs about a microsecond
    a call, and the reference loop runs outside the counted time."""

    def __init__(self):
        self.watch: Stopwatch | None = None

    def install(self, P) -> None:
        import methodlens.ml as ML

        for stage in checks.STAGE_FILES:
            setattr(P, f"run_{stage}", self._boundary(getattr(P, f"run_{stage}")))
        P.trace_method = self._boundary(P.trace_method)
        for key, (trainer, grid) in list(ML._TRAINERS.items()):
            ML._TRAINERS[key] = (self._boundary(trainer), grid)

    def _boundary(self, fn):
        def call(*args, **kwargs):
            watch = self.watch
            if watch is not None and watch.open_seconds() >= LAP_S:
                watch.lap()
            return fn(*args, **kwargs)

        return call


def measure_setup(readings: list[float], repo: Path | None, commit: str | None) -> tuple[list, list]:
    """Rescaled and raw wall times of fresh interpreters that import
    methodlens.pipeline and, for a repository workload, open GitRepo and
    resolve the snapshot."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import methodlens.pipeline"
    if repo is not None:
        code += (f"; from methodlens.gitrepo import GitRepo"
                 f"; GitRepo({str(repo)!r}).resolve_commit({commit!r})")
    # no timeout: with one, the wait polls in steps of up to 50 ms
    subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)  # writes the bytecode caches
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        watch = Stopwatch(readings)
        watch.resume()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT)
        watch.lap()
        scaled.append(watch.scaled)
        raw.append(watch.raw)
    return scaled, raw


class RepoWorkload:
    def __init__(self, P, spec: RepoSpec, seed: int, work: Workdir):
        self.P = P
        t0 = time.perf_counter()
        self.repo = generate_repo(spec, seed, work.path / "repo")
        self.generate_s = time.perf_counter() - t0
        self.work = work
        self.methods = len(self.repo.ledger)
        self.projects = 1
        self.out = work.path / "out"
        self.config = P.PipelineConfig(repo=str(self.repo.path), commit=self.repo.head, out=str(self.out),
                                       project="bench", jobs=1)
        self.mismatches = None

    def describe(self) -> str:
        return (f"repository: {self.repo.commits} first-parent commits, {self.methods} methods at the "
                f"snapshot, HEAD {self.repo.head}")

    def setup_probe(self):
        return self.repo.path, self.repo.head

    def prepare_pipeline(self) -> None:
        self.work.fresh("out")

    def pipeline(self):
        return self.out, self.P.run_pipeline(self.config)

    def check_pipeline(self, result) -> None:
        out, status = result
        checks.require(set(status.values()) == {"ran"}, f"cold run skipped stages: {status}")
        histories = checks.check_pipeline(out, self.methods, "editDistance")
        self.mismatches = checks.trace_mismatches(histories, self.repo.ledger)
        shutil.copytree(out, self.work.fresh("cold"), dirs_exist_ok=True)

    def prepare_rerun(self) -> None:
        """Every rerun starts from the cold run's outputs and manifest."""
        shutil.copytree(self.work.path / "cold", self.work.fresh("out"), dirs_exist_ok=True)

    def rerun(self):
        return self.out, self.P.run_pipeline(replace(self.config, indicator="revisions"))

    def check_rerun(self, result) -> None:
        out, status = result
        expected = {s: ("skipped" if s in ("extract", "trace") else "ran") for s in checks.STAGE_FILES}
        checks.require(status == expected, f"rerun statuses: {status}")
        checks.check_pipeline(out, self.methods, "revisions")

    def dataset_paths(self):
        return self.out / "dataset.ndjson", self.out / "histories.ndjson"


class CorpusWorkload:
    def __init__(self, P, size: tuple[int, int], seed: int, work: Workdir):
        self.P = P
        self.work = work
        self.projects, per_project = size
        t0 = time.perf_counter()
        self.dataset, self.histories = gen_corpus.generate(self.projects, per_project, seed, work.path / "corpus")
        self.generate_s = time.perf_counter() - t0
        self.records = self.projects * per_project
        self.out = work.path / "out"
        self.config = P.PipelineConfig(out=str(self.out), jobs=1)
        self.mismatches = None

    def describe(self) -> str:
        return f"corpus: {self.projects} projects, {self.records} methods"

    def setup_probe(self):
        return None, None

    def _stages(self, config, train: bool):
        P, out = self.P, self.out
        digests = {"params": "perfbench"}
        P.run_pareto(config, out, digests, dataset_path=self.dataset)
        P.run_bugs(config, out, digests, dataset_path=self.dataset)
        P.run_correlate(config, out, digests, dataset_path=self.dataset)
        P.run_rank(config, out, digests, dataset_path=self.dataset, histories_path=self.histories)
        if train:
            P.run_train(config, out, digests, dataset_path=self.dataset)
        return out, None

    def prepare_pipeline(self) -> None:
        self.work.fresh("out")

    def pipeline(self):
        return self._stages(self.config, train=True)

    def check_pipeline(self, result) -> None:
        out, _ = result
        _, records = checks.read_ndjson(self.dataset, "label")
        checks.require(len(records) == self.records, "corpus dataset changed size")
        checks.check_analysis(out, self.projects, records)
        checks.check_report(out / "report.json", 1, self.projects)

    def prepare_rerun(self) -> None:
        pass

    def rerun(self):
        """As run_pipeline would: train's inputs (dataset, seed, approach)
        are unchanged, so only the indicator-dependent stages run."""
        return self._stages(replace(self.config, indicator="revisions"), train=False)

    check_rerun = check_pipeline

    def dataset_paths(self):
        return self.dataset, self.histories


def prepare_analyze(w) -> None:
    w.work.fresh("analyze1")
    w.work.fresh("analyze2")


def analyze(w) -> tuple[Path, Path]:
    """correlate, rank and train (approach 1) into one directory, train
    (approach 2) into another."""
    P = w.P
    dataset, histories = w.dataset_paths()
    digests = {"params": "perfbench"}
    first, second = w.work.path / "analyze1", w.work.path / "analyze2"
    config = P.PipelineConfig(out=str(first), approach=1, jobs=1)
    P.run_correlate(config, first, digests, dataset_path=dataset)
    P.run_rank(config, first, digests, dataset_path=dataset, histories_path=histories)
    P.run_train(config, first, digests, dataset_path=dataset)
    P.run_train(replace(config, out=str(second), approach=2), second, digests, dataset_path=dataset)
    return first, second


def check_analyze(w, result) -> None:
    first, second = result
    dataset, _ = w.dataset_paths()
    _, records = checks.read_ndjson(dataset, "label")
    rows = checks.read_curve(first / "correlations.csv", ["metric", "tau", "p", "n"])
    checks.require(len(rows) == checks.METRICS, "correlations.csv is incomplete")
    checks.check_rank(first)
    checks.check_report(first / "report.json", 1, w.projects)
    checks.check_report(second / "report.json", 2, w.projects)
    checks.require(all(int(r[3]) == len(records) for r in rows), "correlations.csv n differs from the dataset")


def digest_of(result) -> str:
    return checks.digest_dirs(*(p for p in result if isinstance(p, Path)))


class _GitSubprocess:
    """Stands in for the subprocess module inside methodlens.gitrepo, so the
    git processes it starts can be counted."""

    def __init__(self):
        self.run = subprocess.run

    def __getattr__(self, name):
        return getattr(subprocess, name)


def install_tracer(P) -> Tracer:
    """Trace the program's public functions at the names their callers look
    up: module globals, class attributes and the trainer table of ml."""
    import methodlens.gitrepo as G
    import methodlens.history as H
    import methodlens.java_extract as J
    import methodlens.metrics as M
    import methodlens.ml as ML
    import methodlens.stats as S

    tracer = Tracer()
    git = _GitSubprocess()
    tracer.replace(G, "subprocess", git)
    failures = ("failures", lambda args, result, error: float(error is not None))
    spans = [
        (git, "run", "gitrepo.spawns", None),
        (G.GitRepo, "changes", "gitrepo.changes", None),
        (G.GitRepo, "file_at", "gitrepo.file_at", None),
        (G.GitRepo, "first_parent_chain", "gitrepo.first_parent_chain", None),
        (G.GitRepo, "ls_files", "gitrepo.ls_files", None),
        (J, "tokenize", "java_extract.tokenize", ("tokens", lambda a, r, e: float(len(r or ())))),
        (H, "extract_methods", "java_extract.extract_methods", failures),
        (P, "extract_methods", "java_extract.extract_methods", failures),
        (P, "trace_method", "history.trace_method", None),
        (H, "match_method", "history.match_method", ("hits", lambda a, r, e: float(r is not None))),
        (H, "body_similarity", "history.body_similarity", None),
        (H, "levenshtein", "history.levenshtein", ("cells", lambda a, r, e: float(len(a[0]) * len(a[1])))),
        (H, "line_diff", "history.line_diff", None),
        (H.TraceSession, "methods_at", "history.methods_at", None),
        (P, "compute_metric_vector", "metrics.compute_metric_vector", None),
        (M, "tokenize", "metrics.tokenize", None),
        (P, "label_methods", "labeling.label_methods", None),
        (P, "bug_counts", "labeling.bug_counts", None),
        (P, "pareto_curve", "labeling.pareto_curve", None),
        (P, "bug_capture", "labeling.bug_capture", None),
        (S, "kendall_tau_b", "stats.kendall_tau_b", None),
        (P, "composite_scores", "stats.composite_scores", None),
        (ML, "evaluate", "ml.evaluate", None),
        (ML.LogisticModel, "predict", "ml.predict", None),
        (ML.TreeModel, "predict", "ml.predict", None),
        (ML.ForestModel, "predict", "ml.predict", None),
        (P, "read_ndjson", "pipeline.read_ndjson", ("bytes", lambda a, r, e: float(os.path.getsize(a[0])))),
        (P, "write_ndjson", "pipeline.write_ndjson", None),
        (P, "digest_file", "pipeline.digest_file", None),
    ]
    spans += [(ML, f"train_{c}", f"ml.train_{c}", None) for c in ("logistic", "tree", "forest")]
    spans += [(P, f"run_{stage}", f"pipeline.stage.{stage}", None) for stage in checks.STAGE_FILES]
    for owner, attr, name, measure in spans:
        tracer.patch(owner, attr, name, measure)
    for key, (_, grid) in list(ML._TRAINERS.items()):
        tracer.replace(ML._TRAINERS, key, (getattr(ML, f"train_{key}"), grid))
    return tracer


# per-layer metrics, each the median over cycles of a per-cycle span metric
LAYERS = (
    ("gitrepo.spawns", "count"), ("gitrepo.spawns.s", "s"),
    ("gitrepo.changes.calls", "count"), ("gitrepo.changes.s", "s"),
    ("gitrepo.file_at.calls", "count"), ("gitrepo.file_at.s", "s"),
    ("gitrepo.first_parent_chain.s", "s"), ("gitrepo.ls_files.s", "s"),
    ("java_extract.tokenize.calls", "count"), ("java_extract.tokenize.s", "s"),
    ("java_extract.tokenize.tokens", "count"),
    ("java_extract.extract_methods.calls", "count"), ("java_extract.extract_methods.s", "s"),
    ("java_extract.extract_methods.failures", "count"),
    ("history.trace_method.calls", "count"), ("history.trace_method.s", "s"),
    ("history.trace_method.self_s", "s"),
    ("history.match_method.calls", "count"), ("history.match_method.s", "s"),
    ("history.match_method.self_s", "s"), ("history.match_method.hits", "count"),
    ("history.body_similarity.calls", "count"),
    ("history.levenshtein.calls", "count"), ("history.levenshtein.s", "s"), ("history.levenshtein.cells", "count"),
    ("history.line_diff.calls", "count"), ("history.line_diff.s", "s"),
    ("history.methods_at.calls", "count"), ("history.methods_at.misses", "count"),
    ("metrics.compute_metric_vector.calls", "count"), ("metrics.compute_metric_vector.s", "s"),
    ("metrics.tokenize.calls", "count"),
    ("labeling.label_methods.s", "s"), ("labeling.bug_counts.s", "s"),
    ("labeling.pareto_curve.s", "s"), ("labeling.bug_capture.s", "s"),
    ("stats.kendall_tau_b.calls", "count"), ("stats.kendall_tau_b.s", "s"), ("stats.composite_scores.s", "s"),
    ("ml.train_logistic.calls", "count"), ("ml.train_logistic.s", "s"),
    ("ml.train_tree.calls", "count"), ("ml.train_tree.s", "s"),
    ("ml.train_forest.calls", "count"), ("ml.train_forest.s", "s"),
    ("ml.predict.calls", "count"), ("ml.predict.s", "s"),
    ("ml.evaluate.calls", "count"), ("ml.evaluate.s", "s"),
    *((f"pipeline.stage.{stage}.s", "s") for stage in checks.STAGE_FILES),
    ("pipeline.read_ndjson.s", "s"), ("pipeline.read_ndjson.bytes", "bytes"),
    ("pipeline.write_ndjson.s", "s"), ("pipeline.digest_file.s", "s"),
)

def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n <= 20:
        return f"n={n}; no percentile above the median has ten samples beyond it"
    return f"n={n}; p{100 * (n - 10) / n:.0f} = {sorted(samples)[n - 11]:.4f}"


def run(args, P, work: Workdir) -> int:
    sizes, rerun_batch, analyze_batch = (TINY if args.tiny else WORKLOADS)[args.workload]
    kind = CorpusWorkload if args.workload == "corpus" else RepoWorkload
    w = kind(P, sizes, args.seed, work)
    print(f"workload {args.workload}, seed {args.seed}: {w.describe()}; generated in {w.generate_s:.3f} s")
    readings: list[float] = []
    setup, setup_raw = measure_setup(readings, *w.setup_probe())
    # A sample is the mean time of a batch of back-to-back runs of one job,
    # so that short jobs are timed over as long a stretch as the cold
    # pipeline. Traced cycles run each job once: per-layer numbers describe
    # one run of each job.
    jobs = (
        ("pipeline", w.prepare_pipeline, w.pipeline, w.check_pipeline, 1),
        ("rerun", w.prepare_rerun, w.rerun, w.check_rerun, 1 if args.trace else rerun_batch),
        ("analyze", lambda: prepare_analyze(w), lambda: analyze(w), lambda result: check_analyze(w, result),
         1 if args.trace else analyze_batch),
    )
    samples: dict[str, list[float]] = {name: [] for name in JOBS}
    raw: dict[str, list[float]] = {name: [] for name in JOBS}
    laps = Laps()
    digests: dict[str, str] = {}
    counts = {"attempted": 0, "failed": 0}

    def run_batch(name, prepare, job, check, batch) -> Stopwatch | None:
        """`batch` checked runs of one job on one stopwatch; None if one failed."""
        watch = Stopwatch(readings)
        for _ in range(batch):
            counts["attempted"] += 1
            try:
                prepare()
                gc.collect()  # no run pays for the garbage of the one before
                laps.watch = watch
                watch.resume()
                try:
                    result = job()
                finally:
                    laps.watch = None
                watch.pause()
                check(result)
                digest = digests.setdefault(name, digest_of(result))
                if digest_of(result) != digest:
                    raise checks.CheckFailed(f"{name} outputs differ from the first cycle's")
            except Exception:  # noqa: BLE001 - a failed job is counted, the run goes on
                counts["failed"] += 1
                print(f"job {name} failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
                return None
        watch.lap()
        return watch

    def cycle(timed: bool) -> None:
        for name, prepare, job, check, batch in jobs:
            batch = batch if timed else 1
            watch = run_batch(name, prepare, job, check, batch)
            if watch is None:
                return  # later jobs of the cycle depend on this one
            if timed:
                samples[name].append(watch.scaled / batch)
                raw[name].append(watch.raw / batch)

    cycle(timed=False)  # warm-up: fills caches, sets the reference digests
    tracer = install_tracer(P) if args.trace else None
    if tracer is None:  # in a traced run, readings inside stages would count in the spans
        laps.install(P)
    t_start = time.perf_counter()
    try:
        while time.perf_counter() - t_start < args.seconds:
            if tracer is not None:
                tracer.begin_cycle()
            cycle(timed=True)
    finally:
        if tracer is not None:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"host: reference loop median {statistics.median(readings) * 1000:.1f} ms over "
          f"{len(readings)} readings; times below are rescaled to {REFERENCE_S * 1000:.0f} ms")
    print(f"setup_s: median {statistics.median(setup):.4f} s of {len(setup)} fresh interpreters "
          f"(raw wall time {statistics.median(setup_raw):.4f} s)")
    for name, _, _, _, batch in jobs:
        if samples[name]:
            print(f"{name}_s: median {statistics.median(samples[name]):.4f} s over cycles, each the mean of "
                  f"{batch} run(s) (raw wall time {statistics.median(raw[name]):.4f} s); "
                  f"{tail(samples[name])}")
    print(f"peak_rss_mb: {peak_rss_mb:.1f} MB, ru_maxrss of this process (RUSAGE_SELF); "
          "git child processes are excluded")
    if w.mismatches is not None:
        print(f"trace_mismatches: {w.mismatches} of {w.methods} snapshot methods differ from the ledger "
              "(introduction commit or revision count)")
    print(f"error_rate: {counts['failed']}/{counts['attempted']} jobs failed")
    for name, digest in digests.items():
        print(f"artifact sha256 {name}: {digest}")
    if not all(samples.values()):
        print("error: a job produced no timed sample", file=sys.stderr)
        return 1

    if tracer is None:
        values = {
            "setup_s": statistics.median(setup),
            **{f"{name}_s": statistics.median(samples[name]) for name in JOBS},
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    else:
        per_cycle = median_metrics(tracer.layer_metrics())
        per_cycle["gitrepo.spawns"] = per_cycle.get("gitrepo.spawns.calls", 0)
        metrics = {name: {"value": per_cycle.get(name, 0.0), "unit": unit} for name, unit in LAYERS}
        metrics["history.trace_mismatches"] = {"value": w.mismatches or 0, "unit": "count"}
        metrics["pipeline_s.traced"] = {"value": statistics.median(samples["pipeline"]), "unit": "s"}
        spans = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl.gz"
        spans.parent.mkdir(exist_ok=True)
        tracer.write(spans)
        print(f"spans: {len(tracer.start)} in {len(tracer.cycles)} cycles written to "
              f"{spans.relative_to(ROOT)}")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test sizes")
    args = parser.parse_args(argv)
    if not (SRC / "methodlens" / "pipeline.py").is_file():
        print(f"error: methodlens sources not found under {SRC}", file=sys.stderr)
        return 2
    # git must not read the user's configuration: the same seed, the same SHAs.
    # One BLAS thread keeps the program to one process and at most one git
    # child, as jobs = 1 intends; spinning BLAS threads would compete with git.
    os.environ.update(GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull, GIT_TERMINAL_PROMPT="0",
                      OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    os.environ.pop("METHODLENS_GIT", None)
    sys.path.insert(0, str(SRC))
    warnings.simplefilter("ignore")
    logging.getLogger("methodlens").setLevel(logging.ERROR)
    import methodlens.pipeline as P

    # a terminated run still removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = Workdir(args.workload, args.seed)
    try:
        return run(args, P, work)
    finally:
        work.close()


if __name__ == "__main__":
    sys.exit(main())
