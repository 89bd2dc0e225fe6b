"""Pipeline orchestration: configuration files, self-describing stage
artifacts (NDJSON with a header record, plain CSV for curves), digest-based
stage skipping, and plot-ready CDF emission."""

from __future__ import annotations

import csv
import fnmatch
import hashlib
import io
import json
import logging
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, asdict, fields, replace
from pathlib import Path
from typing import Callable

from . import __version__
from .gitrepo import CommitMeta, GitRepo
from .history import (
    DAYS_PER_YEAR,
    ChangeIndicators,
    INDICATOR_NAMES,
    MethodHistory,
    MethodIdentity,
    Revision,
    TraceSession,
    compute_indicators,
    filter_by_age,
    trace_method,
)
from .java_extract import ExtractionError, LexicalError, MethodDeclaration, extract_methods, normalize_source, signature
from .labeling import (
    BugRuleConfig,
    LabeledMethod,
    bug_capture,
    bug_counts,
    label_methods,
    pareto_curve,
)
from .metrics import MetricVector, compute_metric_vector
from .ml import run_approach1, run_approach2
from .stats import composite_scores, correlation_table, select_surprising, signs_from_table

log = logging.getLogger("methodlens.pipeline")

# digested into every stage's params, so output directories written by
# another version run each stage once again
TOOL_VERSION = __version__
SCHEMA_VERSION = 1

class ConfigError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage
        self.cause = cause


class MissingStage(Exception):
    pass


class MalformedInput(Exception):
    """An input file that does not parse; the message names the file."""


INDICATOR_ALIASES = {
    "edit-distance": "editDistance",
    "diff-size": "diffSize",
    "addition-only": "additionOnly",
    "revisions": "revisions",
}

# the `jobs` key is kept so that existing configuration files still parse
JOBS_ERROR = "jobs must be 1: tracing is single-process"


@dataclass
class PipelineConfig:
    repo: str = ""
    commit: str = ""
    window_years: float = 5.0
    indicator: str = "editDistance"
    ugly_fraction: float = 0.2
    theta: float = 0.75
    seed: int = 0
    out: str = "artifacts"
    files: str = "*"
    jobs: int = 1
    project: str = ""
    approach: int = 1
    top_n: int = 50
    per_project_cap: int = 2
    high_recall_keywords: tuple[str, ...] = BugRuleConfig().highRecallKeywords
    high_precision_bug_words: tuple[str, ...] = BugRuleConfig().highPrecisionBugWords
    high_precision_fix_words: tuple[str, ...] = BugRuleConfig().highPrecisionFixWords

    def __post_init__(self):
        """The one check of every value, for config-file values, flags and
        callers alike."""
        if self.indicator not in INDICATOR_ALIASES.values():
            raise ConfigError(f"unknown indicator {self.indicator!r}")
        if not self.window_years > 0:
            raise ConfigError("window_years must be positive")
        for key in ("ugly_fraction", "theta"):
            if not 0.0 < getattr(self, key) <= 1.0:
                raise ConfigError(f"{key} must lie in (0, 1]")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.jobs != 1:
            raise ConfigError(JOBS_ERROR)
        if self.approach not in (1, 2):
            raise ConfigError("approach must be 1 or 2")
        for key in ("top_n", "per_project_cap"):
            if getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        for key in _WORD_LIST_KEYS:
            words = getattr(self, key)
            # commit messages are matched lowercased
            if not words or any(w != w.lower() for w in words):
                raise ConfigError(f"{key} must be a non-empty lowercase list")

    def project_name(self) -> str:
        return self.project or Path(self.repo).resolve().name or "project"

    def bug_rules(self) -> BugRuleConfig:
        return BugRuleConfig(
            highRecallKeywords=self.high_recall_keywords,
            highPrecisionBugWords=self.high_precision_bug_words,
            highPrecisionFixWords=self.high_precision_fix_words,
        )


# each key's declared type, as written in the class body (annotations are
# not evaluated in this module)
_KEY_TYPES = {f.name: f.type for f in fields(PipelineConfig)}
_WORD_LIST_KEYS = tuple(key for key, kind in _KEY_TYPES.items() if kind == "tuple[str, ...]")
_NUMBER_TYPES = {"float": (float, "a number"), "int": (int, "an integer")}


def _parse_value(key: str, raw: str):
    """The typed value of a config-file entry, read by the key's declared
    type; `PipelineConfig` itself checks the value."""
    kind = _KEY_TYPES.get(key)
    if kind is None:
        raise ConfigError(f"unknown key {key!r}")
    if key in _WORD_LIST_KEYS:
        words = tuple(w.strip() for w in raw.split(",") if w.strip())
        if not words:
            raise ConfigError(f"{key} must be a non-empty comma-separated list")
        return words
    if kind in _NUMBER_TYPES:
        convert, expected = _NUMBER_TYPES[kind]
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(f"{key} expects {expected}, got {raw!r}")
    if key == "indicator":
        return INDICATOR_ALIASES.get(raw, raw)
    return raw


def validate_config(path: str | Path) -> PipelineConfig:
    """Parse a key = value config file; unknown keys, bad types and
    out-of-range values are errors naming their line, absent keys keep
    module defaults."""
    config = PipelineConfig()
    text = Path(path).read_text(encoding="utf-8")
    for line_no, raw_line in enumerate(text.split("\n"), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            if "=" not in line:
                raise ConfigError(f"expected 'key = value', got {line!r}")
            key, _, raw = line.partition("=")
            key = key.strip()
            config = replace(config, **{key: _parse_value(key, raw.strip())})
        except ConfigError as err:
            raise ConfigError(f"line {line_no}: {err}") from None
    return config


# ---------------------------------------------------------------------------
# persistence


# mkstemp creates its files 0o600; artifacts get the mode open() would give
_UMASK = os.umask(0)
os.umask(_UMASK)


def _atomic_write(path: Path, data: bytes) -> None:
    """Replace `path` through a temporary file of its own in the same
    directory, so two writers of one path never share a temporary name; the
    temporary file is removed if the write or the replace fails."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with open(fd, "wb") as fh:
            os.fchmod(fd, 0o666 & ~_UMASK)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _json_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def stage_header(stage: str, input_digests: dict[str, str]) -> dict:
    return {
        "schemaVersion": SCHEMA_VERSION,
        "stage": stage,
        "toolVersion": TOOL_VERSION,
        "inputDigests": dict(sorted(input_digests.items())),
    }


def write_ndjson(path: Path, stage: str, input_digests: dict[str, str], records, extra_header: dict | None = None) -> None:
    header = stage_header(stage, input_digests)
    if extra_header:
        header.update(extra_header)
    buf = io.StringIO()
    buf.write(_json_line(header) + "\n")
    for record in records:
        buf.write(_json_line(record) + "\n")
    _atomic_write(path, buf.getvalue().encode("utf-8"))


@contextmanager
def _parsing(path: Path):
    """An input file that does not parse fails the read, naming the file."""
    try:
        yield
    except (ValueError, KeyError, TypeError) as err:
        reason = f"missing field {err}" if isinstance(err, KeyError) else err
        raise MalformedInput(f"{path} is malformed: {reason}") from err


def read_ndjson(path: Path) -> tuple[dict, list[dict]]:
    """First line is the stage header; interior header lines (from
    concatenating per-project files) are skipped."""
    with _parsing(path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise MalformedInput(f"{path} is empty")
        header = json.loads(lines[0])
        if not isinstance(header, dict):
            raise ValueError("its first line is not a JSON object")
        records = []
        for line in lines[1:]:
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and "schemaVersion" in record and "stage" in record:
                continue
            records.append(record)
    return header, records


def write_csv(path: Path, columns: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(row)
    _atomic_write(path, buf.getvalue().encode("utf-8"))


def digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digest_file(path: Path) -> str:
    return digest_bytes(Path(path).read_bytes())


def digest_params(params: dict) -> str:
    return digest_bytes(_json_line(params).encode("utf-8"))


# ---------------------------------------------------------------------------
# record (de)serialization


def method_record(file: str, decl: MethodDeclaration) -> dict:
    return {
        "file": file,
        "signature": signature(decl),
        "name": decl.name,
        "startLine": decl.startLine,
        "endLine": decl.endLine,
        "modifiers": sorted(decl.modifiers),
        "annotations": list(decl.annotations),
        "body": decl.bodyText,
    }


def decl_from_record(record: dict) -> MethodDeclaration:
    sig = record["signature"]
    params = sig[sig.index("(") + 1:sig.rindex(")")]
    chain = sig[:sig.index("#")].split(".")
    return MethodDeclaration(
        name=record["name"],
        parameterTypes=[p for p in params.split(",") if p],
        modifiers=set(record.get("modifiers", [])),
        annotations=list(record.get("annotations", [])),
        bodyText=record["body"],
        startLine=record["startLine"],
        endLine=record["endLine"],
        containerChain=chain,
    )


def identity_record(identity: MethodIdentity) -> dict:
    return {
        "project": identity.project,
        "file": identity.file,
        "signature": identity.signature,
        "startLine": identity.startLine,
    }


def identity_from_record(record: dict) -> MethodIdentity:
    return MethodIdentity(**record)


def indicators_record(indicators: ChangeIndicators) -> dict:
    return {name: getattr(indicators, name) for name in INDICATOR_NAMES}


def indicators_from_record(record: dict) -> ChangeIndicators:
    return ChangeIndicators(**record)


def history_record(h: MethodHistory, metrics: MetricVector) -> dict:
    """The record of a history and the inception metrics of its
    introduction declaration."""
    return {
        "identity": identity_record(h.identity),
        "introduction": {
            "commit": h.introduction.id,
            "time": h.introduction.authorTime,
            "path": h.introductionPath,
            "method": method_record(h.introductionPath, h.introductionDecl),
            "metrics": metrics.as_dict(),
        },
        "revisions": [
            {
                "commit": r.commit.id,
                "time": r.commit.authorTime,
                "added": r.linesAdded,
                "deleted": r.linesDeleted,
                "editDistance": r.editDistance,
                "message": r.commit.message,
                "daysSinceIntroduction": r.daysSinceIntroduction,
            }
            for r in h.revisions
        ],
    }


def history_from_record(record: dict) -> MethodHistory:
    """The history of a `histories.ndjson` record; an `indicators` field,
    which older files hold, is not read, and neither are the metrics."""
    intro = record["introduction"]
    return MethodHistory(
        identity=identity_from_record(record["identity"]),
        introduction=CommitMeta(id=intro["commit"], authorTime=intro["time"], message=""),
        introductionPath=intro["path"],
        introductionDecl=decl_from_record(intro["method"]),
        revisions=[
            Revision(
                commit=CommitMeta(id=r["commit"], authorTime=r["time"], message=r["message"]),
                linesAdded=r["added"],
                linesDeleted=r["deleted"],
                editDistance=r["editDistance"],
                daysSinceIntroduction=r["daysSinceIntroduction"],
            )
            for r in record["revisions"]
        ],
    )


def inception_metrics_from_record(record: dict, path: Path) -> MetricVector:
    """The introduction's metric vector that trace stored in a
    `histories.ndjson` record of the file at `path`."""
    metrics = record["introduction"].get("metrics")
    if metrics is None:
        raise ValueError(f"{path} holds no introduction metrics, as files written before "
                         f"methodlens 0.2.0 do; run trace again to write them")
    with _parsing(path):
        return MetricVector(**metrics)


def labeled_record(m: LabeledMethod, intro_time: int, age_days: float) -> dict:
    return {
        "identity": identity_record(m.identity),
        "label": m.label,
        "metrics": m.metrics.as_dict(),
        "indicators": indicators_record(m.indicators),
        "bugCountHighRecall": m.bugCountHighRecall,
        "bugCountHighPrecision": m.bugCountHighPrecision,
        "introTime": intro_time,
        "ageDays": age_days,
    }


def labeled_from_record(record: dict) -> LabeledMethod:
    return LabeledMethod(
        identity=identity_from_record(record["identity"]),
        metrics=MetricVector(**record["metrics"]),
        indicators=indicators_from_record(record["indicators"]),
        label=record["label"],
        bugCountHighRecall=record["bugCountHighRecall"],
        bugCountHighPrecision=record["bugCountHighPrecision"],
    )


# ---------------------------------------------------------------------------
# stage implementations


def run_extract(config: PipelineConfig, repo: GitRepo, snapshot: str, out: Path,
                digests: dict[str, str]) -> None:
    blobs = {path: blob for path, blob in repo.ls_tree(snapshot).items()
             if config.files in ("", "*") or fnmatch.fnmatch(path, config.files)}
    texts = repo.read_blobs(blobs.values())
    records = []
    files_read = failures = 0
    for path, blob in blobs.items():
        content = texts[blob]
        if content is None:
            continue
        files_read += 1
        try:
            decls = extract_methods(normalize_source(content))
        except (ExtractionError, LexicalError) as err:
            log.warning("skipping %s: %s", path, err)
            failures += 1
            continue
        records.extend(method_record(path, d) for d in decls)
    log.info("extract: %d files read, %d methods, %d files failed to extract",
             files_read, len(records), failures)
    write_ndjson(out / "methods.ndjson", "extract", digests, records,
                 extra_header={"snapshot": snapshot, "project": config.project_name()})


def run_trace(config: PipelineConfig, repo: GitRepo, snapshot: str, out: Path, digests: dict[str, str], *,
              methods_path: Path) -> None:
    """Trace each method of `methods_path`, which extract must have written
    at `snapshot`."""
    header, records = read_ndjson(methods_path)
    written_at = header.get("snapshot")
    if written_at != snapshot:
        raise ConfigError(f"--commit resolves to {snapshot}, but {methods_path} was written at {written_at}; "
                          f"run trace at the snapshot its input was written at")
    by_file: dict[str, list[MethodDeclaration]] = {}
    with _parsing(methods_path):
        project = header["project"]
        for record in records:
            by_file.setdefault(record["file"], []).append(decl_from_record(record))
    session = TraceSession(repo, snapshot, config.theta, project=project)
    histories = [h for path, decls in by_file.items() for h in trace_method(session, path, decls)]
    log.info("trace: %d chain commits, %d files traced, %d blobs read, "
             "%d historical versions failed to extract, %d version lines, %d lexed alone",
             len(session.chain), session.files_traced, session.blobs_read, session.failures,
             session.version_lines, session.lines_lexed_alone)
    histories.sort(key=lambda h: h.identity.key())
    # the inception metrics depend on the introduction alone, so label reads
    # them instead of measuring again on every rerun
    records = [history_record(h, compute_metric_vector(h.introductionDecl)) for h in histories]
    write_ndjson(
        out / "histories.ndjson", "trace", digests, records,
        extra_header={
            "snapshot": session.snapshot.id,
            "snapshotTime": session.snapshot.authorTime,
            "theta": config.theta,
        },
    )


def run_label(config: PipelineConfig, out: Path, digests: dict[str, str], *, histories_path: Path) -> None:
    header, records = read_ndjson(histories_path)
    with _parsing(histories_path):
        snapshot_time = header["snapshotTime"]
        histories = [history_from_record(r) for r in records]
    window_days = DAYS_PER_YEAR * config.window_years
    metrics_by_key = {h.identity.as_str(): inception_metrics_from_record(r, histories_path)
                      for h, r in zip(histories, records)}
    eligible = filter_by_age(histories, snapshot_time, window_days)
    bug_by_key = bug_counts(histories, config.bug_rules(), window_days)
    methods = []
    for h in eligible:
        key = h.identity.as_str()
        bugs = bug_by_key[key]
        methods.append(LabeledMethod(
            identity=h.identity,
            metrics=metrics_by_key[key],
            indicators=compute_indicators(h, window_days),
            label="",  # set below, once every eligible method is known
            bugCountHighRecall=bugs[0],
            bugCountHighPrecision=bugs[1],
        ))
    labels = label_methods(methods, indicator=config.indicator, ugly_fraction=config.ugly_fraction)
    out_records = [
        labeled_record(replace(m, label=labels[m.identity.as_str()]), h.introduction.authorTime,
                       (snapshot_time - h.introduction.authorTime) / 86400.0)
        for h, m in sorted(zip(eligible, methods), key=lambda pair: pair[1].identity.key())
    ]
    write_ndjson(
        out / "dataset.ndjson", "label", digests, out_records,
        extra_header={
            "indicator": config.indicator,
            "uglyFraction": config.ugly_fraction,
            "snapshotTime": snapshot_time,
        },
    )


def _load_dataset(dataset_path: Path) -> list[LabeledMethod]:
    _, records = read_ndjson(dataset_path)
    with _parsing(dataset_path):
        return [labeled_from_record(r) for r in records]


def _by_project(methods: list[LabeledMethod]) -> dict[str, list[LabeledMethod]]:
    grouped: dict[str, list[LabeledMethod]] = {}
    for m in methods:
        grouped.setdefault(m.identity.project, []).append(m)
    return dict(sorted(grouped.items()))


def run_pareto(config: PipelineConfig, out: Path, digests: dict[str, str], *, dataset_path: Path) -> None:
    methods = _load_dataset(dataset_path)
    rows = []
    for project, group in _by_project(methods).items():
        curve = pareto_curve(group, indicator=config.indicator)
        for fraction, captured in zip(curve.fractions, curve.captured):
            rows.append((project, fraction, _fmt(captured)))
    write_csv(out / "pareto.csv", ["project", "fraction", "captured"], rows)


BUG_OUTPUTS = {"highRecall": "bugs_high_recall.csv", "highPrecision": "bugs_high_precision.csv"}


def run_bugs(config: PipelineConfig, out: Path, digests: dict[str, str], *, dataset_path: Path,
             datasets=("highRecall", "highPrecision")) -> None:
    methods = _load_dataset(dataset_path)
    for dataset in datasets:
        rows = []
        for project, group in _by_project(methods).items():
            curve = bug_capture(group, indicator=config.indicator, dataset=dataset)
            for fraction, captured in zip(curve.fractions, curve.captured):
                rows.append((project, fraction, _fmt(captured)))
        write_csv(out / BUG_OUTPUTS[dataset], ["project", "fraction", "captured"], rows)


def run_correlate(config: PipelineConfig, out: Path, digests: dict[str, str], *, dataset_path: Path) -> None:
    methods = _load_dataset(dataset_path)
    table = correlation_table(methods, indicator=config.indicator)
    rows = [(e.metric, _fmt(e.tau), _fmt(e.pValue), e.n) for e in table]
    write_csv(out / "correlations.csv", ["metric", "tau", "p", "n"], rows)


def run_rank(config: PipelineConfig, out: Path, digests: dict[str, str], *, dataset_path: Path,
             histories_path: Path) -> None:
    methods = _load_dataset(dataset_path)
    _, history_records = read_ndjson(histories_path)
    with _parsing(histories_path):
        history_by_key = {identity_from_record(r["identity"]).as_str(): r for r in history_records}
    missing = next((m.identity.as_str() for m in methods if m.identity.as_str() not in history_by_key), None)
    if missing is not None:
        raise ValueError(f"{histories_path} has no history for {missing}")
    table = correlation_table(methods, indicator=config.indicator)
    ranking = composite_scores(methods, signs_from_table(table))
    good, ugly = select_surprising(
        methods, ranking, top_n=config.top_n, per_project_cap=config.per_project_cap
    )

    def export(m: LabeledMethod) -> dict:
        key = m.identity.as_str()
        h = history_by_key[key]
        intro = h["introduction"]
        return {
            "identity": identity_record(m.identity),
            "label": m.label,
            "compositeScore": ranking.scores[key],
            "rank": ranking.ranks[key],
            "source": intro["method"]["body"],
            "history": {
                "introductionCommit": intro["commit"],
                "introductionTime": intro["time"],
                "revisions": [
                    {"commit": r["commit"], "time": r["time"], "message": r["message"]}
                    for r in h["revisions"]
                ],
            },
        }

    with _parsing(histories_path):
        good_records = [export(m) for m in good]
        ugly_records = [export(m) for m in ugly]
    write_ndjson(out / "surprisingly_good.ndjson", "rank", digests, good_records)
    write_ndjson(out / "surprisingly_ugly.ndjson", "rank", digests, ugly_records)


def run_train(config: PipelineConfig, out: Path, digests: dict[str, str], *, dataset_path: Path,
              classifiers=None) -> None:
    methods = _load_dataset(dataset_path)
    header = stage_header("train", digests)
    from .ml import CLASSIFIER_NAMES, NoUglyRows, SingleClass, TooFewProjects
    chosen = tuple(classifiers) if classifiers else CLASSIFIER_NAMES
    try:
        _run_train_inner(config, out, header, methods, chosen)
    except (TooFewProjects, NoUglyRows, SingleClass) as err:
        # corpora too small to train on still get a well-formed stage output
        log.warning("training not possible: %s", err)
        payload = {
            "stageRecord": header,
            "approach": config.approach,
            "seed": config.seed,
            "status": "not-trainable",
            "reason": str(err),
        }
        _write_json(out / "report.json", payload)


def _run_train_inner(config: PipelineConfig, out: Path, header: dict, methods, chosen) -> None:
    if config.approach == 1:
        outcome = run_approach1(methods, seed=config.seed, classifiers=chosen)
        payload = {
            "stageRecord": header,
            "approach": 1,
            "seed": config.seed,
            "plan": {
                "train": list(outcome["plan"].trainProjects),
                "validation": list(outcome["plan"].validationProjects),
                "test": list(outcome["plan"].testProjects),
            },
            "classifiers": {
                name: {
                    "config": entry["config"],
                    "validationF": entry["validationF"],
                    "report": asdict(entry["report"]),
                }
                for name, entry in outcome["results"].items()
            },
        }
    else:
        outcome = run_approach2(methods, seed=config.seed, classifiers=chosen)
        payload = {
            "stageRecord": header,
            "approach": 2,
            "seed": config.seed,
            "projects": {
                project: {
                    name: (asdict(report) if report is not None else None)
                    for name, report in entry.items()
                }
                for project, entry in outcome["projects"].items()
            },
        }
    _write_json(out / "report.json", payload)


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "nan"
    return repr(float(value))


# ---------------------------------------------------------------------------
# orchestration


@dataclass(frozen=True)
class Stage:
    """A stage reads the artifacts named in `inputs` and writes those named
    in `outputs` into the output directory.  What it writes depends on the
    inputs' bytes, on `params(config)` and on the snapshot.  Its runner is
    the module function run_<name>, looked up when the stage runs, and
    takes each input's path as a required keyword (`methods.ndjson` as
    `methods_path`); a stage that reads the repository gets it and the
    resolved snapshot commit."""

    name: str
    inputs: tuple[str, ...]
    params: Callable[[PipelineConfig], dict]
    outputs: tuple[str, ...]
    reads_repo: bool = False


def _indicator_params(config: PipelineConfig) -> dict:
    return {"indicator": config.indicator}


STAGES = {stage.name: stage for stage in (
    Stage("extract", (), lambda c: {"files": c.files, "project": c.project_name()},
          ("methods.ndjson",), reads_repo=True),
    Stage("trace", ("methods.ndjson",), lambda c: {"theta": c.theta},
          ("histories.ndjson",), reads_repo=True),
    Stage("label", ("histories.ndjson",), lambda c: {
        "indicator": c.indicator,
        "uglyFraction": c.ugly_fraction,
        "windowYears": c.window_years,
        "bugRules": [
            list(c.high_recall_keywords),
            list(c.high_precision_bug_words),
            list(c.high_precision_fix_words),
        ],
    }, ("dataset.ndjson",)),
    Stage("pareto", ("dataset.ndjson",), _indicator_params, ("pareto.csv",)),
    Stage("bugs", ("dataset.ndjson",), _indicator_params, tuple(BUG_OUTPUTS.values())),
    Stage("correlate", ("dataset.ndjson",), _indicator_params, ("correlations.csv",)),
    Stage("rank", ("dataset.ndjson", "histories.ndjson"),
          lambda c: {"indicator": c.indicator, "topN": c.top_n, "perProjectCap": c.per_project_cap},
          ("surprisingly_good.ndjson", "surprisingly_ugly.ndjson")),
    Stage("train", ("dataset.ndjson",), lambda c: {"seed": c.seed, "approach": c.approach},
          ("report.json",)),
)}


def stage_digests(stage: Stage, config: PipelineConfig, input_digests: dict[str, str],
                  snapshot: str) -> dict[str, str]:
    """Digests of everything a stage's output depends on: its inputs'
    sha256, taken from `input_digests` by artifact name, and its
    parameters."""
    digests = {name: input_digests[name] for name in stage.inputs}
    digests["params"] = digest_params({"toolVersion": TOOL_VERSION, "snapshot": snapshot, **stage.params(config)})
    return digests


def open_snapshot(config: PipelineConfig) -> tuple[GitRepo | None, str]:
    """The repository and its resolved snapshot commit when both `repo` and
    `commit` are configured; otherwise no repository and an empty snapshot,
    as for a merged multi-project dataset."""
    if not (config.repo and config.commit):
        return None, ""
    repo = GitRepo(config.repo)
    return repo, repo.resolve_commit(config.commit)


def run_stage(name: str, config: PipelineConfig, inputs: dict[str, Path], repo: GitRepo | None,
              snapshot: str, digests: dict[str, str] | None = None, **extra) -> list[Path]:
    """Run one stage on the given input files into `config.out` and return
    the paths it wrote.  The digests are computed from the table unless the
    caller already has them; `extra` goes to the runner as it is.  A runner
    that fails raises StageError, unless it found its inputs at odds with
    the configuration (trace's snapshot check), which raises ConfigError."""
    stage = STAGES[name]
    out = Path(config.out)
    if digests is None:
        digests = stage_digests(stage, config,
                                {artifact: digest_file(path) for artifact, path in inputs.items()}, snapshot)
    leading = (config, repo, snapshot, out, digests) if stage.reads_repo else (config, out, digests)
    # methods.ndjson is passed as methods_path, and so on
    paths = {f"{artifact.split('.')[0]}_path": path for artifact, path in inputs.items()}
    try:
        globals()[f"run_{name}"](*leading, **paths, **extra)
    except ConfigError:
        raise
    except Exception as err:  # noqa: BLE001 - stage boundary
        raise StageError(name, err) from err
    written = [BUG_OUTPUTS[d] for d in extra["datasets"]] if "datasets" in extra else stage.outputs
    return [out / artifact for artifact in written]


def _output_digests(out: Path, stage: Stage, sha: dict[str, str | None]) -> dict[str, str | None]:
    """Take the sha256 of each of the stage's outputs as it is now into
    `sha`, None for a missing one, and return them."""
    for artifact in stage.outputs:
        path = out / artifact
        sha[artifact] = digest_file(path) if path.exists() else None
    return {artifact: sha[artifact] for artifact in stage.outputs}


def run_pipeline(config: PipelineConfig) -> dict[str, str]:
    """Execute all stages in order, skipping stages whose inputs are
    unchanged and whose outputs are as they wrote them; returns
    {stage: "ran" | "skipped"}."""
    out = Path(config.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    stages = {}
    if manifest_path.exists():
        try:
            stages = json.loads(manifest_path.read_text(encoding="utf-8")).get("stages", {})
        except json.JSONDecodeError:
            pass
    # the stage digests carry over; the version fields are this run's
    manifest = {"schemaVersion": SCHEMA_VERSION, "toolVersion": TOOL_VERSION, "stages": stages}

    status: dict[str, str] = {}
    rewritten: set[str] = set()
    # artifact -> sha256 of its bytes in `out`, taken when a stage checks or
    # writes it; a later stage's input digests are read from here
    sha: dict[str, str | None] = {}
    # extract and trace share the repository's one `cat-file --batch` child
    with GitRepo(config.repo) as repo:
        snapshot = repo.resolve_commit(config.commit)
        for name, stage in STAGES.items():
            inputs = {artifact: out / artifact for artifact in stage.inputs}
            digests = stage_digests(stage, config, sha, snapshot)
            digest = digest_params(digests)
            recorded = manifest["stages"].get(name, {})
            # a stage that reads an artifact rewritten in this run runs again,
            # even when the rewritten bytes came out the same; so does one
            # whose outputs were deleted or written over since it ran
            fresh = (
                rewritten.isdisjoint(stage.inputs)
                and recorded.get("digest") == digest
                and recorded.get("outputs") == _output_digests(out, stage, sha)
            )
            if fresh:
                status[name] = "skipped"
                continue
            try:
                run_stage(name, config, inputs, repo, snapshot, digests)
            except StageError:
                _write_json(manifest_path, manifest)
                raise
            manifest["stages"][name] = {"digest": digest, "outputs": _output_digests(out, stage, sha)}
            status[name] = "ran"
            rewritten.update(stage.outputs)
    _write_json(manifest_path, manifest)
    return status


# ---------------------------------------------------------------------------
# plot data


def _cdf_points(series: str, values: list[float]):
    ordered = sorted(values)
    n = len(ordered)
    for i, v in enumerate(ordered, start=1):
        yield (series, _fmt(v), _fmt(i / n))


def _curve_cdf_rows(csv_path: Path, series_prefix: str):
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        by_fraction: dict[str, list[float]] = {}
        for row in reader:
            by_fraction.setdefault(row["fraction"], []).append(float(row["captured"]))
    rows = []
    for fraction in sorted(by_fraction, key=float):
        pct = int(round(float(fraction) * 100))
        values = [v for v in by_fraction[fraction] if not math.isnan(v)]
        if not values:
            continue
        rows.extend(_cdf_points(f"{series_prefix}-top{pct}", values))
    return rows


def ugly_points(report_path: Path) -> list[tuple[str | None, str, float, float]]:
    """(project, classifier, precision, recall) of the ugly class for every
    classifier a train report evaluated: one point per held-out project
    under approach 2, and one on the pooled test projects (project None)
    under approach 1."""
    if not report_path.exists():
        raise MissingStage(f"{report_path.name} not found in {report_path.parent}")
    with _parsing(report_path):
        report = json.loads(report_path.read_text(encoding="utf-8"))
        if not isinstance(report, dict):
            raise ValueError("it is not a JSON object")
        if report.get("approach") == 2:
            reports = [(project, name, rep) for project, entry in sorted(report.get("projects", {}).items())
                       for name, rep in sorted(entry.items()) if rep is not None]
        else:
            reports = [(None, name, entry["report"]) for name, entry in sorted(report.get("classifiers", {}).items())]
        return [(project, name, rep["perClass"]["ugly"]["precision"], rep["perClass"]["ugly"]["recall"])
                for project, name, rep in reports]


def emit_plot_data(artifacts: str | Path) -> list[Path]:
    """Plot-ready CDF files, columns exactly (series, x, y), in the
    `plots` directory of `artifacts`."""
    artifacts = Path(artifacts)
    plots = artifacts / "plots"
    plots.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    sources = [
        ("pareto.csv", "pareto", "pareto_cdf.csv"),
        ("bugs_high_recall.csv", "bugs-high-recall", "bugs_high_recall_cdf.csv"),
        ("bugs_high_precision.csv", "bugs-high-precision", "bugs_high_precision_cdf.csv"),
    ]
    for source, prefix, target in sources:
        src = artifacts / source
        if not src.exists():
            raise MissingStage(f"{source} not found in {artifacts}")
        with _parsing(src):
            rows = _curve_cdf_rows(src, prefix)
        path = plots / target
        write_csv(path, ["series", "x", "y"], rows)
        written.append(path)

    per_classifier: dict[str, dict[str, list[float]]] = {}
    for _, name, precision, recall in ugly_points(artifacts / "report.json"):
        slot = per_classifier.setdefault(name, {"precision": [], "recall": []})
        for key, value in (("precision", precision), ("recall", recall)):
            if value is not None and not math.isnan(value):
                slot[key].append(value)
    rows = []
    for name in sorted(per_classifier):
        for key in ("precision", "recall"):
            rows.extend(_cdf_points(f"{key}-ugly-{name}", per_classifier[name][key]))
    path = plots / "prediction_pr_cdf.csv"
    write_csv(path, ["series", "x", "y"], rows)
    written.append(path)
    return written
