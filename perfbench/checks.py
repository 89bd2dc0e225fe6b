"""Checks of the pipeline's stage outputs, written against the artifact
format and independent of methodlens.

Each check raises CheckFailed with the reason; the benchmark counts the job
as failed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

WINDOW_DAYS = 5 * 365.25
STAGE_FILES = {
    "extract": ("methods.ndjson",),
    "trace": ("histories.ndjson",),
    "label": ("dataset.ndjson",),
    "pareto": ("pareto.csv",),
    "bugs": ("bugs_high_recall.csv", "bugs_high_precision.csv"),
    "correlate": ("correlations.csv",),
    "rank": ("surprisingly_good.ndjson", "surprisingly_ugly.ndjson"),
    "train": ("report.json",),
}
CURVE_COLUMNS = ["project", "fraction", "captured"]
FRACTIONS = 4
METRICS = 17
TOP_N = 50


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def read_ndjson(path: Path, stage: str) -> tuple[dict, list[dict]]:
    """Header and records; interior headers of merged files are dropped."""
    require(path.is_file(), f"{path.name} is missing")
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]
    require(bool(lines), f"{path.name} is empty")
    header = lines[0]
    for key in ("schemaVersion", "stage", "toolVersion", "inputDigests"):
        require(key in header, f"{path.name} header lacks {key}")
    require(header["stage"] == stage, f"{path.name} header names stage {header['stage']!r}")
    records = [r for r in lines[1:] if not ("schemaVersion" in r and "stage" in r)]
    return header, records


def read_curve(path: Path, columns: list[str]) -> list[list[str]]:
    require(path.is_file(), f"{path.name} is missing")
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows) and rows[0] == columns, f"{path.name} header is {rows[:1]}")
    return rows[1:]


def check_analysis(out: Path, projects: int, dataset_records: list[dict]) -> None:
    """pareto, bugs, correlate and rank outputs of one dataset."""
    for name in ("pareto.csv", "bugs_high_recall.csv", "bugs_high_precision.csv"):
        rows = read_curve(out / name, CURVE_COLUMNS)
        require(len(rows) == FRACTIONS * projects, f"{name} has {len(rows)} rows")
    rows = read_curve(out / "correlations.csv", ["metric", "tau", "p", "n"])
    require(len(rows) == METRICS, f"correlations.csv has {len(rows)} rows")
    require(all(int(r[3]) == len(dataset_records) for r in rows), "correlations.csv n differs from the dataset")
    check_rank(out)


def check_rank(out: Path) -> None:
    for name, label in (("surprisingly_good.ndjson", "good"), ("surprisingly_ugly.ndjson", "ugly")):
        _, records = read_ndjson(out / name, "rank")
        require(len(records) <= TOP_N, f"{name} has {len(records)} records")
        require(all(r["label"] == label for r in records), f"{name} holds a method not labelled {label}")


def check_report(path: Path, approach: int, projects: int) -> None:
    require(path.is_file(), f"{path.name} is missing")
    report = json.loads(path.read_text(encoding="utf-8"))
    require(report.get("stageRecord", {}).get("stage") == "train", "report.json lacks its stage record")
    if projects < 3:
        require(report.get("status") == "not-trainable", "single-project report is not 'not-trainable'")
        return
    require(report.get("approach") == approach, f"report.json is for approach {report.get('approach')}")
    if approach == 1:
        require(sorted(report["classifiers"]) == ["forest", "logistic", "tree"], "report.json lacks classifiers")
    else:
        require(len(report["projects"]) == projects, "report.json lacks held-out projects")


def check_pipeline(out: Path, methods: int, indicator: str) -> list[dict]:
    """All eight stage outputs of a single-project run; returns the histories."""
    for stage, names in STAGE_FILES.items():
        for name in names:
            require((out / name).is_file(), f"stage {stage}: {name} is missing")
    _, method_records = read_ndjson(out / "methods.ndjson", "extract")
    require(len(method_records) == methods, f"methods.ndjson has {len(method_records)} of {methods} methods")
    header, histories = read_ndjson(out / "histories.ndjson", "trace")
    require(len(histories) == methods, f"histories.ndjson has {len(histories)} of {methods} methods")
    snapshot_time = header["snapshotTime"]
    eligible = sum(
        1 for h in histories if (snapshot_time - h["introduction"]["time"]) / 86400.0 >= WINDOW_DAYS
    )
    header, dataset = read_ndjson(out / "dataset.ndjson", "label")
    require(header.get("indicator") == indicator, f"dataset.ndjson is labelled by {header.get('indicator')}")
    require(len(dataset) == eligible, f"dataset.ndjson has {len(dataset)} of {eligible} eligible methods")
    check_analysis(out, 1, dataset)
    check_report(out / "report.json", 1, 1)
    return histories


def trace_mismatches(histories: list[dict], ledger: dict[str, dict]) -> int:
    """Snapshot methods whose introduction commit or revision count differs
    from the generator's ground truth."""
    found = {f"{h['identity']['file']}|{h['identity']['signature']}": h for h in histories}
    mismatches = len(set(ledger) ^ set(found))
    for key, truth in ledger.items():
        h = found.get(key)
        if h is not None and (
            h["introduction"]["commit"] != truth["introduction"] or len(h["revisions"]) != truth["revisions"]
        ):
            mismatches += 1
    return mismatches


def digest_dirs(*dirs: Path) -> str:
    """SHA-256 over the names and contents of the files in `dirs`."""
    h = hashlib.sha256()
    for path in dirs:
        for f in sorted(p for p in path.iterdir() if p.is_file()):
            h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()
