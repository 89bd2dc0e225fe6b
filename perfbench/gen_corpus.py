"""Seeded multi-project corpus for the analysis stages.

Writes a merged `dataset.ndjson` (one label-stage header per project, as
concatenating per-project pipeline outputs gives) and the matching
`histories.ndjson` that the rank stage reads. Metric vectors are noisy and
the classes overlap; every project has the same number of good, bad and
ugly methods.

Labels and metric vectors come from a random stream fixed by the size, not
by the seed: how long the classifiers train depends on the data (tree
sizes, when gradient descent converges), by up to 1.45x between seeds, and
this keeps it the same under every seed. The seed draws the change
indicators, bug counts, introduction times and histories.

This module does not import methodlens, so the corpus stays byte-identical
when the label stage changes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

SNAPSHOT_TIME = 1577880000  # 2020-01-01T12:00:00Z
DAY = 86400
LABEL_SHARES = (("good", 0.4), ("bad", 0.4), ("ugly", 0.2))
_FIX_WORDS = ("Fix off-by-one bug in", "Fix incorrect bound in", "Resolve fault in")
_OTHER_WORDS = ("Refine", "Extend", "Tune", "Rework")


def _line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _header(stage: str, project: str, **extra) -> dict:
    return {
        "schemaVersion": 1, "stage": stage, "toolVersion": "0.1.0",
        "inputDigests": {"params": f"bench-corpus-{project}"}, **extra,
    }


def _metrics(rng: random.Random, shift: float) -> dict:
    """Metric vector around a latent size; `shift` moves change-prone
    methods towards larger, more complex code, with heavy overlap."""
    z = rng.gauss(shift, 1.0)
    size = max(3, round(math.exp(2.4 + 0.45 * z + rng.gauss(0, 0.35))))
    mccabe = max(1, round(size / 6 + rng.gauss(0, 1.5)))
    halstead = max(4, round(size * (5.5 + rng.gauss(0, 1.2))))
    nvar = max(0, round(mccabe / 2 + rng.gauss(0, 1)))
    return {
        "size": size,
        "mccabe": mccabe,
        "nvar": nvar,
        "ncomp": max(0, mccabe - 1 + round(rng.gauss(0, 1))),
        "indentStd": round(abs(rng.gauss(2.0 + 0.3 * z, 1.0)), 6),
        "maxBlockDepth": max(0, round(1 + 0.6 * z + rng.gauss(0, 0.8))),
        "fanout": max(0, round(size / 4 + rng.gauss(0, 2))),
        "halsteadLength": halstead,
        "maintainabilityIndex": round(171 - 5.2 * math.log(halstead * 4) - 0.23 * mccabe
                                      - 16.2 * math.log(size), 6),
        "readability": round(1 / (1 + math.exp(0.4 * z + rng.gauss(0, 0.8))), 6),
        "simpleReadability": round(1 / (1 + math.exp(0.3 * z + rng.gauss(0, 0.8))), 6),
        "parameters": rng.randint(0, 4),
        "variables": max(0, round(size / 5 + rng.gauss(0, 1.5))),
        "commentRatio": round(max(0.0, min(1.0, rng.gauss(0.15, 0.1))), 6),
        "getterSetter": size <= 4 and rng.random() < 0.5,
        "isPublic": rng.random() < 0.6,
        "isStatic": rng.random() < 0.2,
    }


def generate(projects: int, methods_per_project: int, seed: int, dest: Path) -> tuple[Path, Path]:
    """Write dest/dataset.ndjson and dest/histories.ndjson; returns both paths."""
    rng = random.Random(seed)
    fixed = random.Random(f"corpus-{projects}x{methods_per_project}")
    dest.mkdir(parents=True, exist_ok=True)
    dataset_lines, history_lines = [], []
    for p in range(projects):
        project = f"proj{p:02d}"
        dataset_lines.append(_line(_header("label", project, indicator="editDistance",
                                           uglyFraction=0.2, snapshotTime=SNAPSHOT_TIME)))
        history_lines.append(_line(_header("trace", project, snapshot=f"{p:040x}",
                                           snapshotTime=SNAPSHOT_TIME, windowYears=5.0, theta=0.75)))
        counts = [round(share * methods_per_project) for _, share in LABEL_SHARES]
        labels = [label for (label, _), c in zip(LABEL_SHARES, counts) for _ in range(c)]
        fixed.shuffle(labels)
        records = []
        for i, label in enumerate(labels):
            identity = {
                "project": project, "file": f"src/{project}/F{i // 10:03d}.java",
                "signature": f"F{i // 10:03d}#m{i:04d}()", "startLine": 1 + 12 * (i % 10),
            }
            shift = {"good": -0.5, "bad": 0.0, "ugly": 0.7}[label]
            revisions = 0 if label == "good" else rng.randint(1, 4) + (6 if label == "ugly" else 0)
            edit = 0 if label == "good" else revisions * rng.randint(20, 60) + (400 if label == "ugly" else 0)
            diff = 0 if label == "good" else revisions * rng.randint(2, 6)
            intro_time = SNAPSHOT_TIME - rng.randint(1900, 3600) * DAY
            bugs_recall = 0 if label == "good" else rng.randint(0, revisions // 2)
            bugs_precision = min(bugs_recall, rng.randint(0, 1))
            records.append((identity, {
                "identity": identity, "label": label, "metrics": _metrics(fixed, shift),
                "indicators": {"revisions": revisions, "diffSize": diff,
                               "additionOnly": diff // 2, "editDistance": edit},
                "bugCountHighRecall": bugs_recall, "bugCountHighPrecision": bugs_precision,
                "introTime": intro_time, "ageDays": (SNAPSHOT_TIME - intro_time) / DAY,
            }))
        records.sort(key=lambda r: (r[0]["file"], r[0]["startLine"], r[0]["signature"]))
        for identity, record in records:
            dataset_lines.append(_line(record))
            history_lines.append(_line(_history(rng, identity, record)))
    dataset = dest / "dataset.ndjson"
    histories = dest / "histories.ndjson"
    dataset.write_text("\n".join(dataset_lines) + "\n", encoding="utf-8")
    histories.write_text("\n".join(history_lines) + "\n", encoding="utf-8")
    return dataset, histories


def _history(rng: random.Random, identity: dict, record: dict) -> dict:
    intro = record["introTime"]
    revisions = []
    for r in range(record["indicators"]["revisions"]):
        when = intro + (r + 1) * rng.randint(20, 90) * DAY
        words = _FIX_WORDS if r < record["bugCountHighRecall"] else _OTHER_WORDS
        revisions.append({"commit": f"{rng.getrandbits(160):040x}", "time": when,
                          "message": f"{rng.choice(words)} {identity['signature']}"})
    return {
        "identity": identity,
        "introduction": {
            "commit": f"{rng.getrandbits(160):040x}", "time": intro, "path": identity["file"],
            "method": {"body": f"void m{identity['startLine']}() {{ /* size {record['metrics']['size']} */ }}"},
        },
        "revisions": revisions,
        "indicators": record["indicators"],
    }
