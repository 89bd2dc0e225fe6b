"""Scripted construction of the 12-commit fixture repository.

The script is the source of truth: it composes every file from per-method
text blocks, drives git with fixed author dates, and derives the expected
tracer output (revisions, diff stats, edit distances, windows, bug counts,
labels) from the same blocks using the test-suite oracles — never from the
production code under test.
"""

from __future__ import annotations

import math
import os
import subprocess
from datetime import datetime, timezone
from pathlib import Path

from oracles import lcs_line_diff, levenshtein_full_matrix

WINDOW_DAYS = 365.25 * 5

COMMIT_DATES = {
    "c01": "2015-01-10T12:00:00+00:00",
    "c02": "2015-03-01T12:00:00+00:00",
    "c03": "2015-06-15T12:00:00+00:00",
    "c04": "2015-09-20T12:00:00+00:00",
    "c05": "2016-02-05T12:00:00+00:00",
    "c06": "2016-07-11T12:00:00+00:00",
    "c07": "2017-01-15T12:00:00+00:00",
    "c08": "2017-05-02T12:00:00+00:00",
    "s1": "2018-01-05T12:00:00+00:00",
    "c10": "2018-06-10T12:00:00+00:00",
    "c11": "2020-06-01T12:00:00+00:00",
}

MESSAGES = {
    "c01": "Initial import of core sources",
    "c02": "Add logging utilities",
    "c03": "Refine alpha scaling",
    "c04": "Clarify helper docs",
    "c05": "Rename alpha to alphaScaled and widen range",
    "c06": "Fix incorrect rounding in compute",
    "c07": "Move Alpha into core package",
    "c08": "Rename omega to omegaPrime",
    "c09": "fix overflow bug in edge cases",
    "s1": "Rework logOne formatting",
    "c10": "Merge branch 'side'",
    "c11": "Extend fragile parsing and add youngster",
}
COMMIT_DATES["c09"] = "2017-11-23T12:00:00+00:00"

# --- method text versions (indentation matches the enclosing class body) ---

ALPHA_V1 = """\
    public int alpha(int value) {
        return value + 7;
    }"""

ALPHA_V2 = """\
    public int alpha(int value) {
        int scaled = value * 4;
        int shifted = scaled + 9;
        int bounded = Math.min(shifted, 9999);
        return bounded - value;
    }"""

ALPHA_V3 = """\
    public int alphaScaled(int value) {
        int scaled = value * 4;
        int shifted = scaled + 9;
        int bounded = Math.min(shifted, 99999);
        return bounded - value;
    }"""

STABLE_V1 = """\
    public String stable() {
        return "anchor";
    }"""

FRAGILE_V1 = """\
    public int fragile(int input) {
        return input + 1;
    }"""

FRAGILE_V2 = """\
    public int fragile(int input) {
        if (input < 0) {
            throw new IllegalArgumentException("negative input " + input);
        }
        int total = 0;
        for (int i = 0; i < input; i++) {
            total += i * input;
        }
        return total + 1;
    }"""

FRAGILE_V3 = """\
    public int fragile(int input) {
        if (input < 0) {
            throw new IllegalArgumentException("negative input " + input);
        }
        if (input == 0) {
            return 1;
        }
        int total = 0;
        for (int i = 0; i < input; i++) {
            total += i * input;
        }
        return total + 1;
    }"""

HELPER_V1 = """\
    public int helper() {
        return 42;
    }"""

HELPER_V2 = """\
    public int helper() {
        // answer
        return 42;
    }"""

COMPUTE_V1 = """\
    public int compute(int amount) {
        int half = amount / 2;
        return half + amount % 2;
    }"""

COMPUTE_V2 = """\
    public int compute(int amount) {
        int half = (amount + 1) / 2;
        return half;
    }"""

TANGLE_A_V1 = """\
    public int tangleA() {
        return counterA;
    }"""

TANGLE_A_V2 = """\
    public int tangleA() {
        return counterA + offset;
    }"""

TANGLE_B_V1 = """\
    public int tangleB() {
        return counterB;
    }"""

TANGLE_B_V2 = """\
    public int tangleB() {
        return counterB - offset;
    }"""

OMEGA_V1 = """\
    public double omega() {
        double base = Math.sqrt(49.0);
        return base * 2.0 + 1.5;
    }"""

OMEGA_V2 = """\
    public double omegaPrime() {
        double base = Math.sqrt(49.0);
        return base * 2.0 + 1.5;
    }"""

YOUNGSTER_V1 = """\
    public int youngster() {
        return 2020;
    }"""

LOG_ONE_V1 = """\
    public String logOne(String message) {
        return "[log] " + message;
    }"""

LOG_ONE_V2 = """\
    public String logOne(String message) {
        String prefix = "[log] ";
        return prefix + message.trim();
    }"""

LOG_TWO_V1 = """\
    public String logTwo() {
        return "[log2]";
    }"""


def _java_file(class_name: str, methods: list[str], fields: list[str] = ()) -> str:
    parts = ["package demo;", "", f"public class {class_name} {{"]
    for f in fields:
        parts.append(f"    {f}")
    if fields:
        parts.append("")
    parts.append("\n\n".join(methods))
    parts.append("}")
    return "\n".join(parts) + "\n"


def _alpha_file(alpha, fragile, helper):
    return _java_file("Alpha", [alpha, STABLE_V1, fragile, helper])


def _util_file(compute, tangle_a, tangle_b, omega, youngster=None):
    methods = [compute, tangle_a, tangle_b, omega]
    if youngster:
        methods.append(youngster)
    return _java_file("Util", methods, fields=["private int counterA;", "private int counterB;", "private int offset;"])


def _logging_file(log_one):
    return _java_file("Logging", [log_one, LOG_TWO_V1])


# version timelines per snapshot-signature method: (introduced-at-tag, text)
VERSION_TIMELINES = {
    "Alpha#alphaScaled(int)": [("c01", ALPHA_V1), ("c03", ALPHA_V2), ("c05", ALPHA_V3)],
    "Alpha#stable()": [("c01", STABLE_V1)],
    "Alpha#fragile(int)": [("c01", FRAGILE_V1), ("c09", FRAGILE_V2), ("c11", FRAGILE_V3)],
    "Alpha#helper()": [("c01", HELPER_V1), ("c04", HELPER_V2)],
    "Util#compute(int)": [("c01", COMPUTE_V1), ("c06", COMPUTE_V2)],
    "Util#tangleA()": [("c01", TANGLE_A_V1), ("c09", TANGLE_A_V2)],
    "Util#tangleB()": [("c01", TANGLE_B_V1), ("c09", TANGLE_B_V2)],
    "Util#omegaPrime()": [("c01", OMEGA_V1), ("c08", OMEGA_V2)],
    "Util#youngster()": [("c11", YOUNGSTER_V1)],
    "Logging#logOne(String)": [("c02", LOG_ONE_V1), ("c10", LOG_ONE_V2)],
    "Logging#logTwo()": [("c02", LOG_TWO_V1)],
}

SNAPSHOT_FILES = {
    "Alpha#alphaScaled(int)": "src/core/Alpha.java",
    "Alpha#stable()": "src/core/Alpha.java",
    "Alpha#fragile(int)": "src/core/Alpha.java",
    "Alpha#helper()": "src/core/Alpha.java",
    "Util#compute(int)": "src/Util.java",
    "Util#tangleA()": "src/Util.java",
    "Util#tangleB()": "src/Util.java",
    "Util#omegaPrime()": "src/Util.java",
    "Util#youngster()": "src/Util.java",
    "Logging#logOne(String)": "src/Logging.java",
    "Logging#logTwo()": "src/Logging.java",
}

# commits whose messages qualify under the bug rules, with the number of
# methods a qualifying commit touches
BUG_COMMITS = {
    "c06": {"highRecall": True, "methodsTouched": 1},
    "c09": {"highRecall": True, "methodsTouched": 3},
}


def _epoch(tag: str) -> int:
    return int(datetime.fromisoformat(COMMIT_DATES[tag]).timestamp())


def _git_env(tag: str) -> dict:
    date = COMMIT_DATES[tag]
    env = dict(os.environ)
    env.update(
        GIT_AUTHOR_NAME="Fixture Author",
        GIT_AUTHOR_EMAIL="fixture@example.com",
        GIT_COMMITTER_NAME="Fixture Author",
        GIT_COMMITTER_EMAIL="fixture@example.com",
        GIT_AUTHOR_DATE=date,
        GIT_COMMITTER_DATE=date,
    )
    return env


def _git(repo: Path, *args, tag: str = "c01") -> str:
    proc = subprocess.run(
        ["git", "-C", str(repo), *args],
        check=True, capture_output=True, env=_git_env(tag),
    )
    return proc.stdout.decode().strip()


def build_fixture_repo(root: Path) -> dict:
    """Create the repository and return the expectation ledger."""
    repo = root / "fixture-repo"
    repo.mkdir(parents=True)
    (repo / "src").mkdir()
    _git(repo, "init", "-q", "-b", "main")
    shas: dict[str, str] = {}

    def write(path: str, content: str) -> None:
        target = repo / path
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(content, encoding="utf-8")

    def commit(tag: str) -> None:
        _git(repo, "add", "-A", tag=tag)
        _git(repo, "commit", "-q", "-m", MESSAGES[tag], tag=tag)
        shas[tag] = _git(repo, "rev-parse", "HEAD", tag=tag)

    # c01: Alpha + Util
    write("src/Alpha.java", _alpha_file(ALPHA_V1, FRAGILE_V1, HELPER_V1))
    write("src/Util.java", _util_file(COMPUTE_V1, TANGLE_A_V1, TANGLE_B_V1, OMEGA_V1))
    commit("c01")
    # c02: Logging
    write("src/Logging.java", _logging_file(LOG_ONE_V1))
    commit("c02")
    # c03: alpha rewritten
    write("src/Alpha.java", _alpha_file(ALPHA_V2, FRAGILE_V1, HELPER_V1))
    commit("c03")
    # c04: comment-only edit to helper
    write("src/Alpha.java", _alpha_file(ALPHA_V2, FRAGILE_V1, HELPER_V2))
    commit("c04")
    # c05: method rename alpha -> alphaScaled plus a one-character edit
    write("src/Alpha.java", _alpha_file(ALPHA_V3, FRAGILE_V1, HELPER_V2))
    commit("c05")
    # c06: single-method bug fix in compute
    write("src/Util.java", _util_file(COMPUTE_V2, TANGLE_A_V1, TANGLE_B_V1, OMEGA_V1))
    commit("c06")
    # c07: pure file move (no content change)
    (repo / "src/core").mkdir()
    _git(repo, "mv", "src/Alpha.java", "src/core/Alpha.java", tag="c07")
    commit("c07")
    # c08: pure method rename omega -> omegaPrime
    write("src/Util.java", _util_file(COMPUTE_V2, TANGLE_A_V1, TANGLE_B_V1, OMEGA_V2))
    commit("c08")
    # c09: tangled bug-fix commit touching three methods
    write("src/core/Alpha.java", _alpha_file(ALPHA_V3, FRAGILE_V2, HELPER_V2))
    write("src/Util.java", _util_file(COMPUTE_V2, TANGLE_A_V2, TANGLE_B_V2, OMEGA_V2))
    commit("c09")
    # side branch + merge (the merge is the only mainline commit carrying the
    # logOne change, so first-parent traversal sees it at the merge)
    _git(repo, "checkout", "-q", "-b", "side", tag="s1")
    write("src/Logging.java", _logging_file(LOG_ONE_V2))
    commit("s1")
    _git(repo, "checkout", "-q", "main", tag="c10")
    _git(repo, "merge", "-q", "--no-ff", "-m", MESSAGES["c10"], "side", tag="c10")
    shas["c10"] = _git(repo, "rev-parse", "HEAD", tag="c10")
    # c11 (snapshot): out-of-window fragile edit + brand-new method
    write("src/core/Alpha.java", _alpha_file(ALPHA_V3, FRAGILE_V3, HELPER_V2))
    write("src/Util.java", _util_file(COMPUTE_V2, TANGLE_A_V2, TANGLE_B_V2, OMEGA_V2, YOUNGSTER_V1))
    commit("c11")

    return {
        "repo": repo,
        "shas": shas,
        "snapshot": shas["c11"],
        "snapshot_time": _epoch("c11"),
        "total_commits": 12,
        "first_parent_length": 11,
        "merge_commit": shas["c10"],
        "methods": _expected_methods(shas),
        "eligible": sorted(
            sig for sig, exp in _expected_methods(shas).items() if exp["eligible"]
        ),
        "labels": _expected_labels(_expected_methods(shas)),
    }


def _expected_methods(shas: dict[str, str]) -> dict:
    out = {}
    for sig, timeline in VERSION_TIMELINES.items():
        intro_tag = timeline[0][0]
        intro_time = _epoch(intro_tag)
        revisions = []
        for (_, before), (tag, after) in zip(timeline, timeline[1:]):
            added, deleted = lcs_line_diff(before, after)
            days = (_epoch(tag) - intro_time) / 86400.0
            revisions.append({
                "commit": shas[tag],
                "tag": tag,
                "added": added,
                "deleted": deleted,
                "edit": levenshtein_full_matrix(before, after),
                "days": days,
                "in_window": days <= WINDOW_DAYS,
                "message": MESSAGES[tag],
            })
        in_window = [r for r in revisions if r["in_window"]]
        bugs_hr = sum(1 for r in in_window if BUG_COMMITS.get(r["tag"], {}).get("highRecall"))
        bugs_hp = sum(
            1 for r in in_window
            if BUG_COMMITS.get(r["tag"], {}).get("highRecall")
            and BUG_COMMITS[r["tag"]]["methodsTouched"] == 1
        )
        age_days = (_epoch("c11") - intro_time) / 86400.0
        out[sig] = {
            "file": SNAPSHOT_FILES[sig],
            "introduction": shas[intro_tag],
            "introduction_tag": intro_tag,
            "revisions": revisions,
            "window": {
                "revisions": len(in_window),
                "diffSize": sum(r["added"] + r["deleted"] for r in in_window),
                "additionOnly": sum(r["added"] for r in in_window),
                "editDistance": sum(r["edit"] for r in in_window),
            },
            "bugs": (bugs_hr, bugs_hp),
            "eligible": age_days >= WINDOW_DAYS,
        }
    return out


def _expected_labels(methods: dict) -> dict[str, str]:
    """Good/bad/ugly per the documented rule, derived from the ledger's own
    numbers."""
    eligible = {sig: exp for sig, exp in methods.items() if exp["eligible"]}
    labels = {}
    changed = []
    for sig, exp in eligible.items():
        if exp["window"]["revisions"] == 0:
            labels[sig] = "good"
        else:
            labels[sig] = "bad"
            changed.append(sig)
    k = int(math.floor(0.2 * len(eligible) + 1e-9))
    ranked = sorted(
        (sig for sig in changed if eligible[sig]["window"]["editDistance"] > 0),
        key=lambda sig: (
            -eligible[sig]["window"]["editDistance"],
            -eligible[sig]["window"]["revisions"],
            sig,
        ),
    )
    for sig in ranked[:k]:
        labels[sig] = "ugly"
    return labels


# --- small histories for the repository layer --------------------------------


def commit_files(repo: Path, tag: str, message: str, files: dict[str, str | None]) -> str:
    """Write (or, for None, delete) the given files, commit everything with
    the date of `tag` and return the commit sha."""
    for path, content in files.items():
        target = repo / path
        if content is None:
            target.unlink()
            continue
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content.encode("utf-8"))
    _git(repo, "add", "-A", tag=tag)
    _git(repo, "commit", "-q", "--allow-empty", "-m", message, tag=tag)
    return _git(repo, "rev-parse", "HEAD", tag=tag)


def init_repo(root: Path, name: str) -> Path:
    repo = root / name
    repo.mkdir(parents=True)
    _git(repo, "init", "-q", "-b", "main")
    _git(repo, "config", "core.autocrlf", "false")
    return repo


def build_layout_repo(root: Path) -> dict:
    """File-level events for the bulk history reader: the root commit, a
    rename in place with an edit, a move to another directory next to a
    deletion, an empty commit, a side branch merged back, a CRLF file and a
    path with a space and a non-ASCII letter."""
    repo = init_repo(root, "layout-repo")
    shas = {}
    alpha = _java_file("Alpha", [ALPHA_V2, STABLE_V1, FRAGILE_V2])
    shas["c01"] = commit_files(repo, "c01", "root", {
        "src/Alpha.java": alpha,
        "src/Crlf.java": _java_file("Crlf", [HELPER_V1]).replace("\n", "\r\n"),
        "docs/notes.txt": "notes\n",
    })
    shas["c02"] = commit_files(repo, "c02", "rename Alpha to Beta", {
        "src/Alpha.java": None,
        "src/Beta.java": alpha.replace("class Alpha", "class Beta").replace("9999", "8888"),
    })
    shas["c03"] = commit_files(repo, "c03", "move Crlf, drop notes", {
        "src/Crlf.java": None,
        "lib/Crlf.java": _java_file("Crlf", [HELPER_V2]).replace("\n", "\r\n"),
        "docs/notes.txt": None,
    })
    shas["c04"] = commit_files(repo, "c04", "nothing", {})
    _git(repo, "checkout", "-q", "-b", "side", tag="s1")
    shas["s1"] = commit_files(repo, "s1", "side work", {
        "src/Side.java": _java_file("Side", [LOG_TWO_V1]),
        "src/Beta.java": alpha.replace("class Alpha", "class Beta").replace("9999", "7777"),
    })
    _git(repo, "checkout", "-q", "main", tag="c10")
    shas["c05"] = commit_files(repo, "c05", "main work", {"src/sp ace é.java": _java_file("Space", [STABLE_V1])})
    _git(repo, "merge", "-q", "--no-ff", "-m", "Merge branch 'side'", "side", tag="c10")
    shas["c10"] = _git(repo, "rev-parse", "HEAD", tag="c10")
    shas["c11"] = commit_files(repo, "c11", "edit the CRLF file", {
        "lib/Crlf.java": _java_file("Crlf", [HELPER_V2, LOG_TWO_V1]).replace("\n", "\r\n"),
    })
    return {"repo": repo, "shas": shas, "snapshot": shas["c11"]}
