"""Change-proneness labels, Pareto concentration curves, and the
high-recall / high-precision bug-commit rules."""

from __future__ import annotations

import logging
import math
import re
from dataclasses import dataclass
from itertools import accumulate

from .history import ChangeIndicators, INDICATOR_NAMES, MethodHistory, MethodIdentity
from .metrics import MetricVector

log = logging.getLogger("methodlens.labeling")

DEFAULT_FRACTIONS = (0.05, 0.10, 0.15, 0.20)


class EmptyProject(Exception):
    pass


@dataclass(frozen=True)
class BugRuleConfig:
    """Stem lists matched against lowercased commit messages; the pipeline
    configuration checks that they are non-empty and lowercase."""

    highRecallKeywords: tuple[str, ...] = (
        "error", "bug", "fix", "issue", "mistake", "incorrect", "fault", "defect", "flaw",
    )
    highPrecisionBugWords: tuple[str, ...] = (
        "error", "bug", "mistake", "incorrect", "fault", "defect", "flaw", "misfeature",
    )
    highPrecisionFixWords: tuple[str, ...] = ("fix", "address", "resolve")


@dataclass(frozen=True)
class ParetoCurve:
    fractions: tuple[float, ...]
    captured: tuple[float, ...]


@dataclass
class LabeledMethod:
    identity: MethodIdentity
    metrics: MetricVector
    indicators: ChangeIndicators
    label: str
    bugCountHighRecall: int = 0
    bugCountHighPrecision: int = 0


def _fraction_cutoff(fraction: float, n: int) -> int:
    # float-safe ceil: 0.2 * 10 must stay at 2, not tip over to 3
    return min(n, math.ceil(fraction * n - 1e-9))


def _capture_curve(values: list, fractions, zero_warning: str) -> ParetoCurve:
    """captured(p): share of sum(values) held by the first ceil(p*n) of the
    ranked values; all NaN, with `zero_warning` logged, when the sum is not
    positive."""
    total = sum(values)
    if total <= 0:
        log.warning(zero_warning)
        return ParetoCurve(tuple(fractions), tuple(float("nan") for _ in fractions))
    prefix = [0, *accumulate(values)]
    n = len(values)
    return ParetoCurve(tuple(fractions), tuple(prefix[_fraction_cutoff(p, n)] / total for p in fractions))


def label_methods(samples, indicator: str = "editDistance", ugly_fraction: float = 0.2) -> dict[str, str]:
    """Labels keyed by identity string.

    good = zero in-window revisions; ugly = the floor(fraction*n) most
    change-prone of the rest (positive indicator required); bad = remainder.
    """
    samples = list(samples)
    if not samples:
        raise EmptyProject("no methods to label")
    if indicator not in INDICATOR_NAMES:
        raise ValueError(f"unknown indicator {indicator!r}")
    n = len(samples)
    k = int(math.floor(ugly_fraction * n + 1e-9))  # float-safe floor
    labels: dict[str, str] = {}
    changed = []
    for s in samples:
        key = s.identity.as_str()
        if s.indicators.revisions == 0:
            labels[key] = "good"
        else:
            labels[key] = "bad"
            changed.append(s)
    eligible = [s for s in changed if s.indicators.value(indicator) > 0]
    eligible.sort(key=lambda s: (-s.indicators.value(indicator), -s.indicators.revisions, s.identity.as_str()))
    for s in eligible[:k]:
        labels[s.identity.as_str()] = "ugly"
    return labels


def pareto_curve(samples, indicator: str = "editDistance", fractions=DEFAULT_FRACTIONS) -> ParetoCurve:
    """captured(p): share of the total indicator mass held by the top
    ceil(p*n) methods ranked by that indicator."""
    values = sorted((s.indicators.value(indicator) for s in samples), reverse=True)
    return _capture_curve(values, fractions, f"total {indicator} is zero; Pareto curve undefined")


_WORD_SPLIT = re.compile(r"[^a-z0-9]+")


def _word_tokens(message: str) -> list[str]:
    return [w for w in _WORD_SPLIT.split(message.lower()) if w]


def _stem_hit(tokens: list[str], words) -> bool:
    return any(tok.startswith(w) for tok in tokens for w in words)


def classify_commit_high_recall(message: str, cfg: BugRuleConfig | None = None) -> bool:
    cfg = cfg or BugRuleConfig()
    return _stem_hit(_word_tokens(message), cfg.highRecallKeywords)


def classify_commit_high_precision(
    message: str, methods_touched: int, cfg: BugRuleConfig | None = None
) -> bool:
    """A bug word and a fix word, in a commit that revises exactly one
    traced method."""
    if methods_touched != 1:
        return False
    cfg = cfg or BugRuleConfig()
    tokens = _word_tokens(message)
    return _stem_hit(tokens, cfg.highPrecisionBugWords) and _stem_hit(tokens, cfg.highPrecisionFixWords)


def methods_touched_per_commit(histories: list[MethodHistory]) -> dict[str, int]:
    """Distinct traced methods revised at each commit (lifetime revisions:
    tangledness is a property of the commit itself)."""
    touched: dict[str, set[str]] = {}
    for h in histories:
        for r in h.revisions:
            touched.setdefault(r.commit.id, set()).add(h.identity.as_str())
    return {cid: len(ids) for cid, ids in touched.items()}


def bug_counts(
    histories: list[MethodHistory],
    cfg: BugRuleConfig,
    window_days: float,
) -> dict[str, tuple[int, int]]:
    """Per-method (highRecall, highPrecision) counts over in-window revisions."""
    touched = methods_touched_per_commit(histories)
    counts: dict[str, tuple[int, int]] = {}
    for h in histories:
        high_recall = 0
        high_precision = 0
        for r in h.revisions:
            if r.daysSinceIntroduction > window_days:
                continue
            if classify_commit_high_recall(r.commit.message, cfg):
                high_recall += 1
            if classify_commit_high_precision(r.commit.message, touched[r.commit.id], cfg):
                high_precision += 1
        counts[h.identity.as_str()] = (high_recall, high_precision)
    return counts


def bug_capture(
    labeled: list[LabeledMethod],
    indicator: str = "editDistance",
    fractions=DEFAULT_FRACTIONS,
    dataset: str = "highPrecision",
) -> ParetoCurve:
    """Share of total bugs captured by the top change-ranked methods."""
    if dataset not in ("highRecall", "highPrecision"):
        raise ValueError(f"unknown bug dataset {dataset!r}")
    attr = "bugCountHighRecall" if dataset == "highRecall" else "bugCountHighPrecision"
    ranked = sorted(
        labeled,
        key=lambda m: (-m.indicators.value(indicator), m.identity.as_str()),
    )
    bugs = [getattr(m, attr) for m in ranked]
    return _capture_curve(bugs, fractions, f"total {dataset} bug count is zero; capture curve undefined")
