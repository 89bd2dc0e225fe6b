"""Rank statistics and composite scoring: tie-corrected Kendall tau with
significance, 0-1 scaling, the per-metric correlation table, and selection of
surprisingly good/ugly methods."""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

from .labeling import LabeledMethod
from .metrics import METRIC_NAMES, NUMERIC_METRIC_NAMES

log = logging.getLogger("methodlens.stats")


@dataclass(frozen=True)
class CorrelationEntry:
    metric: str
    tau: float
    pValue: float
    n: int


@dataclass
class CompositeRanking:
    scores: dict[str, float]  # identity string -> composite score
    ranks: dict[str, int]  # identity string -> 1-based rank, descending score


def _count_discordant(ranks: list[int], size: int) -> int:
    """Pairs (i < j) with ranks[i] > ranks[j], for ranks in 1..size, counted
    with a Fenwick tree of how many earlier ranks fall at or below each."""
    tree = [0] * (size + 1)
    count = 0
    for seen, rank in enumerate(ranks):
        i = rank
        while i:
            count -= tree[i]
            i &= i - 1
        count += seen
        i = rank
        while i <= size:
            tree[i] += 1
            i += i & -i
    return count


def _tie_stats(sorted_values: list) -> tuple[int, int, int, int]:
    """Over runs of equal values: (sum t(t-1)/2, sum t(t-1)(2t+5),
    sum t(t-1), sum t(t-1)(t-2))."""
    pairs = weighted = linear = quadratic = 0
    run = 1
    for i in range(1, len(sorted_values) + 1):
        if i < len(sorted_values) and sorted_values[i] == sorted_values[i - 1]:
            run += 1
            continue
        if run > 1:
            pairs += run * (run - 1) // 2
            weighted += run * (run - 1) * (2 * run + 5)
            linear += run * (run - 1)
            quadratic += run * (run - 1) * (run - 2)
        run = 1
    return pairs, weighted, linear, quadratic


def kendall_tau_b(x, y) -> tuple[float, float]:
    """Tie-corrected tau with a normal-approximation p-value.

    After one sort of the (x, y) pairs, the discordant pairs are the
    inversions of y, counted over y's ranks with a Fenwick tree (O(n log n));
    the denominator is one square root of an integer product so perfectly
    concordant/discordant data yields exactly +/-1.  y must hold no NaN.
    Degenerate input (a constant column) leaves tau undefined: returns
    (nan, 1.0).
    """
    x = list(x)
    y = list(y)
    n = len(x)
    if len(y) != n or n < 2:
        raise ValueError("kendall_tau_b needs two equal-length samples of size >= 2")
    if len(set(x)) <= 1 or len(set(y)) <= 1:
        return float("nan"), 1.0

    pairs = sorted(zip(x, y))
    y_sorted = sorted(y)
    rank = {v: r for r, v in enumerate(dict.fromkeys(y_sorted), 1)}
    xtie, vt, v1t, v2t = _tie_stats([a for a, _ in pairs])
    ytie, vu, v1u, v2u = _tie_stats(y_sorted)
    ntie, _, _, _ = _tie_stats(pairs)
    discordant = _count_discordant([rank[b] for _, b in pairs], len(rank))
    total = n * (n - 1) // 2
    con_minus_dis = total - xtie - ytie + ntie - 2 * discordant
    tau = con_minus_dis / math.sqrt((total - xtie) * (total - ytie))

    v0 = n * (n - 1) * (2 * n + 5)
    variance = (v0 - vt - vu) / 18.0 + (v1t * v1u) / (2.0 * n * (n - 1))
    if n > 2:
        variance += (v2t * v2u) / (9.0 * n * (n - 1) * (n - 2))
    if variance <= 0:
        return tau, 1.0
    z = con_minus_dis / math.sqrt(variance)
    p = math.erfc(abs(z) / math.sqrt(2.0))
    return tau, min(max(p, 0.0), 1.0)


def minmax_scale(values) -> list[float]:
    """(v - min) / (max - min); a constant column maps to all zeros."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("minmax_scale needs a non-empty list")
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0.0] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def correlation_table(
    methods: list[LabeledMethod], indicator: str = "editDistance"
) -> list[CorrelationEntry]:
    """Pooled tau between each of the 17 metrics and the change indicator."""
    if len(methods) < 2:
        raise ValueError("correlation_table needs at least two methods")
    ys = [float(m.indicators.value(indicator)) for m in methods]
    table = []
    for name in METRIC_NAMES:
        xs = [float(getattr(m.metrics, name)) for m in methods]
        tau, p = kendall_tau_b(xs, ys)
        table.append(CorrelationEntry(metric=name, tau=tau, pValue=p, n=len(methods)))
    return table


def signs_from_table(table: list[CorrelationEntry]) -> dict[str, int]:
    """-1 where the pooled correlation is negative, +1 otherwise."""
    return {
        e.metric: (-1 if (not math.isnan(e.tau) and e.tau < 0) else 1)
        for e in table
    }


def composite_scores(methods: list[LabeledMethod], signs: dict[str, int]) -> CompositeRanking:
    """Per-project 0-1 scaling of the 14 numeric metrics, sign-corrected by
    the pooled correlation direction, summed into one score per method."""
    by_project: dict[str, list[LabeledMethod]] = {}
    for m in methods:
        by_project.setdefault(m.identity.project, []).append(m)
    scores: dict[str, float] = {}
    for project_methods in by_project.values():
        keys = [m.identity.as_str() for m in project_methods]
        totals = [0.0] * len(project_methods)
        for name in NUMERIC_METRIC_NAMES:
            scaled = minmax_scale([getattr(m.metrics, name) for m in project_methods])
            sign = signs.get(name, 1)
            for i, v in enumerate(scaled):
                totals[i] += sign * v
        for key, total in zip(keys, totals):
            scores[key] = total
    order = sorted(scores, key=lambda k: (-scores[k], k))
    ranks = {key: i + 1 for i, key in enumerate(order)}
    return CompositeRanking(scores=scores, ranks=ranks)


def select_surprising(
    methods: list[LabeledMethod],
    ranking: CompositeRanking,
    top_n: int = 50,
    per_project_cap: int = 2,
) -> tuple[list[LabeledMethod], list[LabeledMethod]]:
    """(surprisingly good, surprisingly ugly) candidates.

    Good candidates: unchanged methods with the highest composite scores.
    Ugly candidates: top-change-prone methods with the lowest scores.
    Both lists respect the per-project cap and the overall size cap.
    """

    def pick(label: str, reverse_score: bool) -> list[LabeledMethod]:
        pool = [m for m in methods if m.label == label]
        pool.sort(
            key=lambda m: (
                -ranking.scores[m.identity.as_str()] if reverse_score else ranking.scores[m.identity.as_str()],
                m.identity.as_str(),
            )
        )
        taken: list[LabeledMethod] = []
        per_project: dict[str, int] = {}
        for m in pool:
            if len(taken) >= top_n:
                break
            used = per_project.get(m.identity.project, 0)
            if used >= per_project_cap:
                continue
            per_project[m.identity.project] = used + 1
            taken.append(m)
        if len(taken) < top_n:
            log.warning("only %d %s candidates available (requested %d)", len(taken), label, top_n)
        return taken

    return pick("good", reverse_score=True), pick("ugly", reverse_score=False)
