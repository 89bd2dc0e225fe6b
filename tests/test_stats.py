import logging
import math
import random

import pytest

from methodlens.stats import (
    _count_discordant,
    composite_scores,
    correlation_table,
    kendall_tau_b,
    minmax_scale,
    select_surprising,
    signs_from_table,
)

from oracles import kendall_tau_b_pairs
from synth import labeled, metric_vector


# --- kendall tau-b ---------------------------------------------------------------

def test_tau_perfect_concordance():
    x = list(range(12))
    tau, p = kendall_tau_b(x, x)
    assert tau == 1.0
    assert p < 0.05


def test_tau_perfect_discordance():
    x = list(range(12))
    tau, _ = kendall_tau_b(x, list(reversed(x)))
    assert tau == -1.0


def test_tau_tied_sample_matches_pair_oracle():
    x = [1, 1, 2, 3]
    y = [2, 1, 3, 3]
    tau, _ = kendall_tau_b(x, y)
    assert abs(tau - kendall_tau_b_pairs(x, y)) < 1e-12


def test_tau_random_tied_datasets_match_oracle():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(2, 80)
        x = [rng.randrange(0, 6) for _ in range(n)]
        y = [rng.randrange(0, 6) for _ in range(n)]
        if len(set(x)) <= 1 or len(set(y)) <= 1:
            continue
        tau, _ = kendall_tau_b(x, y)
        assert abs(tau - kendall_tau_b_pairs(x, y)) < 1e-12


def test_tau_monotone_transform_invariance():
    rng = random.Random(13)
    x = [rng.random() for _ in range(50)]
    y = [rng.random() for _ in range(50)]
    tau, _ = kendall_tau_b(x, y)
    tau2, _ = kendall_tau_b([math.exp(3 * v) for v in x], [v ** 3 for v in y])
    assert abs(tau - tau2) < 1e-12


def test_tau_and_pvalue_agree_with_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = random.Random(31)
    for _ in range(25):
        n = rng.randrange(5, 120)
        x = [rng.randrange(0, 8) for _ in range(n)]
        y = [rng.randrange(0, 8) for _ in range(n)]
        if len(set(x)) <= 1 or len(set(y)) <= 1:
            continue
        tau, p = kendall_tau_b(x, y)
        ref_tau, ref_p = scipy_stats.kendalltau(x, y, method="asymptotic", variant="b")
        assert abs(tau - ref_tau) < 1e-12
        assert abs(p - ref_p) < 1e-9


def _tau_sample(seed):
    """n from 2 to 400, heavy or light ties, negative values, ints mixed with
    equal and unequal floats, and y independent of x or following it."""
    rng = random.Random(seed)
    n = rng.choice((2, 3, 5)) if rng.random() < 0.2 else rng.randrange(6, 401)
    levels = rng.choice((2, 3, 8, n, 10 * n))
    low = -(levels // 2)

    def draw():
        v = rng.randrange(low, low + levels)
        return rng.choice((v, float(v), v + 0.5))

    x = [draw() for _ in range(n)]
    y = [draw() for _ in range(n)]
    if rng.random() < 0.5:
        y = [a + b for a, b in zip(x, y)]
    return x, y


def test_tau_equals_the_pair_oracle_exactly():
    # both divide the same integer by the root of the same integer product
    checked = 0
    for seed in range(60):
        x, y = _tau_sample(seed)
        if len(set(x)) > 1 and len(set(y)) > 1:
            assert kendall_tau_b(x, y)[0] == kendall_tau_b_pairs(x, y), seed
            checked += 1
    assert checked > 40


def test_the_fenwick_count_is_the_number_of_discordant_pairs():
    for seed in range(60):
        x, y = _tau_sample(seed)
        rank = {v: r for r, v in enumerate(sorted(set(y)), 1)}
        got = _count_discordant([rank[b] for _, b in sorted(zip(x, y))], len(rank))
        want = sum((x[i] - x[j]) * (y[i] - y[j]) < 0 for i in range(len(x)) for j in range(i))
        assert got == want, seed


# (tau, p) of _tau_sample(0..19) as float.hex, from the merge-sort count
# that the Fenwick count replaced
PINNED_TAU_P = [
    ("0x1.f49870adf750dp-2", "0x1.9b71f8f79f9d2p-156"),
    ("0x1.0000000000000p+0", "0x1.44ed0bb7cb20cp-2"),
    ("-0x1.12aed22dbe8edp-3", "0x1.7ed7320bd6fd4p-2"),
    ("0x1.092edcb792184p-4", "0x1.582f95d4299d2p-3"),
    ("0x1.9ab93c789ffc0p-2", "0x1.5056de7628049p-17"),
    ("0x1.085fcd7f39d04p-1", "0x1.6723fbaf4362fp-153"),
    ("0x1.3ea7b7680a5a6p-1", "0x1.19d2d4a5a5703p-30"),
    ("-0x1.0153de0bf68e2p-5", "0x1.5a6e0dd887c56p-1"),
    ("0x1.0e74bdca6cf24p-1", "0x1.0503d09006329p-71"),
    ("0x1.18eb2367b53b0p-1", "0x1.cad5f8663c8f6p-90"),
    ("0x1.fcff134236b60p-2", "0x1.b097026d7e1d7p-93"),
    ("0x1.c9f08f6c17208p-6", "0x1.e8bc626fbe366p-2"),
    ("0x1.f0d351c61ca9cp-9", "0x1.d558df15cadd8p-1"),
    ("0x1.21ba51c11fc52p-1", "0x1.e8e75806490cdp-144"),
    ("0x1.999999999999ap-3", "0x1.3f97f1a1c5166p-1"),
    ("0x1.6b0df6b0df6b1p-1", "0x1.3a1445110f1eep-9"),
    ("0x1.502a464698096p-6", "0x1.4cc19335e05dbp-1"),
    ("0x1.0315409cb9c2cp-1", "0x1.a62a17440bc00p-63"),
    ("0x1.c38aa37c3f68dp-1", "0x1.785a3605fe3d3p-5"),
    ("0x1.294b2924a52f4p-1", "0x1.b7f60dd71a49bp-103"),
]


def test_tau_and_p_keep_their_bits():
    got = []
    for seed in range(len(PINNED_TAU_P)):
        tau, p = kendall_tau_b(*_tau_sample(seed))
        got.append((tau.hex(), p.hex()))
    assert got == PINNED_TAU_P


def test_tau_degenerate_input():
    tau, p = kendall_tau_b([1, 1, 1], [1, 2, 3])
    assert math.isnan(tau) and p == 1.0


def test_tau_rejects_short_input():
    with pytest.raises(ValueError):
        kendall_tau_b([1], [2])


# --- minmax ---------------------------------------------------------------

def test_minmax_basic():
    assert minmax_scale([0, 5, 10]) == [0.0, 0.5, 1.0]


def test_minmax_constant_maps_to_zeros():
    assert minmax_scale([7, 7, 7]) == [0.0, 0.0, 0.0]


def test_minmax_range():
    rng = random.Random(17)
    values = [rng.uniform(-100, 100) for _ in range(40)]
    assert all(0.0 <= v <= 1.0 for v in minmax_scale(values))


# --- correlation table ---------------------------------------------------------------

def _corpus_with_size_tracking_indicator(n=30):
    methods = []
    rng = random.Random(5)
    for i in range(n):
        edit = rng.randrange(1, 120)
        mv = metric_vector(size=edit, maintainabilityIndex=500.0 - edit)
        methods.append(labeled(i, label="bad", metrics=mv, revisions=1, edit=edit))
    return methods


def test_correlation_metric_equal_to_indicator_is_one():
    methods = _corpus_with_size_tracking_indicator()
    table = {e.metric: e for e in correlation_table(methods, "editDistance")}
    assert table["size"].tau == pytest.approx(1.0)
    assert table["size"].pValue <= 0.05


def test_correlation_sign_convention_negative_metric():
    methods = _corpus_with_size_tracking_indicator()
    table = {e.metric: e for e in correlation_table(methods, "editDistance")}
    assert table["maintainabilityIndex"].tau < 0


def test_correlation_table_covers_all_17_metrics():
    methods = _corpus_with_size_tracking_indicator()
    table = correlation_table(methods)
    assert len(table) == 17
    constant_metrics = {e.metric for e in table if math.isnan(e.tau)}
    # the synthetic corpus holds every other metric constant
    assert "mccabe" in constant_metrics


# --- composite scores ---------------------------------------------------------------

def _signs(methods):
    return signs_from_table(correlation_table(methods, "editDistance"))


def test_composite_dominant_method_ranks_first():
    methods = _corpus_with_size_tracking_indicator()
    dominant = labeled(
        999,
        label="good",
        metrics=metric_vector(size=1000, maintainabilityIndex=-500.0),
    )
    methods.append(dominant)
    signs = _signs(methods)
    ranking = composite_scores(methods, signs)
    assert ranking.ranks[dominant.identity.as_str()] == 1


def test_composite_identical_methods_score_zero():
    methods = [labeled(i, metrics=metric_vector()) for i in range(5)]
    ranking = composite_scores(methods, {name: 1 for name in ranking_names()})
    assert all(v == 0.0 for v in ranking.scores.values())
    keys = sorted(ranking.scores)
    assert [ranking.ranks[k] for k in keys] == [1, 2, 3, 4, 5]


def ranking_names():
    from methodlens.metrics import NUMERIC_METRIC_NAMES
    return NUMERIC_METRIC_NAMES


def test_composite_three_method_hand_sum():
    mvs = [
        metric_vector(size=10, fanout=0, maintainabilityIndex=50.0),
        metric_vector(size=20, fanout=5, maintainabilityIndex=30.0),
        metric_vector(size=30, fanout=10, maintainabilityIndex=10.0),
    ]
    methods = [labeled(i, metrics=m) for i, m in enumerate(mvs)]
    signs = {name: 1 for name in ranking_names()}
    signs["maintainabilityIndex"] = -1
    ranking = composite_scores(methods, signs)
    keys = [m.identity.as_str() for m in methods]
    # hand-scaled: size -> 0, .5, 1 ; fanout -> 0, .5, 1 ; MI (sign -1) -> -1, -.5, -0
    assert ranking.scores[keys[0]] == pytest.approx(0 + 0 - 1.0, abs=1e-12)
    assert ranking.scores[keys[1]] == pytest.approx(0.5 + 0.5 - 0.5, abs=1e-12)
    assert ranking.scores[keys[2]] == pytest.approx(1 + 1 - 0.0, abs=1e-12)


def test_composite_affine_rescale_invariance():
    methods = _corpus_with_size_tracking_indicator(20)
    signs = _signs(methods)
    base = composite_scores(methods, signs)
    rescaled = []
    for m in methods:
        mv = m.metrics
        rescaled.append(
            labeled(
                int(m.identity.file[5:8]),
                label=m.label,
                metrics=metric_vector(
                    size=mv.size * 7 + 3,  # positive affine map
                    maintainabilityIndex=mv.maintainabilityIndex,
                ),
                revisions=m.indicators.revisions,
                edit=m.indicators.editDistance,
            )
        )
    again = composite_scores(rescaled, signs)
    assert base.ranks == again.ranks


# --- surprising selection ---------------------------------------------------------------

def _ranked_corpus(projects=6, per_project=30):
    methods = []
    idx = 0
    rng = random.Random(23)
    for p in range(projects):
        for _ in range(per_project):
            size = rng.randrange(1, 300)
            if rng.random() < 0.45:
                methods.append(
                    labeled(idx, project=f"proj{p}", label="good", metrics=metric_vector(size=size))
                )
            else:
                methods.append(
                    labeled(
                        idx, project=f"proj{p}", label="ugly",
                        metrics=metric_vector(size=size), revisions=1, edit=rng.randrange(1, 50),
                    )
                )
            idx += 1
    return methods


def test_select_surprising_respects_both_caps():
    methods = _ranked_corpus()
    ranking = composite_scores(methods, {n: 1 for n in ranking_names()})
    good, ugly = select_surprising(methods, ranking, top_n=10, per_project_cap=2)
    assert len(good) <= 10 and len(ugly) <= 10
    for group in (good, ugly):
        per_project = {}
        for m in group:
            per_project[m.identity.project] = per_project.get(m.identity.project, 0) + 1
        assert all(v <= 2 for v in per_project.values())
    assert all(m.label == "good" for m in good)
    assert all(m.label == "ugly" for m in ugly)


def test_select_surprising_orders_by_score():
    methods = _ranked_corpus()
    ranking = composite_scores(methods, {n: 1 for n in ranking_names()})
    good, ugly = select_surprising(methods, ranking, top_n=8, per_project_cap=2)
    good_scores = [ranking.scores[m.identity.as_str()] for m in good]
    ugly_scores = [ranking.scores[m.identity.as_str()] for m in ugly]
    assert good_scores == sorted(good_scores, reverse=True)
    assert ugly_scores == sorted(ugly_scores)


def test_select_surprising_single_project_capped_at_two(caplog):
    methods = [labeled(i, label="good", metrics=metric_vector(size=i + 1)) for i in range(9)]
    ranking = composite_scores(methods, {n: 1 for n in ranking_names()})
    with caplog.at_level(logging.WARNING, logger="methodlens.stats"):
        good, ugly = select_surprising(methods, ranking, top_n=50, per_project_cap=2)
    assert len(good) == 2
    assert ugly == []
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "only 2 good candidates available (requested 50)"),
        ("WARNING", "only 0 ugly candidates available (requested 50)"),
    ]


def test_select_surprising_deterministic():
    methods = _ranked_corpus()
    ranking = composite_scores(methods, {n: 1 for n in ranking_names()})
    a = select_surprising(methods, ranking, top_n=12, per_project_cap=2)
    b = select_surprising(methods, ranking, top_n=12, per_project_cap=2)
    assert [m.identity.as_str() for m in a[0]] == [m.identity.as_str() for m in b[0]]
    assert [m.identity.as_str() for m in a[1]] == [m.identity.as_str() for m in b[1]]
