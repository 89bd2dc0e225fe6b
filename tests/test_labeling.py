import logging
import math
import random

import pytest

from methodlens.gitrepo import CommitMeta
from methodlens.history import DAYS_PER_YEAR, MethodHistory, MethodIdentity, Revision
from methodlens.labeling import (
    BugRuleConfig,
    EmptyProject,
    bug_capture,
    bug_counts,
    classify_commit_high_precision,
    classify_commit_high_recall,
    label_methods,
    pareto_curve,
)

from synth import indicators, labeled, sample

CFG = BugRuleConfig()
FIVE_YEARS = 5.0 * DAYS_PER_YEAR

def _dummy_decl():
    from methodlens.java_extract import MethodDeclaration
    return MethodDeclaration(
        name="m", parameterTypes=[], modifiers=set(), annotations=[],
        bodyText="void m() { }", startLine=1, endLine=1, containerChain=["T"],
    )



# --- labels ---------------------------------------------------------------

def test_label_fixture_two_ugly_two_bad_six_good():
    samples = [sample(i) for i in range(6)]  # unchanged
    for i, edit in enumerate([9, 7, 5, 3], start=6):
        samples.append(sample(i, revisions=1, edit=edit))
    labels = label_methods(samples)
    counted = {v: sum(1 for x in labels.values() if x == v) for v in ("good", "bad", "ugly")}
    assert counted == {"good": 6, "bad": 2, "ugly": 2}
    assert labels[samples[6].identity.as_str()] == "ugly"  # edit 9
    assert labels[samples[7].identity.as_str()] == "ugly"  # edit 7


def test_all_unchanged_all_good():
    labels = label_methods([sample(i) for i in range(8)])
    assert set(labels.values()) == {"good"}


def test_tie_break_by_revisions_then_identity():
    samples = [sample(i) for i in range(6)]
    tied = [
        sample(6, revisions=3, edit=50),
        sample(7, revisions=1, edit=50),
        sample(8, revisions=3, edit=50),
        sample(9, revisions=1, edit=40),
    ]
    samples += tied
    labels = label_methods(samples)  # k = 2
    assert labels[tied[0].identity.as_str()] == "ugly"  # revisions 3, lower identity
    assert labels[tied[2].identity.as_str()] == "ugly"
    assert labels[tied[1].identity.as_str()] == "bad"


def test_fewer_changed_than_cutoff_all_changed_ugly():
    samples = [sample(i) for i in range(9)] + [sample(9, revisions=2, edit=5)]
    labels = label_methods(samples)  # k = 2 but only one changed
    assert sum(1 for v in labels.values() if v == "ugly") == 1


def test_good_iff_zero_revisions():
    samples = [sample(0), sample(1, revisions=1, edit=1)]
    labels = label_methods(samples)
    assert labels[samples[0].identity.as_str()] == "good"
    assert labels[samples[1].identity.as_str()] != "good"


def test_empty_project_raises():
    with pytest.raises(EmptyProject):
        label_methods([])


def test_label_partition_and_scale_invariance_randomized():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randrange(1, 60)
        samples = []
        for i in range(n):
            if rng.random() < 0.4:
                samples.append(sample(i))
            else:
                samples.append(sample(i, revisions=rng.randrange(1, 5), edit=rng.randrange(1, 200)))
        labels = label_methods(samples)
        assert len(labels) == n
        n_changed_positive = sum(
            1 for s in samples if s.indicators.revisions > 0 and s.indicators.editDistance > 0
        )
        n_ugly = sum(1 for v in labels.values() if v == "ugly")
        assert n_ugly == min(int(0.2 * n + 1e-9), n_changed_positive)
        for c in (2, 10):
            scaled = [
                sample(
                    i,
                    revisions=s.indicators.revisions,
                    diff=s.indicators.diffSize,
                    add=s.indicators.additionOnly,
                    edit=s.indicators.editDistance * c,
                )
                if s.indicators.revisions
                else sample(i)
                for i, s in enumerate(samples)
            ]
            assert label_methods(scaled) == labels


# --- pareto ---------------------------------------------------------------

def test_pareto_uniform():
    n = 10
    samples = [sample(i, revisions=1, edit=7) for i in range(n)]
    curve = pareto_curve(samples)
    assert curve.captured[3] == pytest.approx(math.ceil(0.2 * n) / n)


def test_pareto_single_hot_method():
    samples = [sample(0, revisions=1, edit=500)] + [sample(i) for i in range(1, 12)]
    curve = pareto_curve(samples)
    assert curve.captured[0] == 1.0


def test_pareto_fixture_exact_080():
    values = [50, 30, 10, 5, 3, 1, 1, 0, 0, 0]
    samples = [
        sample(i, revisions=1, edit=v) if v else sample(i)
        for i, v in enumerate(values)
    ]
    curve = pareto_curve(samples)
    assert curve.captured[3] == 0.80


def test_pareto_nondecreasing_and_bounded():
    rng = random.Random(3)
    samples = [sample(i, revisions=1, edit=rng.randrange(1, 100)) for i in range(37)]
    curve = pareto_curve(samples, fractions=(0.05, 0.1, 0.2, 0.5, 1.0))
    assert list(curve.captured) == sorted(curve.captured)
    assert all(0.0 <= c <= 1.0 for c in curve.captured)
    assert curve.captured[-1] == 1.0


def test_pareto_zero_total_is_nan_with_warning(caplog):
    samples = [sample(i) for i in range(4)]
    with caplog.at_level(logging.WARNING, logger="methodlens.labeling"):
        curve = pareto_curve(samples)
    assert all(math.isnan(c) for c in curve.captured)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "total editDistance is zero; Pareto curve undefined")]


# --- commit classification ---------------------------------------------------------------

def test_high_recall_stem_match():
    assert classify_commit_high_recall("Fixed NPE in parser", CFG) is True


def test_high_recall_debug_is_not_bug():
    assert classify_commit_high_recall("Add debug logging", CFG) is False


def test_high_recall_empty_message():
    assert classify_commit_high_recall("", CFG) is False


def test_high_precision_requires_both_word_sets_and_single_method():
    assert classify_commit_high_precision("fix: incorrect rounding", 1, CFG) is True
    assert classify_commit_high_precision("fix typo in docs", 1, CFG) is False
    assert classify_commit_high_precision("resolve defect in scheduler", 3, CFG) is False


def test_high_precision_implies_high_recall_for_default_bug_words():
    # every default precision bug word except 'misfeature' is a recall keyword
    messages = [
        "address the defect",
        "resolve incorrect state handling",
        "fix fault in reader",
        "Fixes error on close",
    ]
    for msg in messages:
        assert classify_commit_high_precision(msg, 1, CFG)
        assert classify_commit_high_recall(msg, CFG)


def test_misfeature_is_the_documented_exception():
    msg = "resolve misfeature in layout"
    assert classify_commit_high_precision(msg, 1, CFG) is True
    assert classify_commit_high_recall(msg, CFG) is False


# --- bug counts over histories ---------------------------------------------------------------

def _history(ident_idx, rev_specs):
    """rev_specs: list of (commit_id, message, day)."""
    intro = CommitMeta(id="intro", authorTime=0, message="init")
    revisions = [
        Revision(
            commit=CommitMeta(id=cid, authorTime=int(day * 86400), message=msg),
            linesAdded=1,
            linesDeleted=0,
            editDistance=5,
            daysSinceIntroduction=float(day),
        )
        for cid, msg, day in rev_specs
    ]
    return MethodHistory(
        identity=MethodIdentity("proj", f"F{ident_idx}.java", f"T#m{ident_idx}()", 1),
        introduction=intro,
        introductionPath=f"F{ident_idx}.java",
        introductionDecl=_dummy_decl(),
        revisions=revisions,
    )


def test_bug_counts_no_revisions():
    counts = bug_counts([_history(0, [])], CFG, FIVE_YEARS)
    assert list(counts.values()) == [(0, 0)]


def test_bug_counts_tangled_commit_diverges():
    tangled = [
        _history(0, [("c9", "fix overflow bug in edge cases", 10)]),
        _history(1, [("c9", "fix overflow bug in edge cases", 10)]),
        _history(2, [("c9", "fix overflow bug in edge cases", 10)]),
    ]
    counts = bug_counts(tangled, CFG, FIVE_YEARS)
    assert all(v == (1, 0) for v in counts.values())


def test_bug_counts_single_method_fix():
    counts = bug_counts([_history(0, [("c6", "fix bug", 10)])], CFG, FIVE_YEARS)
    assert list(counts.values()) == [(1, 1)]


def test_bug_counts_window_limited():
    h = _history(0, [("late", "fix bug", 2200)])
    counts = bug_counts([h], CFG, FIVE_YEARS)
    assert list(counts.values()) == [(0, 0)]


# --- bug capture ---------------------------------------------------------------

def test_bug_capture_fixture_five_sixths():
    # bugs (3, 2) on the two most change-prone of 10 methods, 1 stray bug at
    # the bottom: total 6, top 20% captures 5
    bug_per_rank = {0: 3, 1: 2, 9: 1}
    methods = [
        labeled(i, label="ugly", revisions=1, edit=100 - i, bugs=(bug_per_rank.get(i, 0), 0))
        for i in range(10)
    ]
    curve = bug_capture(methods, dataset="highRecall")
    assert curve.captured[3] == pytest.approx(5 / 6)


def test_bug_capture_all_bugs_on_top_method():
    methods = [labeled(0, label="ugly", revisions=3, edit=500, bugs=(4, 4))]
    methods += [labeled(i) for i in range(1, 20)]
    curve = bug_capture(methods, dataset="highPrecision")
    assert curve.captured[0] == 1.0


def test_bug_capture_zero_total_warns_nan(caplog):
    methods = [labeled(i) for i in range(5)]
    with caplog.at_level(logging.WARNING, logger="methodlens.labeling"):
        curve = bug_capture(methods, dataset="highPrecision")
    assert all(math.isnan(c) for c in curve.captured)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "total highPrecision bug count is zero; capture curve undefined")]
