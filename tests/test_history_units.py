import dataclasses

from methodlens.gitrepo import CommitMeta
from methodlens.history import (
    DAYS_PER_YEAR,
    ChangeIndicators,
    MethodHistory,
    MethodIdentity,
    Revision,
    body_similarity,
    compute_indicators,
    filter_by_age,
    match_method,
)
from methodlens.java_extract import extract_methods, normalize_source

DAY = 86400
THETA = 0.75  # the default matching threshold, PipelineConfig.theta
FIVE_YEARS = 5.0 * DAYS_PER_YEAR

def _dummy_decl():
    from methodlens.java_extract import MethodDeclaration
    return MethodDeclaration(
        name="m", parameterTypes=[], modifiers=set(), annotations=[],
        bodyText="void m() { }", startLine=1, endLine=1, containerChain=["T"],
    )



def decls_of(source):
    return extract_methods(normalize_source(source))


def commit(cid, t, message="msg"):
    return CommitMeta(id=cid, authorTime=t, message=message)


def history_with(revision_days, intro_time=0):
    intro = commit("intro", intro_time)
    revisions = [
        Revision(
            commit=commit(f"rev{i}", intro_time + int(d * DAY)),
            linesAdded=2,
            linesDeleted=1,
            editDistance=30,
            daysSinceIntroduction=float(d),
        )
        for i, d in enumerate(revision_days)
    ]
    return MethodHistory(
        identity=MethodIdentity("p", "A.java", "A#m()", 1),
        introduction=intro,
        introductionPath="A.java",
        introductionDecl=_dummy_decl(),
        revisions=revisions,
    )


BIG_BODY = """\
class A {
    int alpha(int value) {
        int scaled = value * 3;
        int shifted = scaled + 17;
        return shifted - value;
    }
}
"""


def test_match_exact_signature():
    target = decls_of(BIG_BODY)[0]
    prev = decls_of(BIG_BODY)
    assert match_method(prev, target, THETA).name == "alpha"


def test_match_after_rename_body_unchanged():
    target = decls_of(BIG_BODY.replace("alpha", "beta"))[0]
    prev = decls_of(BIG_BODY)
    matched = match_method(prev, target, THETA)
    assert matched is not None and matched.name == "alpha"
    assert body_similarity(matched, target) == 1.0


def test_match_rejects_dissimilar_small_methods():
    prev = decls_of("class A { int a() { return 1; } }")
    target = decls_of("class A { int b() { return 29; } }")[0]
    assert len(target.bodyText) < 60
    assert match_method(prev, target, THETA) is None


def test_match_same_name_different_arity():
    prev = decls_of(BIG_BODY)
    renamed_params = BIG_BODY.replace("int alpha(int value)", "int alpha(int value, int unused)")
    target = decls_of(renamed_params)[0]
    matched = match_method(prev, target, THETA)
    assert matched is not None and matched.name == "alpha"


def test_match_below_threshold_returns_none():
    prev = decls_of(
        "class A { int calc(int v) {\n  int a = v * 2;\n  int b = a + v;\n  return b - 1;\n} }"
    )
    target = decls_of(
        "class A { int other(int v) {\n  return inner(v, v + 1, v + 2) ^ mask ^ seed;\n} }"
    )[0]
    assert len(target.bodyText) >= 60  # large enough for cross-name matching
    assert match_method(prev, target, 0.9) is None


def test_indicators_empty():
    assert compute_indicators(history_with([]), FIVE_YEARS) == ChangeIndicators(0, 0, 0, 0)


def test_indicators_window_excludes_late_revision():
    h = history_with([100, 2000])
    ind = compute_indicators(h, FIVE_YEARS)
    assert ind.revisions == 1  # day 2000 lies past 1826.25
    assert ind == ChangeIndicators(1, 3, 2, 30)


def test_indicators_sum_inside_window():
    h = history_with([10, 20])
    assert compute_indicators(h, FIVE_YEARS) == ChangeIndicators(2, 6, 4, 60)


def test_indicator_window_monotone_vs_unbounded():
    h = history_with([100, 1000, 1900, 2500])
    five = compute_indicators(h, FIVE_YEARS)
    unbounded = compute_indicators(h, 1000.0 * DAYS_PER_YEAR)
    for name in ("revisions", "diffSize", "additionOnly", "editDistance"):
        assert five.value(name) <= unbounded.value(name)


def test_filter_by_age_boundaries():
    six_years = history_with([], intro_time=0)
    four_years = history_with([], intro_time=0)
    exactly_five = history_with([], intro_time=0)
    snapshot_six = int(6 * 365.25 * DAY)
    snapshot_four = int(4 * 365.25 * DAY)
    snapshot_five = int(5 * 365.25 * DAY)
    assert filter_by_age([six_years], snapshot_six, FIVE_YEARS) == [six_years]
    assert filter_by_age([four_years], snapshot_four, FIVE_YEARS) == []
    assert filter_by_age([exactly_five], snapshot_five, FIVE_YEARS) == [exactly_five]
