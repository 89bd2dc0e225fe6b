import dataclasses
import logging
import math
from collections import Counter

import numpy as np
import pytest

from methodlens import ml
from methodlens.ml import (
    CLASSIFIER_NAMES,
    EmptyTestSet,
    FeatureRow,
    ForestConfig,
    LogisticConfig,
    NoUglyRows,
    SingleClass,
    TooFewProjects,
    TreeConfig,
    build_feature_rows,
    evaluate,
    leave_one_out_plans,
    oversample,
    project_split,
    run_approach1,
    run_approach2,
    train_forest,
    train_logistic,
    train_tree,
)
from methodlens.metrics import METRIC_NAMES

from oracles import (
    best_split_reference,
    grow_tree_reference,
    grown_trees,
    predict_forest_reference,
    predict_tree_reference,
    train_logistic_reference,
)
from synth import labeled, metric_vector, separable_corpus


def row(i, label, project="p0", **feature_overrides):
    features = dict.fromkeys(METRIC_NAMES, 0.0)
    features.update(feature_overrides)
    return FeatureRow(
        projectId=project,
        methodId=f"{project}:m{i:04d}",
        features=tuple(features[name] for name in METRIC_NAMES),
        label=label,
    )


def two_feature_rows(points, project="p0"):
    """points: list of (size, mccabe, label)."""
    return [
        row(i, label, project=project, size=a, mccabe=b)
        for i, (a, b, label) in enumerate(points)
    ]


class FixedModel:
    def __init__(self, predictions):
        self.predictions = np.asarray(predictions)

    def predict(self, X):
        return self.predictions[: len(X)]


# --- feature rows ---------------------------------------------------------------

def test_build_rows_drops_bad():
    methods = (
        [labeled(i, label="ugly", revisions=1, edit=9) for i in range(2)]
        + [labeled(i + 2, label="good") for i in range(4)]
        + [labeled(i + 6, label="bad", revisions=1, edit=1) for i in range(4)]
    )
    rows = build_feature_rows(methods)
    assert len(rows) == 6
    assert {r.label for r in rows} == {"good", "ugly"}


def test_build_rows_requires_ugly():
    with pytest.raises(NoUglyRows):
        build_feature_rows([labeled(i, label="good") for i in range(5)])


def test_build_rows_boolean_encoding_and_order():
    m = labeled(0, label="ugly", revisions=1, edit=3,
                metrics=metric_vector(getterSetter=True, isStatic=False))
    rows = build_feature_rows([m])
    getter_idx = METRIC_NAMES.index("getterSetter")
    static_idx = METRIC_NAMES.index("isStatic")
    assert rows[0].features[getter_idx] == 1.0
    assert rows[0].features[static_idx] == 0.0


def test_build_rows_deterministic_order():
    methods = separable_corpus(projects=3, per_project=20, seed=4)
    assert [r.methodId for r in build_feature_rows(methods)] == [
        r.methodId for r in build_feature_rows(list(reversed(methods)))
    ]


# --- split plans ---------------------------------------------------------------

def test_project_split_45_projects():
    plan = project_split([f"p{i}" for i in range(45)], seed=7)
    assert len(plan.testProjects) == 9
    assert len(plan.validationProjects) == 5
    assert len(plan.trainProjects) == 31


def test_project_split_10_projects():
    plan = project_split([f"p{i}" for i in range(10)], seed=7)
    assert (len(plan.trainProjects), len(plan.validationProjects), len(plan.testProjects)) == (7, 1, 2)


def test_project_split_deterministic_and_disjoint():
    projects = [f"p{i}" for i in range(20)]
    a = project_split(projects, seed=123)
    b = project_split(projects, seed=123)
    assert a == b
    all_sets = set(a.trainProjects) | set(a.validationProjects) | set(a.testProjects)
    assert all_sets == set(projects)
    assert not (set(a.trainProjects) & set(a.testProjects))
    assert not (set(a.trainProjects) & set(a.validationProjects))


def test_project_split_too_few():
    with pytest.raises(TooFewProjects):
        project_split(["a", "b"], seed=1)


def test_leave_one_out_counts_and_coverage():
    projects = [f"p{i}" for i in range(45)]
    plans = leave_one_out_plans(projects)
    assert len(plans) == 45
    held = {p for plan in plans for p in plan.testProjects}
    assert held == set(projects)
    assert all(plan.validationProjects == () for plan in plans)
    assert len(leave_one_out_plans(["a", "b"])) == 2


# --- oversampling ---------------------------------------------------------------

def test_oversample_balances_counts():
    rows = [row(i, "good") for i in range(10)] + [row(i + 10, "ugly") for i in range(3)]
    balanced = oversample(rows, seed=5)
    labels = [r.label for r in balanced]
    assert labels.count("good") == labels.count("ugly") == 10


def test_oversample_balanced_input_unchanged():
    rows = [row(i, "good") for i in range(4)] + [row(i + 4, "ugly") for i in range(4)]
    assert oversample(rows, seed=5) == rows


def test_oversample_deterministic_and_duplicates_only():
    rows = [row(i, "good") for i in range(9)] + [row(i + 9, "ugly") for i in range(2)]
    a = oversample(rows, seed=11)
    b = oversample(rows, seed=11)
    assert a == b
    assert set(a) == set(rows)  # adds duplicates, never new rows


def test_oversample_single_class_raises():
    with pytest.raises(SingleClass):
        oversample([row(i, "good") for i in range(5)], seed=1)


# --- logistic ---------------------------------------------------------------

def _separable_points(n=60):
    pts = []
    for i in range(n):
        if i % 2:
            pts.append((100 + (i % 7) * 10, 10 + (i % 3), "ugly"))
        else:
            pts.append((5 + (i % 7), 1 + (i % 2), "good"))
    return pts


def test_logistic_separable_training_accuracy():
    rows = two_feature_rows(_separable_points())
    [model] = train_logistic([(rows, LogisticConfig())])
    X = np.array([r.features for r in rows])
    y = np.array([1 if r.label == "ugly" else 0 for r in rows])
    accuracy = float((model.predict(X) == y).mean())
    assert accuracy >= 0.99


def test_logistic_identical_features_predicts_majority():
    rows = [row(i, "good") for i in range(8)] + [row(i + 8, "ugly") for i in range(2)]
    [model] = train_logistic([(rows, LogisticConfig())])
    X = np.array([rows[0].features])
    assert model.predict(X)[0] == 0  # majority class 'good'


def test_logistic_loss_nonincreasing():
    rows = two_feature_rows(_separable_points(40))
    [model] = train_logistic([(rows, LogisticConfig())])
    losses = model.loss_history
    assert len(losses) > 2
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


# --- decision tree ---------------------------------------------------------------

def test_tree_pure_input_single_leaf():
    rows = [row(i, "good", size=i) for i in range(6)]
    [(root, depth)] = grown_trees(train_tree(rows).trees)
    assert root.is_leaf
    assert depth == 0


def test_tree_xor_pattern():
    pts = [(0, 0, "good"), (0, 1, "ugly"), (1, 0, "ugly"), (1, 1, "good")]
    rows = two_feature_rows(pts)
    model = train_tree(rows)
    X = np.array([r.features for r in rows])
    y = np.array([1 if r.label == "ugly" else 0 for r in rows])
    [(_, depth)] = grown_trees(model.trees)
    assert depth >= 2
    assert (model.predict(X) == y).all()


def _tree_shape(node):
    if node.is_leaf:
        return ("leaf", node.prediction)
    return ("split", node.feature, node.threshold, _tree_shape(node.left), _tree_shape(node.right))


def test_tree_deterministic_structure():
    rows = two_feature_rows(_separable_points(30))
    a = train_tree(rows)
    b = train_tree(rows)
    [(root_a, _)], [(root_b, _)] = grown_trees(a.trees), grown_trees(b.trees)
    assert _tree_shape(root_a) == _tree_shape(root_b)


# --- random forest ---------------------------------------------------------------

def test_forest_same_seed_same_votes():
    rows = two_feature_rows(_separable_points(50))
    X = np.array([r.features for r in rows])
    a = train_forest(rows, ForestConfig(trees=15, seed=9))
    b = train_forest(rows, ForestConfig(trees=15, seed=9))
    assert (a.predict(X) == b.predict(X)).all()


def test_forest_separable_f1():
    rows = two_feature_rows(_separable_points(80))
    model = train_forest(rows, ForestConfig(trees=25, seed=1))
    report = evaluate(model, rows, classifier="forest")
    assert report.perClass["ugly"].fMeasure >= 0.99


# --- evaluation ---------------------------------------------------------------

def test_evaluate_perfect_predictions():
    rows = [row(0, "ugly"), row(1, "good"), row(2, "ugly")]
    model = FixedModel([1, 0, 1])
    report = evaluate(model, rows)
    ugly = report.perClass["ugly"]
    assert (ugly.precision, ugly.recall, ugly.fMeasure) == (1.0, 1.0, 1.0)


def test_evaluate_all_predicted_good():
    rows = [row(0, "ugly"), row(1, "ugly"), row(2, "good")]
    report = evaluate(FixedModel([0, 0, 0]), rows)
    ugly = report.perClass["ugly"]
    assert ugly.recall == 0.0
    assert ugly.precision == 0.0  # zero denominator reported as 0
    assert "precision_ugly_undefined" in ugly.flags


def test_evaluate_confusion_formulas():
    rows = [row(i, "ugly") for i in range(10)] + [row(i + 10, "good") for i in range(10)]
    predictions = [1] * 8 + [0] * 2 + [1] * 2 + [0] * 8
    report = evaluate(FixedModel(predictions), rows)
    assert report.confusion == {"tp": 8, "fp": 2, "fn": 2, "tn": 8}
    ugly = report.perClass["ugly"]
    assert (ugly.precision, ugly.recall) == (0.8, 0.8)
    assert ugly.fMeasure == pytest.approx(0.8, abs=1e-12)
    good = report.perClass["good"]
    assert (good.precision, good.recall) == (0.8, 0.8)


def test_evaluate_empty_test_set():
    with pytest.raises(EmptyTestSet):
        evaluate(FixedModel([]), [])


# --- no leakage ---------------------------------------------------------------

def test_scaler_fit_on_training_rows_only():
    rows = two_feature_rows(_separable_points(30))
    [model] = train_logistic([(rows, LogisticConfig())])
    size_idx = METRIC_NAMES.index("size")
    outlier = np.zeros((1, len(METRIC_NAMES)))
    outlier[0, size_idx] = 10_000.0  # far outside the training range
    scaled = model.scaler.transform(outlier)
    assert scaled[0, size_idx] > 1.0


# --- protocols ---------------------------------------------------------------

def _report_blob(result):
    out = {}
    for name, entry in result["results"].items():
        r = entry["report"]
        out[name] = (r.perClass, r.confusion, entry["config"], entry["validationF"])
    return out


def test_approach1_separable_corpus_all_classifiers():
    methods = separable_corpus(projects=6, per_project=50, seed=2)
    outcome = run_approach1(methods, seed=17)
    for name in ("logistic", "tree", "forest"):
        f = outcome["results"][name]["report"].perClass["ugly"].fMeasure
        assert f >= 0.95, (name, f)


def test_approach1_deterministic():
    methods = separable_corpus(projects=5, per_project=30, seed=8)
    a = run_approach1(methods, seed=4, classifiers=("logistic", "tree"))
    b = run_approach1(methods, seed=4, classifiers=("logistic", "tree"))
    assert a["plan"] == b["plan"]
    assert _report_blob(a) == _report_blob(b)


def test_approach2_one_report_per_project():
    methods = separable_corpus(projects=4, per_project=30, seed=3)
    outcome = run_approach2(methods, classifiers=("tree",))
    assert len(outcome["projects"]) == 4
    for entry in outcome["projects"].values():
        assert entry["tree"] is not None


def test_approach2_heldout_without_ugly_flags_nan_recall():
    methods = separable_corpus(projects=3, per_project=25, seed=6)
    # strip ugly rows from one project so its held-out run has no positives
    methods = [m for m in methods if not (m.identity.project == "proj0" and m.label == "ugly")]
    outcome = run_approach2(methods, classifiers=("tree",))
    report = outcome["projects"]["proj0"]["tree"]
    assert math.isnan(report.perClass["ugly"].recall)
    assert "recall_ugly_undefined" in report.perClass["ugly"].flags


def test_approach2_oversamples_each_fold_once_and_fails_every_classifier_of_a_one_class_fold(monkeypatch, caplog):
    methods = separable_corpus(projects=3, per_project=25, seed=6)
    # only proj0 keeps ugly rows, so the fold that holds it out trains on one class
    methods = [m for m in methods if m.identity.project == "proj0" or m.label != "ugly"]
    seeds = []
    real = ml.oversample
    monkeypatch.setattr(ml, "oversample", lambda rows, seed: seeds.append(seed) or real(rows, seed))
    with caplog.at_level(logging.WARNING, logger="methodlens.ml"):
        outcome = run_approach2(methods, seed=3)
    assert seeds == [3, 4, 5]
    assert outcome["projects"]["proj0"] == {"logistic": None, "tree": None, "forest": None}
    assert all(report is not None for held in ("proj1", "proj2") for report in outcome["projects"][held].values())
    assert [r.getMessage() for r in caplog.records] == [
        f"project proj0: {name} failed: oversampling needs both classes present" for name in CLASSIFIER_NAMES]


def test_approach2_composes_like_manual_splits():
    methods = separable_corpus(projects=3, per_project=25, seed=9)
    outcome = run_approach2(methods, classifiers=("tree",), seed=0)
    rows = build_feature_rows(methods)
    projects = sorted({r.projectId for r in rows})
    for i, held in enumerate(projects):
        train_rows = [r for r in rows if r.projectId != held]
        test_rows = [r for r in rows if r.projectId == held]
        model = train_tree(oversample(train_rows, seed=i), TreeConfig())
        manual = evaluate(model, test_rows, classifier="tree", undefined_as=float("nan"))
        assert manual.confusion == outcome["projects"][held]["tree"].confusion


def _with_nan_size(methods, project, index=3):
    """`methods` with a NaN size in the index-th method of `project`."""
    at = [i for i, m in enumerate(methods) if m.identity.project == project][index]
    m = methods[at]
    return methods[:at] + [dataclasses.replace(m, metrics=dataclasses.replace(m.metrics, size=math.nan))] + methods[at + 1:]


def test_approach2_fails_exactly_the_logistic_folds_that_train_on_a_nan_feature(caplog):
    methods = _with_nan_size(separable_corpus(projects=4, per_project=30, seed=5), "proj2")
    with np.errstate(invalid="ignore"), caplog.at_level(logging.WARNING, logger="methodlens.ml"):
        outcome = run_approach2(methods, classifiers=("logistic",), seed=2)
    failed = ["proj0", "proj1", "proj3"]
    assert [held for held, entry in outcome["projects"].items() if entry["logistic"] is None] == failed
    assert [r.getMessage() for r in caplog.records] == [
        f"project {held}: logistic failed: logistic training diverged" for held in failed]
    rows = build_feature_rows(methods)
    alone = train_logistic_reference(oversample([r for r in rows if r.projectId != "proj2"], seed=2 + 2),
                                     LogisticConfig())
    expected = evaluate(alone, [r for r in rows if r.projectId == "proj2"], undefined_as=float("nan"))
    assert outcome["projects"]["proj2"]["logistic"].confusion == expected.confusion


def test_approach1_still_raises_when_a_grid_fit_diverges():
    methods = separable_corpus(projects=5, per_project=30, seed=8)
    for project in sorted({m.identity.project for m in methods}):
        methods = _with_nan_size(methods, project)  # so the training projects hold a NaN feature
    with np.errstate(invalid="ignore"), pytest.raises(ml.NonFiniteLoss):
        run_approach1(methods, seed=4, classifiers=("logistic",))


def test_each_logistic_call_logs_its_fits_row_count_groups_and_steps(caplog):
    methods = separable_corpus(projects=5, per_project=30, seed=8)
    with caplog.at_level(logging.INFO, logger="methodlens.ml"):
        run_approach1(methods, seed=4, classifiers=("logistic",))
        run_approach2(methods, classifiers=("logistic",), seed=0)
    assert [r.getMessage() for r in caplog.records] == [
        "logistic: 3 fits, 1 row-count group, steps 5000/5000/1075",
        "logistic: 5 fits, 5 row-count groups, steps 5000/5000/5000/5000/5000",
    ]


def _noisy_methods(projects, per_project):
    """A corpus of `_noisy_rows` methods, whose trees grow deep."""
    return [
        labeled(i, project=f"proj{p}", label=row.label,
                metrics=metric_vector(size=row.features[0], mccabe=row.features[1],
                                      readability=row.features[2], halsteadLength=row.features[3]))
        for p in range(projects)
        for i, row in enumerate(_noisy_rows(per_project, seed=p, ties=p % 2 == 0), start=100 * p)
    ]


def _at_thresholds(model, Xs, limit=300):
    """Scaled rows of Xs, each with one feature set to a split threshold of
    the model's trees, so that the `<=` test of that node is an equality."""
    stack = [root for root, _ in grown_trees(model.trees)]
    rows = []
    while stack and len(rows) < limit:
        node = stack.pop()
        if not node.is_leaf:
            row = Xs[len(rows) % len(Xs)].copy()
            row[node.feature] = node.threshold
            rows.append(row)
            stack += [node.left, node.right]
    return np.array(rows)


def test_tree_and_forest_predictions_equal_the_per_row_walk(monkeypatch):
    """Every tree and forest approaches 1 and 2 evaluate predicts, on the
    rows it is evaluated on, on every row (some with a NaN feature) and on
    rows that sit on its split thresholds, what walking each tree once per
    row predicts."""
    methods = _noisy_methods(projects=4, per_project=40)
    evaluated = []
    real = ml.evaluate
    monkeypatch.setattr(ml, "evaluate", lambda model, rows, **kw: evaluated.append((model, rows)) or real(model, rows, **kw))
    run_approach1(methods, seed=5, classifiers=("tree", "forest"))
    run_approach2(methods, classifiers=("tree", "forest"), seed=5)
    every_row, _ = ml._matrix(build_feature_rows(methods))
    with_nan = every_row.copy()
    with_nan[::7, 0] = math.nan
    unscaled = ml.MinMaxScaler(mins=(0.0,) * len(METRIC_NAMES), spans=(1.0,) * len(METRIC_NAMES))
    kinds = Counter()
    for model, rows in evaluated:
        reference = predict_forest_reference if isinstance(model, ml.ForestModel) else predict_tree_reference
        for X in (ml._matrix(rows)[0], every_row, with_nan):
            assert np.array_equal(model.predict(X), reference(model, X))
        on_splits = dataclasses.replace(model, scaler=unscaled)
        X = _at_thresholds(model, model.scaler.transform(every_row))
        assert np.array_equal(on_splits.predict(X), reference(on_splits, X))
        kinds[type(model).__name__] += 1
    # approach 1: each grid on validation, the best on test; approach 2: one per fold
    assert kinds == {"TreeModel": 3 + 1 + 4, "ForestModel": 2 + 1 + 4}


# --- exactness: the kernels against their reference loops, the grids read off one model

def _noisy_rows(n, seed, ties=False, project="p0"):
    """Rows whose label depends on two features plus noise, so trees grow deep."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, len(METRIC_NAMES)))
    if ties:
        X = np.round(X)
    X[:, 5] = 2.0  # a constant column
    ugly = X[:, 0] + X[:, 1] + rng.normal(scale=0.9, size=n) > 0.6
    return [FeatureRow(project, f"{project}:m{i:04d}", tuple(float(v) for v in X[i]),
                       "ugly" if ugly[i] else "good") for i in range(n)]


def _found(gain, feature, threshold):
    return None if gain == -math.inf else (gain.hex(), feature, threshold.hex())


def test_best_split_equals_the_per_feature_reference():
    """Each node of a batched search finds the split a search of that node
    alone finds, feature by feature."""
    rng = np.random.default_rng(11)
    found = searched = 0
    for case in range(60):
        # the last cases search many nodes of a large X
        wide = case >= 56
        n = 1700 if wide else int(rng.integers(2, 121))
        X = rng.normal(size=(n, 6))
        if case % 2 == 0:
            X = np.round(X * 2) / 2  # heavy ties
        X[:, case % 6] = 0.25  # a constant column
        y = (rng.random(n) < 0.4).astype(int)
        nodes = []
        for _ in range(45 if wide else int(rng.integers(1, 7))):
            size = int(rng.integers(2, 40 if wide else n + 2))
            # sampled with repeats, as a bootstrap is, or one row repeated:
            # nothing to split on
            nodes.append(np.full(size, rng.integers(n)) if rng.random() < 0.1 else rng.integers(0, n, size))
        m = int(rng.integers(1, 7))
        features = np.array([np.sort(rng.choice(6, size=m, replace=False)) for _ in nodes])
        rows, sizes = np.concatenate(nodes), np.array([len(node) for node in nodes])
        gain, feature, threshold = ml._best_splits(X, ml._value_ranks(X), y, rows, sizes, features)
        for i, node in enumerate(nodes):
            expected = best_split_reference(X[node], y[node], features[i])
            got = _found(float(gain[i]), int(feature[i]), float(threshold[i]))
            assert got == (expected and _found(*expected)), (case, i)
            found += expected is not None
            searched += 1
    assert 0 < found < searched


@pytest.mark.parametrize("case", range(8))
def test_train_logistic_equals_the_mean_and_clip_reference(case):
    n = (2, 7, 31, 120, 64, 15, 90, 3)[case]
    rows = _noisy_rows(n, seed=case, ties=case % 2 == 0)
    config = LogisticConfig(l2=(1.0, 0.1, 10.0)[case % 3])
    [got] = train_logistic([(rows, config)])
    expected = train_logistic_reference(rows, config)
    assert got.weights.tobytes() == expected.weights.tobytes()
    assert got.bias.hex() == expected.bias.hex()
    assert [v.hex() for v in got.loss_history] == [v.hex() for v in expected.loss_history]


def _assert_as_the_reference(model, rows, config):
    expected = train_logistic_reference(rows, config)
    assert model.config == config
    assert model.weights.tobytes() == expected.weights.tobytes()
    assert model.bias.hex() == expected.bias.hex()
    assert [v.hex() for v in model.loss_history] == [v.hex() for v in expected.loss_history]


# (row count, config) of each fit of one lockstep call
_BATCHES = {
    "the grid, one row count": [(64, config) for config in ml.LOGISTIC_GRID],
    "every row count differs": [
        (130, LogisticConfig(l2=0.1)),
        (2, LogisticConfig(l2=1.0)),
        (64, LogisticConfig(l2=10.0)),
        (3, LogisticConfig(l2=0.1)),
    ],
    "row counts repeat": [
        (3, LogisticConfig()),
        (64, LogisticConfig(l2=0.1)),
        (3, LogisticConfig(l2=10.0)),
        (64, LogisticConfig()),
    ],
}  # a batch of one: test_train_logistic_equals_the_mean_and_clip_reference


@pytest.mark.parametrize("batch", list(_BATCHES))
def test_lockstep_fits_equal_the_one_fit_reference(batch):
    """Each fit of one call is bit-identical to training it alone with the
    mean-and-clip step; the rows carry a constant column, which scales to
    0.0."""
    fits = [(_noisy_rows(n, seed=k, ties=k % 2 == 0), config) for k, (n, config) in enumerate(_BATCHES[batch])]
    models = train_logistic(fits)
    assert len(models) == len(fits)
    for model, (rows, config) in zip(models, fits):
        _assert_as_the_reference(model, rows, config)
    steps = [len(model.loss_history) for model in models]
    if batch == "every row count differs":
        # fits leave at different steps, one at MAX_ITER
        assert len(set(steps)) == len(steps) and steps[0] == ml.MAX_ITER


def test_a_diverging_fit_leaves_the_lockstep_alone(caplog):
    rows = _noisy_rows(40, seed=1)
    nan_rows = _noisy_rows(50, seed=2)
    nan_rows[3] = dataclasses.replace(nan_rows[3], features=(math.nan,) + nan_rows[3].features[1:])
    fits = [
        (rows, LogisticConfig()),
        (nan_rows, LogisticConfig()),  # a NaN feature: fails at its first step
        (_noisy_rows(3, seed=3), LogisticConfig(l2=10.0)),
        (rows, LogisticConfig(l2=10.0)),
    ]
    with np.errstate(invalid="ignore"), caplog.at_level(logging.INFO, logger="methodlens.ml"):
        first, failed, small, last = train_logistic(fits)
        with pytest.raises(ml.NonFiniteLoss):
            train_logistic_reference(*fits[1])
    assert isinstance(failed, ml.NonFiniteLoss)
    for model, fit in zip((first, small, last), (fits[0], fits[2], fits[3])):
        _assert_as_the_reference(model, *fit)
    assert [r.getMessage() for r in caplog.records] == [
        "logistic: 4 fits, 3 row-count groups, steps 5000/1/330/1202, 1 diverged"]


def _exact_shape(node):
    if node.is_leaf:
        return ("leaf", node.prediction, node.feature, node.threshold.hex())
    return ("split", node.prediction, node.feature, node.threshold.hex(),
            _exact_shape(node.left), _exact_shape(node.right))


@pytest.mark.parametrize("seed", [0, 13])
def test_forest_of_fifty_is_the_first_fifty_trees_of_a_hundred(seed):
    rows = _noisy_rows(60, seed=seed, ties=True)
    hundred = train_forest(rows, ForestConfig(trees=100, seed=seed))
    fifty = train_forest(rows, ForestConfig(trees=50, seed=seed))
    expected = [_exact_shape(root) for root, _ in grown_trees(fifty.trees)]
    assert [_exact_shape(root) for root, _ in grown_trees(hundred.trees)[:50]] == expected
    prefix = hundred.prefix(ForestConfig(trees=50, seed=seed))
    assert [_exact_shape(root) for root, _ in grown_trees(prefix.trees)] == expected
    assert prefix.config == fifty.config and prefix.scaler == fifty.scaler


def test_depth_bounded_tree_is_the_unbounded_tree_cut():
    for rows in (_noisy_rows(150, seed=4, ties=True), _tough_rows(150, seed=4)):
        unbounded = train_tree(rows)
        [(root, deepest)] = grown_trees(unbounded.trees)
        assert deepest > 8
        for depth in range(deepest + 2):
            config = TreeConfig(max_depth=depth)
            bounded = train_tree(rows, config)
            cut = unbounded.truncated(config)
            [(cut_root, cut_depth)] = grown_trees(cut.trees)
            [(bounded_root, bounded_depth)] = grown_trees(bounded.trees)
            assert _exact_shape(cut_root) == _exact_shape(bounded_root)
            assert (cut_depth, cut.config, cut.scaler) == (bounded_depth, bounded.config, bounded.scaler)
        [(kept, _)] = grown_trees(unbounded.truncated(TreeConfig()).trees)
        assert _exact_shape(kept) == _exact_shape(root)


def test_a_config_that_cannot_be_read_off_is_rejected():
    rows = _noisy_rows(40, seed=2)
    with pytest.raises(ValueError):
        train_tree(rows, TreeConfig(max_depth=4)).truncated(TreeConfig(max_depth=8))
    with pytest.raises(ValueError):
        train_forest(rows, ForestConfig(trees=5, seed=1)).prefix(ForestConfig(trees=6, seed=1))
    with pytest.raises(ValueError):
        train_forest(rows, ForestConfig(trees=5, seed=1)).prefix(ForestConfig(trees=3, seed=2))


# --- the lockstep grower against the depth-first recursion, node for node

def _tough_rows(n, seed):
    """`_noisy_rows` with heavy ties and a constant column, whose last third
    repeats the features of the first rows, every other one relabelled, so
    that some nodes have nothing to split on."""
    rows = _noisy_rows(n, seed=seed, ties=True)
    for i in range(n // 3):
        label = rows[i].label if i % 2 else {"good": "ugly", "ugly": "good"}[rows[i].label]
        rows[n - 1 - i] = dataclasses.replace(rows[n - 1 - i], features=rows[i].features, label=label)
    return rows


def _scaled(rows):
    X_raw, y = ml._matrix(rows)
    return ml.MinMaxScaler.fit(X_raw).transform(X_raw), y


def _samples(n, trees, seed, bootstrap):
    """(rows, generator) of each of `trees` trees of n rows: a bootstrap
    sample, drawn as `train_forest` draws it, or every row once."""
    for child in np.random.SeedSequence(seed).spawn(trees):
        rng = np.random.default_rng(child)
        yield (rng.integers(0, n, n) if bootstrap else np.arange(n)), rng


def _assert_grown_as_the_recursion(rows, max_depth, growths, forest=None):
    """`train_tree`, `ml._grow` on the samples of each (trees, seed,
    features per split, bootstrap) of `growths`, and `train_forest` under
    `forest` grow the (root, depth) of the depth-first recursion."""
    X, y = _scaled(rows)
    config = TreeConfig(max_depth=max_depth)

    def recursion(samples, features_per_split):
        return [(_exact_shape(root), depth) for root, depth in (
            grow_tree_reference(X[idx], y[idx], config, 0, rng, features_per_split) for idx, rng in samples)]

    def shapes(trees):
        return [(_exact_shape(root), depth) for root, depth in grown_trees(trees)]

    assert shapes(train_tree(rows, config).trees) == recursion([(np.arange(len(y)), None)], None)
    for trees, seed, features, bootstrap in growths:
        grown = ml._grow(X, y, config, _samples(len(y), trees, seed, bootstrap), features)
        expected = recursion(_samples(len(y), trees, seed, bootstrap), features)
        assert shapes(grown) == expected, (trees, seed, features, bootstrap)
    if forest is not None:
        expected = recursion(_samples(len(y), forest.trees, forest.seed, True), ml.FEATURES_PER_SPLIT)
        assert shapes(train_forest(rows, forest).trees) == expected


@pytest.mark.parametrize("max_depth", [None, 0, 1, 3])
@pytest.mark.parametrize("n", [1, 2, 3, 60, 150])
def test_lockstep_trees_and_forests_equal_the_recursion_node_for_node(n, max_depth):
    growths = [(3, n + k, features, bootstrap)
               for k, features in enumerate((None, 1, 4, 17)) for bootstrap in (True, False)]
    _assert_grown_as_the_recursion(_tough_rows(n, seed=n), max_depth, growths,
                                   ForestConfig(trees=3, seed=n) if max_depth is None else None)


def test_a_root_larger_than_a_step_grows_as_the_recursion_grows_it():
    rows = _tough_rows(ml._STEP_ROWS + 76, seed=5)
    _assert_grown_as_the_recursion(rows, None, [(1, 4, None, True)], ForestConfig(trees=2, seed=3))


def _most_open(records) -> int:
    """The most trees open at once in the last `_grow` logged in records."""
    return int(records[-1].getMessage().rsplit("at most ", 1)[1].split()[0])


def test_no_batched_search_holds_more_than_the_step_rows_unless_it_is_one_node(monkeypatch, caplog):
    calls = []
    search = ml._best_splits

    def recording(X, ranks, y, rows, sizes, *rest):
        calls.append((len(rows), len(sizes)))
        return search(X, ranks, y, rows, sizes, *rest)

    monkeypatch.setattr(ml, "_best_splits", recording)
    drawing, most_open = {}, {}
    with caplog.at_level(logging.INFO, logger="methodlens.ml"):
        for n, trees in ((4, 900), (60, 30), (150, 30), (ml._STEP_ROWS + 76, 30)):
            rows = _tough_rows(n, seed=n)
            train_tree(rows)
            ml._grow(*_scaled(rows), TreeConfig(), _samples(n, 10, 2, True), None)
            start = len(calls)
            train_forest(rows, ForestConfig(trees=trees, seed=1))
            drawing[n] = max(nodes for _, nodes in calls[start:])
            most_open[n] = _most_open(caplog.records)
    assert all(searched <= ml._STEP_ROWS or nodes == 1 for searched, nodes in calls)
    assert any(searched > ml._STEP_ROWS for searched, _ in calls)  # the large roots, alone
    assert max(nodes for _, nodes in calls) > 20  # the nodes of many trees, or of one tree's level
    # a tree that draws features gives one node to a search; a step is
    # filled by the rows of its nodes, not sized for roots, so more than
    # _STEP_ROWS // n trees of n rows share one, but an open node holds at
    # least two rows, so no more than _STEP_ROWS // 2 trees are open at once
    assert drawing[60] > ml._STEP_ROWS // 60
    assert drawing[ml._STEP_ROWS + 76] == most_open[ml._STEP_ROWS + 76] == 1
    assert all(drawing[n] <= most_open[n] <= ml._STEP_ROWS // 2 for n in drawing)
    assert most_open[4] > ml._STEP_ROWS // 4  # the bound is reached, not merely kept


def test_each_grow_logs_its_trees_nodes_and_split_searches(caplog):
    rows = _tough_rows(60, seed=60)
    with caplog.at_level(logging.INFO, logger="methodlens.ml"):
        train_tree(rows)
        train_forest(rows, ForestConfig(trees=30, seed=1))
    assert [r.getMessage() for r in caplog.records] == [
        "grow: 1 tree, 37 nodes, 9 split searches, at most 1 open at once",
        "grow: 30 trees, 888 nodes, 25 split searches, at most 30 open at once",
    ]


# --- the forest's feature draws

def test_a_node_searches_the_features_of_its_four_smallest_uniform_draws(monkeypatch):
    """The features of the first node of default_rng(0) and default_rng(1):
    np.sort(np.argsort(rng.random(17), kind="stable")[:4])."""
    searched = []
    search = ml._best_splits

    def recording(X, ranks, y, rows, sizes, features):
        searched.append(features.tolist())
        return search(X, ranks, y, rows, sizes, features)

    monkeypatch.setattr(ml, "_best_splits", recording)
    X, y = _scaled(_tough_rows(60, seed=60))
    ml._grow(X, y, TreeConfig(), [(np.arange(60), np.random.default_rng(seed)) for seed in (0, 1)], 4)
    assert searched[0] == [[2, 3, 11, 13], [2, 9, 14, 16]]


def test_a_tree_draws_one_row_of_doubles_per_searched_node_and_nothing_ahead():
    X, y = _scaled(_tough_rows(60, seed=60))
    for seed in range(3):
        samples = list(_samples(60, 5, seed, True))
        ml._grow(X, y, TreeConfig(), samples, ml.FEATURES_PER_SPLIT)
        for (_, rng), (rows, twin) in zip(samples, _samples(60, 5, seed, True)):
            grow_tree_reference(X[rows], y[rows], TreeConfig(), 0, twin, ml.FEATURES_PER_SPLIT)
            assert rng.random() == twin.random()


def test_approach1_trains_each_tree_grid_once_and_tunes_as_training_every_config(monkeypatch):
    methods = [
        labeled(i, project=f"proj{p}", label=row.label,
                metrics=metric_vector(size=row.features[0], mccabe=row.features[1],
                                      readability=row.features[2]))
        for p in range(5)
        for i, row in enumerate(_noisy_rows(40, seed=p, ties=True), start=100 * p)
    ]
    seed = 5
    calls = Counter()

    def counting(name, trainer):
        def train(*args):
            calls[name] += 1
            return trainer(*args)
        return train

    trainers = dict(ml._TRAINERS)
    for name, (trainer, grid) in trainers.items():
        monkeypatch.setitem(ml._TRAINERS, name, (counting(name, trainer), grid))
    outcome = run_approach1(methods, seed=seed)
    assert calls == {"logistic": 1, "tree": 1, "forest": 1}

    def train_alone(name, trainer, rows, config):
        return trainer([(rows, config)])[0] if name == "logistic" else trainer(rows, config)

    rows = build_feature_rows(methods)
    plan = outcome["plan"]
    train_os = oversample([r for r in rows if r.projectId in plan.trainProjects], seed)
    val_rows = [r for r in rows if r.projectId in plan.validationProjects]
    test_rows = [r for r in rows if r.projectId in plan.testProjects]
    for name, (trainer, grid) in trainers.items():
        models = [train_alone(name, trainer, train_os, ml._with_seed(config, seed)) for config in grid]
        scores = [evaluate(m, val_rows).perClass["ugly"].fMeasure for m in models]
        best = scores.index(max(scores))
        entry = outcome["results"][name]
        assert (entry["validationF"], entry["config"]) == (scores[best], grid[best].describe())
        assert entry["report"].confusion == evaluate(models[best], test_rows).confusion
