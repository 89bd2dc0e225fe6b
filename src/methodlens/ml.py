"""Inception-time prediction of highly change-prone methods.

Feature rows carry the 17 metrics; classifiers (logistic regression, CART,
random forest) are implemented here directly so runs are fully deterministic
given a seed.  Two evaluation protocols: a 70/10/20 project split with
validation-based tuning, and leave-one-project-out.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .labeling import LabeledMethod
from .metrics import METRIC_NAMES

log = logging.getLogger("methodlens.ml")

FEATURE_ORDER = list(METRIC_NAMES)

POSITIVE_LABEL = "ugly"
NEGATIVE_LABEL = "good"


class NoUglyRows(Exception):
    pass


class TooFewProjects(Exception):
    pass


class SingleClass(Exception):
    pass


class NonFiniteLoss(Exception):
    pass


class EmptyTestSet(Exception):
    pass


@dataclass(frozen=True)
class FeatureRow:
    projectId: str
    methodId: str
    features: tuple[float, ...]
    label: str  # good | ugly


@dataclass(frozen=True)
class SplitPlan:
    trainProjects: tuple[str, ...]
    validationProjects: tuple[str, ...]
    testProjects: tuple[str, ...]
    seed: int


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    fMeasure: float
    flags: tuple[str, ...] = ()


@dataclass
class EvaluationReport:
    classifier: str
    positiveClass: str
    perClass: dict[str, ClassMetrics]
    confusion: dict[str, int]  # tp/fp/fn/tn with respect to the positive class
    seed: int = 0


def build_feature_rows(methods: list[LabeledMethod]) -> list[FeatureRow]:
    """Good/ugly rows in deterministic (project, identity) order; bad methods
    are dropped."""
    rows = [
        FeatureRow(
            projectId=m.identity.project,
            methodId=m.identity.as_str(),
            features=tuple(m.metrics.as_floats()),
            label=m.label,
        )
        for m in methods
        if m.label in (POSITIVE_LABEL, NEGATIVE_LABEL)
    ]
    rows.sort(key=lambda r: (r.projectId, r.methodId))
    if not any(r.label == POSITIVE_LABEL for r in rows):
        raise NoUglyRows("no ugly-labeled rows; cannot train a classifier")
    return rows


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def project_split(projects, seed: int, ratios=(0.7, 0.1, 0.2)) -> SplitPlan:
    """Seeded project-level shuffle into train/validation/test; every set is
    non-empty."""
    projects = sorted(set(projects))
    if len(projects) < 3:
        raise TooFewProjects(f"need at least 3 projects, got {len(projects)}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = list(rng.permutation(len(projects)))
    shuffled = [projects[i] for i in order]
    n = len(projects)
    n_test = max(1, _round_half_up(ratios[2] * n))
    n_val = max(1, _round_half_up(ratios[1] * n))
    if n_test + n_val >= n:
        raise TooFewProjects("split leaves no training projects")
    test = tuple(sorted(shuffled[:n_test]))
    validation = tuple(sorted(shuffled[n_test:n_test + n_val]))
    train = tuple(sorted(shuffled[n_test + n_val:]))
    return SplitPlan(trainProjects=train, validationProjects=validation, testProjects=test, seed=seed)


def leave_one_out_plans(projects) -> list[SplitPlan]:
    projects = sorted(set(projects))
    if len(projects) < 2:
        raise TooFewProjects("leave-one-out needs at least 2 projects")
    return [
        SplitPlan(
            trainProjects=tuple(p for p in projects if p != held_out),
            validationProjects=(),
            testProjects=(held_out,),
            seed=0,
        )
        for held_out in projects
    ]


def oversample(rows: list[FeatureRow], seed: int) -> list[FeatureRow]:
    """Duplicate minority-class rows uniformly at random (with replacement)
    until the classes balance.  Training rows only; never call on test data."""
    by_label = {POSITIVE_LABEL: [], NEGATIVE_LABEL: []}
    for r in rows:
        by_label[r.label].append(r)
    n_pos = len(by_label[POSITIVE_LABEL])
    n_neg = len(by_label[NEGATIVE_LABEL])
    if n_pos == 0 or n_neg == 0:
        raise SingleClass("oversampling needs both classes present")
    if n_pos == n_neg:
        return list(rows)
    minority = by_label[POSITIVE_LABEL] if n_pos < n_neg else by_label[NEGATIVE_LABEL]
    deficit = abs(n_neg - n_pos)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    extra = [minority[i] for i in rng.integers(0, len(minority), deficit)]
    return list(rows) + extra


# ---------------------------------------------------------------------------
# feature scaling


@dataclass(frozen=True)
class MinMaxScaler:
    mins: tuple[float, ...]
    spans: tuple[float, ...]

    @classmethod
    def fit(cls, X: np.ndarray) -> "MinMaxScaler":
        mins = X.min(axis=0)
        spans = X.max(axis=0) - mins
        return cls(mins=tuple(float(v) for v in mins), spans=tuple(float(v) for v in spans))

    def transform(self, X: np.ndarray) -> np.ndarray:
        mins = np.asarray(self.mins)
        spans = np.asarray(self.spans)
        safe = np.where(spans == 0.0, 1.0, spans)
        scaled = (X - mins) / safe
        return np.where(spans == 0.0, 0.0, scaled)


def _matrix(rows: list[FeatureRow]) -> tuple[np.ndarray, np.ndarray]:
    X = np.array([r.features for r in rows], dtype=float)
    y = np.array([1 if r.label == POSITIVE_LABEL else 0 for r in rows], dtype=int)
    return X, y


# ---------------------------------------------------------------------------
# logistic regression


@dataclass(frozen=True)
class LogisticConfig:
    l2: float = 1.0
    learning_rate: float = 0.1
    max_iter: int = 5000
    tol: float = 1e-8

    def describe(self) -> dict:
        return {"l2": self.l2, "learningRate": self.learning_rate,
                "maxIter": self.max_iter, "tol": self.tol}


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    scaler: MinMaxScaler
    config: LogisticConfig
    loss_history: list[float] = field(default_factory=list)

    def decision(self, X: np.ndarray) -> np.ndarray:
        return self.scaler.transform(X) @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision(X) > 0).astype(int)


def train_logistic(rows: list[FeatureRow], config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Full-batch gradient descent on L2-regularized log-loss, zero init.

    Each step is the plain `np.mean`/`np.clip` step in the same operation
    order (`tests/oracles.py` keeps it): a mean is `np.add.reduce` followed
    by the division by n, and the clip is maximum then minimum, so the
    weights, bias and losses are bit-identical to it."""
    X_raw, y01 = _matrix(rows)
    scaler = MinMaxScaler.fit(X_raw)
    X = scaler.transform(X_raw)
    y = np.where(y01 == 1, 1.0, -1.0)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    loss_l2 = config.l2 / (2.0 * n)
    grad_l2 = config.l2 / n
    rate = config.learning_rate
    tol = config.tol
    weighted = np.empty_like(X)
    add, exp, logaddexp = np.add.reduce, np.exp, np.logaddexp
    maximum, minimum, multiply = np.maximum, np.minimum, np.multiply
    losses: list[float] = []
    for _ in range(config.max_iter):
        yz = y * (X @ w + b)
        loss = float(add(logaddexp(0.0, -yz)) / n + loss_l2 * float(w @ w))
        if not math.isfinite(loss):
            raise NonFiniteLoss("logistic training diverged")
        if losses and abs(losses[-1] - loss) < tol:
            losses.append(loss)
            break
        losses.append(loss)
        ys = y * (1.0 / (1.0 + exp(minimum(maximum(yz, -500.0), 500.0))))  # y * sigma(-y*z)
        multiply(X, ys[:, None], out=weighted)
        grad_w = -(add(weighted, axis=0) / n) + grad_l2 * w
        grad_b = float(-(add(ys) / n))
        w = w - rate * grad_w
        b = b - rate * grad_b
    return LogisticModel(weights=w, bias=b, scaler=scaler, config=config, loss_history=losses)


# ---------------------------------------------------------------------------
# CART decision tree


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None
    min_samples_leaf: int = 1

    def describe(self) -> dict:
        return {"maxDepth": self.max_depth, "minSamplesLeaf": self.min_samples_leaf}


def _gini(pos: float, total: float) -> float:
    if total <= 0:
        return 0.0
    p = pos / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def _best_split(X: np.ndarray, y: np.ndarray, feature_indices, min_leaf: int):
    """(gain, feature, threshold) of the best Gini split, or None.

    Thresholds sit at midpoints of consecutive distinct values; ties resolve
    to the lowest feature index, then the lowest threshold (feature_indices
    must be in ascending order).  All features are searched in one pass: row
    k of each column scores the split after sorted position k, with the same
    elementwise arithmetic as a search of one feature at a time
    (`tests/oracles.py` keeps that loop), so gains and thresholds are equal
    to its bits.
    """
    n = len(y)
    total_pos = int(y.sum())
    parent = _gini(total_pos, n)
    columns = np.arange(len(feature_indices))
    values = X[:, feature_indices]
    order = values.argsort(axis=0, kind="stable")
    sv = values[order, columns]
    distinct = sv[1:] > sv[:-1]
    left_pos = y[order].cumsum(axis=0)[:-1]
    left_n = np.arange(1, n)[:, None]
    right_n = n - left_n
    valid = (left_n >= min_leaf) & (right_n >= min_leaf)
    right_pos = total_pos - left_pos
    lp = left_pos / left_n
    rp = right_pos / right_n
    lq = 1.0 - lp
    rq = 1.0 - rp
    gini_left = 1.0 - lp * lp - lq * lq
    gini_right = 1.0 - rp * rp - rq * rq
    weighted = (left_n * gini_left + right_n * gini_right) / n
    gains = np.where(distinct & valid, parent - weighted, -np.inf)
    at = gains.argmax(axis=0)  # first maximum -> lowest threshold
    column_best = gains[at, columns]
    j = int(column_best.argmax())  # first maximum -> lowest feature
    gain = float(column_best[j])
    # zero-gain splits are still taken (both children shrink, recursion
    # terminates at pure or indistinguishable nodes); XOR-like patterns
    # need them to reach pure leaves
    if not math.isfinite(gain):
        return None
    k = at[j]
    return gain, int(feature_indices[j]), float((sv[k, j] + sv[k + 1, j]) / 2.0)


@dataclass
class _Node:
    prediction: int = 0
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass
class TreeModel:
    root: _Node
    scaler: MinMaxScaler
    config: TreeConfig
    depth: int

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xs = self.scaler.transform(X)
        out = np.empty(len(Xs), dtype=int)
        for i, x in enumerate(Xs):
            node = self.root
            while not node.is_leaf:
                node = node.left if x[node.feature] <= node.threshold else node.right
            out[i] = node.prediction
        return out

    def truncated(self, config: TreeConfig) -> "TreeModel":
        """The tree `train_tree` grows under `config` on this tree's rows, cut
        from this one: a node at depth `config.max_depth` becomes a leaf of
        the majority prediction it already stores.  Exact for a depth this
        tree reaches or passes, at the same minimum leaf size."""
        grown = self.config.max_depth
        cuttable = grown is None or (config.max_depth is not None and config.max_depth <= grown)
        if config.min_samples_leaf != self.config.min_samples_leaf or not cuttable:
            raise ValueError(f"{config} cannot be cut from a tree grown under {self.config}")
        if config.max_depth is None:
            return replace(self, config=config)
        return TreeModel(root=_cut(self.root, config.max_depth), scaler=self.scaler,
                         config=config, depth=min(self.depth, config.max_depth))


def _cut(node: _Node, depth: int) -> _Node:
    if node.is_leaf or depth == 0:
        return _Node(prediction=node.prediction)
    return _Node(node.prediction, node.feature, node.threshold,
                 _cut(node.left, depth - 1), _cut(node.right, depth - 1))


def _grow_tree(X, y, config: TreeConfig, depth: int, rng, features_per_split) -> tuple[_Node, int]:
    n = len(y)
    pos = int(y.sum())  # labels are 0/1: one sum gives majority, emptiness and purity
    node = _Node(prediction=1 if pos > n - pos else 0)  # tie goes to 'good'
    if pos in (0, n):
        return node, depth
    if config.max_depth is not None and depth >= config.max_depth:
        return node, depth
    n_features = X.shape[1]
    if features_per_split is not None and rng is not None and features_per_split < n_features:
        chosen = np.sort(rng.choice(n_features, size=features_per_split, replace=False))
    else:
        chosen = np.arange(n_features)
    found = _best_split(X, y, chosen, config.min_samples_leaf)
    if found is None:
        return node, depth
    _, f, threshold = found
    mask = X[:, f] <= threshold
    node.feature = f
    node.threshold = threshold
    node.left, dl = _grow_tree(X[mask], y[mask], config, depth + 1, rng, features_per_split)
    node.right, dr = _grow_tree(X[~mask], y[~mask], config, depth + 1, rng, features_per_split)
    return node, max(dl, dr)


def train_tree(rows: list[FeatureRow], config: TreeConfig = TreeConfig()) -> TreeModel:
    X_raw, y = _matrix(rows)
    scaler = MinMaxScaler.fit(X_raw)
    root, depth = _grow_tree(scaler.transform(X_raw), y, config, 0, None, None)
    return TreeModel(root=root, scaler=scaler, config=config, depth=depth)


# ---------------------------------------------------------------------------
# random forest


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    features_per_split: int | None = int(math.sqrt(len(FEATURE_ORDER)))  # floor(sqrt(17)) = 4
    seed: int = 0
    bootstrap: bool = True
    max_depth: int | None = None
    min_samples_leaf: int = 1

    def describe(self) -> dict:
        return {"trees": self.trees, "featuresPerSplit": self.features_per_split,
                "seed": self.seed, "bootstrap": self.bootstrap,
                "maxDepth": self.max_depth, "minSamplesLeaf": self.min_samples_leaf}


@dataclass
class ForestModel:
    roots: list[_Node]
    scaler: MinMaxScaler
    config: ForestConfig

    def predict(self, X: np.ndarray) -> np.ndarray:
        Xs = self.scaler.transform(X)
        votes = np.zeros(len(Xs), dtype=int)
        for root in self.roots:
            for i, x in enumerate(Xs):
                node = root
                while not node.is_leaf:
                    node = node.left if x[node.feature] <= node.threshold else node.right
                votes[i] += node.prediction
        # strict majority for 'ugly'; ties go to 'good'
        return (votes * 2 > len(self.roots)).astype(int)

    def prefix(self, config: ForestConfig) -> "ForestModel":
        """The forest `train_forest` grows under `config` on this forest's
        rows: its first `config.trees` trees, because tree i is grown from
        the i-th child that `SeedSequence.spawn` hands out, whatever the
        number of children asked for."""
        if config.trees > self.config.trees or replace(config, trees=self.config.trees) != self.config:
            raise ValueError(f"{config} is not a prefix of a forest grown under {self.config}")
        return ForestModel(roots=self.roots[:config.trees], scaler=self.scaler, config=config)


def train_forest(rows: list[FeatureRow], config: ForestConfig = ForestConfig()) -> ForestModel:
    """Bagged CART trees with per-split feature subsampling; all randomness
    derives from per-tree seeds spawned from the root seed."""
    X_raw, y = _matrix(rows)
    scaler = MinMaxScaler.fit(X_raw)
    X = scaler.transform(X_raw)
    n = len(rows)
    tree_cfg = TreeConfig(max_depth=config.max_depth, min_samples_leaf=config.min_samples_leaf)
    roots = []
    for child_seq in np.random.SeedSequence(config.seed).spawn(config.trees):
        rng = np.random.default_rng(child_seq)
        if config.bootstrap:
            idx = rng.integers(0, n, n)
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        root, _ = _grow_tree(Xb, yb, tree_cfg, 0, rng, config.features_per_split)
        roots.append(root)
    return ForestModel(roots=roots, scaler=scaler, config=config)


# ---------------------------------------------------------------------------
# evaluation


def _safe_ratio(num: int, den: int, flag: str, flags: list[str], undefined_as: float) -> float:
    if den == 0:
        flags.append(flag)
        return undefined_as
    return num / den


def evaluate(
    model,
    rows: list[FeatureRow],
    positive: str = POSITIVE_LABEL,
    classifier: str = "",
    undefined_as: float = 0.0,
) -> EvaluationReport:
    """Precision/recall/F for both class orientations plus the confusion
    matrix.  Zero-denominator scores become `undefined_as` and are flagged."""
    if not rows:
        raise EmptyTestSet("no test rows")
    X, y = _matrix(rows)
    predicted = model.predict(X)
    pos = 1 if positive == POSITIVE_LABEL else 0
    actual_pos = y == pos
    pred_pos = predicted == pos
    tp = int(np.sum(actual_pos & pred_pos))
    fp = int(np.sum(~actual_pos & pred_pos))
    fn = int(np.sum(actual_pos & ~pred_pos))
    tn = int(np.sum(~actual_pos & ~pred_pos))

    def class_metrics(tp_, fp_, fn_, label) -> ClassMetrics:
        flags: list[str] = []
        precision = _safe_ratio(tp_, tp_ + fp_, f"precision_{label}_undefined", flags, undefined_as)
        recall = _safe_ratio(tp_, tp_ + fn_, f"recall_{label}_undefined", flags, undefined_as)
        if (isinstance(precision, float) and math.isnan(precision)) or (
            isinstance(recall, float) and math.isnan(recall)
        ):
            f_measure = float("nan")
        elif precision + recall == 0:
            f_measure = 0.0
        else:
            f_measure = 2 * precision * recall / (precision + recall)
        return ClassMetrics(precision=precision, recall=recall, fMeasure=f_measure, flags=tuple(flags))

    per_class = {
        POSITIVE_LABEL if pos == 1 else NEGATIVE_LABEL: class_metrics(tp, fp, fn, positive),
        NEGATIVE_LABEL if pos == 1 else POSITIVE_LABEL: class_metrics(
            tn, fn, fp, NEGATIVE_LABEL if pos == 1 else POSITIVE_LABEL
        ),
    }
    return EvaluationReport(
        classifier=classifier,
        positiveClass=positive,
        perClass=per_class,
        confusion={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    )


# ---------------------------------------------------------------------------
# protocols

CLASSIFIER_NAMES = ("logistic", "tree", "forest")

LOGISTIC_GRID = (LogisticConfig(l2=1.0), LogisticConfig(l2=0.1), LogisticConfig(l2=10.0))
TREE_GRID = (TreeConfig(max_depth=None), TreeConfig(max_depth=8), TreeConfig(max_depth=4))
FOREST_GRID = (ForestConfig(trees=100), ForestConfig(trees=50))

_TRAINERS = {
    "logistic": (train_logistic, LOGISTIC_GRID),
    "tree": (train_tree, TREE_GRID),
    "forest": (train_forest, FOREST_GRID),
}


def _rows_for(rows: list[FeatureRow], projects) -> list[FeatureRow]:
    wanted = set(projects)
    return [r for r in rows if r.projectId in wanted]


def _with_seed(config, seed: int):
    return replace(config, seed=seed) if isinstance(config, ForestConfig) else config


# models of a whole grid read off one model of its first, widest config
_READ_OFF = {"tree": TreeModel.truncated, "forest": ForestModel.prefix}


def _grid_models(name: str, rows: list[FeatureRow], seed: int) -> list[tuple]:
    """(config, model) for each config of the classifier's grid, in grid
    order.  Logistic regression trains each config; the tree and forest
    grids are read off one trained model, which gives the models training
    each config would."""
    trainer, grid = _TRAINERS[name]
    read_off = _READ_OFF.get(name)
    if read_off is None:
        return [(config, trainer(rows, _with_seed(config, seed))) for config in grid]
    widest = trainer(rows, _with_seed(grid[0], seed))
    return [(grid[0], widest)] + [(config, read_off(widest, _with_seed(config, seed))) for config in grid[1:]]


def run_approach1(
    methods: list[LabeledMethod],
    seed: int,
    classifiers=CLASSIFIER_NAMES,
) -> dict:
    """70/10/20 project split; oversample the training rows; tune each
    classifier on validation F(ugly) over its small grid; report on test."""
    rows = build_feature_rows(methods)
    plan = project_split({r.projectId for r in rows}, seed)
    train_rows = _rows_for(rows, plan.trainProjects)
    val_rows = _rows_for(rows, plan.validationProjects)
    test_rows = _rows_for(rows, plan.testProjects)
    train_os = oversample(train_rows, seed)
    results = {}
    for name in classifiers:
        best = None
        for config, model in _grid_models(name, train_os, seed):
            if val_rows:
                score = evaluate(model, val_rows, classifier=name).perClass[POSITIVE_LABEL].fMeasure
            else:
                score = 0.0
            if best is None or score > best[0]:
                best = (score, config, model)
        _, best_config, best_model = best
        report = evaluate(best_model, test_rows, classifier=name)
        report.seed = seed
        results[name] = {
            "report": report,
            "config": best_config.describe(),
            "validationF": best[0],
        }
    return {"plan": plan, "results": results}


def run_approach2(
    methods: list[LabeledMethod],
    classifiers=CLASSIFIER_NAMES,
    seed: int = 0,
) -> dict:
    """Leave-one-project-out: one report per held-out project, plus
    plot-ready per-project precision/recall points."""
    rows = build_feature_rows(methods)
    plans = leave_one_out_plans({r.projectId for r in rows})
    per_project: dict[str, dict] = {}
    for i, plan in enumerate(plans):
        held_out = plan.testProjects[0]
        train_rows = _rows_for(rows, plan.trainProjects)
        test_rows = _rows_for(rows, plan.testProjects)
        entry: dict = {}
        for name in classifiers:
            trainer, grid = _TRAINERS[name]
            try:
                train_os = oversample(train_rows, seed + i)
                model = trainer(train_os, _with_seed(grid[0], seed + i))
                report = evaluate(
                    model, test_rows, classifier=name, undefined_as=float("nan")
                )
                report.seed = seed
                entry[name] = report
            except (SingleClass, EmptyTestSet, NonFiniteLoss) as err:
                log.warning("project %s: %s failed: %s", held_out, name, err)
                entry[name] = None
        per_project[held_out] = entry
    return {"projects": per_project, "classifiers": list(classifiers)}
