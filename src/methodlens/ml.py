"""Inception-time prediction of highly change-prone methods.

Feature rows carry the 17 metrics; classifiers (logistic regression, CART,
random forest) are implemented here directly so runs are fully deterministic
given a seed.  Two evaluation protocols: a 70/10/20 project split with
validation-based tuning, and leave-one-project-out.
"""

from __future__ import annotations

import logging
import math
from array import array
from dataclasses import dataclass, field, replace

import numpy as np

# the cheap not-trainable checks live in labeling, which loads no numpy; their
# exceptions stay importable from here
from .labeling import (CLASSIFIER_NAMES, LabeledMethod, NotTrainable, NoUglyRows, TooFewProjects, require_projects,
                       require_ugly)
from .metrics import METRIC_NAMES

log = logging.getLogger("methodlens.ml")

FEATURE_ORDER = list(METRIC_NAMES)

POSITIVE_LABEL = "ugly"
NEGATIVE_LABEL = "good"


class SingleClass(NotTrainable):
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
    require_ugly({r.label for r in rows})
    return rows


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


SPLIT_RATIOS = (0.7, 0.1, 0.2)  # train, validation, test


def project_split(projects, seed: int) -> SplitPlan:
    """Seeded project-level shuffle into train/validation/test by
    `SPLIT_RATIOS`; every set is non-empty, as for n >= 3 projects
    max(1, round(0.2n)) + max(1, round(0.1n)) < n."""
    projects = sorted(set(projects))
    require_projects(projects, 1)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = list(rng.permutation(len(projects)))
    shuffled = [projects[i] for i in order]
    n = len(projects)
    n_test = max(1, _round_half_up(SPLIT_RATIOS[2] * n))
    n_val = max(1, _round_half_up(SPLIT_RATIOS[1] * n))
    test = tuple(sorted(shuffled[:n_test]))
    validation = tuple(sorted(shuffled[n_test:n_test + n_val]))
    train = tuple(sorted(shuffled[n_test + n_val:]))
    return SplitPlan(trainProjects=train, validationProjects=validation, testProjects=test)


def leave_one_out_plans(projects) -> list[SplitPlan]:
    projects = sorted(set(projects))
    require_projects(projects, 2)
    return [
        SplitPlan(
            trainProjects=tuple(p for p in projects if p != held_out),
            validationProjects=(),
            testProjects=(held_out,),
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


# The values the grids do not tune, fixed: the descent's step size, step cap
# and convergence tolerance, a tree's minimum leaf size, and a forest's
# features per split, floor(sqrt(17)) = 4 as in Breiman (2001); a forest
# always bootstraps and grows its trees to full depth.  `describe()` still
# records them.
LEARNING_RATE = 0.1
MAX_ITER = 5000
TOL = 1e-8
MIN_SAMPLES_LEAF = 1
FEATURES_PER_SPLIT = int(math.sqrt(len(FEATURE_ORDER)))


@dataclass(frozen=True)
class LogisticConfig:
    l2: float = 1.0

    def describe(self) -> dict:
        return {"l2": self.l2, "learningRate": LEARNING_RATE, "maxIter": MAX_ITER, "tol": TOL}


@dataclass
class LogisticModel:
    weights: np.ndarray
    bias: float
    scaler: MinMaxScaler
    config: LogisticConfig
    loss_history: array = field(default_factory=lambda: array("d"))  # the loss of each step, as float64

    def decision(self, X: np.ndarray) -> np.ndarray:
        return self.scaler.transform(X) @ self.weights + self.bias

    def predict(self, X: np.ndarray) -> np.ndarray:
        return (self.decision(X) > 0).astype(int)


def _stack(fits, W: np.ndarray):
    """The arrays of a lockstep descent of `fits`, (X, y, config) of each in
    ascending row count, whose weights are the rows of W.

    Fit i's rows are X[i, :n_i] and its labels Y[i, :n_i].  Its pad rows are
    -0.0 with label +1, so a pad row's term of the weight gradient, -0.0
    times a positive y * sigma, is -0.0.  The gradient sums over the first
    axis of Xt, X as a C-contiguous (rows, fits, features) array: that
    `add.reduce` adds row after row, as the one-fit sum over X's rows does,
    but each addition spans all fits' weights at once.  So the pad terms
    come after the fit's own rows, and adding -0.0 leaves a sum's bits as
    they are.  A step writes each fit's
    log-loss terms and y * sigma(-y*z) into terms_ys[0] and terms_ys[1].
    The fits of one row count m are a slice a:b of the stack.  They share
    one stacked `matmul` of X[a:b, :m] and W[a:b] into z[a:b, :m], a BLAS
    gemv per entry as `X @ w` is for one fit, and a span (:, a:b, :m) of
    terms_ys, or `...` when they are the whole stack, whose `add.reduce`
    over rows gives each fit's two 1-D pairwise sums.  n and l2 / n are
    repeated along each fit's weights, so that the update's operations take
    arrays of one shape."""
    k, d = W.shape
    n = [len(y) for _, y, _ in fits]
    X = np.full((k, n[-1], d), -0.0)
    Y = np.ones((k, n[-1]))
    for i, (X_i, y, _) in enumerate(fits):
        X[i, :n[i]] = X_i
        Y[i, :n[i]] = y
    z = np.zeros((k, n[-1], 1))
    products, spans = [], []
    a = 0
    for b in range(1, k + 1):
        if b == k or n[b] != n[a]:
            products.append((X[a:b, :n[a]], W[a:b, :, None], z[a:b, :n[a]]))
            spans.append(... if b - a == k else (slice(None), slice(a, b), slice(0, n[a])))
            a = b
    columns = (n, [config.l2 / m for (_, _, config), m in zip(fits, n)])
    n_w, grad_l2 = (np.repeat(np.array(column, dtype=float)[:, None], d, axis=1) for column in columns)
    Xt = np.ascontiguousarray(X.transpose(1, 0, 2))
    return Xt, Y, z[:, :, 0], np.empty((2, k, n[-1])), products, spans, n_w, grad_l2


def train_logistic(fits: list[tuple[list[FeatureRow], LogisticConfig]]) -> list[LogisticModel | NonFiniteLoss]:
    """One model per `(rows, config)` of `fits`, in order: full-batch
    gradient descent on L2-regularized log-loss from zero weights.  A fit
    whose loss turns non-finite gets the `NonFiniteLoss` it stopped with in
    place of a model.

    The fits descend in lockstep (`_stack`): each step makes one set of
    numpy calls for all the fits still descending.  A fit leaves at the step
    where it would stop alone: at `TOL` convergence with its weights before
    the step, on a non-finite loss, or at `MAX_ITER`.  A fit that leaves
    records its result at once; the step's update still runs over the whole
    stack, which is rebuilt without it before the next step (every
    operation is per stack row, so the others' bits do not depend on it).
    Each fit's step is the plain `np.mean`/`np.clip` step in the same
    operation order (`tests/oracles.py` keeps it): a mean is `np.add.reduce`
    followed by the division by n, the clip is maximum then minimum, and the
    loss and bias are Python floats.  Two rewrites are exact: a label is +1
    or -1, so `y * (1 / q)` is `y / q`, and `-a + b` is `b - a`.  So every
    fit's weights, bias and losses are bit-identical to the one-fit
    step's."""
    prepared, scalers = [], []
    for rows, config in fits:
        X_raw, y01 = _matrix(rows)
        scalers.append(MinMaxScaler.fit(X_raw))
        prepared.append((scalers[-1].transform(X_raw), np.where(y01 == 1, 1.0, -1.0), config))
    results: list = [None] * len(prepared)
    histories = [array("d") for _ in prepared]
    steps = [0] * len(prepared)
    live = sorted(range(len(prepared)), key=lambda j: len(prepared[j][1]))  # fit ids, in stack order
    W = np.zeros((len(live), prepared[0][0].shape[1])) if live else None
    biases = [0.0] * len(live)
    add, exp, logaddexp, matmul = np.add.reduce, np.exp, np.logaddexp, np.matmul
    divide, maximum, minimum, multiply = np.divide, np.maximum, np.minimum, np.multiply

    def model(i: int, bias: float) -> LogisticModel:  # stack row i's fit, at its weights now
        j = live[i]
        return LogisticModel(weights=W[i].copy(), bias=bias, scaler=scalers[j], config=prepared[j][2],
                             loss_history=histories[j])

    step = 0
    while live and step < MAX_ITER:
        Xt, Y, z, terms_ys, products, spans, n_w, grad_l2 = _stack([prepared[j] for j in live], W)
        per_fit = [(len(prepared[j][1]), prepared[j][2].l2 / (2.0 * len(prepared[j][1])), histories[j])
                   for j in live]
        w_row, w_col = W[:, None, :], W[:, :, None]
        weighted = np.empty_like(Xt)
        terms, ys_rows = terms_ys
        leaving = []
        while not leaving and step < MAX_ITER:
            for X_m, w_m, z_m in products:
                matmul(X_m, w_m, out=z_m)
            yz = Y * (z + np.array(biases)[:, None])
            logaddexp(0.0, -yz, out=terms)
            ys = divide(Y, 1.0 + exp(minimum(maximum(yz, -500.0), 500.0)), out=ys_rows)
            loss_sums, ys_sums = [], []
            for span in spans:
                loss_sums_m, ys_sums_m = add(terms_ys[span], axis=2).tolist()
                loss_sums += loss_sums_m
                ys_sums += ys_sums_m
            ww = matmul(w_row, w_col).ravel().tolist()
            stepped = []  # each fit's bias after this step
            for i, (s, s_ys, b, q, (m, l2, history)) in enumerate(zip(loss_sums, ys_sums, biases, ww, per_fit)):
                loss = s / m + l2 * q
                stepped.append(b - LEARNING_RATE * -(s_ys / m))
                if not math.isfinite(loss):
                    results[live[i]] = NonFiniteLoss("logistic training diverged")
                elif history and abs(history[-1] - loss) < TOL:
                    history.append(loss)
                    results[live[i]] = model(i, b)
                else:
                    history.append(loss)
                    continue
                leaving.append(i)
                steps[live[i]] = step + 1
            W -= LEARNING_RATE * (grad_l2 * W - add(multiply(Xt, ys.T[:, :, None], out=weighted), axis=0) / n_w)
            biases = stepped
            step += 1
        keep = [i for i in range(len(live)) if i not in leaving]
        live, W, biases = [live[i] for i in keep], W[keep], [biases[i] for i in keep]
    for i, j in enumerate(live):  # the fits still descending after MAX_ITER steps
        steps[j] = MAX_ITER
        results[j] = model(i, biases[i])
    row_counts = len({len(y) for _, y, _ in prepared})
    diverged = sum(isinstance(result, NonFiniteLoss) for result in results)
    log.info("logistic: %d fit%s, %d row-count group%s, steps %s%s", len(results), "" if len(results) == 1 else "s",
             row_counts, "" if row_counts == 1 else "s", "/".join(map(str, steps)),
             f", {diverged} diverged" if diverged else "")
    return results


# ---------------------------------------------------------------------------
# CART decision tree


@dataclass(frozen=True)
class TreeConfig:
    max_depth: int | None = None

    def describe(self) -> dict:
        return {"maxDepth": self.max_depth, "minSamplesLeaf": MIN_SAMPLES_LEAF}


# Rows one batched split search may hold, which bounds its arrays: a forest
# admits a new n-row tree while the next nodes of its growing trees and the
# new root fit in _STEP_ROWS rows.  An open node holds at least two rows, so
# at most _STEP_ROWS // 2 trees are open at once, and their rows, at most n
# ids a tree, stay under about _STEP_ROWS**2 / 8 ids.  A single node may
# still be larger; it is then searched alone.
_STEP_ROWS = 1024


def _value_ranks(X: np.ndarray) -> np.ndarray:
    """Each value's rank among the distinct values of its column: ranks
    rise exactly where the sorted values rise (the `>` test a one-node
    search makes), so sorting by rank sorts by value."""
    columns = np.arange(X.shape[1])
    order = X.argsort(axis=0, kind="stable")
    sorted_x = X[order, columns]
    rises = np.zeros(X.shape, dtype=np.intp)
    rises[1:] = sorted_x[1:] > sorted_x[:-1]
    ranks = np.empty_like(rises)
    ranks[order, columns] = rises.cumsum(axis=0)
    return ranks


def _gini(pos, n):
    """Gini impurity of `n` rows of which `pos` are positive, elementwise."""
    p = pos / n
    q = 1.0 - p
    return 1.0 - p * p - q * q


def _best_splits(X: np.ndarray, ranks: np.ndarray, y: np.ndarray, rows: np.ndarray,
                 sizes: np.ndarray, features: np.ndarray):
    """The best Gini split of each of K nodes, searched in one pass.

    Node i holds `sizes[i]` >= 2 rows, given by their ids into X, its
    `_value_ranks` and y in `rows`, node after node, and searches the
    ascending features `features[i]` (a K × m array).  Returns arrays of
    gain (-inf where the node has no split), feature and threshold.

    Thresholds sit at midpoints of consecutive distinct values; ties resolve
    to the lowest feature, then the lowest threshold.  One stable sort of the
    key (node, value rank) orders each node's column as a sort of the node's
    values alone would; integer cumsums minus each node's base give the same
    label counts, and the Gini expressions are a one-node search's
    (`tests/oracles.py` keeps that search), so gains and thresholds are
    equal to its bits.
    """
    K, m = features.shape
    N = len(rows)
    columns = np.arange(m)
    node = np.repeat(np.arange(K), sizes)
    starts = np.cumsum(sizes) - sizes
    ends = starts + sizes
    key = ranks[rows[:, None], features[node]] + (node * len(X))[:, None]
    order = key.argsort(axis=0, kind="stable")
    key = key[order, columns]
    distinct = np.zeros((N, m), dtype=bool)
    distinct[:-1] = key[1:] > key[:-1]
    distinct[ends - 1] = False
    cum = y[rows][order].cumsum(axis=0)
    base = np.zeros((K, m), dtype=cum.dtype)
    base[1:] = cum[ends[:-1] - 1]
    pos = cum[ends - 1, 0] - base[:, 0]
    left_pos = cum - base[node]
    n = sizes[node][:, None]
    left_n = (np.arange(1, N + 1) - starts[node])[:, None]
    right_n = n - left_n
    right_n[ends - 1] = 1  # no split after a node's last row; keeps the division finite
    weighted = (left_n * _gini(left_pos, left_n) + right_n * _gini(pos[node][:, None] - left_pos, right_n)) / n
    gains = np.where(distinct, _gini(pos, sizes)[node][:, None] - weighted, -np.inf)
    column_best = np.maximum.reduceat(gains, starts, axis=0)
    best = column_best.argmax(axis=1)  # first maximum -> lowest feature
    gain = column_best[np.arange(K), best]
    # zero-gain splits are still taken (both children shrink, growth
    # terminates at pure or indistinguishable nodes); XOR-like patterns
    # need them to reach pure leaves
    hit = gains[np.arange(N), best[node]] == gain[node]
    k = np.minimum.reduceat(np.where(hit, np.arange(N), N), starts)  # first maximum -> lowest threshold
    feature = features[np.arange(K), best]
    threshold = (X[rows[order[k, best]], feature] + X[rows[order[k + 1, best]], feature]) / 2.0
    return gain, feature, threshold


@dataclass(frozen=True)
class _Trees:
    """Trees as arrays: node i sends a row x to left[i] if x[feature[i]] <=
    threshold[i], else to right[i], predicts prediction[i], the majority
    class of its rows, and sits level[i] below its root.  A leaf is its own
    left and right child.  `roots` holds each tree's root, and `depths` the
    level of each tree's deepest leaf."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray
    level: np.ndarray
    roots: np.ndarray
    depths: np.ndarray

    def leaves(self, Xs: np.ndarray) -> np.ndarray:
        """The leaf each row of Xs reaches in each tree, a rows × trees array:
        all rows move down one level of all trees per step."""
        node = np.broadcast_to(self.roots, (len(Xs), len(self.roots)))
        rows = np.arange(len(Xs))[:, None]
        for _ in range(int(self.depths.max(initial=0))):
            node = np.where(Xs[rows, self.feature[node]] <= self.threshold[node], self.left[node], self.right[node])
        return node


@dataclass
class TreeModel:
    trees: _Trees  # one tree
    scaler: MinMaxScaler
    config: TreeConfig

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.trees.prediction[self.trees.leaves(self.scaler.transform(X))[:, 0]]

    def truncated(self, config: TreeConfig) -> "TreeModel":
        """The tree `train_tree` grows under `config` on this tree's rows, cut
        from this one: every node at depth `config.max_depth` or deeper
        becomes a leaf of the majority prediction it already stores.  Exact
        for a depth this tree reaches or passes."""
        grown = self.config.max_depth
        if grown is not None and (config.max_depth is None or config.max_depth > grown):
            raise ValueError(f"{config} cannot be cut from a tree grown under {self.config}")
        if config.max_depth is None:
            return replace(self, config=config)
        trees = self.trees
        cut = trees.level >= config.max_depth
        node = np.arange(len(cut))
        trees = replace(trees, left=np.where(cut, node, trees.left), right=np.where(cut, node, trees.right),
                        depths=np.minimum(trees.depths, config.max_depth))
        return TreeModel(trees=trees, scaler=self.scaler, config=config)


def _grow(X: np.ndarray, y: np.ndarray, config: TreeConfig, samples, features_per_split=None) -> _Trees:
    """The CART tree grown on X[rows], y[rows] for each (rows, rng) of
    `samples`, each with len(X) rows.  A node that is neither pure nor at
    the maximum depth draws its features, then takes its best split, if it
    has one.  With `features_per_split` below the number of features, a
    node draws `rng.random(n_features)` from its tree's `rng` and searches
    the indices of the `features_per_split` smallest doubles, in ascending
    order, ties to the lower index; otherwise it searches every feature.

    The trees grow in lockstep.  A new tree is admitted while the next
    nodes of the growing trees and its root fit in _STEP_ROWS rows (or when
    none grows).  A step takes each open tree's next node in preorder,
    draws its features, searches all the nodes taken in one `_best_splits`
    call and splits them.  So each generator makes the draws of a
    depth-first recursion, in its order (`tests/oracles.py` keeps that
    recursion), and draws nothing ahead.  One stable `argsort` ranks the
    draws of all the step's nodes.  A tree that draws nothing gives up as
    many of its open nodes as the step's rows allow.
    Each node is written into the arrays as it is planted, a leaf until it
    splits.  Logs one INFO line with the trees, nodes, split searches and
    the most trees open at once.
    """
    max_depth = config.max_depth
    n_features = X.shape[1]
    draws = features_per_split is not None and features_per_split < n_features
    ranks = _value_ranks(X)
    feature, left, right, prediction, level = (array("q") for _ in range(5))
    threshold = array("d")
    roots, depths = [], []
    opened = []  # each tree's (node, rows, label sum, depth) still to split, the next preorder one last

    def plant(tree: int, rows: np.ndarray, pos: int, depth: int) -> int:
        """A new leaf of `tree` on `rows`, `pos` of them positive, opened if
        it may split."""
        i = len(prediction)
        n = len(rows)
        prediction.append(1 if pos > n - pos else 0)  # tie goes to 'good'
        feature.append(0)
        threshold.append(0.0)
        left.append(i)
        right.append(i)
        level.append(depth)
        if depth > depths[tree]:
            depths[tree] = depth
        if 0 < pos < n and (max_depth is None or depth < max_depth):
            opened[tree].append((i, rows, pos, depth))
        return i

    growing = []  # (tree, its generator if its nodes draw features, else None)
    samples = iter(samples)
    searches = most_open = 0
    while True:
        growing = [entry for entry in growing if opened[entry[0]]]
        load = sum(len(opened[tree][-1][1]) for tree, _ in growing)
        while (not growing or load + len(X) <= _STEP_ROWS) and (sample := next(samples, None)) is not None:
            rows, rng = sample
            tree = len(roots)
            depths.append(0)
            opened.append([])
            roots.append(plant(tree, rows, int(y[rows].sum()), 0))
            if opened[tree]:
                growing.append((tree, rng if draws else None))
                load += len(rows)
        if not growing:
            log.info("grow: %d tree%s, %d nodes, %d split searches, at most %d open at once", len(roots),
                     "" if len(roots) == 1 else "s", len(prediction), searches, most_open)
            return _Trees(np.array(feature), np.array(threshold), np.array(left), np.array(right),
                          np.array(prediction), np.array(level), np.array(roots, dtype=np.intp), np.array(depths))
        most_open = max(most_open, len(growing))
        taken, drawing, budget = [], [], _STEP_ROWS
        for tree, rng in growing:
            stack = opened[tree]
            while stack and (not taken or len(stack[-1][1]) <= budget):
                taken.append((tree, *stack.pop()))
                budget -= len(taken[-1][2])
                if rng is not None:
                    drawing.append(rng.random(n_features))
                    break
        if draws:
            ranked = np.array(drawing).argsort(axis=1, kind="stable")
            features = np.sort(ranked[:, :features_per_split], axis=1)
        else:
            features = np.broadcast_to(np.arange(n_features), (len(taken), n_features))
        sizes = np.array([len(item[2]) for item in taken])
        rows = np.concatenate([item[2] for item in taken])
        searches += 1
        gain, split_feature, split_threshold = _best_splits(X, ranks, y, rows, sizes, features)
        go_left = X[rows, np.repeat(split_feature, sizes)] <= np.repeat(split_threshold, sizes)
        go_right = ~go_left
        starts = np.cumsum(sizes) - sizes
        left_pos = np.add.reduceat(y[rows] * go_left, starts).tolist()
        bounds = np.append(starts, len(rows)).tolist()
        for i, ((tree, node, node_rows, pos, depth), g, f, t) in enumerate(
                zip(taken, gain.tolist(), split_feature.tolist(), split_threshold.tolist())):
            if g == -math.inf:
                continue
            feature[node] = f
            threshold[node] = t
            a, b = bounds[i], bounds[i + 1]
            # the right child first, so that the left one is next in preorder
            right[node] = plant(tree, node_rows[go_right[a:b]], pos - left_pos[i], depth + 1)
            left[node] = plant(tree, node_rows[go_left[a:b]], left_pos[i], depth + 1)


def train_tree(rows: list[FeatureRow], config: TreeConfig = TreeConfig()) -> TreeModel:
    X_raw, y = _matrix(rows)
    scaler = MinMaxScaler.fit(X_raw)
    trees = _grow(scaler.transform(X_raw), y, config, [(np.arange(len(rows)), None)])
    return TreeModel(trees=trees, scaler=scaler, config=config)


# ---------------------------------------------------------------------------
# random forest


@dataclass(frozen=True)
class ForestConfig:
    trees: int = 100
    seed: int = 0

    def describe(self) -> dict:
        return {"trees": self.trees, "featuresPerSplit": FEATURES_PER_SPLIT, "seed": self.seed,
                "bootstrap": True, "maxDepth": None, "minSamplesLeaf": MIN_SAMPLES_LEAF}


@dataclass
class ForestModel:
    trees: _Trees
    scaler: MinMaxScaler
    config: ForestConfig

    def predict(self, X: np.ndarray) -> np.ndarray:
        votes = self.trees.prediction[self.trees.leaves(self.scaler.transform(X))].sum(axis=1)
        # strict majority for 'ugly'; ties go to 'good'
        return (votes * 2 > len(self.trees.roots)).astype(int)

    def prefix(self, config: ForestConfig) -> "ForestModel":
        """The forest `train_forest` grows under `config` on this forest's
        rows: its first `config.trees` trees, because tree i is grown from
        the i-th child that `SeedSequence.spawn` hands out, whatever the
        number of children asked for."""
        if config.trees > self.config.trees or config.seed != self.config.seed:
            raise ValueError(f"{config} is not a prefix of a forest grown under {self.config}")
        trees = replace(self.trees, roots=self.trees.roots[:config.trees], depths=self.trees.depths[:config.trees])
        return ForestModel(trees=trees, scaler=self.scaler, config=config)


def train_forest(rows: list[FeatureRow], config: ForestConfig = ForestConfig()) -> ForestModel:
    """Bagged CART trees grown to full depth, each split searching
    `FEATURES_PER_SPLIT` features drawn at random; all randomness derives
    from per-tree seeds spawned from the root seed."""
    X_raw, y = _matrix(rows)
    scaler = MinMaxScaler.fit(X_raw)
    X = scaler.transform(X_raw)
    n = len(rows)

    def samples():
        for child_seq in np.random.SeedSequence(config.seed).spawn(config.trees):
            rng = np.random.default_rng(child_seq)
            yield rng.integers(0, n, n), rng

    return ForestModel(trees=_grow(X, y, TreeConfig(), samples(), FEATURES_PER_SPLIT), scaler=scaler, config=config)


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
    classifier: str = "",
    undefined_as: float = 0.0,
) -> EvaluationReport:
    """Precision/recall/F for both class orientations plus the confusion
    matrix with respect to 'ugly'.  Zero-denominator scores become
    `undefined_as` and are flagged."""
    if not rows:
        raise EmptyTestSet("no test rows")
    X, y = _matrix(rows)
    predicted = model.predict(X)
    actual_pos = y == 1
    pred_pos = predicted == 1
    tp = int(np.sum(actual_pos & pred_pos))
    fp = int(np.sum(~actual_pos & pred_pos))
    fn = int(np.sum(actual_pos & ~pred_pos))
    tn = int(np.sum(~actual_pos & ~pred_pos))

    def class_metrics(tp_, fp_, fn_, label) -> ClassMetrics:
        flags: list[str] = []
        precision = _safe_ratio(tp_, tp_ + fp_, f"precision_{label}_undefined", flags, undefined_as)
        recall = _safe_ratio(tp_, tp_ + fn_, f"recall_{label}_undefined", flags, undefined_as)
        if math.isnan(precision) or math.isnan(recall):
            f_measure = float("nan")
        elif precision + recall == 0:
            f_measure = 0.0
        else:
            f_measure = 2 * precision * recall / (precision + recall)
        return ClassMetrics(precision=precision, recall=recall, fMeasure=f_measure, flags=tuple(flags))

    per_class = {
        POSITIVE_LABEL: class_metrics(tp, fp, fn, POSITIVE_LABEL),
        NEGATIVE_LABEL: class_metrics(tn, fn, fp, NEGATIVE_LABEL),
    }
    return EvaluationReport(
        classifier=classifier,
        positiveClass=POSITIVE_LABEL,
        perClass=per_class,
        confusion={"tp": tp, "fp": fp, "fn": fn, "tn": tn},
    )


# ---------------------------------------------------------------------------
# protocols

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
    order.  Logistic regression trains every config in one lockstep call;
    the tree and forest grids are read off one trained model, which gives
    the models training each config would."""
    trainer, grid = _TRAINERS[name]
    read_off = _READ_OFF.get(name)
    if read_off is None:
        models = trainer([(rows, config) for config in grid])
        for model in models:
            if isinstance(model, NonFiniteLoss):
                raise model
        return list(zip(grid, models))
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
            score = evaluate(model, val_rows, classifier=name).perClass[POSITIVE_LABEL].fMeasure
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
    folds = []  # (held-out project, test rows, oversampled training rows or the SingleClass it failed with)
    for i, plan in enumerate(plans):
        try:
            train_os = oversample(_rows_for(rows, plan.trainProjects), seed + i)
        except SingleClass as err:
            train_os = err
        folds.append((plan.testProjects[0], _rows_for(rows, plan.testProjects), train_os))
    # logistic regression trains every fold that oversampled in one lockstep call
    logistic = {}
    if "logistic" in classifiers:
        trainer, grid = _TRAINERS["logistic"]
        trained = [i for i, (_, _, train_os) in enumerate(folds) if not isinstance(train_os, SingleClass)]
        logistic = dict(zip(trained, trainer([(folds[i][2], grid[0]) for i in trained])))
    per_project: dict[str, dict] = {}
    for i, (held_out, test_rows, train_os) in enumerate(folds):
        entry: dict = {}
        for name in classifiers:
            trainer, grid = _TRAINERS[name]
            try:
                if isinstance(train_os, SingleClass):
                    raise train_os  # every classifier of the fold fails as oversampling did
                model = logistic[i] if name == "logistic" else trainer(train_os, _with_seed(grid[0], seed + i))
                if isinstance(model, NonFiniteLoss):
                    raise model
                report = evaluate(
                    model, test_rows, classifier=name, undefined_as=float("nan")
                )
                report.seed = seed
                entry[name] = report
            except (SingleClass, EmptyTestSet, NonFiniteLoss) as err:
                log.warning("project %s: %s failed: %s", held_out, name, err)
                entry[name] = None
        per_project[held_out] = entry
    return {"projects": per_project}
