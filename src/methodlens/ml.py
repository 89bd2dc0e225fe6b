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
from functools import cached_property

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


SPLIT_RATIOS = (0.7, 0.1, 0.2)  # train, validation, test


def project_split(projects, seed: int) -> SplitPlan:
    """Seeded project-level shuffle into train/validation/test by
    `SPLIT_RATIOS`; every set is non-empty."""
    projects = sorted(set(projects))
    if len(projects) < 3:
        raise TooFewProjects(f"need at least 3 projects, got {len(projects)}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    order = list(rng.permutation(len(projects)))
    shuffled = [projects[i] for i in order]
    n = len(projects)
    n_test = max(1, _round_half_up(SPLIT_RATIOS[2] * n))
    n_val = max(1, _round_half_up(SPLIT_RATIOS[1] * n))
    if n_test + n_val >= n:
        raise TooFewProjects("split leaves no training projects")
    test = tuple(sorted(shuffled[:n_test]))
    validation = tuple(sorted(shuffled[n_test:n_test + n_val]))
    train = tuple(sorted(shuffled[n_test + n_val:]))
    return SplitPlan(trainProjects=train, validationProjects=validation, testProjects=test)


def leave_one_out_plans(projects) -> list[SplitPlan]:
    projects = sorted(set(projects))
    if len(projects) < 2:
        raise TooFewProjects("leave-one-out needs at least 2 projects")
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
    times a positive y * sigma, is -0.0.  The gradient's sum over rows adds
    row after row, so the pad terms come after the fit's own rows, and
    adding -0.0 leaves a sum's bits as they are.  A step writes each fit's
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
    return X, Y, z[:, :, 0], np.empty((2, k, n[-1])), products, spans, n_w, grad_l2


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
        X, Y, z, terms_ys, products, spans, n_w, grad_l2 = _stack([prepared[j] for j in live], W)
        per_fit = [(len(prepared[j][1]), prepared[j][2].l2 / (2.0 * len(prepared[j][1])), histories[j])
                   for j in live]
        w_row, w_col = W[:, None, :], W[:, :, None]
        weighted = np.empty_like(X)
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
            W -= LEARNING_RATE * (grad_l2 * W - add(multiply(X, ys[:, :, None], out=weighted), axis=1) / n_w)
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
# grows at most _STEP_ROWS // n of its n-row trees at once, so that a node
# of each fits.  A single node may still be larger; it is then searched
# alone.
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


@dataclass(slots=True)
class _Node:
    prediction: int = 0
    feature: int = -1
    threshold: float = 0.0
    left: "_Node | None" = None
    right: "_Node | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


@dataclass(frozen=True)
class _FlatTrees:
    """Trees as arrays, each tree in preorder after the one before: node i
    sends a row x to left[i] if x[feature[i]] <= threshold[i], else to
    right[i], and predicts prediction[i].  A leaf is its own left and right
    child.  `roots` holds each tree's first node, and `depth` the depth of
    the deepest leaf."""
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    prediction: np.ndarray
    roots: np.ndarray
    depth: int

    @classmethod
    def of(cls, roots: list[_Node]) -> "_FlatTrees":
        feature, threshold, left, right, prediction = array("q"), array("d"), array("q"), array("q"), array("q")
        starts, depth = [], 0
        for root in roots:
            starts.append(len(prediction))
            stack = [(root, -1, 0)]  # (node, its parent if it is a right child, its depth)
            while stack:
                node, parent, level = stack.pop()
                i = len(prediction)
                if parent >= 0:
                    right[parent] = i
                prediction.append(node.prediction)
                if node.left is None:
                    feature.append(0)
                    threshold.append(0.0)
                    left.append(i)
                    right.append(i)
                    if level > depth:
                        depth = level
                else:
                    feature.append(node.feature)
                    threshold.append(node.threshold)
                    left.append(i + 1)
                    right.append(-1)
                    stack.append((node.right, i, level + 1))
                    stack.append((node.left, -1, level + 1))
        return cls(np.array(feature), np.array(threshold), np.array(left), np.array(right), np.array(prediction),
                   np.array(starts, dtype=np.intp), depth)

    def leaves(self, Xs: np.ndarray) -> np.ndarray:
        """The leaf each row of Xs reaches in each tree, a rows × trees array:
        all rows move down one level of all trees per step."""
        node = np.broadcast_to(self.roots, (len(Xs), len(self.roots)))
        rows = np.arange(len(Xs))[:, None]
        for _ in range(self.depth):
            node = np.where(Xs[rows, self.feature[node]] <= self.threshold[node], self.left[node], self.right[node])
        return node


@dataclass
class TreeModel:
    root: _Node
    scaler: MinMaxScaler
    config: TreeConfig
    depth: int

    @cached_property
    def _flat(self) -> "_FlatTrees":
        return _FlatTrees.of([self.root])

    def predict(self, X: np.ndarray) -> np.ndarray:
        flat = self._flat
        return flat.prediction[flat.leaves(self.scaler.transform(X))[:, 0]]

    def truncated(self, config: TreeConfig) -> "TreeModel":
        """The tree `train_tree` grows under `config` on this tree's rows, cut
        from this one: a node at depth `config.max_depth` becomes a leaf of
        the majority prediction it already stores.  Exact for a depth this
        tree reaches or passes."""
        grown = self.config.max_depth
        if grown is not None and (config.max_depth is None or config.max_depth > grown):
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


@dataclass(slots=True)
class _Growing:
    """A tree being grown: the depth reached so far, and the (node, rows,
    label sum, depth) of each node still to split, the next preorder one on
    top."""
    depth: int = 0
    stack: list = field(default_factory=list)


def _grow(X: np.ndarray, y: np.ndarray, config: TreeConfig, samples, features_per_split=None) -> list[tuple[_Node, int]]:
    """(root, depth) of the CART tree grown on X[rows], y[rows] for each
    (rows, rng) of `samples`, each with len(X) rows.  A node that is neither
    pure nor at the maximum depth draws `features_per_split` features from
    its tree's `rng`, then takes its best split, if it has one.

    The trees grow in lockstep, at most _STEP_ROWS // len(X) at once, so
    that one node of each fits in a step of _STEP_ROWS rows.  A step takes
    each open tree's next node in preorder, draws its features, searches all
    the nodes taken in one `_best_splits` call and splits them.  So each
    generator makes the draws of a depth-first recursion, in its order
    (`tests/oracles.py` keeps that recursion).  A tree that draws nothing
    gives up as many of its open nodes as the step's rows allow.
    """
    max_depth = config.max_depth
    n_features = X.shape[1]
    draws = features_per_split is not None and features_per_split < n_features
    every_feature = np.arange(n_features)
    width = max(1, _STEP_ROWS // len(X))
    ranks = _value_ranks(X)

    def plant(tree: _Growing, rows: np.ndarray, pos: int, depth: int) -> _Node:
        n = len(rows)
        node = _Node(prediction=1 if pos > n - pos else 0)  # tie goes to 'good'
        if depth > tree.depth:
            tree.depth = depth
        if 0 < pos < n and (max_depth is None or depth < max_depth):
            tree.stack.append((node, rows, pos, depth))
        return node

    grown, growing = [], []  # growing: (tree, generator), so that a grown tree drops its generator
    samples = iter(samples)
    while True:
        growing = [(tree, rng) for tree, rng in growing if tree.stack]
        while len(growing) < width and (sample := next(samples, None)) is not None:
            rows, rng = sample
            tree = _Growing()
            grown.append((plant(tree, rows, int(y[rows].sum()), 0), tree))
            if tree.stack:
                growing.append((tree, rng))
        if not growing:
            return [(root, tree.depth) for root, tree in grown]
        taken, features, budget = [], [], _STEP_ROWS
        for tree, rng in growing:
            while tree.stack and (not taken or len(tree.stack[-1][1]) <= budget):
                taken.append((tree, *tree.stack.pop()))
                budget -= len(taken[-1][2])
                if draws:
                    chosen = rng.choice(n_features, size=features_per_split, replace=False)
                    chosen.sort()
                    features.append(chosen)
                    break
                features.append(every_feature)
        sizes = np.array([len(item[2]) for item in taken])
        rows = np.concatenate([item[2] for item in taken])
        gain, feature, threshold = _best_splits(X, ranks, y, rows, sizes, np.array(features))
        go_left = X[rows, np.repeat(feature, sizes)] <= np.repeat(threshold, sizes)
        go_right = ~go_left
        starts = np.cumsum(sizes) - sizes
        left_pos = np.add.reduceat(y[rows] * go_left, starts).tolist()
        bounds = np.append(starts, len(rows)).tolist()
        for i, ((tree, node, node_rows, pos, depth), g, f, t) in enumerate(
                zip(taken, gain.tolist(), feature.tolist(), threshold.tolist())):
            if g == -math.inf:
                continue
            node.feature = f
            node.threshold = t
            a, b = bounds[i], bounds[i + 1]
            # the right child first, so that the left one is next in preorder
            node.right = plant(tree, node_rows[go_right[a:b]], pos - left_pos[i], depth + 1)
            node.left = plant(tree, node_rows[go_left[a:b]], left_pos[i], depth + 1)


def train_tree(rows: list[FeatureRow], config: TreeConfig = TreeConfig()) -> TreeModel:
    X_raw, y = _matrix(rows)
    scaler = MinMaxScaler.fit(X_raw)
    [(root, depth)] = _grow(scaler.transform(X_raw), y, config, [(np.arange(len(rows)), None)])
    return TreeModel(root=root, scaler=scaler, config=config, depth=depth)


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
    roots: list[_Node]
    scaler: MinMaxScaler
    config: ForestConfig

    @cached_property
    def _flat(self) -> "_FlatTrees":
        return _FlatTrees.of(self.roots)

    def predict(self, X: np.ndarray) -> np.ndarray:
        flat = self._flat
        votes = flat.prediction[flat.leaves(self.scaler.transform(X))].sum(axis=1)
        # strict majority for 'ugly'; ties go to 'good'
        return (votes * 2 > len(self.roots)).astype(int)

    def prefix(self, config: ForestConfig) -> "ForestModel":
        """The forest `train_forest` grows under `config` on this forest's
        rows: its first `config.trees` trees, because tree i is grown from
        the i-th child that `SeedSequence.spawn` hands out, whatever the
        number of children asked for."""
        if config.trees > self.config.trees or config.seed != self.config.seed:
            raise ValueError(f"{config} is not a prefix of a forest grown under {self.config}")
        return ForestModel(roots=self.roots[:config.trees], scaler=self.scaler, config=config)


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

    grown = _grow(X, y, TreeConfig(), samples(), FEATURES_PER_SPLIT)
    return ForestModel(roots=[root for root, _ in grown], scaler=scaler, config=config)


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
