"""Independent reference implementations used only by the test suite.

These deliberately use the most direct algorithm available (full DP
matrices, all-pairs enumeration) so production code is checked against a
separate route, not against itself.
"""

from __future__ import annotations

import math
import re

import numpy as np

from methodlens.gitrepo import GitRepo
from methodlens.history import (MethodHistory, MethodIdentity, Revision, TraceSession, levenshtein, line_diff,
                                match_method)
from methodlens.java_extract import (KEYWORDS, WORD_LITERALS, ExtractionError, LexicalError, MethodDeclaration,
                                     extract_methods, normalize_source, signature)
from methodlens.ml import (LEARNING_RATE, MAX_ITER, TOL, LogisticConfig, LogisticModel, MinMaxScaler, NonFiniteLoss,
                           TreeConfig, _matrix, _Node)


def levenshtein_full_matrix(a: str, b: str) -> int:
    """Textbook full-matrix dynamic program."""
    n, m = len(a), len(b)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(n + 1):
        dp[i][0] = i
    for j in range(m + 1):
        dp[0][j] = j
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            dp[i][j] = min(dp[i - 1][j] + 1, dp[i][j - 1] + 1, dp[i - 1][j - 1] + cost)
    return dp[n][m]


def lcs_line_diff(a: str, b: str) -> tuple[int, int]:
    """(added, deleted) from a full-matrix LCS over lines."""
    xs, ys = a.split("\n"), b.split("\n")
    n, m = len(xs), len(ys)
    dp = [[0] * (m + 1) for _ in range(n + 1)]
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            if xs[i - 1] == ys[j - 1]:
                dp[i][j] = dp[i - 1][j - 1] + 1
            else:
                dp[i][j] = max(dp[i - 1][j], dp[i][j - 1])
    lcs = dp[n][m]
    return m - lcs, n - lcs


def kendall_tau_b_pairs(x, y) -> float:
    """Tie-corrected tau from explicit enumeration of all index pairs."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    dx = np.sign(x[:, None] - x[None, :])
    dy = np.sign(y[:, None] - y[None, :])
    iu = np.triu_indices(n, k=1)
    prod = dx[iu] * dy[iu]
    concordant = int(np.sum(prod > 0))
    discordant = int(np.sum(prod < 0))
    ties_x = int(np.sum(dx[iu] == 0))
    ties_y = int(np.sum(dy[iu] == 0))
    n0 = n * (n - 1) // 2
    denom = math.sqrt((n0 - ties_x) * (n0 - ties_y))
    if denom == 0:
        return float("nan")
    return (concordant - discordant) / denom


def shannon_entropy_bits(data: bytes) -> float:
    if not data:
        return 0.0
    counts: dict[int, int] = {}
    for byte in data:
        counts[byte] = counts.get(byte, 0) + 1
    total = len(data)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def population_std(values) -> float:
    values = list(values)
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))


def logistic(z: float) -> float:
    z = max(-30.0, min(30.0, z))
    return 1.0 / (1.0 + math.exp(-z))


# The Java lexer as it was before it became one regex pass: a per-position
# loop with up-front probes for unterminated block comments and text blocks.
# Kept verbatim (tokens are plain (kind, text, line, column) tuples) as the
# oracle the production lexer is compared against.
_REFERENCE_OPERATORS = [
    ">>>=", ">>=", "<<=", ">>>", ">>", "<<", "->", "==", "!=", "<=", ">=",
    "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?", ":",
]

_REFERENCE_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n\f]+)
    | (?P<linecomment>//[^\n]*)
    | (?P<blockcomment>/\*(?:[^*]|\*(?!/))*\*/)
    | (?P<textblock>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\")
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<number>
          0[xX][0-9a-fA-F_]+[lL]?
        | 0[bB][01_]+[lL]?
        | (?:\d[\d_]*\.[\d_]*(?:[eE][+-]?\d+)?
           |\.\d[\d_]*(?:[eE][+-]?\d+)?
           |\d[\d_]*(?:[eE][+-]?\d+)?)[fFdDlL]?
      )
    | (?P<ident>(?:[^\W\d]|\$)[\w$]*)
    | (?P<sep>\.\.\.|::|[(){}\[\];,.@])
    | (?P<op>%s)
    """ % "|".join(re.escape(op) for op in _REFERENCE_OPERATORS),
    re.VERBOSE | re.DOTALL,
)


def tokenize_reference(source: str) -> list[tuple[str, str, int, int]]:
    """(kind, text, line, column) for every non-whitespace token; raises
    LexicalError with the same messages and lines as the production lexer."""
    tokens = []
    pos = 0
    line = 1
    col = 1
    n = len(source)
    while pos < n:
        # Unterminated multi-char constructs would otherwise be mis-lexed as
        # operator runs, so they are detected up front.
        if source.startswith("/*", pos) and source.find("*/", pos + 2) < 0:
            raise LexicalError("unterminated block comment", line)
        if source.startswith('"""', pos) and source.find('"""', pos + 3) < 0:
            raise LexicalError("unterminated text block", line)
        m = _REFERENCE_TOKEN_RE.match(source, pos)
        if m is None:
            ch = source[pos]
            if ch == '"':
                raise LexicalError("unterminated string literal", line)
            if ch == "'":
                raise LexicalError("unterminated character literal", line)
            raise LexicalError(f"unexpected character {ch!r}", line)
        text = m.group(0)
        group = m.lastgroup
        if group != "ws":
            if group == "ident":
                if text in KEYWORDS:
                    kind = "keyword"
                elif text in WORD_LITERALS:
                    kind = "literal"
                else:
                    kind = "identifier"
            elif group in ("linecomment", "blockcomment"):
                kind = "comment"
            elif group in ("string", "char", "number", "textblock"):
                kind = "literal"
            elif group == "sep":
                kind = "separator"
            else:
                kind = "operator"
            tokens.append((kind, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    return tokens


def _gini(pos: float, total: float) -> float:
    if total <= 0:
        return 0.0
    p = pos / total
    return 1.0 - p * p - (1.0 - p) * (1.0 - p)


def best_split_reference(X: np.ndarray, y: np.ndarray, feature_indices):
    """(gain, feature, threshold) of the best Gini split, or None, searching
    one feature at a time.

    Thresholds sit at midpoints of consecutive distinct values; ties resolve
    to the lowest feature index, then the lowest threshold (feature_indices
    must be iterated in ascending order).
    """
    n = len(y)
    total_pos = int(y.sum())
    parent = _gini(total_pos, n)
    best = None
    for f in feature_indices:
        values = X[:, f]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        sy = y[order]
        distinct = np.nonzero(sv[1:] > sv[:-1])[0]  # split after position k
        if distinct.size == 0:
            continue
        cum_pos = np.cumsum(sy)
        left_n = distinct + 1
        right_n = n - left_n
        left_pos = cum_pos[distinct]
        right_pos = total_pos - left_pos
        lp = left_pos / left_n
        rp = right_pos / right_n
        gini_left = 1.0 - lp * lp - (1.0 - lp) * (1.0 - lp)
        gini_right = 1.0 - rp * rp - (1.0 - rp) * (1.0 - rp)
        weighted = (left_n * gini_left + right_n * gini_right) / n
        gains = parent - weighted
        k = int(np.argmax(gains))  # first maximum -> lowest threshold
        gain = float(gains[k])
        if not math.isfinite(gain):
            continue
        if best is None or gain > best[0]:
            threshold = float((sv[distinct[k]] + sv[distinct[k] + 1]) / 2.0)
            best = (gain, int(f), threshold)
    return best


def grow_tree_reference(X, y, config: TreeConfig, depth: int, rng, features_per_split) -> tuple[_Node, int]:
    """(root, depth) of the CART tree on X, y, grown by depth-first
    recursion, one node and one `best_split_reference` at a time; a node
    that is neither pure nor at the maximum depth draws its features from
    `rng` before it is searched."""
    n = len(y)
    pos = int(y.sum())
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
    found = best_split_reference(X, y, chosen)
    if found is None:
        return node, depth
    _, f, threshold = found
    mask = X[:, f] <= threshold
    node.feature = f
    node.threshold = threshold
    node.left, dl = grow_tree_reference(X[mask], y[mask], config, depth + 1, rng, features_per_split)
    node.right, dr = grow_tree_reference(X[~mask], y[~mask], config, depth + 1, rng, features_per_split)
    return node, max(dl, dr)


def train_logistic_reference(rows, config: LogisticConfig = LogisticConfig()) -> LogisticModel:
    """Full-batch gradient descent on L2-regularized log-loss, zero init,
    written with `np.mean` and `np.clip`, at the step size, step cap and
    tolerance of `methodlens.ml`."""
    X_raw, y01 = _matrix(rows)
    scaler = MinMaxScaler.fit(X_raw)
    X = scaler.transform(X_raw)
    y = np.where(y01 == 1, 1.0, -1.0)
    n, d = X.shape
    w = np.zeros(d)
    b = 0.0
    losses: list[float] = []
    for _ in range(MAX_ITER):
        z = X @ w + b
        yz = y * z
        loss = float(np.mean(np.logaddexp(0.0, -yz)) + config.l2 / (2.0 * n) * float(w @ w))
        if not math.isfinite(loss):
            raise NonFiniteLoss("logistic training diverged")
        if losses and abs(losses[-1] - loss) < TOL:
            losses.append(loss)
            break
        losses.append(loss)
        sig = 1.0 / (1.0 + np.exp(np.clip(yz, -500, 500)))  # sigma(-y*z)
        grad_w = -(X * (y * sig)[:, None]).mean(axis=0) + (config.l2 / n) * w
        grad_b = float(-(y * sig).mean())
        w = w - LEARNING_RATE * grad_w
        b = b - LEARNING_RATE * grad_b
    return LogisticModel(weights=w, bias=b, scaler=scaler, config=config, loss_history=losses)


def _leaf_prediction(root: _Node, x) -> int:
    node = root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.prediction


def predict_tree_reference(model, X) -> np.ndarray:
    """A `TreeModel`'s predictions, walking the tree once per row."""
    return np.array([_leaf_prediction(model.root, x) for x in model.scaler.transform(X)], dtype=int)


def predict_forest_reference(model, X) -> np.ndarray:
    """A `ForestModel`'s predictions, walking every tree once per row: a
    strict majority of the trees' votes for 'ugly', ties to 'good'."""
    Xs = model.scaler.transform(X)
    votes = np.zeros(len(Xs), dtype=int)
    for root in model.roots:
        for i, x in enumerate(Xs):
            votes[i] += _leaf_prediction(root, x)
    return (votes * 2 > len(model.roots)).astype(int)


def _version_methods(repo: GitRepo, blob: str, path: str) -> list[MethodDeclaration] | None:
    """Methods of the version `blob` of `path`, read on its own and extracted
    without a lexer memo, or None when it is unreadable or fails to extract."""
    content = repo.read_blobs([blob])[blob]
    if content is None:
        return None
    try:
        return extract_methods(normalize_source(content))
    except (ExtractionError, LexicalError):
        return None


def trace_method_reference(session: TraceSession, decl: MethodDeclaration, path: str) -> MethodHistory:
    """One method's history by the per-method backward walk that
    `history.trace_method` replaced: the method alone steps back through the
    first-parent commits that changed its file, following file renames and
    method matches, and every parent-side version it reaches is read and
    extracted afresh."""
    chain = session.chain
    cur_decl = decl
    cur_path = path
    pending: list[tuple] = []  # newest first
    introduction = chain[-1]
    for k, change in session.steps(path):
        child = chain[k]
        if change.status[0] in ("A", "D"):
            introduction = child
            break
        parent_path = change.oldPath or cur_path
        prev_methods = _version_methods(session.repo, change.oldBlob, parent_path)
        if prev_methods is None:
            # unreadable or unparseable parent version: skip this commit
            cur_path = parent_path
            continue
        matched = match_method(prev_methods, cur_decl, session.theta)
        if matched is None:
            introduction = child
            break
        if matched.bodyText != cur_decl.bodyText:
            added, deleted = line_diff(matched.bodyText, cur_decl.bodyText)
            distance = levenshtein(matched.bodyText, cur_decl.bodyText)
            pending.append((child, added, deleted, distance))
        cur_decl = matched
        cur_path = parent_path

    revisions = [
        Revision(
            commit=commit,
            linesAdded=added,
            linesDeleted=deleted,
            editDistance=distance,
            daysSinceIntroduction=(commit.authorTime - introduction.authorTime) / 86400.0,
        )
        for commit, added, deleted, distance in reversed(pending)
    ]
    return MethodHistory(
        identity=MethodIdentity(project=session.project, file=path, signature=signature(decl),
                                startLine=decl.startLine),
        introduction=introduction,
        introductionPath=cur_path,
        introductionDecl=cur_decl,
        revisions=revisions,
    )
