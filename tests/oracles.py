"""Independent reference implementations used only by the test suite.

These deliberately use the most direct algorithm available (full DP
matrices, all-pairs enumeration) so production code is checked against a
separate route, not against itself.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from methodlens.gitrepo import GitRepo
from methodlens.history import (SMALL_METHOD_CHARS, MethodHistory, MethodIdentity, Revision, TraceSession,
                                body_similarity, levenshtein, line_diff)
from methodlens.java_extract import (KEYWORDS, MODIFIERS, PRIMITIVE_TYPES, TYPE_WORDS, WORD_LITERALS, ExtractionError,
                                     LexicalError, MethodDeclaration, Token, _from_body_open, _parse_parameter_types,
                                     _skip_parens, body_block, extract_methods, match_forward, normalize_source,
                                     signature, skip_angles, skip_annotation, tokenize)
from methodlens.metrics import _is_ternary_question, _ternary_condition
from methodlens.ml import (LEARNING_RATE, MAX_ITER, TOL, LogisticConfig, LogisticModel, MinMaxScaler, NonFiniteLoss,
                           TreeConfig, _matrix)


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


def strip_common_reference(a, b):
    """a and b without their common prefix and suffix, compared one element
    at a time."""
    pre = 0
    limit = min(len(a), len(b))
    while pre < limit and a[pre] == b[pre]:
        pre += 1
    suf = 0
    limit -= pre
    while suf < limit and a[len(a) - 1 - suf] == b[len(b) - 1 - suf]:
        suf += 1
    return a[pre:len(a) - suf], b[pre:len(b) - suf]


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


# McClure's decision expressions as they were read before the statement
# walk read them: one linear scan over the body that takes if/while/switch
# headers and the for condition clause whole and every other ternary
# condition.  Kept verbatim as the reference for nvar and ncomp.
def _predicate_expressions(body: list[Token]) -> list[list[Token]]:
    """Decision expressions: if/while/do conditions, the for condition
    clause, switch selectors, and ternary conditions."""
    out: list[list[Token]] = []
    n = len(body)
    i = 0
    while i < n:
        t = body[i]
        if t.kind == "keyword" and t.text in ("if", "while", "switch") and i + 1 < n and body[i + 1].text == "(":
            close = match_forward(body, i + 1, "(", ")")
            out.append(body[i + 2:close])
            i = close + 1
            continue
        if t.kind == "keyword" and t.text == "for" and i + 1 < n and body[i + 1].text == "(":
            close = match_forward(body, i + 1, "(", ")")
            # the middle clause lies between the first two ';' outside
            # lambda and anonymous-class bodies
            semis = []
            k = i + 2
            while k < close and len(semis) < 2:
                if body[k].text == "{":
                    k = match_forward(body, k, "{", "}")
                elif body[k].text == ";":
                    semis.append(k)
                k += 1
            if len(semis) == 2:
                out.append(body[semis[0] + 1:semis[1]])
            i = close + 1
            continue
        if t.text == "?" and _is_ternary_question(body, i):
            out.append(_ternary_condition(body, i))
        i += 1
    return out


def _mcclure(body: list[Token]) -> tuple[int, int]:
    """(nvar, ncomp): distinct identifiers and comparison operators inside
    decision expressions."""
    names: set[str] = set()
    comparisons = 0
    for expr in _predicate_expressions(body):
        for t in expr:
            if t.kind == "identifier":
                names.add(t.text)
            elif t.text in ("==", "!=", "<", "<=", ">", ">="):
                comparisons += 1
            elif t.kind == "keyword" and t.text == "instanceof":
                comparisons += 1
    return len(names), comparisons


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


@dataclass
class TreeNode:
    """A node of a tree as the recursion grows it: a leaf has no children,
    and keeps the default feature and threshold."""
    prediction: int = 0
    feature: int = -1
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.left is None


def grown_trees(trees) -> list[tuple[TreeNode, int]]:
    """(root, depth) of each tree of the node arrays `trees`, as a
    `TreeModel` or `ForestModel` holds them, read back into `TreeNode`s: a
    node that is its own left child is a leaf.  Checks on the way that each
    node's stored level is its depth and each tree's stored depth is its
    deepest leaf's."""
    def read(i: int, depth: int) -> tuple[TreeNode, int]:
        assert trees.level[i] == depth
        node = TreeNode(prediction=int(trees.prediction[i]))
        if trees.left[i] == i:
            assert trees.right[i] == i
            return node, depth
        node.feature, node.threshold = int(trees.feature[i]), float(trees.threshold[i])
        node.left, dl = read(int(trees.left[i]), depth + 1)
        node.right, dr = read(int(trees.right[i]), depth + 1)
        return node, max(dl, dr)

    grown = [read(int(root), 0) for root in trees.roots]
    assert [depth for _, depth in grown] == trees.depths.tolist()
    return grown


def grow_tree_reference(X, y, config: TreeConfig, depth: int, rng, features_per_split) -> tuple[TreeNode, int]:
    """(root, depth) of the CART tree on X, y, grown by depth-first
    recursion, one node and one `best_split_reference` at a time; a node
    that is neither pure nor at the maximum depth draws its features from
    `rng` before it is searched."""
    n = len(y)
    pos = int(y.sum())
    node = TreeNode(prediction=1 if pos > n - pos else 0)  # tie goes to 'good'
    if pos in (0, n):
        return node, depth
    if config.max_depth is not None and depth >= config.max_depth:
        return node, depth
    n_features = X.shape[1]
    if features_per_split is not None and rng is not None and features_per_split < n_features:
        chosen = np.sort(np.argsort(rng.random(n_features), kind="stable")[:features_per_split])
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


def _leaf_prediction(root: TreeNode, x) -> int:
    node = root
    while not node.is_leaf:
        node = node.left if x[node.feature] <= node.threshold else node.right
    return node.prediction


def predict_tree_reference(model, X) -> np.ndarray:
    """A `TreeModel`'s predictions, walking the tree once per row."""
    [(root, _)] = grown_trees(model.trees)
    return np.array([_leaf_prediction(root, x) for x in model.scaler.transform(X)], dtype=int)


def predict_forest_reference(model, X) -> np.ndarray:
    """A `ForestModel`'s predictions, walking every tree once per row: a
    strict majority of the trees' votes for 'ugly', ties to 'good'."""
    Xs = model.scaler.transform(X)
    roots = [root for root, _ in grown_trees(model.trees)]
    votes = np.zeros(len(Xs), dtype=int)
    for root in roots:
        for i, x in enumerate(Xs):
            votes[i] += _leaf_prediction(root, x)
    return (votes * 2 > len(roots)).astype(int)


# The tokens the reference reads in its brace pass (`_Extractor._blocks`).
_BLOCK_TEXTS = frozenset({"{", "}"}) | TYPE_WORDS


# Kept verbatim from before extraction found every type in its brace pass:
# this one reads member headers in type bodies and walks code blocks that
# hold a type word token by token, so it names a type where its own header
# loop meets one.
class _Extractor:
    def __init__(self, text: str, memo: dict[str, list[Token]] | None):
        self.lines = text.split("\n")
        self.toks = [t for t in tokenize(text, memo) if t.kind != "comment"]
        self.found: list[MethodDeclaration] = []

    def run(self) -> list[MethodDeclaration]:
        self.plain = self._blocks()
        self._scan(0, len(self.toks), (), in_type=False)
        # Nested local-class methods are appended before their enclosing
        # method finishes; restore source order.
        self.found.sort(key=lambda d: (d.startLine, -d.endLine))
        return self.found

    def _blocks(self) -> dict[int, int]:
        """Check that the braces balance, and map the '{' of each plain block
        to the index of its '}'.

        A block is plain when no type word (`TYPE_WORDS`) lies between its
        braces. A plain block scanned outside a type body reads no
        parenthesis and names no type, so it records nothing and cannot
        fail, and `_scan` steps over it.
        """
        plain: dict[int, int] = {}
        opens: list[int] = []  # the '{' of each open block
        last_word = -1  # index of the last type word
        for i, t in enumerate(self.toks):
            txt = t.text
            if txt not in _BLOCK_TEXTS:
                continue
            if txt == "{":
                opens.append(i)
            elif txt == "}":
                if not opens:
                    raise ExtractionError("unbalanced braces", t.line)
                start = opens.pop()
                if last_word < start:
                    plain[start] = i
            else:  # a type word
                last_word = i
        if opens:
            raise ExtractionError("unbalanced braces", self.toks[-1].line)
        return plain

    def _scan(self, i: int, end: int, chain: tuple[str, ...], in_type: bool) -> int:
        """Scan tokens[i:end] at one nesting level; returns index past the
        closing '}' (or end). Every caller but the first starts just past a
        '{'. Outside a type body only braces and type words are read, and a
        plain block is stepped over."""
        if not in_type and i - 1 in self.plain:
            return self.plain[i - 1] + 1
        toks = self.toks
        header: list[Token] = []
        header_start: int | None = None
        annotations: list[str] = []
        # the identifier after the header's first type word that has one:
        # the header declares that type, and its ',' separate supertypes
        type_name: str | None = None

        def reset() -> None:
            nonlocal header, header_start, annotations, type_name
            header = []
            header_start = None
            annotations = []
            type_name = None

        while i < end:
            t = toks[i]
            txt = t.text
            if txt == "}":
                return i + 1
            if txt == ";" or (txt == "," and type_name is None):
                reset()
                i += 1
                continue
            if header_start is None:
                header_start = i
            if txt == "@" and in_type:
                j = i + 1
                name_parts = []
                while j < end and toks[j].kind == "identifier":
                    name_parts.append(toks[j].text)
                    j += 1
                    if j < end and toks[j].text == ".":
                        j += 1
                    else:
                        break
                annotations.append("@" + ".".join(name_parts))
                if j < end and toks[j].text == "(":
                    j = _skip_parens(toks, j)
                i = j
                continue
            if txt == "<":
                past = skip_angles(toks, i)
                if past is not None:
                    i = past
                    continue
                header.append(t)
                i += 1
                continue
            if txt == "=" and in_type:
                # field/constant initializer: it ends at its first ';' or '}'
                # outside a brace body, and each brace body it holds
                # (anonymous classes, lambdas, array initializers) is
                # descended to catch nested named types.
                i += 1
                while i < end and toks[i].text not in (";", "}"):
                    if toks[i].text == "{":
                        i = self._scan(i + 1, end, chain, in_type=False)
                    else:
                        i += 1
                reset()
                continue
            if txt == "(" and in_type:
                close = _skip_parens(toks, i) - 1
                k = close + 1
                # result dimensions (`int g()[]`) and a throws clause, either
                # perhaps with type annotations
                while k < end and toks[k].text in ("[", "]", "@"):
                    k = skip_annotation(toks, k) if toks[k].text == "@" else k + 1
                if k < end and toks[k].text == "throws":
                    k += 1
                    while k < end and (toks[k].kind == "identifier" or toks[k].text in (".", ",", "@")):
                        k = skip_annotation(toks, k) if toks[k].text == "@" else k + 1
                if type_name is None and k < end and toks[k].text == "{":
                    i = self._member_with_body(header, header_start, annotations, i, close, k, end, chain)
                    reset()
                    continue
                if k < end and toks[k].text == ";":
                    reset()  # abstract/native signature or enum constant
                    i = k + 1
                    continue
                header.append(t)  # a record's components, or another parenthesized header part
                i = close + 1
                continue
            if txt == "{":
                if type_name is not None:
                    i = self._scan(i + 1, end, chain + (type_name,), in_type=True)
                else:
                    i = self._scan(i + 1, end, chain, in_type=False)
                reset()
                continue
            if type_name is None and t.kind == "identifier" and header and header[-1].text in TYPE_WORDS:
                type_name = txt
            header.append(t)
            i += 1
        return i

    def _member_with_body(
        self,
        header: list[Token],
        header_start: int,
        annotations: list[str],
        open_idx: int,
        close_idx: int,
        body_open: int,
        end: int,
        chain: tuple[str, ...],
    ) -> int:
        toks = self.toks
        name_tok = header[-1] if header and header[-1].kind == "identifier" else None
        pre_name = header[:-1] if name_tok is not None else header
        type_toks = [
            t for t in pre_name
            if not (t.kind == "keyword" and t.text in MODIFIERS)
        ]
        is_method = (
            name_tok is not None
            and any(t.kind == "identifier" or (t.kind == "keyword" and t.text in PRIMITIVE_TYPES)
                    or t.text in ("[", "]") for t in type_toks)
        )
        body_close = self._scan(body_open + 1, end, chain, in_type=False)
        if is_method:
            start_line = toks[header_start].line
            end_line = toks[body_close - 1].line
            body_text = "\n".join(self.lines[start_line - 1:end_line])
            # the block starts at the first '{' from the first token on the
            # header's line, as a lex of body_text alone finds it
            first = header_start
            while first and toks[first - 1].line == start_line:
                first -= 1
            self.found.append(
                MethodDeclaration(
                    name=name_tok.text,
                    parameterTypes=_parse_parameter_types(toks, open_idx, close_idx),
                    modifiers={t.text for t in header if t.kind == "keyword" and t.text in MODIFIERS},
                    annotations=list(annotations),
                    bodyText=body_text,
                    startLine=start_line,
                    endLine=end_line,
                    containerChain=list(chain),
                    bodyBlock=_from_body_open(self.lines, toks, first, end_line),
                )
            )
        return body_close


def extract_methods_reference(text: str) -> list[MethodDeclaration]:
    return _Extractor(text, None).run()


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


def match_method_reference(
    prev_methods: list[MethodDeclaration],
    target: MethodDeclaration,
    theta: float,
) -> MethodDeclaration | None:
    """`history.match_method` before it skipped and stopped the edit
    distances that cannot reach theta: every candidate past the length gap
    gets its full edit distance."""
    target_sig = signature(target)
    exact = [m for m in prev_methods if signature(m) == target_sig]
    if exact:
        return min(exact, key=lambda m: m.startLine)

    target_block = body_block(target)

    def best_of(candidates: list[MethodDeclaration]) -> MethodDeclaration | None:
        best = None
        best_sim = -1.0
        for m in candidates:
            block = body_block(m)
            longest = max(len(block), len(target_block))
            if longest and 1.0 - abs(len(block) - len(target_block)) / longest < theta:
                continue  # length gap alone rules it out
            sim = body_similarity(m, target)
            if sim >= theta and (sim > best_sim or (sim == best_sim and m.startLine < best.startLine)):
                best, best_sim = m, sim
        return best

    same_name = [m for m in prev_methods if m.name == target.name]
    found = best_of(same_name)
    if found is not None:
        return found
    if len(target.bodyText) < SMALL_METHOD_CHARS:
        return None
    others = [m for m in prev_methods if m.name != target.name]
    return best_of(others)


def follow_history(repo: Path, snapshot: str, path: str) -> list[tuple[str, str]]:
    """(commit id, status letter) of each commit that `git log --first-parent
    -m --follow -M` lists for the file `path` of `snapshot`, newest first.
    Git runs without the system's and the user's configuration, so that no
    `diff.renames` setting changes the listing.  `--follow` does not stop
    at the commit that added the path: it goes on into the history of any
    file deleted at that path before."""
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL="/dev/null")
    out = subprocess.run(
        ["git", "-C", str(repo), "log", "--first-parent", "-m", "--follow", "-M", "--name-status", "-z",
         "--format=%x02%H", snapshot, "--", path],
        check=True, capture_output=True, env=env,
    ).stdout
    # NUL-separated fields: "\x02" + a commit id, then its status and path,
    # or the status and the old and the new path of a rename or copy
    listing = []
    fields = out.split(b"\x00")
    i = 0
    while i < len(fields):
        field = fields[i].lstrip(b"\n")
        i += 1
        if field.startswith(b"\x02"):
            commit = field[1:].decode("ascii")
        elif field:
            status = field[:1].decode("ascii")
            listing.append((commit, status))
            i += 2 if status in ("R", "C") else 1
    return listing


def trace_method_reference(session: TraceSession, decl: MethodDeclaration, path: str) -> MethodHistory:
    """One method's history by the per-method backward walk that
    `history.trace_method` replaced: the method alone steps back through the
    first-parent commits that changed its file, following file renames and
    method matches found by `match_method_reference`, and every parent-side
    version it reaches is read and extracted afresh.  Its introduction is
    the step at which no parent-side method matches, or else the file's
    addition, the last step."""
    chain = session.chain
    cur_decl = decl
    cur_path = path
    pending: list[tuple] = []  # newest first
    for k, change in session.steps(path):
        child = chain[k]
        if change.status[0] == "A":
            introduction = child
            break
        parent_path = change.oldPath or cur_path
        prev_methods = _version_methods(session.repo, change.oldBlob, parent_path)
        if prev_methods is None:
            # unreadable or unparseable parent version: skip this commit
            cur_path = parent_path
            continue
        matched = match_method_reference(prev_methods, cur_decl, session.theta)
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
