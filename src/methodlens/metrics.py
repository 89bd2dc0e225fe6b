"""The 17 method-level code metrics, computed from a method's declaration text.

`compute_metric_vector` lexes the declaration once and hands the tokens, or
the body slice of them, to the private function behind each metric; one
walk over the body's statements gives maxBlockDepth, variables, nvar and
ncomp.  The formula functions that need no tokens stay public.

Every convention that is not forced by the metric's usual definition
(Halstead operator/operand classification, the predicate set, tab width,
readability model weights, ...) is frozen in docs/metric_ledger.md so the
golden fixtures stay stable.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, fields

from .java_extract import (
    MethodDeclaration,
    PRIMITIVE_TYPES,
    TYPE_WORDS,
    Token,
    body_open_index,
    match_forward,
    skip_angles,
    skip_annotation,
    tokenize,
)

TAB_WIDTH = 4

# Readability surrogate: logistic over eight shape features, weights frozen
# in the metric ledger.  Intercept centers typical small methods near 0.6.
BUSE_INTERCEPT = 2.3
BUSE_WEIGHTS = (
    ("avgLineLength", -0.03),
    ("maxLineLength", -0.01),
    ("avgIdentifierLength", -0.05),
    ("identifiersPerLine", -0.12),
    ("avgIndent", -0.06),
    ("commentLineRatio", 1.2),
    ("blankLineRatio", 0.25),
    ("parensPerLine", -0.30),
)

POSNETT_INTERCEPT = 8.87
POSNETT_VOLUME_COEF = -0.033
POSNETT_LINES_COEF = 0.40
POSNETT_ENTROPY_COEF = -1.5


@dataclass(frozen=True)
class HalsteadCounts:
    N1: int  # total operators
    N2: int  # total operands
    n1: int  # distinct operators
    n2: int  # distinct operands

    @property
    def length(self) -> int:
        return self.N1 + self.N2

    @property
    def vocabulary(self) -> int:
        return self.n1 + self.n2

    @property
    def volume(self) -> float:
        return self.length * math.log2(max(self.vocabulary, 2))


@dataclass(frozen=True)
class MetricVector:
    size: int
    mccabe: int
    nvar: int
    ncomp: int
    indentStd: float
    maxBlockDepth: int
    fanout: int
    halsteadLength: int
    maintainabilityIndex: float
    readability: float
    simpleReadability: float
    parameters: int
    variables: int
    commentRatio: float
    getterSetter: bool
    isPublic: bool
    isStatic: bool

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in METRIC_NAMES}

    def as_floats(self) -> list[float]:
        return [float(getattr(self, name)) for name in METRIC_NAMES]


METRIC_NAMES = [f.name for f in fields(MetricVector)]

# Binary flags carry too little spread to contribute to composite scores.
NUMERIC_METRIC_NAMES = METRIC_NAMES[:14]


# ---------------------------------------------------------------------------
# token helpers


def _logistic(z: float) -> float:
    z = max(-30.0, min(30.0, z))  # keep the result strictly inside (0, 1)
    return 1.0 / (1.0 + math.exp(-z))


def _body_slice(toks: list[Token]) -> list[Token]:
    """Tokens of the body block, outer braces included (empty when absent)."""
    code = [t for t in toks if t.kind != "comment"]
    open_idx = body_open_index(code)
    if open_idx is None:
        return []
    close_idx = match_forward(code, open_idx, "{", "}")
    return code[open_idx:close_idx + 1]


def _invocation_indices(toks: list[Token]) -> set[int]:
    """Indices of identifiers in call position: name directly followed by '(',
    excluding constructor calls after `new`, annotation names, and
    declaration-shaped `Type name(` positions."""
    calls: set[int] = set()
    n = len(toks)
    for i, t in enumerate(toks):
        if t.kind != "identifier" or i + 1 >= n or toks[i + 1].text != "(":
            continue
        if i > 0:
            prev = toks[i - 1]
            if prev.kind == "identifier":
                continue
            if prev.text in ("]", ">", ">>", ">>>", "@"):
                continue
            if prev.kind == "keyword" and (prev.text in PRIMITIVE_TYPES or prev.text == "new"):
                continue
            if prev.text == ".":
                j = i - 1
                while j >= 1 and toks[j].text == "." and toks[j - 1].kind == "identifier":
                    j -= 2
                if j >= 0 and toks[j].text == "new":
                    continue
        calls.add(i)
    return calls


def _is_ternary_question(toks: list[Token], i: int) -> bool:
    """'?' is a ternary operator unless it sits in a generic wildcard slot."""
    if i == 0:
        return False
    prev = toks[i - 1]
    return prev.kind in ("identifier", "literal") or prev.text in (")", "]")


def _ternary_condition(toks: list[Token], i: int) -> list[Token]:
    """Tokens of the condition expression ending at the ternary '?' at i.

    Walks left at the same bracket depth until a boundary token: the start
    of the enclosing group, an assignment, a statement break, or another
    ternary operator.
    """
    boundary_texts = {",", ";", "{", "}", "?", ":", "->", "="}
    assignment_ops = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=", "<<=", ">>=", ">>>="}
    boundary_keywords = {"return", "throw", "case", "assert", "yield"}
    depth = 0
    j = i - 1
    start = 0
    while j >= 0:
        t = toks[j]
        txt = t.text
        if txt in (")", "]"):
            depth += 1
        elif txt in ("(", "["):
            depth -= 1
            if depth < 0:
                start = j + 1
                break
        elif depth == 0:
            if txt in boundary_texts or txt in assignment_ops or (
                t.kind == "keyword" and t.text in boundary_keywords
            ):
                start = j + 1
                break
        j -= 1
    return toks[start:i]


# ---------------------------------------------------------------------------
# individual metrics


def _line_counts(toks: list[Token]) -> tuple[int, int]:
    """(size, comment lines): the lines in the declaration span carrying at
    least one non-comment token, and those carrying at least one comment
    token; a line may count in both."""
    code: set[int] = set()
    comment: set[int] = set()
    for t in toks:
        (comment if t.kind == "comment" else code).update(range(t.line, t.line + t.line_count))
    return len(code), len(comment)


def _mccabe(body: list[Token]) -> int:
    """1 + #predicates.

    Predicates: if, for, while (a do-while is counted once, through its
    closing while), case labels, catch clauses, ternary '?', and every
    '&&'/'||'.  'default' labels do not count.
    """
    count = 0
    for i, t in enumerate(body):
        if t.kind == "keyword" and t.text in ("if", "for", "while", "case", "catch"):
            count += 1
        elif t.text in ("&&", "||"):
            count += 1
        elif t.text == "?" and _is_ternary_question(body, i):
            count += 1
    return 1 + count


def _mcclure(predicates: list[list[Token]]) -> tuple[int, int]:
    """(nvar, ncomp): distinct identifiers and comparison operators inside
    the decision expressions the statement walk reads."""
    names: set[str] = set()
    comparisons = 0
    for expr in predicates:
        for t in expr:
            if t.kind == "identifier":
                names.add(t.text)
            elif t.text in ("==", "!=", "<", "<=", ">", ">=", "instanceof"):
                comparisons += 1
    return len(names), comparisons


def _indent_width(line: str) -> int:
    width = 0
    for ch in line:
        if ch == " ":
            width += 1
        elif ch == "\t":
            width += TAB_WIDTH
        else:
            break
    return width


def compute_indent_std(decl: MethodDeclaration) -> float:
    """Population standard deviation of leading-indent width over non-blank
    lines (tab counts as four spaces)."""
    widths = [_indent_width(line) for line in decl.bodyText.split("\n") if line.strip()]
    if not widths:
        return 0.0
    mean = sum(widths) / len(widths)
    var = sum((w - mean) ** 2 for w in widths) / len(widths)
    return math.sqrt(var)


class _StatementWalker:
    """One walk over a method body's statements, the one reader of
    control-structure headers, gives maxBlockDepth, the deepest nesting of
    control-structure blocks that `statements` returns (the method body
    itself is depth 0, and braceless single-statement bodies count as
    blocks); `variables`, the local declarators it counts; and nvar and
    ncomp, over the decision expressions it records in `predicates`: each
    `if`, `while` and do-`while` condition, `switch` selector and classic
    `for` middle clause, and each ternary condition in a statement it
    walks.  A header's brace bodies are not walked, so a ternary in a
    header counts only as part of that header's own condition."""

    def __init__(self, toks: list[Token]):
        self.toks = toks
        self.declarators = 0
        self.predicates: list[list[Token]] = []

    def statements(self, i: int, end: int, depth: int) -> int:
        best = 0
        while i < end:
            i, m = self._statement(i, end, depth)
            best = max(best, m)
        return best

    def _skip_parens(self, i: int, end: int, decision: bool = False) -> int:
        """Index past the parenthesized group at i, if any; a decision
        group, a condition or a selector, is recorded."""
        if i < end and self.toks[i].text == "(":
            close = match_forward(self.toks, i, "(", ")")
            if decision:
                self.predicates.append(self.toks[i + 1:close])
            return min(close + 1, end)
        return i

    def _clauses(self, i: int, end: int) -> int:
        """Index past the header of a `for` or `try` at i, whose brace
        bodies are jumped.  A declaration may start a `for` header's first
        clause and each ';'-separated resource of a `try`; the middle clause
        of a classic `for` is recorded as a decision expression."""
        toks = self.toks
        loop = toks[i - 1].text == "for"
        j = self._skip_parens(i, end)
        starts = []  # of the clauses, each past the '(' or a ';'
        k = i
        while k < j:
            if toks[k].text == "{":
                k = match_forward(toks, k, "{", "}")
            elif k == i or toks[k].text == ";":
                starts.append(k + 1)
            k += 1
        for k in starts[:1] if loop else starts:
            self._declare(k)
        if loop and len(starts) > 2:
            self.predicates.append(toks[starts[1]:starts[2] - 1])
        return j

    def _declare(self, i: int) -> None:
        """Count the declarators of the local declaration at i, if one
        starts there, past `final` and annotations."""
        toks = self.toks
        while i < len(toks) and toks[i].text in ("final", "@"):
            i = skip_annotation(toks, i) if toks[i].text == "@" else i + 1
        if i < len(toks):
            self.declarators += _try_parse_declaration(toks, i)

    def _statement(self, i: int, end: int, depth: int) -> tuple[int, int]:
        """Consume one statement starting at i; returns (next index, max
        control depth reached)."""
        if i >= end:
            return end, 0
        toks = self.toks
        t = toks[i]
        txt = t.text

        if txt == ";":
            return i + 1, 0
        if txt == "{":
            close = match_forward(toks, i, "{", "}")
            m = self.statements(i + 1, min(close, end), depth)
            return min(close + 1, end), m

        if t.kind == "keyword":
            if txt == "if":
                j = self._skip_parens(i + 1, end, decision=True)
                j, best = self._embedded(j, end, depth)
                if j < end and toks[j].text == "else":
                    j += 1
                    if j < end and toks[j].text == "if":
                        j, m = self._statement(j, end, depth)  # else-if stays level
                    else:
                        j, m = self._embedded(j, end, depth)
                    best = max(best, m)
                return j, best
            if txt in ("for", "while", "switch", "synchronized"):
                j = (self._clauses(i + 1, end) if txt == "for"
                     else self._skip_parens(i + 1, end, decision=txt != "synchronized"))
                return self._embedded(j, end, depth)
            if txt == "do":
                j, m = self._embedded(i + 1, end, depth)
                if j < end and toks[j].text == "while":
                    j = self._skip_parens(j + 1, end, decision=True)
                    if j < end and toks[j].text == ";":
                        j += 1
                return j, m
            if txt == "try":
                j = self._clauses(i + 1, end)
                j, best = self._embedded(j, end, depth)
                while j < end and toks[j].kind == "keyword" and toks[j].text in ("catch", "finally"):
                    kw = toks[j].text
                    j += 1
                    if kw == "catch":
                        j = self._skip_parens(j, end)
                    j, m = self._embedded(j, end, depth)
                    best = max(best, m)
                return j, best
            # a label, but not a `default` method of a local interface
            if txt == "case" or (txt == "default" and i + 1 < end and toks[i + 1].text in (":", "->")):
                j = i + 1
                while j < end and toks[j].text not in (":", "->"):
                    j += 1
                return min(j + 1, end), 0
            if txt == "else":  # stray else (defensive)
                return self._embedded(i + 1, end, depth)

        # label
        if t.kind == "identifier" and i + 1 < end and toks[i + 1].text == ":":
            return i + 2, 0

        # a local declaration may start here, but not at a switch rule's
        # expression, as in `case 1 -> a < b && c > d;`
        if toks[i - 1].text != "->":
            self._declare(i)
        # any other statement runs to its first ';' or '}' outside a brace
        # body, descending into each brace body, which is depth-transparent;
        # once a type word and the type's name are seen, it ends at a body's
        # '}'.  A declaration may start after a brace body, as a field after
        # a method does in a local or anonymous class.
        best = 0
        named = False
        j = i
        while j < end:
            e = toks[j].text
            if e == "{":
                close = match_forward(toks, j, "{", "}")
                best = max(best, self.statements(j + 1, min(close, end), depth))
                if named:
                    return min(close + 1, end), best
                self._declare(close + 1)
                j = close
            elif e == ";":
                return j + 1, best
            elif e == "}":
                return j, best  # malformed statement; let the caller see '}'
            elif e == "switch":  # a switch expression
                j = self._skip_parens(j + 1, end, decision=True)
                continue
            elif e == "?" and _is_ternary_question(toks, j):
                self.predicates.append(_ternary_condition(toks, j))
            elif e in TYPE_WORDS and j + 1 < end and toks[j + 1].kind == "identifier":
                named = True
            j += 1
        return end, best

    def _embedded(self, i: int, end: int, depth: int) -> tuple[int, int]:
        """Body of a control structure: a block or a single statement, at
        depth + 1."""
        if i >= end:
            return end, depth + 1
        if self.toks[i].text == "{":
            close = match_forward(self.toks, i, "{", "}")
            inner = self.statements(i + 1, min(close, end), depth + 1)
            return min(close + 1, end), max(depth + 1, inner)
        j, inner = self._statement(i, end, depth + 1)
        return j, max(depth + 1, inner)


_NAME_FOLLOWERS = {"=", ",", ";", ":"}


def _try_parse_declaration(body: list[Token], i: int) -> int:
    """Declarators of a `Type name (= init)? (, name (= init)?)*` at i; 0
    means no declaration starts here (a `yield` statement never does)."""
    n = len(body)
    j = i
    t = body[j]
    if t.kind == "keyword" and t.text in PRIMITIVE_TYPES and t.text != "void":
        j += 1
    elif t.kind == "identifier" and t.text != "yield":
        j += 1
        while j + 1 < n and body[j].text == "." and body[j + 1].kind == "identifier":
            j += 2
    else:
        return 0
    if j < n and body[j].text == "<":
        j = skip_angles(body, j)
        if j is None:
            return 0
    while j + 1 < n and body[j].text == "[" and body[j + 1].text == "]":
        j += 2
    if j >= n or body[j].kind != "identifier":
        return 0
    j += 1
    while j + 1 < n and body[j].text == "[" and body[j + 1].text == "]":
        j += 2  # legacy `int a[]`
    # not `)`, which ends e.g. an instanceof pattern variable
    if j >= n or body[j].text not in _NAME_FOLLOWERS:
        return 0
    count = 1
    # walk the rest of the statement, counting `, name` at group depth 0
    depth = 0
    while j < n:
        txt = body[j].text
        if txt in ("(", "[", "{"):
            depth += 1
        elif txt in (")", "]", "}"):
            if depth == 0:
                break
            depth -= 1
        elif txt == ";" and depth == 0:
            break
        elif txt == ":" and depth == 0:
            break  # enhanced-for: single declarator
        elif txt == "," and depth == 0:
            if j + 1 < n and body[j + 1].kind == "identifier":
                count += 1
                j += 1
        j += 1
    return count


def _fanout(body: list[Token], calls: set[int]) -> int:
    """Distinct invoked method simple names in the body."""
    return len({body[i].text for i in calls})


def _halstead(body: list[Token], calls: set[int]) -> HalsteadCounts:
    """Operator/operand counts over the body block (outer braces included).

    Operands: identifiers and literals.  Operators: keywords, operator
    symbols, one per bracket pair, and one per invocation (the called name
    absorbs its parentheses).  ';', ',' and other separators are ignored.
    """
    consumed_parens = {i + 1 for i in calls}
    operators: list[str] = []
    operands: list[str] = []
    for i, t in enumerate(body):
        if t.kind == "keyword":
            operators.append(t.text)
        elif t.kind == "operator":
            operators.append(t.text)
        elif t.kind == "identifier":
            if i in calls:
                operators.append(t.text + "()")
            else:
                operands.append(t.text)
        elif t.kind == "literal":
            operands.append(t.text)
        elif t.kind == "separator":
            if t.text == "(" and i not in consumed_parens:
                operators.append("()")
            elif t.text == "[":
                operators.append("[]")
            elif t.text == "{":
                operators.append("{}")
    return HalsteadCounts(
        N1=len(operators), N2=len(operands),
        n1=len(set(operators)), n2=len(set(operands)),
    )


def compute_maintainability_index(size: int, mccabe: int, halstead: HalsteadCounts) -> float:
    """Classic three-term 171-based formula, unclamped."""
    volume = halstead.volume
    return 171.0 - 5.2 * math.log(max(volume, 1.0)) - 0.23 * mccabe - 16.2 * math.log(size)


def _buse_features(decl: MethodDeclaration, toks: list[Token], comment_lines: int) -> dict[str, float]:
    lines = decl.bodyText.split("\n")
    nlines = len(lines)
    identifiers = [t.text for t in toks if t.kind == "identifier"]
    nonblank_indents = [_indent_width(line) for line in lines if line.strip()]
    return {
        "avgLineLength": sum(len(line) for line in lines) / nlines,
        "maxLineLength": float(max(len(line) for line in lines)),
        "avgIdentifierLength": (sum(len(s) for s in identifiers) / len(identifiers)) if identifiers else 0.0,
        "identifiersPerLine": len(identifiers) / nlines,
        "avgIndent": (sum(nonblank_indents) / len(nonblank_indents)) if nonblank_indents else 0.0,
        "commentLineRatio": comment_lines / nlines,
        "blankLineRatio": sum(1 for line in lines if not line.strip()) / nlines,
        "parensPerLine": decl.bodyText.count("(") / nlines,
    }


def _readability_buse(decl: MethodDeclaration, toks: list[Token], comment_lines: int) -> float:
    """Surrogate of the learned line-shape readability model: logistic score
    over eight documented features with ledger-fixed weights."""
    features = _buse_features(decl, toks, comment_lines)
    z = BUSE_INTERCEPT + sum(w * features[name] for name, w in BUSE_WEIGHTS)
    return _logistic(z)


def byte_entropy(text: str) -> float:
    """Shannon entropy (bits) of the UTF-8 byte distribution."""
    data = text.encode("utf-8")
    if not data:
        return 0.0
    # Counter keeps first-seen order, so the sum runs in the order of a
    # plain counting loop
    counts = Counter(data)
    total = len(data)
    return -sum((c / total) * math.log2(c / total) for c in counts.values())


def compute_readability_posnett(decl: MethodDeclaration, halstead: HalsteadCounts) -> float:
    """Token-entropy readability model: logistic(8.87 - 0.033*V + 0.40*lines - 1.5*H)."""
    lines = decl.bodyText.count("\n") + 1
    z = (
        POSNETT_INTERCEPT
        + POSNETT_VOLUME_COEF * halstead.volume
        + POSNETT_LINES_COEF * lines
        + POSNETT_ENTROPY_COEF * byte_entropy(decl.bodyText)
    )
    return _logistic(z)


def _getter_setter(decl: MethodDeclaration, body: list[Token]) -> bool:
    inner = body[1:-1] if len(body) >= 2 else []
    if not inner:
        return False
    semis = [k for k, t in enumerate(inner) if t.text == ";"]
    single_statement = len(semis) == 1 and semis[0] == len(inner) - 1
    if not single_statement:
        return False
    name = decl.name
    arity = len(decl.parameterTypes)
    if (name.startswith("get") or name.startswith("is")) and arity == 0:
        return inner[0].kind == "keyword" and inner[0].text == "return"
    if name.startswith("set") and arity == 1:
        has_plain_assign = any(t.text == "=" for t in inner)
        starts_with_return = inner[0].kind == "keyword" and inner[0].text == "return"
        return has_plain_assign and not starts_with_return
    return False


def compute_metric_vector(decl: MethodDeclaration, memo: dict[str, list[Token]] | None = None) -> MetricVector:
    """All 17 metrics from one lex of the declaration, through `memo` when
    given (`tokenize`'s line memo, which never changes the tokens);
    deterministic for identical declaration text."""
    toks = tokenize(decl.bodyText, memo)
    body = _body_slice(toks)
    calls = _invocation_indices(body)
    size, comment_lines = _line_counts(toks)
    halstead = _halstead(body, calls)
    mccabe = _mccabe(body)
    walker = _StatementWalker(body)
    max_depth = walker.statements(1, len(body) - 1, 0)  # inside the body's braces
    nvar, ncomp = _mcclure(walker.predicates)
    return MetricVector(
        size=size,
        mccabe=mccabe,
        nvar=nvar,
        ncomp=ncomp,
        indentStd=compute_indent_std(decl),
        maxBlockDepth=max_depth,
        fanout=_fanout(body, calls),
        halsteadLength=halstead.length,
        maintainabilityIndex=compute_maintainability_index(size, mccabe, halstead),
        readability=_readability_buse(decl, toks, comment_lines),
        simpleReadability=compute_readability_posnett(decl, halstead),
        parameters=len(decl.parameterTypes),
        variables=walker.declarators,
        commentRatio=comment_lines / size,
        getterSetter=_getter_setter(decl, body),
        isPublic="public" in decl.modifiers,
        isStatic="static" in decl.modifiers,
    )
