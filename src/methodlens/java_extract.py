"""Lexing of Java source and extraction of method declarations.

The parser is declaration-level only: it tracks braces, parentheses and
member headers well enough to find every named method with a body, but it
builds no expression AST.  That is sufficient for the metric and history
layers, which work on token streams and verbatim source lines.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple


class LexicalError(Exception):
    """Unterminated string/comment or other unlexable input."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ExtractionError(Exception):
    """Structural failure (e.g. unbalanced braces) while extracting methods."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


KEYWORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while""".split()
)

# true/false/null are literals, not keywords, so they land on the operand side
# of the token classification.
WORD_LITERALS = frozenset({"true", "false", "null"})

MODIFIERS = frozenset(
    {"public", "private", "protected", "static", "abstract", "final",
     "synchronized", "default", "native"}
)

PRIMITIVE_TYPES = frozenset(
    {"boolean", "byte", "char", "short", "int", "long", "float", "double", "void"}
)

_OPERATORS = [
    ">>>=", ">>=", "<<=", ">>>", ">>", "<<", "->", "==", "!=", "<=", ">=",
    "&&", "||", "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "=", "<", ">", "!", "~", "&", "|", "^", "?", ":",
]

# One match per token: the blanks before it, then one alternation, tried in
# order.  A whitespace run that holds a newline is matched as `newline`,
# which ends a lex in context.  After each construct that can fail to close
# comes an alternative that matches only its failure: '/*' with no later
# '*/', and '"""' with no later '"""' (a text block that does close later
# but not legally falls through to the string rules).  The final
# alternative catches every character no token can start with except a
# blank, so that blanks at the end of the text match nothing and the search
# ends there.
_TOKEN_RE = re.compile(
    r"""
    [ \t\r\f]*
    (?:
      (?P<newline>\n[ \t\r\n\f]*)
    | (?P<linecomment>//[^\n]*)
    | (?P<blockcomment>/\*(?:[^*]|\*(?!/))*\*/)
    | (?P<unclosedcomment>/\*)
    | (?P<textblock>\"\"\"(?:[^"\\]|\\.|\"(?!\"\"))*\"\"\")
    | (?P<unclosedtextblock>\"\"\"(?!.*\"\"\"))
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
    | (?P<error>[^ \t\r\f])
    )
    """ % "|".join(re.escape(op) for op in _OPERATORS),
    re.VERBOSE | re.DOTALL,
)

# token kind of each group; ident is split further by its text
_GROUP_KINDS = {
    "linecomment": "comment", "blockcomment": "comment",
    "textblock": "literal", "string": "literal", "char": "literal", "number": "literal",
    "sep": "separator", "op": "operator",
}


def _lex_error(group: str, text: str, line: int) -> LexicalError:
    if group == "unclosedcomment":
        return LexicalError("unterminated block comment", line)
    if group == "unclosedtextblock":
        return LexicalError("unterminated text block", line)
    if text == '"':
        return LexicalError("unterminated string literal", line)
    if text == "'":
        return LexicalError("unterminated character literal", line)
    return LexicalError(f"unexpected character {text!r}", line)


class Token(NamedTuple):
    kind: str  # keyword | identifier | literal | operator | separator | comment
    text: str
    line: int  # 1-based
    column: int  # 1-based
    line_count: int  # lines the token spans


@dataclass
class MethodDeclaration:
    name: str
    parameterTypes: list[str]
    modifiers: set[str]
    annotations: list[str]
    bodyText: str
    startLine: int
    endLine: int
    containerChain: list[str]
    # bodyText from the opening brace of the body on; read it through
    # `body_block`, which fills it in for a declaration extraction did not make
    bodyBlock: str | None = field(default=None, repr=False, compare=False)
    # bodyBlock's code points as a multiset, filled in by history's matching
    bodyBag: Counter[str] | None = field(default=None, repr=False, compare=False)


def normalize_source(raw: str) -> str:
    """The source text with CRLF and CR folded to LF."""
    return raw.replace("\r\n", "\n").replace("\r", "\n")


def tokenize(source: str, memo: dict[str, list[Token]] | None = None) -> list[Token]:
    """Lex Java source into a full-fidelity token stream (whitespace dropped).

    Lexing goes line by line. Only a block comment, a text block, or a
    string or char literal continued by a trailing backslash can cross a
    line end, so a line that holds '/*' or three double quotes, or ends with
    a backslash, is lexed in the whole source's context, from its start up
    to the next whitespace run that holds a newline. Every other line is
    lexed on its own and its tokens are kept in `memo` under the line's
    text: a caller that lexes many versions of one file, or one file in
    several stages, passes one memo and lexes each such line once (a hit on
    another line number is renumbered).
    """
    if memo is None:
        memo = {}
    tokens: list[Token] = []
    extend = tokens.extend
    new_token = tuple.__new__  # skips Token.__new__'s Python-level frame
    lines = source.split("\n")
    end = len(lines)
    line = 1
    start = 0  # offset of the line's first character
    while line <= end:
        text = lines[line - 1]
        if "/*" in text or '"""' in text or text.endswith("\\"):
            line, start = _lex_from(source, start, line, tokens)
            continue
        cached = memo.get(text)
        if cached is None:
            cached = []
            _lex_from(text, 0, line, cached)  # a line that fails to lex raises before it is kept
            memo[text] = cached
        elif cached and cached[0].line != line:
            cached = [new_token(Token, (kind, t, line, column, 1)) for kind, t, _, column, _ in cached]
        extend(cached)
        start += len(text) + 1
        line += 1
    return tokens


def _lex_from(source: str, pos: int, line: int, out: list[Token]) -> tuple[int, int]:
    """Lex `source` from `pos`, the start of line `line`, into `out` up to
    the first whitespace run that holds a newline; return the line number
    and offset of the line after that run's last newline (past the end when
    the source ends first).  Each match of `_TOKEN_RE` is one token with
    the blanks before it, or the whitespace run that ends the lex."""
    append = out.append
    new_token = tuple.__new__
    line_start = pos
    for m in _TOKEN_RE.finditer(source, pos):
        group = m.lastgroup
        text = m[group]
        start = m.start(group)
        kind = _GROUP_KINDS.get(group)
        if kind is None:
            if group == "newline":
                return line + text.count("\n"), start + text.rfind("\n") + 1
            if group != "ident":
                raise _lex_error(group, text, line)
            kind = "keyword" if text in KEYWORDS else "literal" if text in WORD_LITERALS else "identifier"
        nl = text.count("\n")
        append(new_token(Token, (kind, text, line, start - line_start + 1, nl + 1)))
        if nl:
            line += nl
            line_start = start + text.rfind("\n") + 1
    return line + 1, len(source) + 1


def signature(decl: MethodDeclaration) -> str:
    """Stable identity key: Outer.Inner#name(ErasedType,...)."""
    return "%s#%s(%s)" % (".".join(decl.containerChain), decl.name, ",".join(decl.parameterTypes))


def match_forward(toks: list[Token], i: int, open_txt: str, close_txt: str) -> int:
    """Index of the token closing toks[i] (which must be the opener)."""
    depth = 0
    for j in range(i, len(toks)):
        t = toks[j].text
        if t == open_txt:
            depth += 1
        elif t == close_txt:
            depth -= 1
            if depth == 0:
                return j
    return len(toks) - 1


def skip_annotation(toks: list[Token], i: int) -> int:
    """Index past the annotation whose '@' is toks[i]: its dotted name and
    its argument group, if any."""
    i += 1
    n = len(toks)
    # an identifier is part of the name only after '@' or '.', so that the
    # type after `@Nonnull` in `@Nonnull Object x` is not
    while i < n and (toks[i].text == "." or toks[i].kind == "identifier" and toks[i - 1].text in ("@", ".")):
        i += 1
    if i < n and toks[i].text == "(":
        i = match_forward(toks, i, "(", ")") + 1
    return i


def body_open_index(toks: list[Token], i: int = 0) -> int | None:
    """Index of the '{' that opens the method body in a declaration's
    comment-free tokens, which start at toks[i] (annotation argument groups
    in the header are skipped)."""
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.text == "@":
            i = skip_annotation(toks, i)
            continue
        if t.text == "{":
            return i
        i += 1
    return None


def _from_body_open(lines: list[str], toks: list[Token], i: int, end: int) -> str | None:
    """`lines` up to line `end` (1-based), from the body's opening brace
    found by `body_open_index(toks, i)` on, or None when it finds none."""
    open_idx = body_open_index(toks, i)
    if open_idx is None:
        return None
    brace = toks[open_idx]
    return "\n".join([lines[brace.line - 1][brace.column - 1:], *lines[brace.line:end]])


def body_block(decl: MethodDeclaration, memo: dict[str, list[Token]] | None = None) -> str:
    """The declaration's text from its body's opening brace on (all of it
    when no brace opens a body).  Extraction sets it; a declaration built
    otherwise, such as from a record, is lexed for it once, through `memo`
    when given."""
    if decl.bodyBlock is None:
        lines = decl.bodyText.split("\n")
        toks = [t for t in tokenize(decl.bodyText, memo) if t.kind != "comment"]
        decl.bodyBlock = _from_body_open(lines, toks, 0, len(lines)) or decl.bodyText
    return decl.bodyBlock


_TYPE_DECL_KEYWORDS = frozenset({"class", "interface", "enum"})
# the tokens `_Extractor._blocks` reads: braces, parentheses, and each word
# `_type_decl_name` accepts (no other token has these texts)
_BLOCK_TEXTS = frozenset({"{", "}", "(", ")", "record"}) | _TYPE_DECL_KEYWORDS


def _skip_parens(toks: list[Token], i: int) -> int:
    """Index just past the ')' matching toks[i] == '('."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "(":
            depth += 1
        elif t == ")":
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    raise ExtractionError("unbalanced parentheses", toks[-1].line if toks else 1)


def skip_angles(toks: list[Token], i: int) -> int | None:
    """Index past a balanced <...> group starting at toks[i] == '<'.

    Returns None when the group never balances before ';' or '{' (the '<'
    was a comparison, not generics).
    """
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
        elif t == ">>":
            depth -= 2
        elif t == ">>>":
            depth -= 3
        elif t in (";", "{", "}"):
            return None
        if depth <= 0:
            return i + 1
        i += 1
    return None


def _erase_param(parts: list[Token]) -> str | None:
    """Render one formal parameter, its annotations, type arguments and
    `final` dropped, as an erased type name, or None to skip."""
    # nothing, or a receiver parameter (`A this`, `Outer Outer.this`), which
    # is not a formal parameter
    if not parts or parts[-1].text == "this":
        return None
    # The declared name is the last identifier; trailing [] after it belongs
    # to the type (legacy array syntax).
    for j in range(len(parts) - 1, -1, -1):
        if parts[j].kind == "identifier":
            break
    else:
        return None
    type_toks = parts[:j] + parts[j + 1:]
    if not type_toks:
        return None
    return "".join("[]" if t.text == "..." else t.text for t in type_toks)


def _parse_parameter_types(toks: list[Token], open_idx: int, close_idx: int) -> list[str]:
    """Erased type names for the parameter list in toks[open_idx+1:close_idx].

    One walk over the list: an annotation and a type argument group are
    skipped whole, so a ',' or '<' inside either is not read, and a ','
    outside them ends a parameter.
    """
    inner = toks[open_idx + 1:close_idx]
    types = []
    parts: list[Token] = []
    i = 0
    n = len(inner)
    while i < n:
        txt = inner[i].text
        if txt == "@":
            i = skip_annotation(inner, i)
            continue
        if txt == "<":
            end = skip_angles(inner, i)
            i = i + 1 if end is None else end  # a '<' that never closes is dropped
            continue
        if txt == ",":
            types.append(_erase_param(parts))
            parts = []
        elif txt != "final":
            parts.append(inner[i])
        i += 1
    types.append(_erase_param(parts))
    return [t for t in types if t is not None]


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

        A block is plain when it and every block inside it hold no token
        `_type_decl_name` looks for, and its parentheses balance between its
        braces without closing one opened before it. A plain block scanned
        outside a type body records nothing, no parenthesis skip leaves it,
        and none fails, so `_scan` steps over it.
        """
        plain: dict[int, int] = {}
        # one entry per open block: its '{', the paren depth there, and
        # whether it is still plain
        open_blocks: list[list] = []
        parens = 0
        for i, t in enumerate(self.toks):
            txt = t.text
            if txt not in _BLOCK_TEXTS:
                continue
            if txt == "(":
                parens += 1
            elif txt == ")":
                parens -= 1
                if open_blocks and parens < open_blocks[-1][1]:
                    open_blocks[-1][2] = False
            elif txt == "{":
                open_blocks.append([i, parens, True])
            elif txt == "}":
                if not open_blocks:
                    raise ExtractionError("unbalanced braces", t.line)
                start, depth, is_plain = open_blocks.pop()
                if is_plain and parens == depth:
                    plain[start] = i
                elif open_blocks:
                    open_blocks[-1][2] = False
            elif open_blocks:  # a type keyword or `record`
                open_blocks[-1][2] = False
        if open_blocks:
            raise ExtractionError("unbalanced braces", self.toks[-1].line)
        return plain

    def _scan(self, i: int, end: int, chain: tuple[str, ...], in_type: bool) -> int:
        """Scan tokens[i:end] at one nesting level; returns index past the
        closing '}' (or end). Every caller but the first starts just past a
        '{', and a plain block outside a type body is stepped over."""
        if not in_type and i - 1 in self.plain:
            return self.plain[i - 1] + 1
        toks = self.toks
        header: list[Token] = []
        header_start: int | None = None
        annotations: list[str] = []

        def reset() -> None:
            nonlocal header, header_start, annotations
            header = []
            header_start = None
            annotations = []

        while i < end:
            t = toks[i]
            txt = t.text
            if txt == "}":
                return i + 1
            if txt in (";", ","):
                reset()
                i += 1
                continue
            if header_start is None:
                header_start = i
            if txt == "@":
                if i + 1 < end and toks[i + 1].text == "interface":
                    header.append(toks[i + 1])  # annotation-type declaration
                    i += 2
                    continue
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
            if txt == "=":
                # field/constant initializer: consume expression, descending
                # into any brace bodies it contains (anonymous classes, array
                # initializers) to catch nested named types.
                i += 1
                depth_paren = 0
                while i < end:
                    e = toks[i].text
                    if e == "(" or e == "[":
                        depth_paren += 1
                    elif e == ")" or e == "]":
                        depth_paren -= 1
                    elif e == "{":
                        i = self._scan(i + 1, end, chain, in_type=False)
                        continue
                    elif e == ";" and depth_paren <= 0:
                        break
                    elif e == "}":
                        break  # malformed; let outer level see it
                    i += 1
                reset()
                continue
            if txt == "(":
                close = _skip_parens(toks, i) - 1
                k = close + 1
                # optional throws clause
                if k < end and toks[k].text == "throws":
                    k += 1
                    while k < end and (toks[k].kind == "identifier" or toks[k].text in (".", ",")):
                        k += 1
                if k < end and toks[k].text == "{":
                    i = self._member_with_body(header, header_start, annotations, i, close, k, end, chain, in_type)
                    reset()
                    continue
                if k < end and toks[k].text == ";":
                    reset()  # abstract/native signature or enum constant
                    i = k + 1
                    continue
                header.append(t)  # unrecognized parenthesized header part
                i = close + 1
                continue
            if txt == "{":
                type_name = self._type_decl_name(header)
                if type_name is not None:
                    i = self._scan(i + 1, end, chain + (type_name,), in_type=True)
                else:
                    i = self._scan(i + 1, end, chain, in_type=False)
                reset()
                continue
            header.append(t)
            i += 1
        return i

    def _type_decl_name(self, header: list[Token]) -> str | None:
        for j, t in enumerate(header):
            if (t.kind == "keyword" and t.text in _TYPE_DECL_KEYWORDS) or (
                t.kind == "identifier" and t.text == "record" and j + 1 < len(header)
            ):
                if j + 1 < len(header) and header[j + 1].kind == "identifier":
                    return header[j + 1].text
        return None

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
        in_type: bool,
    ) -> int:
        toks = self.toks
        type_name = self._type_decl_name(header)
        if type_name is not None:  # record declaration with component list
            return self._scan(body_open + 1, end, chain + (type_name,), in_type=True)
        name_tok = header[-1] if header and header[-1].kind == "identifier" else None
        pre_name = header[:-1] if name_tok is not None else header
        type_toks = [
            t for t in pre_name
            if not (t.kind == "keyword" and t.text in MODIFIERS)
        ]
        is_method = (
            in_type
            and chain
            and name_tok is not None
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


def extract_methods(text: str, memo: dict[str, list[Token]] | None = None) -> list[MethodDeclaration]:
    """All named methods with bodies in named types, in source order.

    Constructors, initializer blocks, bodiless signatures, and methods whose
    immediate container is an anonymous class or lambda are excluded.
    `memo` is handed to `tokenize`.

    A block outside a type body (a method or initializer body, a lambda, an
    anonymous class or an array initializer) is not scanned when neither it
    nor any block inside it holds `class`, `interface`, `enum` or `record`,
    and its parentheses balance between its braces without closing one
    opened before it: such a block can declare nothing.
    """
    return _Extractor(text, memo).run()
