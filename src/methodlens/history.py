"""Per-method change histories: edit distances, line diffs, backward tracing
along the first-parent chain, and windowed change indicators."""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .gitrepo import CommitMeta, GitRepo
from .java_extract import (
    ExtractionError,
    LexicalError,
    MethodDeclaration,
    normalize_source,
    extract_methods,
    signature,
    tokenize,
)

log = logging.getLogger("methodlens.history")

DAYS_PER_YEAR = 365.25


class MethodNotAtSnapshot(Exception):
    pass


@dataclass(frozen=True)
class TraceConfig:
    similarity_threshold: float = 0.75
    window_years: float = 5.0
    snapshot_commit: str = ""
    # below this declaration length, cross-name matches are too error-prone
    small_method_chars: int = 60

    def __post_init__(self):
        if not (0.0 < self.similarity_threshold <= 1.0):
            raise ValueError("similarity_threshold must be in (0, 1]")
        if self.window_years <= 0:
            raise ValueError("window_years must be positive")

    @property
    def window_days(self) -> float:
        return DAYS_PER_YEAR * self.window_years


@dataclass(frozen=True)
class MethodIdentity:
    project: str
    file: str
    signature: str
    startLine: int

    def key(self) -> tuple:
        return (self.project, self.file, self.startLine, self.signature)

    def as_str(self) -> str:
        return f"{self.project}:{self.file}:{self.startLine}:{self.signature}"


@dataclass(frozen=True)
class Revision:
    commit: CommitMeta
    linesAdded: int
    linesDeleted: int
    editDistance: int
    daysSinceIntroduction: float


@dataclass
class MethodHistory:
    identity: MethodIdentity
    introduction: CommitMeta
    introductionPath: str
    introductionDecl: MethodDeclaration  # the method as first committed
    revisions: list[Revision]  # oldest -> newest

    @property
    def introductionBody(self) -> str:
        return self.introductionDecl.bodyText


@dataclass(frozen=True)
class ChangeIndicators:
    revisions: int
    diffSize: int
    additionOnly: int
    editDistance: int

    def value(self, name: str) -> int:
        return getattr(self, name)


INDICATOR_NAMES = ("revisions", "diffSize", "additionOnly", "editDistance")


# ---------------------------------------------------------------------------
# text distances


def _strip_common(a: str, b: str) -> tuple[str, str]:
    pre = 0
    limit = min(len(a), len(b))
    while pre < limit and a[pre] == b[pre]:
        pre += 1
    a, b = a[pre:], b[pre:]
    suf = 0
    limit = min(len(a), len(b))
    while suf < limit and a[len(a) - 1 - suf] == b[len(b) - 1 - suf]:
        suf += 1
    if suf:
        a, b = a[:len(a) - suf], b[:len(b) - suf]
    return a, b


def levenshtein(a: str, b: str) -> int:
    """Minimal character insertions/deletions/substitutions turning a into b.

    Memory stays proportional to min(|a|, |b|).
    """
    if a == b:
        return 0
    a, b = _strip_common(a, b)
    if not a:
        return len(b)
    if not b:
        return len(a)
    if len(b) < len(a):
        a, b = b, a
    if len(b) <= 64:
        return _levenshtein_small(a, b)
    m = len(a)
    a_arr = np.frombuffer(a.encode("utf-32-le"), dtype=np.uint32)
    b_arr = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    idx = np.arange(m + 1, dtype=np.int64)
    prev = idx.copy()
    base = np.empty(m + 1, dtype=np.int64)
    for j in range(1, len(b_arr) + 1):
        np.minimum(prev[1:] + 1, prev[:-1] + (a_arr != b_arr[j - 1]), out=base[1:])
        base[0] = j
        # resolve the left-neighbor (insertion) dependency with a prefix min
        prev = np.minimum.accumulate(base - idx) + idx
        base = np.empty(m + 1, dtype=np.int64)
    return int(prev[m])


def _levenshtein_small(a: str, b: str) -> int:
    m = len(a)
    prev = list(range(m + 1))
    for j, cb in enumerate(b, start=1):
        cur = [j] + [0] * m
        for i in range(1, m + 1):
            cost = 0 if a[i - 1] == cb else 1
            cur[i] = min(prev[i] + 1, cur[i - 1] + 1, prev[i - 1] + cost)
        prev = cur
    return prev[m]


def line_diff(a: str, b: str) -> tuple[int, int]:
    """Longest-common-subsequence line diff: (added, deleted)."""
    la = a.split("\n")
    lb = b.split("\n")
    pre = 0
    limit = min(len(la), len(lb))
    while pre < limit and la[pre] == lb[pre]:
        pre += 1
    suf = 0
    limit = min(len(la) - pre, len(lb) - pre)
    while suf < limit and la[len(la) - 1 - suf] == lb[len(lb) - 1 - suf]:
        suf += 1
    ca = la[pre:len(la) - suf]
    cb = lb[pre:len(lb) - suf]
    lcs = _lcs_length(ca, cb)
    return len(cb) - lcs, len(ca) - lcs


def _lcs_length(xs: list[str], ys: list[str]) -> int:
    if not xs or not ys:
        return 0
    # hash lines so inner comparisons are cheap
    table: dict[str, int] = {}
    ax = [table.setdefault(s, len(table)) for s in xs]
    ay = [table.setdefault(s, len(table)) for s in ys]
    if len(ay) < len(ax):
        ax, ay = ay, ax
    prev = [0] * (len(ax) + 1)
    for y in ay:
        cur = [0] * (len(ax) + 1)
        for i, x in enumerate(ax, start=1):
            if x == y:
                cur[i] = prev[i - 1] + 1
            else:
                cur[i] = max(prev[i], cur[i - 1])
        prev = cur
    return prev[-1]


def body_similarity(a: MethodDeclaration, b: MethodDeclaration) -> float:
    """1 - editDistance/maxLength over the body blocks (braces content),
    so a pure rename of the method name scores 1.0."""
    ta, tb = _body_block_text(a), _body_block_text(b)
    if not ta and not tb:
        return 1.0
    longest = max(len(ta), len(tb))
    return 1.0 - levenshtein(ta, tb) / longest


def _body_block_text(decl: MethodDeclaration) -> str:
    toks = [t for t in tokenize(decl.bodyText) if t.kind != "comment"]
    open_idx = None
    i = 0
    while i < len(toks):
        t = toks[i]
        if t.text == "@":
            i += 1
            while i < len(toks) and (toks[i].kind == "identifier" or toks[i].text == "."):
                i += 1
            if i < len(toks) and toks[i].text == "(":
                depth = 0
                while i < len(toks):
                    if toks[i].text == "(":
                        depth += 1
                    elif toks[i].text == ")":
                        depth -= 1
                        if depth == 0:
                            break
                    i += 1
                i += 1
            continue
        if t.text == "{":
            open_idx = t
            break
        i += 1
    if open_idx is None:
        return decl.bodyText
    lines = decl.bodyText.split("\n")
    offset = sum(len(line) + 1 for line in lines[:open_idx.line - 1]) + open_idx.column - 1
    return decl.bodyText[offset:]


# ---------------------------------------------------------------------------
# matching and tracing


def match_method(
    prev_methods: list[MethodDeclaration],
    target: MethodDeclaration,
    cfg: TraceConfig,
) -> MethodDeclaration | None:
    """Parent-side counterpart of `target`, or None.

    Priority: exact signature; same name with body similarity above the
    threshold; any method with maximal similarity above the threshold.
    Small methods only ever match same-name candidates.
    """
    target_sig = signature(target)
    exact = [m for m in prev_methods if signature(m) == target_sig]
    if exact:
        return min(exact, key=lambda m: m.startLine)

    theta = cfg.similarity_threshold
    target_block = _body_block_text(target)

    def best_of(candidates: list[MethodDeclaration]) -> MethodDeclaration | None:
        best = None
        best_sim = -1.0
        for m in candidates:
            block = _body_block_text(m)
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
    if len(target.bodyText) < cfg.small_method_chars:
        return None
    others = [m for m in prev_methods if m.name != target.name]
    return best_of(others)


class TraceSession:
    """Shared state for tracing many methods of one snapshot: the
    first-parent chain plus per-commit diff and per-file extraction caches."""

    def __init__(self, repo: GitRepo, snapshot: str, cfg: TraceConfig, project: str = ""):
        self.repo = repo
        self.cfg = cfg
        self.project = project or "project"
        self.chain = repo.first_parent_chain(snapshot)
        self.snapshot = self.chain[0]
        self._changes: dict[str, dict] = {}
        self._extracted: dict[tuple[str, str], list[MethodDeclaration] | None] = {}

    def changes_at(self, index: int) -> dict[str, tuple[str, str | None]]:
        child = self.chain[index]
        if child.id not in self._changes:
            parent = self.chain[index + 1].id if index + 1 < len(self.chain) else None
            self._changes[child.id] = self.repo.changes(parent, child.id)
        return self._changes[child.id]

    def methods_at(self, commit_id: str, path: str) -> list[MethodDeclaration] | None:
        key = (commit_id, path)
        if key not in self._extracted:
            content = self.repo.file_at(commit_id, path)
            if content is None:
                self._extracted[key] = None
            else:
                try:
                    self._extracted[key] = extract_methods(normalize_source(path, content))
                except (ExtractionError, LexicalError) as err:
                    log.warning("extraction failed at %s:%s: %s", commit_id[:12], path, err)
                    self._extracted[key] = None
        return self._extracted[key]

    def resolve_at_snapshot(self, path: str, sig: str, start_line: int | None = None) -> MethodDeclaration:
        methods = self.methods_at(self.snapshot.id, path)
        if methods is None:
            raise MethodNotAtSnapshot(f"{path} not readable at snapshot")
        hits = [m for m in methods if signature(m) == sig]
        if not hits:
            raise MethodNotAtSnapshot(f"{sig} not found in {path} at snapshot")
        if start_line is not None:
            for m in hits:
                if m.startLine == start_line:
                    return m
        return hits[0]


def trace_method(session: TraceSession, decl: MethodDeclaration, path: str) -> MethodHistory:
    """Walk the first-parent chain backwards from the snapshot, following file
    renames and method matches; record a revision whenever the declaration
    text changed (comment and formatting changes included)."""
    chain = session.chain
    cur_decl = decl
    cur_path = path
    pending: list[tuple[CommitMeta, int, int, int]] = []  # newest first
    introduction = chain[-1]
    introduction_found = False

    for k in range(len(chain) - 1):
        child = chain[k]
        entry = session.changes_at(k).get(cur_path)
        if entry is None:
            continue
        status, old_path = entry
        kind = status[0]
        if kind == "A":
            introduction = child
            introduction_found = True
            break
        if kind == "D":
            log.warning(
                "method %s tracked into a deleted path %s at %s; treating as introduction",
                cur_decl.name, cur_path, child.id[:12],
            )
            introduction = child
            introduction_found = True
            break
        parent_path = old_path if kind in ("R", "C") and old_path else cur_path
        parent = chain[k + 1]
        prev_methods = session.methods_at(parent.id, parent_path)
        if prev_methods is None:
            # unreadable or unparseable parent version: skip this commit
            cur_path = parent_path
            continue
        matched = match_method(prev_methods, cur_decl, session.cfg)
        if matched is None:
            introduction = child
            introduction_found = True
            break
        if matched.bodyText != cur_decl.bodyText:
            added, deleted = line_diff(matched.bodyText, cur_decl.bodyText)
            distance = levenshtein(matched.bodyText, cur_decl.bodyText)
            pending.append((child, added, deleted, distance))
        cur_decl = matched
        cur_path = parent_path
    if not introduction_found:
        introduction = chain[-1]

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
        identity=MethodIdentity(
            project=session.project,
            file=path,
            signature=signature(decl),
            startLine=decl.startLine,
        ),
        introduction=introduction,
        introductionPath=cur_path,
        introductionDecl=cur_decl,
        revisions=revisions,
    )


def compute_indicators(history: MethodHistory, cfg: TraceConfig) -> ChangeIndicators:
    """Indicator sums over revisions inside the age window (inclusive bound)."""
    limit = cfg.window_days
    inside = [r for r in history.revisions if r.daysSinceIntroduction <= limit]
    return ChangeIndicators(
        revisions=len(inside),
        diffSize=sum(r.linesAdded + r.linesDeleted for r in inside),
        additionOnly=sum(r.linesAdded for r in inside),
        editDistance=sum(r.editDistance for r in inside),
    )


def filter_by_age(
    histories: list[MethodHistory], snapshot_time: int, cfg: TraceConfig
) -> list[MethodHistory]:
    """Keep methods at least window_years old at the snapshot (closed bound)."""
    limit = cfg.window_days
    return [
        h for h in histories
        if (snapshot_time - h.introduction.authorTime) / 86400.0 >= limit
    ]
