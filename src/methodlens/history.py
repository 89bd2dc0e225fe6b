"""Per-method change histories: edit distances, line diffs, backward tracing
along the first-parent chain, and windowed change indicators."""

from __future__ import annotations

import logging
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

from .gitrepo import Change, CommitMeta, GitRepo
from .java_extract import (
    ExtractionError,
    LexicalError,
    MethodDeclaration,
    Token,
    body_block,
    normalize_source,
    extract_methods,
    signature,
)

log = logging.getLogger("methodlens.history")

DAYS_PER_YEAR = 365.25


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


def _strip_common(a: Sequence, b: Sequence) -> tuple[Sequence, Sequence]:
    """a and b without their common prefix and suffix, each found by
    bisection on slice equality, which compares in C."""
    la, lb = len(a), len(b)
    lo, hi = 0, min(la, lb)  # the prefix is at least lo and at most hi long
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[:mid] == b[:mid]:
            lo = mid
        else:
            hi = mid - 1
    pre = lo
    lo, hi = 0, min(la, lb) - pre
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a[la - mid:] == b[lb - mid:]:
            lo = mid
        else:
            hi = mid - 1
    return a[pre:la - lo], b[pre:lb - lo]


def _position_masks(seq: Sequence) -> dict:
    """Symbol -> int with bit i set where seq[i] is that symbol."""
    masks: dict = {}
    bit = 1
    for s in seq:
        masks[s] = masks.get(s, 0) | bit
        bit <<= 1
    return masks


def levenshtein(a: str, b: str, k: int | None = None) -> int:
    """Minimal character insertions/deletions/substitutions turning a into b.
    With a bound `k`, that distance when it is at most k and k + 1 otherwise.

    Bit-parallel over the shorter string's positions (G. Myers, JACM 1999,
    in H. Hyyrö's edit-distance form, 2003). The DP column over a is kept
    as its vertical steps: bit i of pv/mv is set where row i is one more/one
    less than row i-1. `score` is the column's last cell; it falls by at
    most one per character of b left, so the loop stops once score minus
    the characters left exceeds k (E. Ukkonen, Inf. Control 1985).
    """
    a, b = _strip_common(a, b)
    if len(b) < len(a):
        a, b = b, a
    if k is None:
        k = len(b)  # no distance exceeds the longer length
    elif len(b) - len(a) > k:
        return k + 1
    m = len(a)
    if not m:
        return len(b)
    peq = _position_masks(a)
    full = (1 << m) - 1
    last = 1 << (m - 1)
    pv, mv, score = full, 0, m
    limit = k + len(b)  # k plus the characters of b left
    for c in b:
        eq = peq.get(c, 0)
        xv = eq | mv
        xh = (((eq & pv) + pv) ^ pv) | eq
        ph = mv | ~(xh | pv)
        mh = pv & xh
        if ph & last:
            score += 1
        elif mh & last:
            score -= 1
        ph = (ph << 1) | 1
        # ~ sets every bit above m; mv is cut back by xv, pv by the mask
        pv = ((mh << 1) | ~(xv | ph)) & full
        mv = ph & xv
        limit -= 1
        if score > limit:
            return k + 1
    return score


def _bag_distance(a: Counter[str], b: Counter[str]) -> int:
    """max(|a - b|, |b - a|) over two strings' multisets of code points, a
    lower bound on their edit distance (Bartolini, Ciaccia and Patella,
    SPIRE 2002). The two differ in size by the strings' length gap, so the
    larger one is the longer string's."""
    if a.total() < b.total():
        a, b = b, a
    return (a - b).total()


def line_diff(a: str, b: str) -> tuple[int, int]:
    """Longest-common-subsequence line diff: (added, deleted)."""
    xs, ys = _strip_common(a.split("\n"), b.split("\n"))
    lcs = _lcs_length(xs, ys)
    return len(ys) - lcs, len(xs) - lcs


def _lcs_length(xs: list[str], ys: list[str]) -> int:
    """Bit-parallel LCS length (Allison-Dix 1986, Hyyrö 2004) over the
    shorter list's positions: bit i of v is 0 where the LCS with the lines
    read so far grows at xs[i], so the zeros count the LCS."""
    if len(ys) < len(xs):
        xs, ys = ys, xs
    masks = _position_masks(xs)
    full = v = (1 << len(xs)) - 1
    for y in ys:
        u = v & masks.get(y, 0)
        v = ((v + u) | (v - u)) & full
    return len(xs) - v.bit_count()


def _reaches(distance: int, longest: int, theta: float) -> bool:
    """Whether `distance` over `longest` characters scores at least theta."""
    return 1.0 - distance / longest >= theta


def _max_distance(longest: int, theta: float) -> int:
    """The largest distance over `longest` characters that scores at least
    theta (-1 if none does), by the score's own float expression: the
    estimate from theta is moved until that expression agrees."""
    d = min(longest, max(0, int((1.0 - theta) * longest)))
    while d < longest and _reaches(d + 1, longest, theta):
        d += 1
    while d >= 0 and not _reaches(d, longest, theta):
        d -= 1
    return d


def body_similarity(a: MethodDeclaration, b: MethodDeclaration, theta: float | None = None) -> float:
    """1 - editDistance/maxLength over the body blocks (braces content),
    so a pure rename of the method name scores 1.0. With `theta`, a pair
    that cannot reach it scores some value below theta, for the edit
    distance stops once it is too large."""
    ta, tb = body_block(a), body_block(b)
    longest = max(len(ta), len(tb))
    if not longest:
        return 1.0
    k = None if theta is None else _max_distance(longest, theta)
    return 1.0 - levenshtein(ta, tb, k) / longest


def _body_bag(decl: MethodDeclaration) -> Counter[str]:
    """The code points of the declaration's body block, counted once."""
    if decl.bodyBag is None:
        decl.bodyBag = Counter(body_block(decl))
    return decl.bodyBag


# ---------------------------------------------------------------------------
# matching and tracing


# below this declaration length, cross-name matches are too error-prone
SMALL_METHOD_CHARS = 60


@dataclass
class MatchCounts:
    """Body comparisons `match_method` considered, ruled out by the length
    or bag bound without an edit distance, and cut off once the distance
    could no longer reach theta."""
    considered: int = 0
    ruled_out: int = 0
    cut_off: int = 0


def match_method(
    prev_methods: list[MethodDeclaration],
    target: MethodDeclaration,
    theta: float,
    counts: MatchCounts | None = None,
    memo: dict[str, list[Token]] | None = None,
) -> MethodDeclaration | None:
    """Parent-side counterpart of `target`, or None.

    Priority: exact signature; same name with body similarity of at least
    `theta`; any method with maximal similarity of at least `theta`.
    Small methods only ever match same-name candidates. Edit distances
    that cannot reach theta are skipped or stopped, which never changes
    the candidate chosen. A target with no body block yet (one rebuilt
    from a record) is lexed for it through `memo`.
    """
    # a signature names the method, so the exact matches are same-name ones
    same_name = [m for m in prev_methods if m.name == target.name]
    target_sig = signature(target)
    exact = [m for m in same_name if signature(m) == target_sig]
    if exact:
        return min(exact, key=lambda m: m.startLine)

    if counts is None:
        counts = MatchCounts()
    target_block = body_block(target, memo)

    def best_of(candidates: list[MethodDeclaration]) -> MethodDeclaration | None:
        best = None
        best_sim = -1.0
        for m in candidates:
            counts.considered += 1
            block = body_block(m)
            longest = max(len(block), len(target_block))
            # the length gap and the bag distance are at most the edit
            # distance, so a bound below theta rules the candidate out
            if longest and (not _reaches(abs(len(block) - len(target_block)), longest, theta)
                            or not _reaches(_bag_distance(_body_bag(m), _body_bag(target)), longest, theta)):
                counts.ruled_out += 1
                continue
            sim = body_similarity(m, target, theta)
            if sim < theta:
                counts.cut_off += 1
            elif sim > best_sim or (sim == best_sim and m.startLine < best.startLine):
                best, best_sim = m, sim
        return best

    found = best_of(same_name)
    if found is not None:
        return found
    if len(target.bodyText) < SMALL_METHOD_CHARS:
        return None
    others = [m for m in prev_methods if m.name != target.name]
    return best_of(others)


class TraceSession:
    """Shared state for tracing the methods of one snapshot.

    One `git log` gives the first-parent chain, what changed at each commit
    and the parent-side blob of each change.  The snapshot methods come from
    the caller (the extract stage's records), so the snapshot itself is
    never read.  `trace_method` traces one file's methods at a time: it
    asks the repository's one `cat-file --batch` child (shared with
    extract in a pipeline run, and stopped when the caller closes the
    repository) for that file's parent-side blobs alone, keeps the file's
    texts and extractions to itself and lexes through one memo for the
    file; the session only counts what the files read, extracted and
    lexed, and the body comparisons their matching made."""

    def __init__(self, repo: GitRepo, snapshot: str, theta: float, project: str = ""):
        self.repo = repo
        self.theta = theta
        self.project = project or "project"
        self.chain, self._changes = repo.first_parent_history(snapshot)
        self.snapshot = self.chain[0]
        # path -> indices of the chain commits that changed it
        self._changed_at: dict[str, list[int]] = {}
        for k, changes in enumerate(self._changes):
            for path in changes:
                self._changed_at.setdefault(path, []).append(k)
        self.files_traced = 0
        self.blobs_read = 0
        self.failures = 0
        self.version_lines = 0
        # distinct lines lexed on their own, summed over the traced files
        self.lines_lexed_alone = 0
        self.comparisons = MatchCounts()

    def steps(self, path: str) -> list[tuple[int, Change]]:
        """(chain index, change) at every commit that changed the snapshot
        file `path`, newest first, following renames to the old path and
        ending at the commit that added the file; the root adds every file
        it holds.  Their commits and statuses are those that `git log
        --first-parent -m --follow -M <snapshot> -- <path>` lists, down to
        the file's addition."""
        steps = []
        cur_path = path
        k = 0
        while True:
            indices = self._changed_at[cur_path]
            k = indices[bisect_left(indices, k)]
            change = self._changes[k][cur_path]
            steps.append((k, change))
            if change.status[0] == "A":
                return steps
            cur_path = change.oldPath or cur_path
            k += 1

    def methods_at(self, commit_id: str, path: str, content: str,
                   memo: dict[str, list[Token]]) -> list[MethodDeclaration] | None:
        """Methods of `content`, the version of `path` at `commit_id`, lexed
        through `memo`, or None when it fails to extract."""
        text = normalize_source(content)
        self.version_lines += text.count("\n") + 1
        try:
            return extract_methods(text, memo)
        except (ExtractionError, LexicalError) as err:
            log.warning("extraction failed at %s:%s: %s", commit_id[:12], path, err)
            self.failures += 1
            return None


def trace_method(session: TraceSession, path: str, decls: list[MethodDeclaration],
                 memo: dict[str, list[Token]] | None = None) -> list[MethodHistory]:
    """Histories of the snapshot methods `decls` of the file `path`, in
    `decls` order.  One walk back through the first-parent commits that
    changed the file, following its renames, matches every method still
    being traced against each parent-side version and records a revision
    whenever a declaration's text changed (comment and formatting changes
    included).  A method's introduction is the first step at which no
    parent-side method matches it, or else the file's addition, the walk's
    last step.  Each version is extracted at most once, through one lexer
    memo (`memo`, the file's own, or a fresh one), and its declarations are
    dropped after the last step that reads it; the walk stops once every
    method has reached its introduction.  The lines the memo gains are
    counted in the session's `lines_lexed_alone`."""
    chain = session.chain
    steps = session.steps(path)
    # one batch; the last step, the file's addition, has no parent side
    blobs = [change.oldBlob for _, change in steps[:-1]]
    texts = session.repo.read_blobs(blobs)
    reads_left = Counter(blobs)  # steps still to read each blob
    session.files_traced += 1
    session.blobs_read += len(texts)
    if memo is None:
        memo = {}
    lexed = len(memo)
    extracted: dict[str, list[MethodDeclaration] | None] = {}
    current = list(decls)  # each method's declaration at the step reached
    pending: list[list[tuple[CommitMeta, int, int, int]]] = [[] for _ in decls]  # newest first
    introduction: list[CommitMeta | None] = [None] * len(decls)
    intro_path: list[str | None] = [None] * len(decls)
    tracing = list(range(len(decls)))
    cur_path = path

    for k, change in steps:
        if not tracing:
            break
        child = chain[k]
        if change.status[0] == "A":
            for i in tracing:
                introduction[i] = child
                intro_path[i] = cur_path
            break
        parent_path = change.oldPath or cur_path
        blob = change.oldBlob
        if blob not in extracted:
            content = texts.pop(blob)
            extracted[blob] = (None if content is None else
                               session.methods_at(chain[k + 1].id, parent_path, content, memo))
        reads_left[blob] -= 1
        prev_methods = extracted[blob] if reads_left[blob] else extracted.pop(blob)
        if prev_methods is None:
            # unreadable or unparseable parent version: skip this commit
            cur_path = parent_path
            continue
        still = []
        for i in tracing:
            matched = match_method(prev_methods, current[i], session.theta, session.comparisons, memo)
            if matched is None:
                introduction[i] = child
                intro_path[i] = cur_path
                continue
            if matched.bodyText != current[i].bodyText:
                added, deleted = line_diff(matched.bodyText, current[i].bodyText)
                distance = levenshtein(matched.bodyText, current[i].bodyText)
                pending[i].append((child, added, deleted, distance))
            current[i] = matched
            still.append(i)
        tracing = still
        cur_path = parent_path
    session.lines_lexed_alone += len(memo) - lexed

    return [
        MethodHistory(
            identity=MethodIdentity(
                project=session.project,
                file=path,
                signature=signature(decl),
                startLine=decl.startLine,
            ),
            introduction=introduction[i],
            introductionPath=intro_path[i],
            introductionDecl=current[i],
            revisions=[
                Revision(
                    commit=commit,
                    linesAdded=added,
                    linesDeleted=deleted,
                    editDistance=distance,
                    daysSinceIntroduction=(commit.authorTime - introduction[i].authorTime) / 86400.0,
                )
                for commit, added, deleted, distance in reversed(pending[i])
            ],
        )
        for i, decl in enumerate(decls)
    ]


def compute_indicators(history: MethodHistory, window_days: float) -> ChangeIndicators:
    """Indicator sums over revisions inside the age window (inclusive bound)."""
    inside = [r for r in history.revisions if r.daysSinceIntroduction <= window_days]
    return ChangeIndicators(
        revisions=len(inside),
        diffSize=sum(r.linesAdded + r.linesDeleted for r in inside),
        additionOnly=sum(r.linesAdded for r in inside),
        editDistance=sum(r.editDistance for r in inside),
    )


def filter_by_age(
    histories: list[MethodHistory], snapshot_time: int, window_days: float
) -> list[MethodHistory]:
    """Keep methods at least window_days old at the snapshot (closed bound)."""
    return [
        h for h in histories
        if (snapshot_time - h.introduction.authorTime) / 86400.0 >= window_days
    ]
