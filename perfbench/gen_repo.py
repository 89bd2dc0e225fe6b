"""Seeded synthetic Java repository for the benchmark.

The whole history is written as one `git fast-import` stream with a fixed
author, committer and dates, so one seed always gives the same commit SHAs.
Alongside the repository the generator returns a ground-truth ledger: for
every method at the snapshot, the first-parent commit that introduced it and
the number of later first-parent commits that changed its declaration text.

The history carries the cases the tracer must handle:
  - a method rename and a file move (with a package change)
  - a side branch merged back; the first-parent walk sees its changes only
    at the merge commit
  - a same-file method copy, which the ledger counts as introduced at the
    copy commit (the tracer inherits the original's history, so this one
    method shows up as a trace mismatch)
  - one revision whose file fails to lex (an unterminated block comment),
    fixed by the next commit
  - single-method "Fix ... bug" commits, so the high-precision bug rule fires
  - author dates spread so most methods are older than the 5-year window

This module does not import methodlens: the inputs and the ledger must not
depend on the code under test.
"""

from __future__ import annotations

import copy
import random
import subprocess
from dataclasses import dataclass
from pathlib import Path

AUTHOR = b"Bench Author <bench@example.invalid>"
START_TIME = 1262347200  # 2010-01-01T12:00:00Z
DAY = 86400

_SYLLABLES = (
    "kam", "lor", "mir", "ten", "vas", "qui", "zel", "dor", "pin", "rab", "sef",
    "tum", "bri", "hal", "neo", "gox", "wyn", "fla", "cor", "jub", "ixo", "ost",
)
_WORDS = (
    "ledger", "buffer", "window", "quota", "cursor", "record", "anchor",
    "signal", "bucket", "ticket", "margin", "vector", "packet", "filter",
)
_VERBS = ("Refine", "Adjust", "Extend", "Tune", "Rework", "Update", "Simplify", "Revise")


@dataclass(frozen=True)
class RepoSpec:
    """Shape of one synthetic history; see WORKLOADS in run.py for values."""
    files: int
    methods_per_file: int
    initial_methods: int  # methods per file in the initial import
    commits: int  # first-parent commits, initial import and merge included
    years: float  # author-date span from the first commit to the snapshot
    files_per_commit: tuple[int, int]  # inclusive range
    statements: tuple[int, int]  # inclusive range per method body
    add_until: float = 0.45  # share of the history in which methods are added


@dataclass
class _Method:
    uid: int
    name: str
    params: tuple[tuple[str, str], ...]
    stmts: list[str]
    modifiers: str

    def text(self) -> str:
        params = ", ".join(f"{t} {n}" for t, n in self.params)
        lines = [f"    {self.modifiers} int {self.name}({params}) {{"]
        lines += [f"        {s}" for s in self.stmts]
        lines.append("    }")
        return "\n".join(lines)


@dataclass
class _File:
    package: str
    cls: str
    methods: list[_Method]
    trailer: str = ""  # text after the class body (the broken revision)

    def path(self) -> str:
        return f"src/main/java/{self.package.replace('.', '/')}/{self.cls}.java"

    def text(self) -> str:
        body = "\n\n".join(m.text() for m in self.methods)
        return (
            f"package {self.package};\n\nimport java.util.List;\n\n"
            f"public class {self.cls} {{\n\n{body}\n}}\n{self.trailer}"
        )


@dataclass
class GeneratedRepo:
    path: Path
    head: str
    commits: int  # first-parent chain length
    ledger: dict[str, dict]  # "file|signature" -> {"introduction", "revisions"}


class _Gen:
    def __init__(self, spec: RepoSpec, seed: int):
        self.spec = spec
        self.rng = random.Random(seed)
        self.uid = 0
        self.names: set[str] = set()

    def ident(self, parts: int) -> str:
        return "".join(self.rng.choice(_SYLLABLES) for _ in range(parts))

    def unique(self, parts: int) -> str:
        """A name not used before, for methods and classes."""
        while True:
            word = self.ident(parts)
            if word not in self.names:
                self.names.add(word)
                return word

    def statement(self, kind: int, locals_: list[str], params) -> str:
        rng = self.rng
        a = rng.choice(locals_)
        p = rng.choice(params)[1]
        n, m = rng.randint(100, 997), rng.randint(10, 89)
        if kind == 0:
            return f"{a} = {a} * {n} + {p} - {m};"
        if kind == 1:
            return f"if ({p} > {n}) {{ {a} += {m}; }} else {{ {a} -= {p}; }}"
        if kind == 2:
            return f"for (int i = 0; i < {m}; i++) {{ {a} ^= i * {n}; }}"
        if kind == 3:
            return f"{a} = Math.max({a}, {p} % {n});"
        if kind == 4:
            return f'{a} += "{rng.choice(_WORDS)}-{self.ident(2)}".length() * {m};'
        if kind == 5:
            return f"{a} = helper{self.ident(2).capitalize()}({a}, {n});"
        return f"while ({a} > {n}) {{ {a} = {a} / 2 - {m}; }}"

    def method(self) -> _Method:
        """A new method; its size depends only on how many came before."""
        rng = self.rng
        self.uid += 1
        uid = self.uid
        params = tuple((rng.choice(("int", "long")), self.ident(2)) for _ in range(1 + uid % 3))
        locals_ = [self.ident(3) for _ in range(1 + uid % 3)]
        lo, hi = self.spec.statements
        stmts = [f"int {v} = {params[0][1]} + {rng.randint(100, 997)};" for v in locals_]
        stmts += [
            self.statement((uid + j) % _KINDS, locals_, params)
            for j in range(lo + uid % (hi - lo + 1))
        ]
        stmts.append(f"return {' + '.join(locals_)};")
        modifiers = ("public", "private", "public static", "protected", "public")[uid % 5]
        return _Method(uid, self.unique(4), params, stmts, modifiers)

    def modify(self, m: _Method) -> None:
        """Rewrite one body statement as a new one of the same kind, so the
        method keeps its size whichever method the seed picks."""
        locals_ = [s.split()[1] for s in m.stmts if s.startswith("int ") and " = " in s]
        i = self.rng.randrange(len(locals_), len(m.stmts) - 1)
        m.stmts[i] = self.statement(_kind_of(m.stmts[i]), locals_, m.params)


_KINDS = 7


def _kind_of(stmt: str) -> int:
    for marker, kind in (("for (", 2), ("while (", 6), ("if (", 1), ("Math.max", 3), ('"', 4), ("helper", 5)):
        if marker in stmt:
            return kind
    return 0


def _data(payload: bytes) -> bytes:
    return b"data %d\n" % len(payload) + payload + b"\n"


def generate(spec: RepoSpec, seed: int, dest: Path) -> GeneratedRepo:
    """Build the repository at `dest` (which must not exist)."""
    g = _Gen(spec, seed)
    rng = g.rng
    files = []
    for i in range(spec.files):
        pkg = f"org.bench.{g.ident(2)}"
        methods = [g.method() for _ in range(spec.initial_methods)]
        files.append(_File(pkg, f"{g.unique(2).capitalize()}Svc{i}", methods))

    n = spec.commits
    times = [START_TIME + round(k * spec.years * 365.25 * DAY / (n - 1)) for k in range(n)]
    # feature positions on the first-parent chain (index into times)
    at = {
        "rename": round(0.20 * n), "copy": round(0.30 * n), "move": round(0.40 * n),
        "broken": round(0.50 * n), "fork": round(0.60 * n), "merge": round(0.60 * n) + 3,
    }
    if not (at["rename"] >= 1 and at["merge"] < n - 1 and len({*at.values(), at["broken"] + 1}) == 7):
        raise ValueError(f"{n} commits are too few for the history features")
    feature_files = rng.sample(range(spec.files), 5)
    f_rename, f_copy, f_move, f_broken, f_side = feature_files

    stream = bytearray()
    mark = 0
    fp_states: list[tuple[int, dict]] = []  # (mark, {uid: (path, text)}) per first-parent commit

    def snapshot_state() -> dict:
        return {m.uid: (f.path(), m.text()) for f in files for m in f.methods}

    def emit(branch: str, when: int, message: str, changes: list, parents=(), first_parent=True):
        nonlocal mark
        mark += 1
        stream.extend(b"commit refs/heads/%s\nmark :%d\n" % (branch.encode(), mark))
        stamp = b"%d +0000" % when
        stream.extend(b"author " + AUTHOR + b" " + stamp + b"\n")
        stream.extend(b"committer " + AUTHOR + b" " + stamp + b"\n")
        stream.extend(_data(message.encode()))
        if parents:
            stream.extend(b"from :%d\n" % parents[0])
            for p in parents[1:]:
                stream.extend(b"merge :%d\n" % p)
        for op, path, content in changes:
            if op == "D":
                stream.extend(b"D %s\n" % path.encode())
            else:
                stream.extend(b"M 100644 inline %s\n" % path.encode())
                stream.extend(_data(content.encode()))
        if first_parent:
            fp_states.append((mark, snapshot_state()))
        return mark

    def put(f: _File):
        return ("M", f.path(), f.text())

    head = emit("main", times[0], "Initial import", [put(f) for f in files])
    touchable = [i for i in range(spec.files) if i not in (f_side, f_broken)]
    # The amount of work is fixed by the spec; the seed only picks which
    # files and methods change and what the code says.
    add_queue = [i for i in touchable for _ in range(spec.methods_per_file - spec.initial_methods)]
    rng.shuffle(add_queue)
    add_limit = round(spec.add_until * n)
    add_slots = [k for k in range(1, add_limit) if k not in at.values() and k != at["broken"] + 1]
    per_slot = -(-len(add_queue) // max(1, len(add_slots)))
    lo, hi = spec.files_per_commit
    single_changes = 0
    k = 1
    while k < n:
        when = times[k]
        if k == at["rename"]:
            f = files[f_rename]
            m = f.methods[0]
            old = m.name
            m.name = old + "Checked"
            head = emit("main", when, f"Rename {old} to {m.name}", [put(f)])
        elif k == at["copy"]:
            f = files[f_copy]
            src = f.methods[0]
            g.uid += 1
            f.methods.append(_Method(g.uid, src.name + "Variant", src.params, list(src.stmts), src.modifiers))
            head = emit("main", when, f"Add {src.name}Variant alongside {src.name}", [put(f)])
        elif k == at["move"]:
            f = files[f_move]
            old_path = f.path()
            f.package = f.package + ".core"
            head = emit("main", when, f"Move {f.cls} into the core package", [("D", old_path, ""), put(f)])
        elif k == at["broken"]:
            f = files[f_broken]
            f.trailer = "/* notes for the next release\n"
            head = emit("main", when, f"Draft release notes in {f.cls}", [put(f)])
            k += 1
            f.trailer = ""
            head = emit("main", times[k], f"Tidy release notes in {f.cls}", [put(f)])
        elif k == at["fork"]:
            # side branch: two commits on f_side while main touches other files
            fork = head
            f = copy.deepcopy(files[f_side])
            side_time = times[k] + DAY
            g.modify(f.methods[0])
            side = emit("side", side_time, f"Rework {f.methods[0].name}", [put(f)], parents=(fork,),
                        first_parent=False)
            g.modify(f.methods[0])
            g.modify(f.methods[-1])
            f.methods.append(g.method())
            side = emit("side", side_time + DAY, f"Add {f.methods[-1].name} on the side branch", [put(f)],
                        first_parent=False)
            for j in range(k, at["merge"]):
                other = files[touchable[j % len(touchable)]]
                g.modify(other.methods[-1])
                head = emit("main", times[j], f"Tune {other.methods[-1].name}", [put(other)])
            k = at["merge"]
            files[f_side] = f
            head = emit("main", times[k], "Merge branch 'side'", [put(f)], parents=(head, side))
        else:
            adds = []
            if k in add_slots:
                adds, add_queue = add_queue[:per_slot], add_queue[per_slot:]
            n_touch = max(len(set(adds)), lo + k % (hi - lo + 1))
            others = [i for i in touchable if i not in adds]
            touched = list(dict.fromkeys(adds)) + rng.sample(others, n_touch - len(set(adds)))
            subject = ""
            for i in adds:
                new = g.method()
                files[i].methods.insert(rng.randrange(len(files[i].methods) + 1), new)
                subject = f"{rng.choice(_VERBS)} {files[i].cls} with {new.name}"
            for i in touched[len(set(adds)):]:
                m = rng.choice(files[i].methods)
                g.modify(m)
                subject = f"{rng.choice(_VERBS)} {m.name} {rng.choice(_WORDS)} handling"
            if not adds and len(touched) == 1:
                single_changes += 1
                if single_changes % 3 == 0:
                    subject = f"Fix {rng.choice(_WORDS)} bug in {subject.split()[1]}"
            elif len(touched) > 1:
                subject = f"{rng.choice(_VERBS)} {len(touched)} services"
            head = emit("main", when, subject, [put(files[i]) for i in touched])
        k += 1
    if add_queue:
        raise ValueError("history too short to add every planned method")

    dest.mkdir(parents=True)
    _git(dest, "init", "-q", "--bare", "--initial-branch=main")
    proc = subprocess.run(
        ["git", "-C", str(dest), "fast-import", "--quiet", "--export-marks=bench.marks"],
        input=bytes(stream), capture_output=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"git fast-import failed: {proc.stderr.decode(errors='replace')}")
    sha_of = {}
    for line in (dest / "bench.marks").read_text().splitlines():
        m_, sha = line.split()
        sha_of[int(m_[1:])] = sha
    return GeneratedRepo(
        path=dest, head=sha_of[head], commits=len(fp_states),
        ledger=_ledger(fp_states, sha_of),
    )


def _ledger(fp_states, sha_of) -> dict[str, dict]:
    """Introduction commit and revision count of every method alive at the
    snapshot, from the per-commit states of the first-parent chain."""
    final = fp_states[-1][1]
    ledger = {}
    for uid, (path, text) in final.items():
        intro = None
        revisions = 0
        prev_text = None
        for mark, state in fp_states:
            entry = state.get(uid)
            if entry is None:
                continue
            if intro is None:
                intro = mark
            elif entry[1] != prev_text:
                revisions += 1
            prev_text = entry[1]
        header = text.split("\n", 1)[0]
        ledger[f"{path}|{_signature(path, header)}"] = {
            "introduction": sha_of[intro], "revisions": revisions,
        }
    return ledger


def _signature(path: str, header: str) -> str:
    """methodlens signature (Class#name(erased,types)) of a generated header."""
    cls = path.rsplit("/", 1)[1][:-len(".java")]
    name_part, rest = header.split("(", 1)
    name = name_part.split()[-1]
    params = rest.split(")", 1)[0]
    types = [p.split()[0] for p in params.split(",") if p.strip()]
    return f"{cls}#{name}({','.join(types)})"


def _git(repo: Path, *args: str) -> None:
    subprocess.run(["git", "-C", str(repo), *args], check=True, capture_output=True)
