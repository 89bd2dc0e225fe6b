"""Read-only repository access through the system git executable.

Only porcelain-stable plumbing commands are used (log/diff-tree/cat-file/
ls-tree with -z separators).  The executable can be overridden with the
METHODLENS_GIT environment variable.

The stages read history in bulk: `first_parent_history` is one `git log`
for the whole first-parent chain and what changed at each commit,
`ls_tree` one listing of a commit with blob ids, and `read_blobs` reads
blobs through one long-lived `git cat-file --batch` child per `GitRepo`,
started by the first read and stopped by `close()` (or leaving a `with`
block, or, for a repository dropped unclosed, its finalizer).  Opening a
`GitRepo` starts no process, and `resolve_commit` starts one.  So a
pipeline run starts the same git processes however many files it traces.
No stage calls `changes`, `file_at`, `first_parent_chain` or `ls_files`:
the tests use them as independent references for the bulk readers, and the
benchmark's tracer patches them by name, so they stay while it does.
"""

from __future__ import annotations

import os
import subprocess
import weakref
from dataclasses import dataclass

GIT_ENV_VAR = "METHODLENS_GIT"

# `read_blobs` writes names to the child in chunks of at most this many
# bytes (or one longer name) and reads every reply of a chunk before it
# writes the next.  A chunk fits in any pipe buffer (a page at the least,
# 64 KiB by default on Linux), so the write completes even while the child
# waits for its replies to be read, and neither side blocks on a full pipe.
_BATCH_CHUNK_BYTES = 2048


class RepoAccessError(Exception):
    pass


class UnknownCommit(Exception):
    pass


@dataclass(frozen=True)
class CommitMeta:
    id: str
    authorTime: int  # unix epoch seconds
    message: str


@dataclass(frozen=True)
class Change:
    """How one path changed between a commit and its first parent."""

    status: str  # as `changes` reports it: A, M, D, T, R<score>, C<score>
    oldPath: str | None  # the parent-side path of a rename or copy
    oldBlob: str | None  # the parent-side object id; None for an addition


# one log record: hash, author time and raw message, \x01-separated
_COMMIT_FORMAT = "%H%x01%at%x01%B"


def _commit_meta(record: bytes) -> CommitMeta:
    commit_id, author_time, message = record.decode("utf-8", "replace").split("\x01", 2)
    return CommitMeta(id=commit_id, authorTime=int(author_time), message=message)


def _stop_batch(proc: subprocess.Popen) -> None:
    """End a `cat-file --batch` child: closing its input ends it, and one
    that does not exit soon after is killed."""
    for pipe in (proc.stdin, proc.stdout):
        try:
            pipe.close()
        except OSError:
            pass  # unwritten names for a child that already exited
    try:
        proc.wait(timeout=5)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


class GitRepo:
    """The repository at `path`, read through the git executable.  Opening
    one starts no process, so nothing checks `path` until the first read:
    `resolve_commit` tells an unknown commit from a path that is no
    readable repository.  `processes` counts the git processes started."""

    def __init__(self, path: str):
        self.path = str(path)
        self.git = os.environ.get(GIT_ENV_VAR) or "git"
        self._batch: subprocess.Popen | None = None
        self._stop: weakref.finalize | None = None
        self.processes = 0

    def __enter__(self) -> GitRepo:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the `git cat-file --batch` child if one runs; a later
        `read_blobs` starts another."""
        if self._stop is not None:
            self._batch = None
            self._stop()
            self._stop = None

    def _start(self, args: list[str]) -> subprocess.CompletedProcess:
        """`git -C <path> <args>`, run to its end."""
        proc = subprocess.run([self.git, "-C", self.path] + args, capture_output=True)
        self.processes += 1
        return proc

    def _run(self, args: list[str], codes: tuple[int, ...] = (0,)) -> subprocess.CompletedProcess:
        """`_start(args)`; an exit status outside `codes`, or a git that
        cannot be started, raises RepoAccessError."""
        try:
            proc = self._start(args)
        except OSError as err:
            raise RepoAccessError(f"cannot invoke {self.git!r}: {err}") from err
        if proc.returncode not in codes:
            raise RepoAccessError(
                f"git {' '.join(args[:2])} failed: {proc.stderr.decode('utf-8', 'replace').strip()}"
            )
        return proc

    def resolve_commit(self, committish: str) -> str:
        """The id of the commit `committish` names, from one `git rev-parse`.
        Its exit status 1 means the name resolves to no commit
        (UnknownCommit); any other failure, as for a missing path, a
        directory that is no repository or a git that cannot be started,
        raises RepoAccessError."""
        try:
            proc = self._run(["rev-parse", "--verify", "--quiet", committish + "^{commit}"], codes=(0, 1))
        except RepoAccessError as err:
            raise RepoAccessError(f"not a readable git repository: {self.path}: {err}") from err
        if proc.returncode == 1:
            raise UnknownCommit(committish)
        return proc.stdout.decode("ascii").strip()

    def first_parent_chain(self, snapshot: str) -> list[CommitMeta]:
        """Snapshot followed by its first-parent ancestors, newest first."""
        snapshot = self.resolve_commit(snapshot)
        out = self._run(["log", "-z", "--first-parent", "--format=" + _COMMIT_FORMAT, snapshot]).stdout
        return [_commit_meta(record) for record in out.split(b"\x00") if record.strip()]

    def first_parent_history(self, snapshot: str) -> tuple[list[CommitMeta], list[dict[str, Change]]]:
        """The chain `first_parent_chain` returns and, for each of its
        commits, the map `changes(firstParent, commit)` returns with the
        parent-side blob id of each path (the root is diffed against the
        empty tree), from one `git log`.  `snapshot` is a commit id the
        caller has resolved (`resolve_commit`)."""
        out = self._run([
            "log", "-z", "--first-parent", "-m", "-M", "--root", "--raw", "--no-abbrev",
            "--format=%x02" + _COMMIT_FORMAT, snapshot, "--",
        ]).stdout
        # NUL-separated fields: "\x02" + a commit record, then one raw entry
        # ":oldmode newmode oldid newid status" per changed path, followed by
        # its path, or by the old and the new path of a rename or copy
        chain: list[CommitMeta] = []
        changes: list[dict[str, Change]] = []
        fields = out.split(b"\x00")
        i = 0
        while i < len(fields):
            field = fields[i].lstrip(b"\n")
            i += 1
            if field.startswith(b"\x02"):
                chain.append(_commit_meta(field[1:]))
                changes.append({})
            elif field.startswith(b":"):
                _, _, old_blob, _, status = field[1:].decode("ascii").split(" ")
                old_path = None
                if status[0] in ("R", "C"):
                    old_path = fields[i].decode("utf-8", "replace")
                    i += 1
                path = fields[i].decode("utf-8", "replace")
                i += 1
                changes[-1][path] = Change(status, old_path, old_blob if old_blob.strip("0") else None)
        return chain, changes

    def file_at(self, commit: str, path: str) -> str | None:
        """File content at a commit, line endings as stored, or None when
        absent.  Callers fold line endings with java_extract.normalize_source."""
        proc = self._start(["cat-file", "blob", f"{commit}:{path}"])
        if proc.returncode != 0:
            return None
        return proc.stdout.decode("utf-8", "replace")

    def changes(self, parent: str | None, child: str) -> dict[str, tuple[str, str | None]]:
        """Per-path change between a commit and its parent, rename-aware.

        Returns {new_path: (status, old_path_or_None)}; deletions are keyed
        by their old path with status 'D'.
        """
        args = ["diff-tree", "-r", "-M", "-z", "--name-status", "--no-commit-id"]
        if parent is None:
            args += ["--root", child]
        else:
            args += [parent, child]
        fields = self._run(args).stdout.split(b"\x00")
        result: dict[str, tuple[str, str | None]] = {}
        i = 0
        while i < len(fields):
            status = fields[i].decode("ascii", "replace")
            if not status:
                i += 1
                continue
            kind = status[0]
            if kind in ("R", "C"):
                old = fields[i + 1].decode("utf-8", "replace")
                new = fields[i + 2].decode("utf-8", "replace")
                result[new] = (status, old)
                i += 3
            else:
                path = fields[i + 1].decode("utf-8", "replace")
                result[path] = (status, None)
                i += 2
        return result

    def ls_files(self, commit: str) -> list[str]:
        return list(self.ls_tree(commit))

    def ls_tree(self, commit: str) -> dict[str, str]:
        """{path: object id} of every .java file under `commit`, in git's
        order, with paths from the repository root wherever the repository
        was opened, as `first_parent_history` gives them."""
        out = self._run(["ls-tree", "-r", "-z", "--full-tree", commit]).stdout
        entries = {}
        for entry in out.split(b"\x00"):
            if entry:
                info, _, path = entry.partition(b"\t")
                path = path.decode("utf-8", "replace")
                if path.endswith(".java"):
                    entries[path] = info.split(b" ")[2].decode("ascii")
        return entries

    def read_blobs(self, ids) -> dict[str, str | None]:
        """{id: text} for object ids, or any names `git cat-file` accepts,
        read through this repository's one `git cat-file --batch` child,
        which the first call starts.  Texts are decoded as `file_at`
        decodes them; a name that is missing or not a blob maps to None, as
        `file_at` returns None for it.  So does a name the child's line
        reader would alter, one that holds a newline or ends in a carriage
        return, without being sent.  A child that cannot be started or
        exits early raises RepoAccessError."""
        texts: dict[str, str | None] = {}
        chunk: list[str] = []
        size = 0
        for oid in dict.fromkeys(ids):
            if "\n" in oid or oid.endswith("\r"):
                texts[oid] = None
                continue
            line = len(oid.encode("utf-8")) + 1
            if chunk and size + line > _BATCH_CHUNK_BYTES:
                self._read_chunk(chunk, texts)
                chunk, size = [], 0
            chunk.append(oid)
            size += line
        if chunk:
            self._read_chunk(chunk, texts)
        return texts

    def _read_chunk(self, names: list[str], texts: dict[str, str | None]) -> None:
        """Send `names` to the child and put each one's reply in `texts`."""
        if self._batch is None:
            try:
                self._batch = subprocess.Popen(
                    [self.git, "-C", self.path, "cat-file", "--batch"],
                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                )
            except OSError as err:
                raise RepoAccessError(f"cannot invoke {self.git!r}: {err}") from err
            self.processes += 1
            self._stop = weakref.finalize(self, _stop_batch, self._batch)
        stdin, stdout = self._batch.stdin, self._batch.stdout
        try:
            stdin.write("".join(f"{oid}\n" for oid in names).encode("utf-8"))
            stdin.flush()
            # per name "<oid> <type> <size>\n<content>\n", or "<name> missing\n"
            for oid in names:
                header = stdout.readline()
                if not header.endswith(b"\n"):
                    raise EOFError
                header = header[:-1].rsplit(b" ", 2)
                if len(header) < 3 or not header[2].isdigit():
                    texts[oid] = None
                    continue
                size = int(header[2])
                content = stdout.read(size + 1)
                if len(content) != size + 1:
                    raise EOFError
                texts[oid] = content[:size].decode("utf-8", "replace") if header[1] == b"blob" else None
        except (OSError, EOFError) as err:
            self.close()
            raise RepoAccessError(f"git cat-file --batch exited early in {self.path}") from err
