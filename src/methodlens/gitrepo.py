"""Read-only repository access through the system git executable.

Only porcelain-stable plumbing commands are used (log/diff-tree/cat-file/
ls-tree with -z separators).  The executable can be overridden with the
METHODLENS_GIT environment variable.
"""

from __future__ import annotations

import os
import subprocess
from dataclasses import dataclass

GIT_ENV_VAR = "METHODLENS_GIT"


class RepoAccessError(Exception):
    pass


class UnknownCommit(Exception):
    pass


@dataclass(frozen=True)
class CommitMeta:
    id: str
    firstParentId: str | None
    authorTime: int  # unix epoch seconds
    message: str


class GitRepo:
    def __init__(self, path: str, git_exe: str | None = None):
        self.path = str(path)
        self.git = git_exe or os.environ.get(GIT_ENV_VAR) or "git"
        try:
            self._run(["rev-parse", "--git-dir"])
        except (OSError, RepoAccessError) as err:
            raise RepoAccessError(f"not a readable git repository: {self.path}: {err}") from err

    def _run(self, args: list[str], check: bool = True) -> bytes:
        try:
            proc = subprocess.run(
                [self.git, "-C", self.path] + args,
                capture_output=True,
            )
        except OSError as err:
            raise RepoAccessError(f"cannot invoke {self.git!r}: {err}") from err
        if check and proc.returncode != 0:
            raise RepoAccessError(
                f"git {' '.join(args[:2])} failed: {proc.stderr.decode('utf-8', 'replace').strip()}"
            )
        return proc.stdout

    def resolve_commit(self, committish: str) -> str:
        proc = subprocess.run(
            [self.git, "-C", self.path, "rev-parse", "--verify", committish + "^{commit}"],
            capture_output=True,
        )
        if proc.returncode != 0:
            raise UnknownCommit(committish)
        return proc.stdout.decode("ascii").strip()

    def first_parent_chain(self, snapshot: str) -> list[CommitMeta]:
        """Snapshot followed by its first-parent ancestors, newest first."""
        snapshot = self.resolve_commit(snapshot)
        out = self._run(
            ["log", "-z", "--first-parent", "--format=%H%x01%P%x01%at%x01%B", snapshot]
        )
        commits = []
        for record in out.split(b"\x00"):
            if not record.strip():
                continue
            commit_id, parents, author_time, message = record.decode("utf-8", "replace").split("\x01", 3)
            parent_ids = parents.split()
            commits.append(
                CommitMeta(
                    id=commit_id,
                    firstParentId=parent_ids[0] if parent_ids else None,
                    authorTime=int(author_time),
                    message=message,
                )
            )
        return commits

    def file_at(self, commit: str, path: str) -> str | None:
        """File content at a commit, line endings as stored, or None when
        absent.  Callers fold line endings with java_extract.normalize_source."""
        proc = subprocess.run(
            [self.git, "-C", self.path, "cat-file", "blob", f"{commit}:{path}"],
            capture_output=True,
        )
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
        fields = self._run(args).split(b"\x00")
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

    def ls_files(self, commit: str, suffix: str = ".java") -> list[str]:
        out = self._run(["ls-tree", "-r", "-z", "--name-only", commit])
        paths = [p.decode("utf-8", "replace") for p in out.split(b"\x00") if p]
        return [p for p in paths if p.endswith(suffix)]
