"""In-memory filesystem.

Holds regular files (bytes), directories, and — because simulated binaries
are host objects — an optional ``image`` attached to executable files.  The
K23 offline phase writes its logs here, and §5.3's "mark the log directory
immutable" hardening is the :attr:`Inode.immutable` bit enforced on every
mutating operation.
"""

from __future__ import annotations

import posixpath
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import VFSError
from repro.kernel.syscalls import Errno


@dataclass
class Inode:
    """One filesystem object.

    Attributes:
        path: absolute path (canonical key).
        is_dir: directory flag.
        data: file contents (empty for directories).
        image: optional host-side program image for executables/libraries.
        immutable: chattr +i — rejects writes, truncation, and unlinking of
            the inode and (for directories) creation/removal of entries.
        mode: permission bits (informational).
    """

    path: str
    is_dir: bool = False
    data: bytearray = field(default_factory=bytearray)
    image: object = None
    immutable: bool = False
    mode: int = 0o644


def _canon(path: str) -> str:
    if not path.startswith("/"):
        raise VFSError(Errno.EINVAL, f"VFS paths must be absolute: {path!r}")
    # An absolute path without an empty, "." or ".." component or a
    # trailing slash is already what normpath would return.
    if "//" in path or "/." in path or (path[-1] == "/" and path != "/"):
        return posixpath.normpath(path)
    return path


class VFS:
    """A path-indexed in-memory filesystem."""

    def __init__(self) -> None:
        self._inodes: Dict[str, Inode] = {}
        self.mkdir("/", exist_ok=True)

    # -- lookup ---------------------------------------------------------------

    def lookup(self, path: str) -> Inode:
        inode = self._inodes.get(_canon(path))
        if inode is None:
            raise VFSError(Errno.ENOENT, f"no such file: {path}")
        return inode

    def exists(self, path: str) -> bool:
        return _canon(path) in self._inodes

    def is_dir(self, path: str) -> bool:
        return self.exists(path) and self.lookup(path).is_dir

    # -- directory operations ----------------------------------------------------

    def mkdir(self, path: str, exist_ok: bool = False, parents: bool = True) -> Inode:
        path = _canon(path)
        if path in self._inodes:
            if exist_ok and self._inodes[path].is_dir:
                return self._inodes[path]
            raise VFSError(Errno.EEXIST, f"exists: {path}")
        parent = posixpath.dirname(path)
        if path != "/":
            if parent not in self._inodes:
                if not parents:
                    raise VFSError(Errno.ENOENT, f"no parent: {parent}")
                self.mkdir(parent, exist_ok=True, parents=True)
            self._check_dir_mutable(parent)
        inode = Inode(path=path, is_dir=True, mode=0o755)
        self._inodes[path] = inode
        return inode

    def listdir(self, path: str) -> List[str]:
        path = _canon(path)
        directory = self.lookup(path)
        if not directory.is_dir:
            raise VFSError(Errno.ENOTDIR, f"not a directory: {path}")
        prefix = path if path.endswith("/") else path + "/"
        names = []
        for candidate in self._inodes:
            if candidate != path and candidate.startswith(prefix):
                rest = candidate[len(prefix):]
                if "/" not in rest:
                    names.append(rest)
        return sorted(names)

    # -- file operations -------------------------------------------------------------

    def create(self, path: str, data: bytes = b"", image: object = None,
               mode: int = 0o644, exist_ok: bool = True) -> Inode:
        path = _canon(path)
        existing = self._inodes.get(path)
        if existing is not None:
            if not exist_ok or existing.is_dir:
                raise VFSError(Errno.EEXIST, f"exists: {path}")
            if existing.immutable:
                raise VFSError(Errno.EPERM, f"immutable: {path}")
            existing.data = bytearray(data)
            existing.image = image if image is not None else existing.image
            return existing
        parent = posixpath.dirname(path)
        self.mkdir(parent, exist_ok=True)
        self._check_dir_mutable(parent)
        inode = Inode(path=path, data=bytearray(data), image=image, mode=mode)
        self._inodes[path] = inode
        return inode

    def read(self, path: str) -> bytes:
        inode = self.lookup(path)
        if inode.is_dir:
            raise VFSError(Errno.EISDIR, f"is a directory: {path}")
        return bytes(inode.data)

    def append(self, path: str, data: bytes) -> None:
        inode = self.lookup(path)
        if inode.immutable:
            raise VFSError(Errno.EPERM, f"immutable: {path}")
        inode.data.extend(data)

    def truncate(self, path: str) -> None:
        inode = self.lookup(path)
        if inode.immutable:
            raise VFSError(Errno.EPERM, f"immutable: {path}")
        inode.data.clear()

    def unlink(self, path: str) -> None:
        path = _canon(path)
        inode = self.lookup(path)
        if inode.is_dir:
            raise VFSError(Errno.EISDIR, f"is a directory: {path}")
        if inode.immutable:
            raise VFSError(Errno.EPERM, f"immutable: {path}")
        self._check_dir_mutable(posixpath.dirname(path))
        del self._inodes[path]

    # -- immutability (K23 log hardening, §5.3) ------------------------------------------

    def set_immutable(self, path: str, recursive: bool = True) -> None:
        """chattr +i on *path* (and, for directories, everything under it)."""
        path = _canon(path)
        inode = self.lookup(path)
        inode.immutable = True
        if recursive and inode.is_dir:
            prefix = path if path.endswith("/") else path + "/"
            for candidate, other in self._inodes.items():
                if candidate.startswith(prefix):
                    other.immutable = True

    def _check_dir_mutable(self, path: str) -> None:
        inode = self._inodes.get(_canon(path))
        if inode is not None and inode.immutable:
            raise VFSError(Errno.EPERM, f"immutable directory: {path}")
