"""The environment record every benchmark result carries.

It names what was measured (the git tree hash of ``src/``, computed from
the files themselves so it works in a checkout without ``.git``) and where
(processor count, pinned BLAS threads, Python and numpy versions, the
filesystem the sweep store lives on).
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

__all__ = ["BLAS_THREAD_VARIABLES", "blas_threads", "filesystem_of", "git_tree_hash", "record"]

#: Thread-count variables of the BLAS/OpenMP runtimes numpy may load.
BLAS_THREAD_VARIABLES = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_BLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)

_IGNORED_DIRS = {"__pycache__"}
_IGNORED_SUFFIXES = (".pyc", ".pyo", ".pyd")


def blas_threads() -> Optional[int]:
    """Threads the loaded OpenBLAS will use, or ``None`` when it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libraries = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        return None
    for library in libraries:
        try:
            handle = ctypes.CDLL(library)
        except OSError:
            continue
        for name in _BLAS_GETTERS:
            getter = getattr(handle, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding *path* (``unknown`` if unreadable)."""
    target = str(Path(path).resolve())
    best: Tuple[int, str] = (-1, "unknown")
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount_point = fields[1]
                inside = target == mount_point or target.startswith(mount_point.rstrip("/") + "/")
                if inside and len(mount_point) > best[0]:
                    best = (len(mount_point), fields[2])
    except OSError:
        pass
    return best[1]


def _git_object(kind: str, payload: bytes) -> bytes:
    return hashlib.sha1(f"{kind} {len(payload)}\0".encode() + payload).digest()


def _tree(directory: Path) -> Optional[bytes]:
    entries: List[Tuple[str, bytes]] = []
    for child in directory.iterdir():
        name = child.name
        if child.is_symlink():
            entries.append((name, b"120000 " + name.encode() + b"\0" + _git_object("blob", os.readlink(child).encode())))
        elif child.is_dir():
            if name in _IGNORED_DIRS or name.endswith(".egg-info"):
                continue
            digest = _tree(child)
            if digest is not None:  # git stores no empty directories
                entries.append((name + "/", b"40000 " + name.encode() + b"\0" + digest))
        elif not name.endswith(_IGNORED_SUFFIXES):
            mode = b"100755 " if os.access(child, os.X_OK) else b"100644 "
            entries.append((name, mode + name.encode() + b"\0" + _git_object("blob", child.read_bytes())))
    if not entries:
        return None
    entries.sort(key=lambda entry: entry[0].encode())
    return _git_object("tree", b"".join(entry for _, entry in entries))


def git_tree_hash(directory: Path) -> str:
    """The hash ``git rev-parse HEAD:<directory>`` prints for a clean tree.

    Computed from the files, skipping bytecode caches, so it identifies the
    measured code in a plain checkout as well as in a repository.
    """
    digest = _tree(Path(directory))
    return digest.hex() if digest is not None else ""


def record(root: Path, store_dir: Path) -> Dict[str, Any]:
    """The environment fields of one result."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "blas_threads": blas_threads(),
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "store_filesystem": filesystem_of(store_dir),
        "src_tree": git_tree_hash(root / "src"),
    }
