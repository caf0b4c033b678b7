"""The environment block printed with every result.

Hardware facts come from /proc and /sys only; the BLAS name and version
from ``numpy.show_config``, and the BLAS thread count from the OpenBLAS
library numpy has loaded (``threadpoolctl`` is not a dependency).
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

import numpy as np


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _cpu_model() -> str | None:
    text = _read("/proc/cpuinfo") or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return None


def _caches() -> dict:
    """Unified/data cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level and kind in ("Unified", "Data") and level in ("2", "3"):
            out["L" + level] = _read(index / "size")
    return out


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library mapped into this process."""
    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_", ""):
            for suffix in ("64_", ""):
                fn = getattr(lib, "%sopenblas_get_num_threads%s" % (prefix, suffix),
                             None)
                if fn is not None:
                    fn.argtypes = []
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def _git_commit(root: Path) -> str:
    """HEAD commit read from .git without running git; "unknown" outside git."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(git / ref)
    if commit:
        return commit
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(root),
    }
