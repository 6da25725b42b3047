"""Machine and environment facts recorded with every benchmark run."""

from __future__ import annotations

import os
import platform
from pathlib import Path

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads() -> None:
    """Cap BLAS thread pools at the usable cores; call before importing numpy."""
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, str(nproc()))


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def cpu_model() -> str | None:
    text = _read(Path("/proc/cpuinfo")) or ""
    for line in text.splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def cache_sizes() -> dict[str, str]:
    """Cache sizes of CPU 0, keyed like ``L1d``, ``L2``, ``L3``."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        level = _read(index / "level")
        kind = _read(index / "type") or ""
        size = _read(index / "size")
        if level and size:
            suffix = {"Data": "d", "Instruction": "i"}.get(kind, "")
            out[f"L{level}{suffix}"] = size
    return out


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = root / ".git"
    head = _read(git / "HEAD")
    if head is None:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    loose = _read(git / ref)
    if loose:
        return loose
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def record(root: Path, seed: int) -> dict:
    import numpy
    import scipy

    import kinfp.kernels as kernels

    backend = getattr(kernels, "active_backend", None)
    return {
        "nproc": nproc(),
        "cpu_model": cpu_model(),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": backend() if backend else None,
        "KINFP_DISABLE_NUMBA": os.environ.get("KINFP_DISABLE_NUMBA"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "seed": seed,
        "git_commit": git_commit(root),
    }
