"""What a run records beside its metrics: versions, threads, host speed."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import time
from pathlib import Path

REFERENCE_LOOP_N = 1_000_000
REFERENCE_LOOP_REPEATS = 3


def git_sha(root: Path) -> str:
    """HEAD's commit id read from .git, or 'unknown' outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _openblas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def reference_loop_s() -> float:
    """Median time of a fixed pure-Python loop: a host-speed figure, not a metric."""
    samples = []
    for _ in range(REFERENCE_LOOP_REPEATS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(REFERENCE_LOOP_N):
            acc += i * i % 7
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def environment(root: Path) -> dict:
    import numpy as np

    from doubleslit import kernels

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": git_sha(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _openblas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "backend": kernels.active_backend(),
    }
