"""Host stamp and BLAS thread pinning for every benchmark process.

Every process the benchmark starts (the load generator itself, the
decode server, its shard worker, the Monte-Carlo child) runs with BLAS
pinned to one thread.  Unpinned, the float32 syndrome matmul of the
streaming round can stall on OpenBLAS thread wake-up (an open defect of
the program, tracked in ROADMAP.md); the pin hides that defect so that
the benchmark measures the decoder, and this module does not measure it.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_source() -> None:
    """Put the checkout's ``src`` first on ``sys.path``, or exit 2.

    The benchmark measures the program in the checkout it sits in, never
    an installed copy, so a checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program source at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def pin_blas() -> None:
    """Pin this process's BLAS pools; must run before numpy is imported."""
    os.environ.update(PINNED)


def child_env() -> dict:
    """Environment for a benchmark subprocess: pinned BLAS, checkout source."""
    return dict(os.environ, **PINNED, PYTHONPATH=str(SRC))


def stamp() -> dict:
    """CPUs, Python, numpy, BLAS vendor/version/threads and kernel backend."""
    import numpy as np

    from repro.core.kernels import default_kernel_backend, get_kernel_backend

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        },
        "blas_threads": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "kernel_backend": get_kernel_backend(default_kernel_backend()).name,
    }


def _proc_status_kb(pid: int, field: str) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise ValueError(f"no {field} in /proc/{pid}/status")


def process_tree(pid: int) -> list[int]:
    """``pid`` and all its live descendants."""
    pids = [pid]
    for parent in pids:
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except FileNotFoundError:
            continue
        for tid in tasks:
            try:
                with open(f"/proc/{parent}/task/{tid}/children") as children:
                    pids.extend(int(c) for c in children.read().split())
            except FileNotFoundError:
                pass
    return pids


def alive(pid: int) -> bool:
    """Whether ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def peak_rss_mb(pids) -> float:
    """Summed peak resident set (VmHWM) of ``pids``, in MiB."""
    return sum(_proc_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def cpu_seconds(pids) -> float:
    """Summed user+system CPU time of ``pids`` so far."""
    tick = os.sysconf("SC_CLK_TCK")
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except FileNotFoundError:
            continue
        total += int(fields[11]) + int(fields[12])  # utime, stime
    return total / tick
