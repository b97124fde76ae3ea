"""Batch lanes vs scalar engines for sparse online serving traffic.

Measures the dispatch decision behind
:data:`repro.service.scheduler.BATCH_EVENT_CUTOFF`: scheduler waves of
``--sessions`` concurrent online sessions (d=9, p=0.0005, 9 rounds by
default) are served once with every session on a batch-engine lane
(cutoff patched to 0) and once with every session on a pooled scalar
engine (cutoff patched to infinity), alternating the two paths rep by
rep.  Each path keeps one warmed scheduler, so engine construction is
paid before timing.  Every wave's per-session results (matches,
per-layer cycles, failure and overflow flags) must be equal on both
paths; the script asserts it.

Prints one line per session count: the median wave time of each path
and their ratio (batch/scalar; below 1 means batch lanes are faster).

Run:  PYTHONPATH=src python benchmarks/event_cutoff_ab.py \
          --sessions 1 4 16 64 256 --reps 9
"""

from __future__ import annotations

import argparse
import math
import statistics
import time

import repro.service.scheduler as scheduler_module
from repro.service import MicroBatchScheduler, SchedulerConfig, SessionSpec

CUTOFFS = {"batch": 0.0, "scalar": math.inf}


def _wave(scheduler, path, specs):
    """Serve one wave on ``path``; (seconds, per-session results)."""
    scheduler_module.BATCH_EVENT_CUTOFF = CUTOFFS[path]
    start = time.perf_counter()
    sessions = [scheduler.submit(spec) for spec in specs]
    scheduler.run_until_idle()
    elapsed = time.perf_counter() - start
    results = [
        (
            s.result.matches, s.result.layer_cycles,
            s.result.failed, s.result.overflow,
        )
        for s in sessions
    ]
    return elapsed, results


def measure(n_sessions, reps, d, p, rounds, seed):
    """Median wave seconds per path for ``n_sessions`` sessions."""
    config = SchedulerConfig(max_active=max(256, n_sessions))
    schedulers = {path: MicroBatchScheduler(config) for path in CUTOFFS}
    times = {path: [] for path in CUTOFFS}
    for rep in range(reps + 1):  # rep 0 warms both schedulers
        specs = [
            SessionSpec(d=d, p=p, n_rounds=rounds, seed=seed + rep * n_sessions + i)
            for i in range(n_sessions)
        ]
        order = list(CUTOFFS) if rep % 2 else list(reversed(CUTOFFS))
        results = {}
        for path in order:
            elapsed, results[path] = _wave(schedulers[path], path, specs)
            if rep:
                times[path].append(elapsed)
        assert results["batch"] == results["scalar"], (
            f"paths disagree at {n_sessions} sessions, rep {rep}"
        )
    return {path: statistics.median(ts) for path, ts in times.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sessions", type=int, nargs="+", default=[1, 4, 16, 64, 256])
    parser.add_argument("--reps", type=int, default=9)
    parser.add_argument("--d", type=int, default=9)
    parser.add_argument("--p", type=float, default=0.0005)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    original = scheduler_module.BATCH_EVENT_CUTOFF
    try:
        for n in args.sessions:
            med = measure(n, args.reps, args.d, args.p, args.rounds, args.seed)
            print(
                f"sessions={n:4d}  batch {med['batch'] * 1e3:9.2f} ms"
                f"  scalar {med['scalar'] * 1e3:9.2f} ms"
                f"  batch/scalar {med['batch'] / med['scalar']:.2f}x",
                flush=True,
            )
    finally:
        scheduler_module.BATCH_EVENT_CUTOFF = original


if __name__ == "__main__":
    main()
