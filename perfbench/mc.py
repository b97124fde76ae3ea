"""The ``mc_threshold`` workload's own process: the Monte-Carlo user.

Usage: ``python perfbench/mc.py --seed N --seconds S --trace 0|1
--span-dir DIR [--setup-only]``.  Imports the program, makes one
warm-up call, prints ``{"ready": true}``, then calls
``run_online_point(d=13, p=0.01, shots=32, chunk_size=32, jobs=1)`` at
the default 2 GHz clock and without a ``PointCache`` until ``S``
seconds have passed, each call on its own seed.  One 32-shot chunk per
call is the chunking a 1024-shot point gets by default.  With
``--trace 1`` every other call runs with the layer spans installed.
The last line is a JSON summary of every call.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path

import host

host.pin_blas()
host.require_source()

import spans  # noqa: E402  (after the source path is set)

D = 13
P = 0.01
SHOTS = 32


def first_call_seed(seed: int) -> int:
    """First call seed of a run; call ``i`` uses ``base + i``."""
    return random.Random(seed).getrandbits(40) << 16


def timed_call(run_online_point, seed: int) -> list:
    """``[seed, seconds, failures, overflows]`` of one call."""
    t = spans.clock()
    point = run_online_point(D, P, SHOTS, rng=seed, jobs=1, chunk_size=SHOTS)
    return [seed, spans.clock() - t, point.failures, point.overflows]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--span-dir", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from repro.experiments.montecarlo import run_online_point

    base = first_call_seed(args.seed)
    run_online_point(D, P, SHOTS, rng=base - 1, jobs=1, chunk_size=SHOTS)
    print(json.dumps({"ready": True}), flush=True)
    if args.setup_only:
        return 0
    calls, traced, intervals, cpu = [], [], [], 0.0
    log = spans.SpanLog()
    end = spans.clock() + args.seconds
    while len(calls) < 2 or spans.clock() < end:
        seed = base + len(calls) + len(traced)
        if args.trace and len(traced) < len(calls):
            # Alternate untraced and traced calls, so the overhead ratio
            # compares calls made under the same host load.
            installed = spans.install(log)
            cpu0, t0 = time.process_time(), spans.clock()
            traced.append(timed_call(run_online_point, seed))
            intervals.append((t0, spans.clock()))
            cpu += time.process_time() - cpu0
            installed.uninstall()
        else:
            calls.append(timed_call(run_online_point, seed))
    summary = {"calls": calls}
    if args.trace:
        log.save(args.span_dir / "mc.npz")
        summary.update(traced=traced, intervals=intervals, cpu_s=cpu)
    summary["peak_rss_mb"] = host.peak_rss_mb([os.getpid()])
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
