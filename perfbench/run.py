"""The repository's benchmark: one command per workload, from TCP to kernels.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

- ``serve_sparse``: the JSON-lines TCP server as its own process with an
  in-process scheduler; online sessions d=9, p=0.0005, 9 rounds.
- ``serve_dense_sharded``: the same protocol against ``--shards 1``
  (router plus one forked worker); sessions d=13, p=0.005, 39 rounds.
- ``mc_threshold``: ``run_online_point(d=13, p=0.01)`` calls in a child
  process (``perfbench/mc.py``).

Inputs come from ``--seed`` alone.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` a separate run
with the layer spans installed gives the per-layer metrics and the
tracing overhead.  Every run ends with the correctness gate
(:mod:`gate`): a mismatch counts as a failure and the exit code is 1.
The line before the last is a report: host stamp, per-phase failure
accounting, latency sample counts and where the traced time went.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import host

host.pin_blas()
host.require_source()

import gate  # noqa: E402  (after the source path is set)
import mc  # noqa: E402
import spans  # noqa: E402
from loadgen import Phase, Server, poisson_offsets  # noqa: E402
from spans import clock  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUPS = 5  # set-ups per untraced run; setup_s is their median
GRACE_S = 30.0  # an unanswered request times out this long after the last send
LATE_LIMIT_MS = 10.0  # open-loop runs later than this at p99 are flagged
OPEN_SHARE = 0.7  # share of the measured seconds spent in the open loop
CYCLES = 8  # open-loop window + closed-loop waves; latency is a median over windows


@dataclass(frozen=True)
class ServeWorkload:
    d: int
    p: float
    n_rounds: int
    shards: int
    rate: float  # open-loop offered sessions/s (absolute, see BENCHMARK.json)
    wave: int  # closed-loop sessions pipelined per wave
    warmup: int  # sessions in the untimed warm-up wave
    gate_sample: int  # served sessions checked against run_online_trial


SERVE = {
    "serve_sparse": ServeWorkload(
        d=9, p=0.0005, n_rounds=9, shards=0,
        rate=400.0, wave=512, warmup=256, gate_sample=1000,
    ),
    "serve_dense_sharded": ServeWorkload(
        d=13, p=0.005, n_rounds=39, shards=1,
        rate=30.0, wave=64, warmup=32, gate_sample=150,
    ),
}
MC_GATE_CALLS = 12  # mc_threshold calls checked shot by shot
WORKLOADS = (*SERVE, "mc_threshold")


class Sessions:
    """Session specs of one run, each with its own seed."""

    def __init__(self, w: ServeWorkload, rng: random.Random):
        from repro.service.session import SessionSpec

        self._make = lambda seed: SessionSpec(d=w.d, p=w.p, seed=seed, n_rounds=w.n_rounds)
        self._next = rng.getrandbits(40) << 20

    def take(self, n: int) -> list:
        first, self._next = self._next, self._next + n
        return [self._make(first + i) for i in range(n)]


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def wave(server: Server, sessions: Sessions, n: int, name: str) -> Phase:
    return server.conn.drive(Phase(name, sessions.take(n), [0.0] * n), GRACE_S)


def rounds_per_s(waves: list[Phase], w: ServeWorkload) -> float:
    """Rounds of the succeeded sessions over the waves' summed wall time.

    A total, not a median over waves: this host flips between a fast and
    a slow speed every few seconds, and a median follows whichever speed
    held a bare majority of the run, where the total moves smoothly.
    """
    rounds = sum(p.succeeded for p in waves) * w.n_rounds
    return rounds / sum(p.end - p.due[0] for p in waves)


def closed_loop(server, sessions, w: ServeWorkload, seconds: float) -> list[Phase]:
    """Pipelined waves, like ``ServiceClient.decode_many``, for ``seconds``."""
    waves = []
    end = clock() + seconds
    while not waves or clock() < end:
        waves.append(wave(server, sessions, w.wave, "closed_loop"))
    return waves


def open_loop(server, sessions, w: ServeWorkload, rng, seconds: float) -> Phase:
    offsets = poisson_offsets(rng, w.rate, seconds)
    return server.conn.drive(Phase("open_loop", sessions.take(len(offsets)), offsets), GRACE_S)


def start(stack, w: ServeWorkload, sessions: Sessions, phases: list, span_dir=None):
    """A ready server and its set-up time: spawned, port bound, ``ping``
    answered and warm-up wave done (pools, slabs, lattice tables warm)."""
    server = stack.enter_context(Server(w.shards, span_dir))
    phases.append(wave(server, sessions, w.warmup, "warmup"))
    return server, clock() - server.started


def percentiles(latencies_ms: list[float]) -> dict[str, float]:
    """p50/p95/p99 of one sample.  Only p50 is a bounded metric: on the
    shared 2-CPU host the benchmark was tuned on, the tail follows the
    host's slow periods, and the run-to-run spread of ``serve_sparse``'s
    p95 and p99 reached 0.30 of their median, above any allowed bound;
    they are reported with their sample counts instead."""
    pct = statistics.quantiles(latencies_ms, n=100)
    return {"p50": pct[49], "p95": pct[94], "p99": pct[98]}


def server_counters(server: Server) -> dict:
    snapshot = server.conn.request("metrics")["metrics"]
    names = (
        "rejected", "retries", "shed", "requeued", "respawns",
        "worker_deaths", "heartbeat_timeouts",
    )
    return {name: int(snapshot.get(name, 0)) for name in names}


def accounting(phases: list[Phase]) -> dict:
    """Sent/succeeded/failed and error kinds, summed per phase name."""
    out: dict[str, dict] = {}
    for phase in phases:
        acc = out.setdefault(phase.name, {"sent": 0, "succeeded": 0, "failed": 0, "errors": {}})
        summary = phase.summary()
        for key in ("sent", "succeeded", "failed"):
            acc[key] += summary[key]
        for kind, count in summary["errors"].items():
            acc["errors"][kind] = acc["errors"].get(kind, 0) + count
    return out


def gate_serve(phases: list[Phase], sample: int, seed: int) -> list[str]:
    done = [(p.specs[i], r) for p in phases for i, r in p.results.items()]
    picked = random.Random(seed).sample(done, min(sample, len(done)))
    return [why for spec, result in picked if (why := gate.serve_mismatch(spec, result))]


def serve(name: str, seed: int, seconds: float, trace: bool, span_dir: Path) -> dict:
    w = SERVE[name]
    rng = random.Random(seed)
    sessions = Sessions(w, rng)
    phases: list[Phase] = []
    report: dict = {}
    opened: list[Phase] = []
    waves: list[Phase] = []
    reference: list[Phase] = []
    with contextlib.ExitStack() as stack:
        if trace:
            # An untraced twin, driven between the traced server's
            # cycles, gives the overhead ratio under the same host load.
            untraced, _ = start(stack, w, sessions, phases)
            server, _ = start(stack, w, sessions, phases, span_dir)
        else:
            setups = []
            for k in range(SETUPS):
                server, setup_s = start(stack, w, sessions, phases)
                setups.append(setup_s)
                if k < SETUPS - 1:
                    server.stop()
            report["setup_s"] = setups
        pids = server.pids
        intervals, cpu = [], 0.0
        for _ in range(CYCLES):
            cpu0, t0 = host.cpu_seconds(pids), clock()
            opened.append(open_loop(server, sessions, w, rng, seconds * OPEN_SHARE / CYCLES))
            waves += closed_loop(server, sessions, w, seconds * (1 - OPEN_SHARE) / CYCLES)
            intervals.append((t0, clock()))
            cpu += host.cpu_seconds(pids) - cpu0
            if trace:
                reference += closed_loop(
                    untraced, sessions, w, seconds * (1 - OPEN_SHARE) / CYCLES / 2
                )
        counters = server_counters(server)
        peak_rss = host.peak_rss_mb(server.pids)
        server.stop()
        if trace:
            untraced.stop()
    measured = opened + waves
    phases += measured + reference
    mismatches = gate_serve(measured, w.gate_sample, seed)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases) + len(mismatches)
    late = [ms for p in opened for ms in p.late_ms()]
    late_p99 = statistics.quantiles(late, n=100)[98]
    # Per open-loop window; the metrics are medians over the windows, so
    # one host stall moves none of them.
    samples = [p.latency_from_due_ms() for p in opened]
    windows = [percentiles(s) for s in samples if len(s) > 1] or [
        percentiles([ms for s in samples for ms in s])
    ]
    latency = {q: statistics.median(win[q] for win in windows) for q in windows[0]}
    report.update(
        phases=accounting(phases),
        client={"retries": 0, "reconnects": 0, "connections": 1},
        server=counters,
        open_loop={
            "offered_per_s": w.rate, "samples": len(late),
            "window_samples": [p.attempted for p in opened],
            "latency_ms": latency, "window_latency_ms": windows,
            "late_ms_p99": late_p99, "valid": late_p99 <= LATE_LIMIT_MS,
        },
        closed_loop={"waves": len(waves), "sessions_per_wave": w.wave},
        gate={"checked": min(w.gate_sample, sum(p.succeeded for p in measured)),
              "mismatches": mismatches[:5], "mismatched": len(mismatches)},
        failed_ratio=failed / attempted,
    )
    if not report["open_loop"]["valid"]:
        print(f"perfbench: open-loop generator ran late (p99 {late_p99:.2f} ms); "
              "latency numbers of this run are suspect", file=sys.stderr)
    if not trace:
        metrics = {
            "rounds_per_s": metric(rounds_per_s(waves, w), "rounds/s"),
            "latency_p50_ms": metric(latency["p50"], "ms"),
            "peak_rss_mb": metric(peak_rss, "MB"),
            "setup_s": metric(statistics.median(report["setup_s"]), "s"),
        }
    else:
        window = spans.Spans(sorted(span_dir.glob("*.npz")), intervals)
        client = {
            "sent": sum(p.summary()["sent"] for p in measured),
            "succeeded": sum(p.succeeded for p in measured),
            "failed": sum(p.failed for p in measured),
            "late_ms_p99": late_p99,
            "latency_s": {
                p.specs[i].seed: p.recv[i] - p.sent[i] for p in measured for i in p.results
            },
            "request_bytes": sum(p.request_bytes for p in measured),
            "response_bytes": sum(p.response_bytes for p in measured),
        }
        values = spans.layer_metrics(window, client, counters)
        values["trace.overhead_ratio"] = rounds_per_s(waves, w) / rounds_per_s(reference, w)
        report["coverage"] = spans.coverage_report(window, cpu, len(pids))
        metrics = per_layer_metrics(values)
    return {
        "report": report, "metrics": metrics,
        "attempted": attempted, "failed": failed, "correct": not mismatches,
    }


def monte_carlo(seed: int, seconds: float, trace: bool, span_dir: Path) -> dict:
    cmd = [
        sys.executable, str(HERE / "mc.py"), "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)), "--span-dir", str(span_dir),
    ]
    setups = []
    for k in range(1 if trace else SETUPS):
        last = k == (0 if trace else SETUPS - 1)
        started = clock()
        child = subprocess.Popen(
            cmd + ([] if last else ["--setup-only"]),
            stdout=subprocess.PIPE, text=True, env=host.child_env(), cwd=host.ROOT,
        )
        try:
            if "ready" not in child.stdout.readline():
                raise RuntimeError("Monte-Carlo process did not get ready")
            setups.append(clock() - started)
            out, _ = child.communicate(timeout=seconds + 120)
        finally:
            if child.poll() is None:
                child.kill()
                child.communicate()
        if child.returncode != 0:
            raise RuntimeError(f"Monte-Carlo process exited with {child.returncode}")
    summary = json.loads(out.strip().splitlines()[-1])
    calls = summary["calls"] + summary.get("traced", [])
    picked = random.Random(seed).sample(calls, min(MC_GATE_CALLS, len(calls)))
    mismatches = [
        why for s, _, failures, overflows in picked
        if (why := gate.mc_mismatch(mc.D, mc.P, mc.SHOTS, s, failures, overflows))
    ]
    rounds = mc.SHOTS * mc.D

    def rate(batch):  # a total, like the serve workloads' rounds_per_s
        return rounds * len(batch) / sum(dt for _, dt, _, _ in batch)

    report = {
        "calls": len(calls), "shots_per_call": mc.SHOTS,
        "latency_samples": len(calls),
        "gate": {"checked_calls": len(picked), "mismatches": mismatches[:5],
                 "mismatched": len(mismatches)},
        "failed_ratio": len(mismatches) / len(calls),
    }
    if trace:
        window = spans.Spans([span_dir / "mc.npz"], summary["intervals"])
        n = len(summary["traced"])
        client = {
            "sent": n, "succeeded": n, "failed": 0, "late_ms_p99": 0.0,
            "latency_s": {}, "request_bytes": 0, "response_bytes": 0,
        }
        values = spans.layer_metrics(window, client, {})
        values["trace.overhead_ratio"] = rate(summary["traced"]) / rate(summary["calls"])
        report["coverage"] = spans.coverage_report(window, summary["cpu_s"], 1)
        metrics = per_layer_metrics(values)
    else:
        report["setup_s"] = setups
        latency = percentiles([dt * 1e3 for _, dt, _, _ in calls])
        report["latency_ms"] = latency
        metrics = {
            "rounds_per_s": metric(rate(calls), "rounds/s"),
            "latency_p50_ms": metric(latency["p50"], "ms"),
            "peak_rss_mb": metric(summary["peak_rss_mb"], "MB"),
            "setup_s": metric(statistics.median(setups), "s"),
        }
    return {
        "report": report, "metrics": metrics,
        "attempted": len(calls), "failed": len(mismatches), "correct": not mismatches,
    }


def per_layer_metrics(values: dict[str, float]) -> dict:
    """Attach each per-layer metric's unit from ``BENCHMARK.json``."""
    declared = json.loads((host.ROOT / "BENCHMARK.json").read_text())["per_layer"]
    return {m["name"]: metric(float(values[m["name"]]), m["unit"]) for m in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    scratch = host.ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    span_dir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        if args.workload == "mc_threshold":
            out = monte_carlo(args.seed, args.seconds, bool(args.trace), span_dir)
        else:
            out = serve(args.workload, args.seed, args.seconds, bool(args.trace), span_dir)
    finally:
        shutil.rmtree(span_dir, ignore_errors=True)
    out["report"].update(workload=args.workload, seed=args.seed, host=host.stamp())
    print(json.dumps({"report": out["report"]}))
    print(json.dumps({
        "correct": out["correct"], "attempted": out["attempted"],
        "failed": out["failed"], "metrics": out["metrics"],
    }))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
