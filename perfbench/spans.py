"""In-memory spans around each layer's entry points, and their reduction.

The traced run wraps the public entry points of every layer from the
benchmark's own files: :func:`install` swaps class attributes and the
module-level names call sites look up for timing wrappers, and
:meth:`Installed.uninstall` puts the originals back.  Nothing under
``src/`` is edited, and the wrappers only read a clock, so traced and
untraced decodes are bit-identical (the self-test checks this).

A span is ``(name, key, parent, start, dur, self, arg)``: ``key`` is the
session's ``SessionSpec.seed`` (-1 when the call serves many sessions),
``parent`` the index of the enclosing synchronous span, ``self`` the
duration minus the child spans it covers, and ``arg`` a per-name number
(rows in a round, lanes in a decode, bytes on the pipe, ...).  Spans are
kept in parallel typed arrays and written to one ``.npz`` file per
process when the run ends.

Asynchronous spans (the backend ``submit`` coroutines) cover awaits in
which other requests run, so they sit outside the synchronous stack and
carry no self time; the server's own time per session is computed from
them instead (client latency minus backend ``submit``).
"""

from __future__ import annotations

import contextvars
import functools
import os
import time
from array import array
from pathlib import Path
from statistics import median

import numpy as np

clock = time.perf_counter  # CLOCK_MONOTONIC: comparable across processes

KERNELS = (
    "race", "valid_entries", "survey_need", "winners_bulk",
    "commit_scan", "exposed_any", "charge_empty",
)
BATCH_ENGINE = ("push_layers", "try_push_empty", "empty_layers_fast", "decode")
SCALAR_ENGINE = (
    "push_layer", "run_to_idle", "idle_layer_fast", "try_push_empty_idle",
)
# Span-name prefix -> layer, for self-time accounting.
LAYER_OF = {
    "server": "server", "api": "server", "shard": "shard",
    "scheduler": "scheduler", "online": "online",
    "engine": "engine", "engine_batch": "engine", "kernels": "kernels",
    "executor": "experiments", "noise": "experiments",
}


class SpanLog:
    """Spans of one process, in parallel typed arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self) -> None:
        """Drop every span (a forked worker starts from an empty log)."""
        self.name = array("H")
        self.key = array("q")
        self.parent = array("q")
        self.start = array("d")
        self.dur = array("d")
        self.self_ = array("d")
        self.arg = array("d")
        self._stack: list[list] = []  # [span index, child time]

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _append(self, nid, key, parent, start, dur, self_, arg) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.key.append(key if -(2**63) <= key < 2**63 else -1)
        self.parent.append(parent)
        self.start.append(start)
        self.dur.append(dur)
        self.self_.append(self_)
        self.arg.append(arg)
        return index

    def enter(self, nid: int, key: int = -1, arg: float = 0.0) -> list:
        """Open a synchronous span; returns the frame :meth:`leave` takes."""
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        frame = [self._append(nid, key, parent, 0.0, 0.0, 0.0, arg), 0.0, 0.0]
        stack.append(frame)
        frame[2] = clock()
        return frame

    def leave(self, frame: list) -> None:
        dur = clock() - frame[2]
        stack = self._stack
        stack.pop()
        index = frame[0]
        self.start[index] = frame[2]
        self.dur[index] = dur
        self.self_[index] = dur - frame[1]
        if stack:
            stack[-1][1] += dur

    def record(self, nid: int, key: int, start: float, dur: float, arg: float) -> None:
        """A span outside the synchronous stack (async span or event)."""
        self._append(nid, key, -1, start, dur, 0.0, arg)

    def save(self, path: Path) -> None:
        np.savez(
            path,
            names=np.asarray(self.names + [""]),
            name=np.frombuffer(self.name, dtype=np.uint16).copy(),
            key=np.frombuffer(self.key, dtype=np.int64).copy(),
            parent=np.frombuffer(self.parent, dtype=np.int64).copy(),
            start=np.frombuffer(self.start, dtype=np.float64).copy(),
            dur=np.frombuffer(self.dur, dtype=np.float64).copy(),
            self_=np.frombuffer(self.self_, dtype=np.float64).copy(),
            arg=np.frombuffer(self.arg, dtype=np.float64).copy(),
        )


# ----------------------------------------------------------------------
# Wrappers
# ----------------------------------------------------------------------
def _timed(log: SpanLog, name: str, fn, arg_of=None, key_of=None):
    nid = log.name_id(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        frame = log.enter(
            nid,
            -1 if key_of is None else key_of(args),
            0.0 if arg_of is None else arg_of(args),
        )
        try:
            return fn(*args, **kwargs)
        finally:
            log.leave(frame)

    return wrapper


def _lanes(args) -> float:
    return float(len(args[1]))


def _seed_of(payload) -> int:
    """A wire spec's seed; -1 for a payload the server will reject."""
    seed = payload.get("seed") if isinstance(payload, dict) else None
    return seed if isinstance(seed, int) else -1


def _resumptions(log: SpanLog, nid: int, gen):
    """Re-yield ``gen``, timing each resumption as one span."""
    while True:
        frame = log.enter(nid)
        try:
            value = next(gen)
        except StopIteration:
            return
        finally:
            log.leave(frame)
        yield value


class Installed:
    """The wrappers in place; :meth:`uninstall` restores the originals."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def install(log: SpanLog, span_dir: Path | None = None) -> Installed:
    """Wrap every layer's entry points with spans recorded into ``log``.

    With ``span_dir``, forked shard workers start from an empty log and
    write ``worker-<pid>.npz`` there when they exit.  Call this before
    the server builds its backend (the router forks workers at start).
    """
    import repro.core.online as online
    import repro.experiments.executor as executor
    import repro.experiments.montecarlo as montecarlo
    import repro.service.api as api
    import repro.service.scheduler as scheduler
    import repro.service.shard as shard
    from multiprocessing.reduction import ForkingPickler

    from repro.core.engine import QecoolEngine
    from repro.core.engine_batch import QecoolEngineBatch
    from repro.core.kernels import default_kernel_backend, get_kernel_backend
    from repro.service.session import SessionResult, SessionSpec
    from repro.surface_code.lattice import PlanarLattice
    from repro.surface_code.noise import NoiseModel

    done = Installed()
    patch = done.patch
    current = contextvars.ContextVar("perfbench_session", default=-1)

    # -- server: the JSON codec boundary around the backend -------------
    from_payload = SessionSpec.__dict__["from_payload"].__func__
    timed_from = _timed(
        log, "server.from_payload", from_payload,
        key_of=lambda a: _seed_of(a[1]),
    )
    patch(SessionSpec, "from_payload", classmethod(timed_from))
    to_payload_nid = log.name_id("server.to_payload")
    to_payload = SessionResult.to_payload

    @functools.wraps(to_payload)
    def timed_to_payload(self):
        frame = log.enter(to_payload_nid, current.get())
        try:
            return to_payload(self)
        finally:
            log.leave(frame)

    patch(SessionResult, "to_payload", timed_to_payload)

    def timed_submit(name, fn, pipe_bytes=False):
        nid = log.name_id(name)
        bytes_nid = log.name_id("shard.pipe_bytes")

        @functools.wraps(fn)
        async def submit(self, spec):
            current.set(spec.seed)
            t = clock()
            held = -1.0
            try:
                result = await fn(self, spec)
                held = result.wait_s + result.service_s
                return result
            finally:
                log.record(nid, spec.seed, t, clock() - t, held)
                if pipe_bytes and held >= 0:
                    size = len(ForkingPickler.dumps(("submit", 0, spec.to_payload())))
                    size += len(ForkingPickler.dumps(("result", 0, result)))
                    log.record(bytes_nid, spec.seed, t, 0.0, float(size))

        return submit

    patch(api.DecodeService, "submit", timed_submit("api.submit", api.DecodeService.submit))
    patch(
        shard.ShardRouter, "submit",
        timed_submit("shard.router_submit", shard.ShardRouter.submit, pipe_bytes=True),
    )
    worker = shard._shard_worker

    @functools.wraps(worker)
    def traced_worker(*args, **kwargs):
        log.reset()
        try:
            return worker(*args, **kwargs)
        finally:
            if span_dir is not None:
                log.save(Path(span_dir) / f"worker-{os.getpid()}.npz")

    patch(shard, "_shard_worker", traced_worker)

    # -- scheduler: admission and the tick ------------------------------
    submit_nid = log.name_id("scheduler.submit")
    rejected_nid = log.name_id("scheduler.rejected")
    sched_submit = scheduler.MicroBatchScheduler.submit

    @functools.wraps(sched_submit)
    def timed_sched_submit(self, spec):
        frame = log.enter(submit_nid, spec.seed)
        try:
            return sched_submit(self, spec)
        except scheduler.Backpressure:
            log.record(rejected_nid, spec.seed, clock(), 0.0, 0.0)
            raise
        finally:
            log.leave(frame)

    patch(scheduler.MicroBatchScheduler, "submit", timed_sched_submit)
    step_nid = log.name_id("scheduler.step")
    wait_nid = log.name_id("scheduler.queue_wait")
    step = scheduler.MicroBatchScheduler.step

    @functools.wraps(step)
    def timed_step(self):
        frame = log.enter(step_nid)
        try:
            finished = step(self)
        finally:
            log.leave(frame)
        t = clock()
        for session in finished:
            log.record(wait_nid, session.spec.seed, t, 0.0, session.result.wait_s)
        return finished

    patch(scheduler.MicroBatchScheduler, "step", timed_step)

    # -- online: the streaming round ------------------------------------
    timed_advance = _timed(
        log, "online.round", online.advance_streaming_round,
        arg_of=lambda a: float(len(a[1])),
    )
    for module in (online, scheduler):
        patch(module, "advance_streaming_round", timed_advance)
    chunk = _timed(log, "online.chunk", online.run_online_chunk)
    for module in (online, montecarlo):
        patch(module, "run_online_chunk", chunk)
    roster_nid = log.name_id("online.roster_build")

    class TracedRoster(online.StreamingRoster):
        __slots__ = ()

        def __init__(self, block, shots):
            frame = log.enter(roster_nid, -1, float(len(shots)))
            try:
                super().__init__(block, shots)
            finally:
                log.leave(frame)

    for module in (online, scheduler):
        patch(module, "StreamingRoster", TracedRoster)
    patch(
        PlanarLattice, "syndrome_of_batch",
        _timed(
            log, "online.syndrome", PlanarLattice.syndrome_of_batch,
            arg_of=lambda a: float(np.shape(a[1])[0]),
        ),
    )
    shot_nid = log.name_id("online.shot_init")
    shot_init = online.OnlineShot.__init__

    @functools.wraps(shot_init)
    def timed_shot_init(self, *args, **kwargs):
        frame = log.enter(shot_nid)
        try:
            shot_init(self, *args, **kwargs)
        finally:
            log.arg[frame[0]] = 0.0 if getattr(self, "_batch", None) is None else 1.0
            log.leave(frame)

    patch(online.OnlineShot, "__init__", timed_shot_init)

    # -- engines ---------------------------------------------------------
    for method in BATCH_ENGINE:
        patch(
            QecoolEngineBatch, method,
            _timed(
                log, f"engine_batch.{method}", getattr(QecoolEngineBatch, method),
                arg_of=_lanes,
            ),
        )
    for method in SCALAR_ENGINE:
        patch(
            QecoolEngine, method,
            _timed(log, f"engine.{method}", getattr(QecoolEngine, method)),
        )
    run_nid = log.name_id("engine.run")
    run = QecoolEngine.run

    @functools.wraps(run)
    def timed_run(self, *args, **kwargs):
        return _resumptions(log, run_nid, run(self, *args, **kwargs))

    patch(QecoolEngine, "run", timed_run)

    # -- kernels of the active backend ------------------------------------
    backend = type(get_kernel_backend(default_kernel_backend()))
    for method in KERNELS:
        patch(backend, method, _timed(log, f"kernels.{method}", getattr(backend, method)))

    # -- experiments -------------------------------------------------------
    patch(
        executor.ParallelExecutor, "run",
        _timed(log, "executor.run", executor.ParallelExecutor.run),
    )
    patch(
        montecarlo.OnlineTask, "run_chunk",
        _timed(log, "executor.chunk", montecarlo.OnlineTask.run_chunk),
    )
    patch(
        NoiseModel, "sample_round_batch",
        _timed(log, "noise.sample_round_batch", NoiseModel.sample_round_batch),
    )
    return done


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
class Spans:
    """Spans of every traced process that start inside ``intervals``."""

    def __init__(self, paths, intervals: list[tuple[float, float]]):
        self._by_name: dict[str, dict[str, np.ndarray]] = {}
        for path in paths:
            with np.load(path) as data:
                names = data["names"]
                keep = np.zeros(len(data["start"]), dtype=bool)
                for lo, hi in intervals:
                    keep |= (data["start"] >= lo) & (data["start"] <= hi)
                for nid in np.unique(data["name"][keep]):
                    sel = keep & (data["name"] == nid)
                    part = {f: data[f][sel] for f in ("key", "dur", "self_", "arg", "parent")}
                    have = self._by_name.get(str(names[nid]))
                    if have is not None:
                        part = {f: np.concatenate([have[f], part[f]]) for f in part}
                    self._by_name[str(names[nid])] = part
        self.wall = sum(hi - lo for lo, hi in intervals)

    def get(self, name: str, field: str) -> np.ndarray:
        part = self._by_name.get(name)
        return np.empty(0) if part is None else part[field]

    def count(self, name: str) -> int:
        return len(self.get(name, "dur"))

    def busy_ms(self, name: str) -> float:
        return float(self.get(name, "dur").sum()) * 1e3

    def self_ms_by_layer(self) -> dict[str, float]:
        """Summed self time of the synchronous spans, per layer."""
        out: dict[str, float] = {}
        for name, part in self._by_name.items():
            layer = LAYER_OF[name.split(".", 1)[0]]
            out[layer] = out.get(layer, 0.0) + float(part["self_"].sum()) * 1e3
        return out

    def by_key(self, name: str, field: str) -> dict[int, float]:
        return dict(zip(self.get(name, "key").tolist(), self.get(name, field).tolist()))


def _pct(values, q: float) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(np.percentile(values, q)) if values.size else 0.0


def _mean(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    return float(values.mean()) if values.size else 0.0


def layer_metrics(spans: Spans, client: dict, counters: dict) -> dict[str, float]:
    """Every per-layer metric from the window's spans.

    ``client`` carries the load generator's side (``sent``,
    ``succeeded``, ``failed``, ``late_ms_p99``, per-seed ``latency_s``
    measured from send to receipt, and wire byte totals); ``counters``
    the server's supervision counters.
    """
    m: dict[str, float] = {
        "loadgen.sent": float(client["sent"]),
        "loadgen.succeeded": float(client["succeeded"]),
        "loadgen.failed": float(client["failed"]),
        "loadgen.late_ms_p99": float(client["late_ms_p99"]),
    }
    backend = spans.by_key("api.submit", "dur")
    backend.update(spans.by_key("shard.router_submit", "dur"))
    front = [
        (latency - backend[seed]) * 1e3
        for seed, latency in client["latency_s"].items() if seed in backend
    ]
    sessions = max(1, client["succeeded"])
    m["server.self_ms_p50"] = median(front) if front else 0.0
    m["server.request_bytes_per_session"] = client["request_bytes"] / sessions
    m["server.response_bytes_per_session"] = client["response_bytes"] / sessions

    router = spans.get("shard.router_submit", "dur")
    held = spans.get("shard.router_submit", "arg")
    ok = held >= 0
    m["shard.submit_ms_p50"] = _pct(router * 1e3, 50)
    m["shard.submit_ms_p99"] = _pct(router * 1e3, 99)
    m["shard.pipe_ms_p50"] = _pct((router[ok] - held[ok]) * 1e3, 50)
    m["shard.pipe_bytes_per_session"] = _mean(spans.get("shard.pipe_bytes", "arg"))
    for name in ("requeued", "respawns", "worker_deaths"):
        m[f"shard.{name}"] = float(counters.get(name, 0))

    steps = spans.count("scheduler.step")
    rounds = spans.count("online.round")
    m["scheduler.steps"] = float(steps)
    m["scheduler.step_busy_ms"] = spans.busy_ms("scheduler.step")
    m["scheduler.step_self_ms"] = float(spans.get("scheduler.step", "self_").sum()) * 1e3
    m["scheduler.sessions_per_step"] = (
        float(spans.get("online.round", "arg").sum()) / steps if steps else 0.0
    )
    waits = spans.get("scheduler.queue_wait", "arg") * 1e3
    m["scheduler.queue_wait_ms_p50"] = _pct(waits, 50)
    m["scheduler.queue_wait_ms_p99"] = _pct(waits, 99)
    m["scheduler.rejected"] = float(spans.count("scheduler.rejected"))

    m["online.rounds"] = float(rounds)
    m["online.round_busy_ms"] = spans.busy_ms("online.round")
    m["online.round_self_ms"] = float(spans.get("online.round", "self_").sum()) * 1e3
    m["online.rows_per_round"] = _mean(spans.get("online.round", "arg"))
    m["online.syndrome_calls"] = float(spans.count("online.syndrome"))
    m["online.syndrome_busy_ms"] = spans.busy_ms("online.syndrome")
    m["online.roster_builds_per_round"] = (
        spans.count("online.roster_build") / rounds if rounds else 0.0
    )
    m["online.shot_init_busy_ms"] = spans.busy_ms("online.shot_init")

    m["engine_batch.decode_calls"] = float(spans.count("engine_batch.decode"))
    m["engine_batch.decode_busy_ms"] = spans.busy_ms("engine_batch.decode")
    m["engine_batch.lanes_per_decode"] = _mean(spans.get("engine_batch.decode", "arg"))
    scalar = ("run",) + SCALAR_ENGINE
    m["engine.scalar_calls"] = float(sum(spans.count(f"engine.{s}") for s in scalar))
    m["engine.scalar_busy_ms"] = sum(spans.busy_ms(f"engine.{s}") for s in scalar)
    m["engine.batch_lane_share"] = _mean(spans.get("online.shot_init", "arg"))

    for kernel in KERNELS:
        m[f"kernels.{kernel}.calls"] = float(spans.count(f"kernels.{kernel}"))
        m[f"kernels.{kernel}.busy_ms"] = spans.busy_ms(f"kernels.{kernel}")

    m["executor.chunks"] = float(spans.count("executor.chunk"))
    m["executor.chunk_busy_ms"] = spans.busy_ms("executor.chunk")
    m["noise.sample_busy_ms"] = spans.busy_ms("noise.sample_round_batch")

    selfs = spans.self_ms_by_layer()
    wall_ms = spans.wall * 1e3
    for layer in ("scheduler", "online", "engine", "kernels", "experiments"):
        m[f"{layer}.self_ms"] = selfs.get(layer, 0.0)
    m["kernels.share"] = selfs.get("kernels", 0.0) / wall_ms
    m["trace.self_time_coverage"] = sum(selfs.values()) / wall_ms
    return m


def coverage_report(spans: Spans, cpu_s: float, processes: int) -> dict:
    """Where the traced window's wall time went, largest share named.

    Shares are of ``processes`` x wall: each layer's self time, the
    serving processes' CPU time no span covers, and their idle time.
    """
    capacity = spans.wall * processes
    shares = {
        layer: ms / 1e3 / capacity for layer, ms in spans.self_ms_by_layer().items()
    }
    covered = sum(shares.values())
    unaccounted = {
        "untraced_cpu": max(0.0, cpu_s / capacity - covered),
        "idle": max(0.0, 1.0 - cpu_s / capacity),
    }
    return {
        "wall_s": spans.wall,
        "processes": processes,
        "layer_shares": {k: round(v, 4) for k, v in sorted(shares.items())},
        "unaccounted_shares": {k: round(v, 4) for k, v in unaccounted.items()},
        "largest_unaccounted": max(unaccounted, key=unaccounted.get),
    }
