"""The benchmark's load generator: server subprocesses and one connection.

One process drives each run over a single TCP connection (no more than
``nproc`` = 2 here).  :meth:`Connection.drive` is both loops: an open loop
sends every request at its due time and times it from that due time, so
a stalled generator or server shows up as lateness and latency instead
of as less load; a closed loop (every request due at once, like
``ServiceClient.decode_many``) pipelines a wave and waits for all of it.
"""

from __future__ import annotations

import gc
import json
import os
import random
import select
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

import host
from spans import clock

HERE = Path(__file__).resolve().parent


class Phase:
    """Per-request outcome of one driven batch of decode requests."""

    def __init__(self, name: str, specs: list, offsets: list[float]):
        n = len(specs)
        self.name = name
        self.specs = specs
        self.offsets = offsets  # due times, relative to the phase start
        self.due = [0.0] * n
        self.sent = [0.0] * n
        self.recv = [0.0] * n
        self.results: dict[int, dict] = {}
        self.errors: dict[int, str] = {}
        self.request_bytes = 0
        self.response_bytes = 0
        self.end = 0.0

    @property
    def attempted(self) -> int:
        return len(self.specs)

    @property
    def succeeded(self) -> int:
        return len(self.results)

    @property
    def failed(self) -> int:
        return self.attempted - self.succeeded

    def error_kinds(self) -> dict[str, int]:
        kinds: dict[str, int] = {}
        for kind in self.errors.values():
            kinds[kind] = kinds.get(kind, 0) + 1
        timeouts = self.attempted - len(self.results) - len(self.errors)
        if timeouts:
            kinds["timeout"] = timeouts
        return kinds

    def late_ms(self) -> list[float]:
        return [(s - d) * 1e3 for s, d in zip(self.sent, self.due) if s]

    def latency_from_due_ms(self, lo: int = 0, hi: int | None = None) -> list[float]:
        """Due-to-response latency of requests ``lo:hi``; a failed request
        counts as never answered (it waited until the phase gave up)."""
        return [
            ((self.recv[i] if i in self.results else self.end) - self.due[i]) * 1e3
            for i in range(lo, self.attempted if hi is None else hi)
        ]

    def summary(self) -> dict:
        return {
            "sent": sum(1 for s in self.sent if s),
            "succeeded": self.succeeded,
            "failed": self.failed,
            "errors": self.error_kinds(),
        }


class Connection:
    """A raw JSON-lines connection to the decode service."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self._next_id = 1

    def close(self) -> None:
        self.sock.close()

    def _lines(self, timeout: float) -> list[bytes]:
        if not select.select([self.sock], [], [], max(0.0, timeout))[0]:
            return []
        chunk = self.sock.recv(1 << 20)
        if not chunk:
            raise ConnectionError("server closed the connection")
        *lines, self._buf = (self._buf + chunk).split(b"\n")
        return lines

    def request(self, op: str, timeout: float = 60.0) -> dict:
        """One control request (ping, metrics, shutdown), waited for."""
        rid = self._next_id
        self._next_id += 1
        self.sock.sendall(json.dumps({"id": rid, "op": op}).encode() + b"\n")
        deadline = clock() + timeout
        while clock() < deadline:
            for line in self._lines(deadline - clock()):
                reply = json.loads(line)
                if reply.get("id") == rid:
                    if not reply.get("ok"):
                        raise RuntimeError(f"{op} failed: {reply}")
                    return reply
        raise TimeoutError(f"no reply to {op} within {timeout}s")

    def drive(self, phase: Phase, grace_s: float) -> Phase:
        """Send each request at its due time; collect every response.

        Requests still unanswered ``grace_s`` after the last send count
        as timed out.
        """
        first = self._next_id
        self._next_id += phase.attempted
        frames = [
            json.dumps(
                {"id": first + i, "op": "decode", "spec": spec.to_payload()},
                separators=(",", ":"),
            ).encode() + b"\n"
            for i, spec in enumerate(phase.specs)
        ]
        phase.request_bytes = sum(map(len, frames))
        # The client's own collector pauses would read as server latency.
        gc.disable()
        try:
            return self._drive(phase, first, frames, grace_s)
        finally:
            gc.enable()

    def _drive(self, phase: Phase, first: int, frames: list[bytes], grace_s: float) -> Phase:
        start = clock()
        phase.due = [start + offset for offset in phase.offsets]
        due, sent, recv = phase.due, phase.sent, phase.recv
        n = len(frames)
        i = 0
        pending = n
        give_up = None
        while pending:
            now = clock()
            while i < n and due[i] <= now:
                self.sock.sendall(frames[i])
                sent[i] = now = clock()
                i += 1
            if i < n:
                timeout = due[i] - clock()
            else:
                if give_up is None:
                    give_up = clock() + grace_s
                timeout = give_up - clock()
                if timeout <= 0:
                    break
            lines = self._lines(timeout)
            if not lines:
                continue
            t = clock()
            for line in lines:
                reply = json.loads(line)
                index = reply["id"] - first
                recv[index] = t
                phase.response_bytes += len(line) + 1
                if reply.get("ok"):
                    phase.results[index] = reply["result"]
                else:
                    phase.errors[index] = reply.get("error", "unknown")
                pending -= 1
        phase.end = clock()
        return phase


def poisson_offsets(rng: random.Random, rate: float, seconds: float) -> list[float]:
    """Arrival times of a Poisson process of ``rate`` over ``seconds``."""
    offsets = []
    t = rng.expovariate(rate)
    while t < seconds:
        offsets.append(t)
        t += rng.expovariate(rate)
    return offsets


class Server:
    """A decode-service subprocess on an ephemeral port.

    Untraced it is ``python -m repro.service.server``; with ``span_dir``
    it is :mod:`traced_server`.  The constructor returns once the first
    ``ping`` is answered; ``started`` is when the process was spawned.
    """

    def __init__(self, shards: int, span_dir: Path | None = None):
        if span_dir is None:
            cmd = [sys.executable, "-m", "repro.service.server"]
        else:
            cmd = [sys.executable, str(HERE / "traced_server.py"), "--span-dir", str(span_dir)]
        cmd += ["--port", "0"]
        if shards:
            cmd += ["--shards", str(shards)]
        self.started = clock()
        self.proc = subprocess.Popen(
            cmd, env=host.child_env(), cwd=host.ROOT, stdout=subprocess.PIPE, text=True
        )
        self.conn = None
        try:
            line = self.proc.stdout.readline()
            if "listening on" not in line:
                raise RuntimeError(f"server did not start: {line!r}")
            port = int(line.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
            self.conn = Connection(port)
            self.conn.request("ping")
        except BaseException:
            self.kill()
            raise

    @property
    def pids(self) -> list[int]:
        return host.process_tree(self.proc.pid)

    def stop(self) -> None:
        """Ask the server to drain and exit, and wait until it has."""
        self.conn.request("shutdown")
        self.conn.close()
        self.proc.communicate(timeout=120)
        if self.proc.returncode != 0:
            raise RuntimeError(f"server exited with {self.proc.returncode}")

    def kill(self) -> None:
        """Kill the server and its shard workers, and wait for them."""
        if self.conn is not None:
            self.conn.close()
        pids = self.pids if self.proc.poll() is None else []
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc.communicate()
        deadline = clock() + 10.0
        for pid in pids[1:]:  # reparented workers: wait until they are gone
            while clock() < deadline and host.alive(pid):
                time.sleep(0.01)

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.kill()
