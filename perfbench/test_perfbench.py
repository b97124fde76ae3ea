"""Self-test of the benchmark at tiny size.

Run with ``python3 -m pytest perfbench`` from the repository root (the
tier-1 suite collects ``tests/`` only).  Checks that every declared
metric is printed with its unit for each workload, that the correctness
gate trips on an altered result, that traced and untraced runs give
bit-identical results, and that the benchmark refuses a checkout without
the program's source.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import host

host.pin_blas()
host.require_source()

import gate  # noqa: E402  (after the source path is set)
import run  # noqa: E402
import spans  # noqa: E402
from loadgen import Phase, Server  # noqa: E402

BENCHMARK = json.loads((host.ROOT / "BENCHMARK.json").read_text())
RUN = [sys.executable, str(Path(run.__file__))]


def _run(workload: str, trace: int, cwd: Path = host.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        RUN + ["--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], float) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)


def test_workload_names_and_offered_rates_match_benchmark_json():
    whys = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert tuple(whys) == run.WORKLOADS
    for name, w in run.SERVE.items():
        assert f"{w.rate:g} sessions/s" in whys[name]


def test_gate_trips_on_altered_result():
    from repro.service.session import SessionSpec

    spec = SessionSpec(d=5, p=0.02, seed=11, n_rounds=5)
    result = gate.reference_payload(spec)
    assert result["matches"], "pick a spec whose decode has matches"
    assert gate.serve_mismatch(spec, result) is None
    for field, alter in (
        ("layer_cycles", lambda v: [v[0] + 1] + v[1:]),
        ("matches", lambda v: v[1:]),
        ("failed", lambda v: not v),
    ):
        assert gate.serve_mismatch(spec, {**result, field: alter(result[field])})

    from repro.experiments.montecarlo import run_online_point

    point = run_online_point(5, 0.03, 4, rng=3, jobs=1, chunk_size=4)
    args = (5, 0.03, 4, 3)
    assert gate.mc_mismatch(*args, point.failures, point.overflows) is None
    assert gate.mc_mismatch(*args, point.failures + 1, point.overflows)


def _decoded(server: Server, specs) -> list[dict]:
    phase = server.conn.drive(Phase("check", specs, [0.0] * len(specs)), 60.0)
    assert phase.failed == 0
    timing = ("session_id", "wait_s", "service_s")
    return [
        {k: v for k, v in phase.results[i].items() if k not in timing}
        for i in range(len(specs))
    ]


@pytest.mark.parametrize("shards,d,p,rounds", [(0, 9, 0.005, 9), (1, 7, 0.01, 21)])
def test_traced_and_untraced_servers_agree_bit_for_bit(tmp_path, shards, d, p, rounds):
    from repro.service.session import SessionSpec

    specs = [SessionSpec(d=d, p=p, seed=500 + i, n_rounds=rounds) for i in range(24)]
    with Server(shards) as plain:
        untraced = _decoded(plain, specs)
        plain.stop()
    with Server(shards, span_dir=tmp_path) as traced_server:
        traced = _decoded(traced_server, specs)
        traced_server.stop()
    assert traced == untraced
    names = {"server.npz"} | ({"worker"} if shards else set())
    assert {p.name.split("-")[0] for p in tmp_path.glob("*.npz")} == names


def test_traced_and_untraced_monte_carlo_agree_bit_for_bit():
    from repro.experiments.montecarlo import run_online_point

    def point():
        return run_online_point(7, 0.02, 8, rng=5, jobs=1, chunk_size=8, keep_layer_cycles=True)

    untraced = point()
    log = spans.SpanLog()
    installed = spans.install(log)
    try:
        traced = point()
    finally:
        installed.uninstall()
    assert traced == untraced
    recorded = len(log.name)
    assert recorded > 0
    assert point() == untraced
    assert len(log.name) == recorded, "uninstall left a wrapper in place"


def test_refuses_a_checkout_without_source(tmp_path):
    shutil.copy(host.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(host.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mc_threshold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
