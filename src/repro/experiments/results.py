"""JSON persistence for experiment outputs.

Long sweeps (Fig. 4(a) at publication shots runs for hours) should be
decoupled from report formatting; these helpers serialise the point
dataclasses losslessly so reported numbers can be regenerated from
stored runs::

    result = run_fig4a(shots=3000)
    save_points("fig4a.json", [p for pts in result.points.values() for p in pts])
    points = load_batch_points("fig4a.json")

Schema v2 adds a ``meta`` block to every file — code revision
(``git describe``, best effort), numpy version, and optionally the
noise-model key the run used — so a stored file is traceable to the
software that produced it.  v1 files (no ``meta``) still load; readers
get ``{}`` from :func:`load_meta` for them.

Schema v3 extends the ``meta`` block of *service-metrics* files with an
``obs`` sub-block describing the observability payload the snapshot
carries — the histogram bucketing scheme (so a reader can reconstruct
:class:`repro.obs.hist.LogHistogram` objects without guessing the
layout) and, when tracing was on, the tracer's sampling configuration.
v1/v2 files (no histograms, no trace) still load unchanged.

The streaming decode service's metrics snapshots
(:meth:`repro.service.metrics.ServiceMetrics.snapshot`) persist through
the same envelope via :func:`save_service_metrics` /
:func:`load_service_metrics`.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
from pathlib import Path

import numpy as np

from repro.experiments.montecarlo import BatchPoint, OnlinePoint

__all__ = [
    "load_batch_points",
    "load_meta",
    "load_online_points",
    "load_service_metrics",
    "save_points",
    "save_service_metrics",
]

_SCHEMA_VERSION = 3
_ACCEPTED_SCHEMAS = (1, 2, 3)


def _git_describe() -> str | None:
    """Best-effort code revision; ``None`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def _meta(noise: str | None) -> dict:
    """The v2 provenance block stamped into every file."""
    meta = {
        "git_describe": _git_describe(),
        "numpy": np.__version__,
    }
    if noise is not None:
        meta["noise"] = noise
    return meta


def _envelope(kind: str, noise: str | None, **body) -> dict:
    return {"schema": _SCHEMA_VERSION, "kind": kind, "meta": _meta(noise), **body}


def save_points(
    path: str | Path,
    points: list[BatchPoint] | list[OnlinePoint],
    noise: str | None = None,
) -> None:
    """Write a homogeneous list of experiment points to JSON.

    ``noise`` optionally records the run's noise-model key (e.g.
    ``model.key``) in the meta block.
    """
    if not points:
        payload_kind = "empty"
    elif isinstance(points[0], BatchPoint):
        payload_kind = "batch"
    elif isinstance(points[0], OnlinePoint):
        payload_kind = "online"
    else:
        raise TypeError(f"unsupported point type {type(points[0]).__name__}")
    payload = _envelope(
        payload_kind, noise, points=[dataclasses.asdict(p) for p in points]
    )
    Path(path).write_text(json.dumps(payload, indent=2))


def _load(path: str | Path, expected_kind: str) -> dict:
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") not in _ACCEPTED_SCHEMAS:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    if payload["kind"] not in (expected_kind, "empty"):
        raise ValueError(
            f"expected {expected_kind!r} points, file holds {payload['kind']!r}"
        )
    return payload


def load_meta(path: str | Path) -> dict:
    """The file's provenance block (``{}`` for v1 files)."""
    payload = json.loads(Path(path).read_text())
    if payload.get("schema") not in _ACCEPTED_SCHEMAS:
        raise ValueError(f"unsupported schema {payload.get('schema')!r}")
    return payload.get("meta", {})


def load_batch_points(path: str | Path) -> list[BatchPoint]:
    """Load :class:`BatchPoint` records written by :func:`save_points`."""
    return [BatchPoint(**record) for record in _load(path, "batch")["points"]]


def load_online_points(path: str | Path) -> list[OnlinePoint]:
    """Load :class:`OnlinePoint` records written by :func:`save_points`."""
    return [OnlinePoint(**record) for record in _load(path, "online")["points"]]


def save_service_metrics(
    path: str | Path, snapshot: dict, noise: str | None = None
) -> None:
    """Persist one decode-service metrics snapshot (see
    :meth:`repro.service.metrics.ServiceMetrics.snapshot`).

    The snapshot travels verbatim (histogram buckets and trace summary
    included); the v3 ``meta.obs`` block additionally records the
    bucketing scheme and trace sampling so readers can interpret those
    payloads without importing the producing code's defaults.
    """
    payload = _envelope("service_metrics", noise, metrics=dict(snapshot))
    hists = snapshot.get("hist") or {}
    obs: dict = {}
    if hists:
        sample = next(iter(hists.values()))
        obs["hist"] = {
            "fields": sorted(hists),
            "scheme": sample.get("scheme"),
            "buckets_per_decade": sample.get("buckets_per_decade"),
            "min_exp": sample.get("min_exp"),
            "max_exp": sample.get("max_exp"),
        }
    trace = snapshot.get("trace")
    if trace is not None:
        obs["trace"] = {
            "sample_every": trace.get("sample_every"),
            "capacity": trace.get("capacity"),
        }
    if obs:
        payload["meta"]["obs"] = obs
    Path(path).write_text(json.dumps(payload, indent=2))


def load_service_metrics(path: str | Path) -> dict:
    """Inverse of :func:`save_service_metrics`."""
    return _load(path, "service_metrics")["metrics"]
