"""Correctness gate: served and Monte-Carlo outputs against per-shot references.

Runs outside the timed window.  A served online session must be
bit-identical to ``run_online_trial`` on the same seed (match stream,
``layer_cycles``, failed/overflow flags, rounds); a Monte-Carlo call's
failure and overflow counts must equal the sum over its shots of
``run_online_trial`` on each shot's own substream.
"""

from __future__ import annotations

from repro.core.online import OnlineConfig, run_online_trial
from repro.surface_code.lattice import PlanarLattice
from repro.util.rng import seed_root, substream


def _wire_matches(matches) -> list:
    return [[m.kind, list(m.a), None if m.b is None else list(m.b), m.side] for m in matches]


def reference_payload(spec) -> dict:
    """The wire fields a served ``spec`` must reproduce bit for bit."""
    reference = run_online_trial(
        PlanarLattice(spec.d), spec.p, spec.rounds, spec.online_config(), rng=spec.seed
    )
    return {
        "d": spec.d,
        "failed": reference.failed,
        "overflow": reference.overflow,
        "n_rounds": reference.n_rounds,
        "layer_cycles": list(reference.layer_cycles),
        "matches": _wire_matches(reference.matches),
    }


def serve_mismatch(spec, result: dict) -> str | None:
    """Why ``result`` differs from the reference decode of ``spec``, or None."""
    for field, value in reference_payload(spec).items():
        if result.get(field) != value:
            return f"seed {spec.seed}: {field} differs from run_online_trial"
    return None


def mc_mismatch(d: int, p: float, shots: int, seed: int, failures: int, overflows: int) -> str | None:
    """Why a ``run_online_point`` call's counts differ from the per-shot
    reference on the same seed, or None."""
    lattice = PlanarLattice(d)
    config = OnlineConfig()
    root = seed_root(seed)
    ref_failures = ref_overflows = 0
    for index in range(shots):
        outcome = run_online_trial(lattice, p, d, config, rng=substream(root, index))
        ref_failures += outcome.failed
        ref_overflows += outcome.overflow
    if (failures, overflows) != (ref_failures, ref_overflows):
        return (
            f"seed {seed}: failures/overflows {failures}/{overflows}, "
            f"per-shot reference {ref_failures}/{ref_overflows}"
        )
    return None
