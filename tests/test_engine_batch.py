"""Lane-for-lane bit-identity of the shot-major batch engine.

``QecoolEngineBatch`` simulates many scalar ``QecoolEngine`` machines at
once; its contract (see ``tests/README.md``) is that every lane's
observable stream — matches, per-layer cycles, total cycles, overflow
refusals, and the per-round wall clock under a finite decoder budget —
equals the scalar engine's exactly, whatever other lanes share the
slabs, however lanes are admitted, retired and reused, and wherever the
interval deadline happens to freeze a decode.  The scalar engine is the
oracle here; ``ReferenceEngine`` (the literal Algorithm 1 machine)
additionally pins the unconstrained cases from a third, independent
implementation.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.engine import IDLE, QecoolEngine
from repro.core.engine_batch import (
    LANE_PARKED,
    QecoolEngineBatch,
)
from repro.core.kernels import available_kernel_backends, get_kernel_backend
from repro.core.reference import ReferenceEngine
from repro.surface_code.lattice import PlanarLattice

LATTICES = {d: PlanarLattice(d) for d in (3, 5, 7)}

# The scalar oracle always runs the default backend; the batch engine
# under test sweeps every registered one, so a kernel-level divergence
# shows up as a lane/oracle mismatch rather than an agreeing pair.
BACKENDS = available_kernel_backends()


class ScalarStream:
    """Drives one scalar engine with the online-trial round protocol
    (push, decode under the interval deadline, drain on the last round)
    — the oracle each batch lane is compared against."""

    def __init__(self, lattice, thv, reg, budget):
        self.engine = QecoolEngine(lattice, thv=thv, reg_size=reg)
        self.budget = budget
        self.unconstrained = budget is None
        self.gen = None if self.unconstrained else self.engine.run(drain=False)
        self.wall = 0.0
        self.overflowed = False

    def step(self, k, row, final):
        engine = self.engine
        if not engine.push_layer(row):
            self.overflowed = True
            return
        if self.unconstrained:
            deadline = math.inf
        else:
            self.wall = max(self.wall, k * self.budget)
            deadline = (k + 1) * self.budget
        if final:
            engine.begin_drain()
            deadline = math.inf
        if self.unconstrained:
            engine.run_to_idle()
            return
        for chunk in self.gen:
            if chunk == IDLE:
                break
            self.wall += chunk
            if self.wall >= deadline:
                break


class BatchStream:
    """Drives one batch-engine lane with the identical round protocol,
    including the two empty-layer fast entries the online layer uses."""

    def __init__(self, batch, budget):
        self.batch = batch
        self.lane = batch.alloc_lane()
        self.budget = budget
        self.unconstrained = budget is None
        batch.set_wall_exact(
            self.lane, budget is None or float(budget).is_integer()
        )
        self.wall = 0.0
        self.parked = True
        self.overflowed = False

    def step(self, k, row, final):
        batch, lane = self.batch, self.lane
        lanes = np.asarray([lane])
        if (
            not row.any()
            and not final
            and self.parked
            and batch.is_parked(lane)
        ):
            if batch.is_empty_idle(lane):
                cost = batch.empty_layers_fast(lanes)[0]
                if not self.unconstrained:
                    self.wall = max(self.wall, k * self.budget) + cost
                return
            res = batch.try_push_empty(lanes)[0]
            if res == 1:
                if not self.unconstrained:
                    self.wall = max(self.wall, k * self.budget)
                return
            if res == 0:
                self.overflowed = True
                return
        if not batch.push_layers(lanes, row[None, :])[0]:
            self.overflowed = True
            return
        if final:
            batch.begin_drain(lanes)
        if self.unconstrained:
            wall = np.zeros(1)
            deadline = np.full(1, math.inf)
        else:
            self.wall = max(self.wall, k * self.budget)
            wall = np.asarray([self.wall])
            deadline = np.asarray(
                [math.inf if final else (k + 1) * self.budget]
            )
        status = batch.decode(lanes, wall, deadline)
        if not self.unconstrained:
            self.wall = float(wall[0])
        self.parked = status[0] == LANE_PARKED

    def release(self):
        self.batch.free_lane(self.lane)


def assert_lane_matches_scalar(batch_stream, scalar_stream, ctx=""):
    lane = batch_stream.lane
    batch = batch_stream.batch
    engine = scalar_stream.engine
    assert batch_stream.overflowed == scalar_stream.overflowed, ctx
    assert batch.matches_of(lane) == engine.matches, ctx
    assert batch.layer_cycles_of(lane) == engine.layer_cycles, ctx
    assert batch.cycles_of(lane) == engine.cycles, ctx


def run_pair(
    lattice, thv, reg, budget, streams, admit_rounds, batch=None,
    kernel_backend=None,
):
    """Run staggered shots through one batch engine and per-shot scalar
    oracles; compare after every round and at the end.

    Returns each shot's observables as the batch lane showed them:
    ``(overflowed, walls per round, matches, layer cycles, cycles)``.
    """
    if batch is None:
        batch = QecoolEngineBatch(
            lattice, thv=thv, reg_size=reg,
            capacity=max(1, len(streams) // 2),
            kernel_backend=kernel_backend,
        )
    pairs = [None] * len(streams)
    walls = [[] for _ in streams]
    observed = [None] * len(streams)
    n_rounds = max(
        admit + len(stream) for admit, stream in zip(admit_rounds, streams)
    )
    for k in range(n_rounds):
        for i, (admit, stream) in enumerate(zip(admit_rounds, streams)):
            if k < admit or k >= admit + len(stream):
                continue
            if pairs[i] is None:
                pairs[i] = (
                    BatchStream(batch, budget),
                    ScalarStream(lattice, thv, reg, budget),
                )
            bs, ss = pairs[i]
            if bs.overflowed:
                continue
            local_k = k - admit
            final = local_k == len(stream) - 1
            row = stream[local_k]
            bs.step(local_k, row, final)
            ss.step(local_k, row, final)
            walls[i].append(bs.wall)
            if not final and not bs.unconstrained and not bs.overflowed:
                # Wall clocks must agree at every interval boundary.
                # (Not after the final drain: there the scalar keeps
                # accumulating under an infinite deadline while the
                # batch engine stops charging — the one sanctioned,
                # outcome-invisible divergence.)
                assert bs.wall == ss.wall, f"shot {i} wall at round {k}"
            if bs.overflowed or ss.overflowed or final:
                assert_lane_matches_scalar(bs, ss, ctx=f"shot {i} round {k}")
                observed[i] = (
                    bs.overflowed, walls[i], list(batch.matches_of(bs.lane)),
                    list(batch.layer_cycles_of(bs.lane)),
                    batch.cycles_of(bs.lane),
                )
                bs.release()  # lane becomes reusable mid-batch
    for i, pair in enumerate(pairs):
        assert pair is not None, f"shot {i} never ran"
    return observed


def stream_strategy(draw, lattice, max_rounds=7):
    n_rounds = draw(st.integers(2, max_rounds))
    p = draw(st.sampled_from([0.0, 0.05, 0.2, 0.45]))
    seed = draw(st.integers(0, 2**20))
    rng = np.random.default_rng(seed)
    return (rng.random((n_rounds, lattice.n_ancillas)) < p).astype(np.uint8)


# Decoder clocks: unconstrained, integer cycle budgets per 1 us interval
# (2000 and 1; the lump-charged paths) and non-integer ones (2.5 and
# 333.3...; every charge takes the exact per-action walk).
FREQUENCIES = [None, 2.0e9, 1.0e6, 2.5e6, 1.0e9 / 3]


@st.composite
def workloads(draw):
    d = draw(st.sampled_from([3, 5, 7]))
    lattice = LATTICES[d]
    thv = draw(st.sampled_from([-1, 3]))
    reg = draw(st.sampled_from([None, 7]))
    freq = draw(st.sampled_from(FREQUENCIES))
    n_shots = draw(st.integers(1, 5))
    streams = [stream_strategy(draw, lattice) for _ in range(n_shots)]
    admits = [draw(st.integers(0, 4)) for _ in range(n_shots)]
    budget = None if freq is None else freq * 1.0e-6
    return lattice, thv, reg, budget, streams, admits


class TestLaneForLaneIdentity:
    @settings(max_examples=40, deadline=None)
    @given(workloads())
    def test_ragged_admission_matches_scalar(self, workload):
        """Arbitrary shapes, clocks, admission offsets, retirement order
        and lane reuse: every lane == its standalone scalar engine."""
        run_pair(*workload)

    @pytest.mark.parametrize("kernel_backend", BACKENDS)
    @settings(max_examples=10, deadline=None)
    @given(workloads())
    def test_ragged_admission_matches_scalar_all_backends(
        self, kernel_backend, workload
    ):
        """The ragged-admission sweep on every registered kernel
        backend (fewer examples per backend; the default backend keeps
        the full 40-example sweep above)."""
        run_pair(*workload, kernel_backend=kernel_backend)

    @pytest.mark.parametrize("kernel_backend", BACKENDS)
    def test_resumed_analytic_cursor_charges_current_overhead(
        self, kernel_backend, monkeypatch
    ):
        """A lane suspended inside its analytic budget growth resumes
        after layers were pushed, which changes the per-level sweep
        overhead; the resumed charges use the current occupancy, as the
        scalar generator does.  (Seeded case: a frozen overhead gave
        shot 0 a wall of 42 against the scalar's 47 at round 2.)"""
        kinds = _spy_resumes(monkeypatch)
        lattice = LATTICES[7]
        rng = np.random.default_rng(4)
        streams = [
            (rng.random((6, lattice.n_ancillas)) < 0.05).astype(np.uint8)
            for _ in range(3)
        ]
        run_pair(
            lattice, -1, None, 1.0, streams, [0, 1, 2],
            kernel_backend=kernel_backend,
        )
        assert kinds["analytic"]

    def test_lane_reuse_after_retirement_is_clean(self, d5):
        """Retire + readmit into the same lane: the reused lane must
        show no residue of its previous tenant."""
        rng = np.random.default_rng(7)
        batch = QecoolEngineBatch(d5, thv=3, reg_size=7, capacity=1)
        for wave in range(3):
            stream = (rng.random((6, d5.n_ancillas)) < 0.3).astype(np.uint8)
            bs = BatchStream(batch, 2000.0)
            ss = ScalarStream(d5, 3, 7, 2000.0)
            for k, row in enumerate(stream):
                final = k == len(stream) - 1
                bs.step(k, row, final)
                ss.step(k, row, final)
                if bs.overflowed or ss.overflowed:
                    break
            assert bs.lane == 0  # same physical lane every wave
            assert_lane_matches_scalar(bs, ss, ctx=f"wave {wave}")
            bs.release()

    @pytest.mark.parametrize("kernel_backend", BACKENDS)
    @pytest.mark.parametrize("d", [3, 5, 7])
    @pytest.mark.parametrize("thv,reg", [(-1, None), (3, 7), (-1, 7)])
    def test_dense_drain_matches_scalar_and_reference(
        self, d, thv, reg, kernel_backend
    ):
        """Unconstrained streams across the full shape grid, pinned by
        both the scalar engine and the literal ReferenceEngine — on
        every registered kernel backend."""
        _dense_drain_case(LATTICES[d], thv, reg, kernel_backend)

    @pytest.mark.parametrize("kernel_backend", BACKENDS)
    @pytest.mark.parametrize("d", [9, 13])
    @pytest.mark.parametrize("thv,reg", [(-1, None), (3, 7)])
    def test_dense_drain_table4_distances(self, d, thv, reg, kernel_backend):
        """The same pinning on the larger Table IV lattices (d = 13 is
        the threshold benchmark's), whose packed race keys use a wider
        radix than the d <= 7 grid above."""
        _dense_drain_case(PlanarLattice(d), thv, reg, kernel_backend)

    def test_lane_alloc_free_errors(self, d5):
        batch = QecoolEngineBatch(d5, capacity=2)
        lane = batch.alloc_lane()
        batch.free_lane(lane)
        with pytest.raises(ValueError):
            batch.free_lane(lane)

    def test_capacity_grows_on_demand(self, d5):
        batch = QecoolEngineBatch(d5, capacity=1)
        lanes = [batch.alloc_lane() for _ in range(5)]
        assert len(set(lanes)) == 5
        assert batch.capacity >= 5

    def test_shape_validation(self, d5):
        with pytest.raises(ValueError):
            QecoolEngineBatch(d5, thv=-2)
        with pytest.raises(ValueError):
            QecoolEngineBatch(d5, reg_size=0)
        with pytest.raises(ValueError):
            QecoolEngineBatch(d5, capacity=0)


def _spy_resumes(monkeypatch) -> Counter:
    """Count the cursor kinds ``_resume_lane`` continues from."""
    kinds: Counter = Counter()
    resume = QecoolEngineBatch._resume_lane

    def spy(self, lane, wf, df, status):
        kinds[self._cursors[lane][0]] += 1
        return resume(self, lane, wf, df, status)

    monkeypatch.setattr(QecoolEngineBatch, "_resume_lane", spy)
    return kinds


class TestControllerHandoffs:
    def test_c_controller_hands_off_to_the_exact_walk(self, monkeypatch):
        """The compiled Controller stops a lane wherever the lock-step
        loop would walk action by action — analytic growth that could
        cross the deadline or runs on a non-integer wall, and sweep
        levels likewise — and the engine finishes it from an
        ``analytic`` or ``sweep`` cursor.  Both handoffs occur on tight
        and non-integer clocks, and every lane stays bit-identical to
        the numpy backend's and to its scalar oracle."""
        assert get_kernel_backend("c").controller is not None
        lattice = LATTICES[7]
        rng = np.random.default_rng(11)
        kinds = _spy_resumes(monkeypatch)
        totals: Counter = Counter()
        for freq in (1.0e6, 7.0e6, 2.5e6, 1.0e9 / 3):
            for thv, reg in ((-1, None), (3, 7)):
                streams = [
                    (rng.random((6, lattice.n_ancillas)) < 0.08).astype(
                        np.uint8
                    )
                    for _ in range(4)
                ]
                args = (lattice, thv, reg, freq * 1.0e-6, streams, [0, 1, 1, 2])
                kinds.clear()
                got_c = run_pair(*args, kernel_backend="c")
                totals += kinds
                got_np = run_pair(*args, kernel_backend="numpy")
                assert got_c == got_np, (freq, thv, reg)
        assert totals["analytic"] and totals["sweep"], totals


def _dense_drain_case(lattice, thv, reg, kernel_backend):
    """Four unconstrained shots on one batch, each lane pinned by the
    literal ReferenceEngine: overflow verdicts, matches, per-layer and
    total cycles."""
    d = lattice.d
    rng = np.random.default_rng(100 * d + thv + (0 if reg is None else reg))
    n_shots, n_rounds = 4, 5
    streams = [
        (rng.random((n_rounds, lattice.n_ancillas)) < 0.15).astype(np.uint8)
        for _ in range(n_shots)
    ]
    batch = QecoolEngineBatch(
        lattice, thv=thv, reg_size=reg, capacity=n_shots,
        kernel_backend=kernel_backend,
    )
    lanes = []
    refs = []
    for stream in streams:
        bs = BatchStream(batch, None)
        ref = ReferenceEngine(lattice, thv=thv, reg_size=reg)
        ref_dead = False
        for k, row in enumerate(stream):
            final = k == len(stream) - 1
            bs.step(k, row, final)
            if not ref_dead:
                if not ref.push_layer(row):
                    ref_dead = True
                else:
                    if final:
                        ref.begin_drain()
                    ref.advance()
        lanes.append(bs)
        refs.append((ref, ref_dead))
    for i, (bs, (ref, ref_dead)) in enumerate(zip(lanes, refs)):
        assert bs.overflowed == ref_dead, f"shot {i}"
        assert batch.matches_of(bs.lane) == ref.matches, f"shot {i}"
        assert batch.layer_cycles_of(bs.lane) == ref.layer_cycles, f"shot {i}"
        assert batch.cycles_of(bs.lane) == ref.cycles, f"shot {i}"
