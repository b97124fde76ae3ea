"""Pluggable kernel backends for the engine hot loops.

The QECOOL engines dispatch their numeric hot kernels — the packed
winner races, cache-validity scans, the survey's stale-bound
refinement, the commit-level conflict scan, and the idle-layer charge
helpers — through a :class:`KernelBackend` selected by name at engine
construction.  A backend may also supply the batch engine's whole
Controller loop (:attr:`KernelBackend.controller`); without one the
engine runs its lock-step numpy phases, the reference Controller.  The
registry mirrors the noise-model registry (:mod:`repro.surface_code.noise`):
string-keyed factories, duplicate registration rejected, unknown names
listed in the error.

Built-in backends:

``c`` (default)
    The Controller loop, the scalar broadcast race and the idle-layer
    helpers, compiled from ``ckernels.c`` by the system C compiler on
    first use and cached per host (:mod:`.c_backend`); the lock-step
    kernels, which the compiled Controller replaces, are the numpy
    ones.
    When the build or load fails the factory warns once per process
    and returns the numpy backend (sessions decode bit-identically
    either way — backends never change observables).

``numpy``
    The vectorized implementations the engines shipped with: the
    reference semantics every backend is pinned to, and the fallback.
    Always available.

The bit-identity contract (tests/README.md) binds every backend: on
the same input stream, matches (objects and order), per-layer cycles,
overflow refusals and deadline suspension points are identical across
backends.  Winner-slab *contents* are a performance detail and may
differ (e.g. which stale survey entries get re-raced).
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "CommitScan",
    "ControllerRun",
    "ControllerSlabs",
    "Geometry",
    "KernelBackend",
    "available_kernel_backends",
    "default_kernel_backend",
    "get_kernel_backend",
    "register_kernel_backend",
    "resolve_kernel_backend",
    "set_default_kernel_backend",
    "warm_up",
]

#: Environment variable naming the process-default backend.  Read once
#: at import so worker processes spawned by the experiment runner's
#: ``--jobs`` executor inherit the CLI's ``--kernel-backend`` choice.
KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"


@dataclass(frozen=True)
class Geometry:
    """Per-lattice race-geometry tables handed to every kernel call.

    Built once per lattice by the engines (the tables themselves are
    lru-cached there); read-only.  ``bpacked_t`` is the boundary-key
    tuple for scalar lookups, ``bpacked`` the same keys as an int64
    vector for array passes.
    """

    pair_base: np.ndarray
    depth_lut: np.ndarray
    bpacked: np.ndarray
    bpacked_t: tuple
    radix: int
    hops_div: int
    rows: int
    cols: int


class CommitScan(NamedTuple):
    """Result of one commit-level conflict scan (see
    :meth:`KernelBackend.commit_scan`).  All observable mutations are
    returned as records for the engine to apply; the kernel itself
    writes only the winner slab (cache state, never observable).
    """

    rec_pos: np.ndarray    # position in `cur` of each match record
    rec_u: np.ndarray      # sink unit (flat index)
    rec_t: np.ndarray      # sink absolute depth
    rec_u2: np.ndarray     # source unit, -1 for boundary matches
    rec_t2: np.ndarray     # source absolute depth (boundary: unused)
    rec_port: np.ndarray   # boundary port code (pairs: unused)
    g_pos: np.ndarray      # one entry per scanned lane: position in `cur`
    g_total: np.ndarray    # ... total cycles charged at this level
    g_l0: np.ndarray       # ... layer-0 events consumed
    g_match: np.ndarray    # ... any match committed (bool)
    fc_pos: np.ndarray     # row-occupancy decrements: position in `cur`
    fc_row: np.ndarray     # ... emptied row index
    clear_pos: np.ndarray  # Reg bit clears: position in `cur`
    clear_unit: np.ndarray
    clear_bits: np.ndarray  # uint64 bit masks to clear


class ControllerSlabs(NamedTuple):
    """The batch engine state :meth:`KernelBackend.controller` advances:
    full-capacity slabs indexed by lane (``QecoolEngineBatch`` layout)."""

    masks: np.ndarray               # (S, N) uint64 Regs
    m: np.ndarray                   # (S,) int64 layers stored
    l0: np.ndarray                  # (S,) int64 layer-0 events
    popped: np.ndarray              # (S,) int64 layers shifted out
    cycles: np.ndarray              # (S,) int64 busy clock
    cycles_at_last_pop: np.ndarray  # (S,) int64
    row_counts: np.ndarray          # (S, rows) int64 live Units per row
    budget: np.ndarray              # (S,) int64 Controller hop budget
    stall: np.ndarray               # (S,) int64 no-progress iterations
    parked: np.ndarray              # (S,) bool
    win: np.ndarray                 # (S, N, L) int64 winner slab
    win_dirty: np.ndarray           # (S,) bool
    drain: np.ndarray               # (S,) bool (read only)
    wall_exact: np.ndarray          # (S,) bool (read only)


class ControllerRun(NamedTuple):
    """Records of one :meth:`KernelBackend.controller` call."""

    matches: np.ndarray  # (6, k): lane, unit, depth, unit2 (-1 = boundary),
    #                      depth2, port; per-lane commit order
    pops: np.ndarray     # (2, k): lane, layer-cycle delta; per-lane order
    handoffs: np.ndarray  # (k, 7) int64 rows, one per lane stopped short
    #   of settling: lane, kind, then the kind's fields —
    #   0 (suspended on a pop's charge): none;
    #   1 (analytic budget growth needs the exact walk): cl_next, target,
    #     n_sinks, b_max, progressed;
    #   2 (a sweep level needs the exact walk): budget, b_max, b,
    #     progressed.  Unused fields are unspecified.


class KernelBackend:
    """One set of engine hot-kernel implementations.

    Every method is a pure function of the slab state it is handed
    (plus the winner slab, which backends may mutate freely — cache
    contents are never observable).  See the numpy backend for the
    reference semantics; all backends must be bit-identical on the
    observables.
    """

    #: Registry name (set per subclass).
    name: str = "?"
    #: True when the backend runs machine-compiled kernels.
    compiled: bool = False

    #: Optional whole-Controller kernel, ``controller(slabs, thv,
    #: nlimit, stall_limit, lanes, wall, deadline, status, geo) ->
    #: ControllerRun`` (see ``CKernelBackend.controller``).  ``None``
    #: makes the batch engine run its lock-step numpy phases, the
    #: reference Controller.
    controller = None

    def race(self, masks, s, i, b, geo: Geometry) -> np.ndarray:
        """Packed race winners for ``(lane, sink, base)`` triples."""
        raise NotImplementedError

    def valid_entries(self, entries, masks, s, i, b, geo: Geometry) -> np.ndarray:
        """Which cached winners still race to a live event bit."""
        raise NotImplementedError

    def survey_need(
        self, masks, win, win_dirty, s, i, b, pos, n_top, geo: Geometry
    ) -> np.ndarray:
        """Exact per-lane minimum winner hops over the flattened sink
        triples, racing missing entries (marking ``win_dirty``) and
        refining stale lower bounds only while they could still lower
        the minimum.  Mutates the winner slab."""
        raise NotImplementedError

    def commit_scan(
        self, masks, win, row_counts, popped, cur, b, rel, units,
        entries, hops, matchable, budget, rowcost, geo: Geometry,
    ) -> CommitScan:
        """The commit-level conflict scan: resolve one base-depth
        sub-sweep's matchable hits per lane (consumed-hit skips,
        post-commit re-races, late row clears), returning all
        observable mutations as records."""
        raise NotImplementedError

    def winners_bulk(self, masks, live, sinks, bases, geo: Geometry) -> np.ndarray:
        """The scalar engine's broadcast winner race: packed winners
        for many ``(sink, base)`` pairs against one Reg row."""
        raise NotImplementedError

    def exposed_any(self, masks, sel, exposed) -> np.ndarray:
        """Per selected lane: does any Reg hold an event at the lane's
        exposed depth (the ``try_push_empty`` decodability probe)."""
        raise NotImplementedError

    def charge_empty(self, cycles, popped, cycles_at_last_pop, lanes, cost):
        """Charge one absorbed empty layer per lane (mutates the three
        accounting slabs); returns the per-lane layer-cycle deltas."""
        raise NotImplementedError


_KERNEL_REGISTRY: dict[str, Callable[[], KernelBackend]] = {}
_instances: dict[str, KernelBackend] = {}
_warned_fallback: set[str] = set()


def register_kernel_backend(
    name: str, factory: Callable[[], KernelBackend]
) -> None:
    """Register a backend factory under ``name``.

    Raises ``ValueError`` on duplicate names — same contract as
    :func:`repro.surface_code.noise.register_noise`.
    """
    if name in _KERNEL_REGISTRY:
        raise ValueError(f"kernel backend {name!r} is already registered")
    _KERNEL_REGISTRY[name] = factory


def available_kernel_backends() -> tuple[str, ...]:
    """Registered backend names, sorted."""
    return tuple(sorted(_KERNEL_REGISTRY))


def get_kernel_backend(name: str) -> KernelBackend:
    """Resolve a backend by name (instances are shared per process).

    Unknown names raise ``ValueError`` listing the registered
    backends.  A registered backend that cannot be built here may
    return a substitute (the ``c`` factory falls back to numpy with a
    one-time warning) — the returned object's ``name`` tells the truth.
    """
    try:
        factory = _KERNEL_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown kernel backend {name!r}; available:"
            f" {list(available_kernel_backends())}"
        ) from None
    backend = _instances.get(name)
    if backend is None:
        backend = factory()
        _instances[name] = backend
    return backend


_default_name: str | None = None


def default_kernel_backend() -> str:
    """The process-default backend name (``c`` unless overridden by
    :func:`set_default_kernel_backend` or ``REPRO_KERNEL_BACKEND``)."""
    if _default_name is not None:
        return _default_name
    return os.environ.get(KERNEL_BACKEND_ENV) or "c"


def set_default_kernel_backend(name: str) -> None:
    """Set the process-default backend (and export it to
    ``REPRO_KERNEL_BACKEND`` so forked/spawned worker processes
    inherit the choice).  The name must be registered."""
    get_kernel_backend(name)  # validate now, not at first engine
    global _default_name
    _default_name = name
    os.environ[KERNEL_BACKEND_ENV] = name


def resolve_kernel_backend(
    spec: str | KernelBackend | None,
) -> KernelBackend:
    """The engines' constructor hook: ``None`` means the process
    default; a string resolves through the registry; a backend
    instance passes through."""
    if spec is None:
        return get_kernel_backend(default_kernel_backend())
    if isinstance(spec, KernelBackend):
        return spec
    return get_kernel_backend(spec)


def _make_numpy() -> KernelBackend:
    from repro.core.kernels.numpy_backend import NumpyKernelBackend

    return NumpyKernelBackend()


def _make_c() -> KernelBackend:
    from repro.core.kernels.c_backend import BuildError, CKernelBackend

    try:
        return CKernelBackend()
    except BuildError as exc:
        # Once per process, not per engine: engine pools construct
        # engines continuously and the scheduler must not spam logs.
        # UserWarning (not RuntimeWarning): services run with
        # `-W error::RuntimeWarning` and a compiler-less host serving
        # the default backend is a degradation, not an error.
        if "c" not in _warned_fallback:
            _warned_fallback.add("c")
            warnings.warn(
                f"kernel backend 'c' is unavailable ({exc}); falling back"
                " to the numpy backend (results are bit-identical, only"
                " slower)",
                UserWarning,
                stacklevel=3,
            )
        return get_kernel_backend("numpy")


register_kernel_backend("numpy", _make_numpy)
register_kernel_backend("c", _make_c)


def warm_up(name: str) -> KernelBackend:
    """Exercise every kernel the engines dispatch on ``name`` with a
    tiny decode.

    For the ``c`` backend this builds (or loads the cached) library
    and runs the compiled Controller and the scalar and idle-layer
    kernels once, so a broken build shows up before anything is
    timed.  Returns the resolved backend.
    """
    backend = get_kernel_backend(name)
    from repro.core.engine import QecoolEngine
    from repro.core.engine_batch import QecoolEngineBatch
    from repro.surface_code.lattice import PlanarLattice

    lattice = PlanarLattice(3)
    n = lattice.n_ancillas
    layers = np.zeros((4, n), dtype=np.uint8)
    # A pair, a lone defect (boundary match) and an empty tail: drives
    # the race/survey/commit/timeout paths of both engines.
    layers[0, 0] = layers[0, 1] = 1
    layers[1, n - 1] = 1
    batch = QecoolEngineBatch(
        lattice, thv=-1, reg_size=7, capacity=2, kernel_backend=backend
    )
    lanes = np.asarray([batch.alloc_lane(), batch.alloc_lane()])
    for row in layers:
        batch.push_layers(lanes, np.broadcast_to(row, (2, n)))
    batch.begin_drain(lanes)
    batch.run_to_idle(lanes)
    scalar = QecoolEngine(
        lattice, thv=-1, reg_size=7, kernel_backend=backend
    )
    for row in layers:
        scalar.push_layer(row)
    scalar.run_to_idle()
    # The scalar broadcast race only dispatches above its bulk cutoff;
    # drive it directly so every kernel runs whatever the workload.
    masks1 = np.zeros(n, dtype=np.uint64)
    masks1[0] = 3
    masks1[1] = 1
    backend.winners_bulk(
        masks1,
        np.asarray([0, 1], dtype=np.int64),
        np.asarray([0, 1], dtype=np.int64),
        np.zeros(2, dtype=np.int64),
        scalar._geo,
    )
    # Idle-layer fast paths (service admission kernels): thv=0 makes
    # the empty push probe the exposed-depth scan.
    idle_batch = QecoolEngineBatch(
        lattice, thv=0, reg_size=7, capacity=1, kernel_backend=backend
    )
    idle = np.asarray([idle_batch.alloc_lane()])
    idle_batch.empty_layers_fast(idle)
    idle_batch.try_push_empty(idle)
    return backend
