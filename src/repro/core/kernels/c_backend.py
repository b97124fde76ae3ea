"""The ``c`` kernel backend: the engine hot kernels compiled from C.

``ckernels.c`` (next to this module) holds the scalar engine's
broadcast race (``winners_bulk``), the two idle-layer helpers
(``exposed_any``, ``charge_empty``) and the batch engine's whole
Controller loop (:meth:`CKernelBackend.controller`).  The lock-step
kernels (``race``, ``valid_entries``, ``survey_need``,
``commit_scan``) run only in the numpy reference Controller, so this
backend inherits them from the numpy backend.  The first resolution of the backend on a host builds two files into
``$XDG_CACHE_HOME/repro-qecool/`` (else ``~/.cache/repro-qecool/``),
both named by a hash of the C source, its declarations, the compile
flags, the machine and the cffi version:

- ``ckernels-<hash>.so``, compiled by the system C compiler
  (``cc -O2 -shared -fPIC``, run as a subprocess);
- ``ckernels-<hash>.py``, cffi's out-of-line ABI module for ``CDEF``,
  so later processes skip parsing C declarations (pycparser costs
  ~40 ms per process, paid on every server and worker start).

Every later process — ``--jobs`` workers and shard workers included —
only loads them.  Each file is written to a temporary name and moved
into place with :func:`os.replace`, the library last, so concurrent
first builds cannot race: the last rename wins with identical bytes.

It is loaded with cffi's ABI mode (``ffi.dlopen``), and arrays cross
as typed ``ffi.from_buffer`` views — no copies.  Before a pointer is
taken, read-only inputs are converted to C-contiguous int64/uint64
(a no-op for the engines' arrays), slabs the kernels write through
must already be exact (else ``TypeError``), and parallel arrays must
agree in length and with the lattice (else ``ValueError``).
:func:`load` raises :class:`BuildError` when cffi, the compiler or the
load is unavailable; the registry turns that into a one-time warning
and the numpy backend.
"""

from __future__ import annotations

import hashlib
import io
import os
import platform
import subprocess
import tempfile
from pathlib import Path

import numpy as np

from repro.core.kernels import ControllerRun, ControllerSlabs, Geometry
from repro.core.kernels.numpy_backend import NumpyKernelBackend

__all__ = ["BuildError", "CKernelBackend", "library_path", "load"]

SOURCE = Path(__file__).with_name("ckernels.c")
COMPILER = "cc"
FLAGS = ("-O2", "-shared", "-fPIC")

# Must match the definitions in ckernels.c.
CDEF = """
typedef struct {
    const int64_t *pair_base;
    const int64_t *depth_lut;
    const int64_t *bpacked;
    int64_t n;
    int64_t radix;
    int64_t hops_div;
    int64_t rows;
    int64_t cols;
} geometry;
void winners_bulk(const geometry *, const uint64_t *, const int64_t *,
                  const int64_t *, int64_t, int64_t *);
void exposed_any(const uint64_t *, int64_t, const int64_t *,
                 const int64_t *, int64_t, uint8_t *);
void charge_empty(int64_t *, int64_t *, int64_t *, const int64_t *,
                  int64_t, int64_t, int64_t *);
int controller(const geometry *, int64_t, int64_t, int64_t, uint64_t *,
               int64_t *, int64_t *, int64_t *, int64_t *, int64_t *,
               int64_t *, int64_t *, int64_t *, uint8_t *, int64_t *,
               int64_t, uint8_t *, const uint8_t *, const uint8_t *,
               double *, const double *, const int64_t *, int64_t,
               int8_t *, int64_t *, int64_t, int64_t *, int64_t,
               int64_t *, int64_t *);
"""

# Handoff record width (HO_FIELDS) and error codes (CTL_*) of
# ``controller``.
_HO_FIELDS = 7
_CTL_ERRORS = {
    -1: "drain stalled with no defects but layers left",
    -2: "QECOOL engine made no progress over a full budget cycle —"
    " matching policy bug",
    -3: "controller record buffer overflow",
}


class BuildError(RuntimeError):
    """The C backend cannot be built or loaded on this host."""


def library_path() -> Path:
    """The cached library for this source, these declarations and flags,
    this machine and this cffi; its ffi module sits next to it as
    ``.py``."""
    import cffi

    key = hashlib.sha256()
    for part in (
        SOURCE.read_bytes(),
        CDEF.encode(),
        " ".join((COMPILER, *FLAGS)).encode(),
        f"{platform.system()}-{platform.machine()}".encode(),
        cffi.__version__.encode(),
    ):
        key.update(part)
    root = os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache"
    return Path(root) / "repro-qecool" / f"ckernels-{key.hexdigest()[:16]}.so"


def _write(target: Path, produce) -> None:
    """Create ``target`` atomically: ``produce(tmp)`` writes a temporary
    file in the same directory, which is then renamed into place."""
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=target.name + ".", suffix=".tmp", dir=target.parent
    )
    os.close(fd)
    try:
        produce(tmp)
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _compile(tmp: str) -> None:
    proc = subprocess.run(
        [COMPILER, *FLAGS, "-o", tmp, str(SOURCE)],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise BuildError(
            f"{COMPILER} exited {proc.returncode}: {proc.stderr.strip()}"
        )


def _emit_ffi_module(tmp: str) -> None:
    import cffi
    from cffi import recompiler

    ffi = cffi.FFI()
    ffi.cdef(CDEF)
    out = io.StringIO()
    recompiler.make_py_source(ffi, "repro_ckernels_ffi", out)
    Path(tmp).write_text(out.getvalue())


def load():
    """``(ffi, lib)`` for the compiled kernels, building them on a cache
    miss.  Raises :class:`BuildError` when that is impossible here."""
    try:
        import cffi  # noqa: F401
    except ImportError as exc:
        raise BuildError(f"cffi is not importable ({exc})") from None
    lib_path = library_path()
    ffi_path = lib_path.with_suffix(".py")
    try:
        if not (lib_path.exists() and ffi_path.exists()):
            _write(ffi_path, _emit_ffi_module)
            _write(lib_path, _compile)
        namespace: dict = {}
        exec(compile(ffi_path.read_bytes(), str(ffi_path), "exec"), namespace)
        ffi = namespace["ffi"]
        return ffi, ffi.dlopen(str(lib_path))
    except OSError as exc:  # no compiler, unwritable cache, bad library
        raise BuildError(str(exc)) from None


def _check(arr: np.ndarray, dtype) -> np.ndarray:
    """A slab the kernel writes through: it must already be exact."""
    if arr.dtype != dtype or not arr.flags.c_contiguous:
        raise TypeError(
            f"kernel slab must be C-contiguous {np.dtype(dtype)}, got"
            f" {arr.dtype} (contiguous={arr.flags.c_contiguous})"
        )
    return arr


_i64 = np.int64
_u64 = np.uint64


class CKernelBackend(NumpyKernelBackend):
    """The engine kernels as compiled C (``ckernels.c``), with the
    numpy lock-step kernels the compiled Controller replaces."""

    name = "c"
    compiled = True

    # The inherited lock-step kernels, named in this class's own body so
    # the class lists every kernel (perfbench's tracer patches each one
    # on the active backend's class).
    race = NumpyKernelBackend.race
    valid_entries = NumpyKernelBackend.valid_entries
    survey_need = NumpyKernelBackend.survey_need
    commit_scan = NumpyKernelBackend.commit_scan

    def __init__(self) -> None:
        self._ffi, self._lib = load()
        # Array types resolved once: a string cdecl costs a parse
        # lookup on every call, and the kernels are called per level.
        self._ctypes = {
            np.dtype(_i64): self._ffi.typeof("int64_t[]"),
            np.dtype(_u64): self._ffi.typeof("uint64_t[]"),
            np.dtype(bool): self._ffi.typeof("uint8_t[]"),
            np.dtype(np.int8): self._ffi.typeof("int8_t[]"),
            np.dtype(np.float64): self._ffi.typeof("double[]"),
        }
        # Geometry structs per Geometry object, holding the buffers
        # they point into; Geometry objects are lru-cached per lattice
        # by the engines, so the set stays small.
        self._geos: dict[int, tuple] = {}

    def _buf(self, arr: np.ndarray):
        """A typed view of an array already in kernel layout."""
        return self._ffi.from_buffer(self._ctypes[arr.dtype], arr)

    def _in(self, arr, m=None, dtype=_i64):
        """A read-only input, converted (copying only when needed); with
        ``m``, it must hold exactly ``m`` elements."""
        arr = np.ascontiguousarray(arr, dtype)
        if m is not None and len(arr) != m:
            raise ValueError(f"kernel input has {len(arr)} entries, expected {m}")
        return self._ffi.from_buffer(self._ctypes[arr.dtype], arr)

    def _masks(self, masks, geo: Geometry):
        """The Reg slab (or one row of it), checked against the lattice."""
        if masks.shape[-1] != len(geo.bpacked):
            raise ValueError(
                f"masks have {masks.shape[-1]} units, lattice has"
                f" {len(geo.bpacked)}"
            )
        return self._in(masks, dtype=_u64)

    def _geo(self, geo: Geometry):
        """The ``geometry`` struct for ``geo`` (built once; the entry
        keeps ``geo`` alive, so its id cannot be reused)."""
        entry = self._geos.get(id(geo))
        if entry is None:
            bufs = [
                self._in(t) for t in (geo.pair_base, geo.depth_lut, geo.bpacked)
            ]
            struct = self._ffi.new(
                "geometry *",
                {
                    "pair_base": bufs[0], "depth_lut": bufs[1],
                    "bpacked": bufs[2], "n": len(geo.bpacked),
                    "radix": geo.radix, "hops_div": geo.hops_div,
                    "rows": geo.rows, "cols": geo.cols,
                },
            )
            entry = (geo, struct, bufs)
            self._geos[id(geo)] = entry
        return entry[1]

    def winners_bulk(self, masks, live, sinks, bases, geo: Geometry) -> np.ndarray:
        # The C race skips empty Units as it scans, so ``live`` (the
        # numpy backend's gather list) is not needed.
        m = len(sinks)
        out = np.empty(m, _i64)
        self._lib.winners_bulk(
            self._geo(geo), self._masks(masks, geo), self._in(sinks),
            self._in(bases, m), m, self._buf(out),
        )
        return out

    def exposed_any(self, masks, sel, exposed) -> np.ndarray:
        m = len(sel)
        out = np.empty(m, bool)
        self._lib.exposed_any(
            self._in(masks, dtype=_u64), masks.shape[1], self._in(sel),
            self._in(exposed, m), m, self._buf(out),
        )
        return out

    def charge_empty(self, cycles, popped, cycles_at_last_pop, lanes, cost):
        m = len(lanes)
        deltas = np.empty(m, _i64)
        self._lib.charge_empty(
            self._buf(_check(cycles, _i64)),
            self._buf(_check(popped, _i64)),
            self._buf(_check(cycles_at_last_pop, _i64)),
            self._in(lanes), m, int(cost), self._buf(deltas),
        )
        return deltas

    def controller(
        self, slabs: ControllerSlabs, thv, nlimit, stall_limit, lanes,
        wall, deadline, status, geo: Geometry,
    ) -> ControllerRun:
        """Run the batch engine's Controller loop for ``lanes`` (at a
        clean Controller top) in one call, lane by lane, until each
        parks, retires, suspends or needs the engine's exact walk.

        Writes every slab of ``slabs`` except ``drain`` and
        ``wall_exact`` in place, plus ``wall`` and ``status``
        (full-capacity, indexed by lane; ``deadline`` likewise).
        Lanes that stop short of settling come back as handoff rows
        (layout in :class:`ControllerRun`): suspended on a pop's charge,
        or (status left at ``-1``) needing the exact walk.  Raises
        ``RuntimeError`` on a drain stall or a no-progress stall, as
        the lock-step loop does.
        """
        check = _check
        lanes = np.ascontiguousarray(lanes, _i64)
        n_lanes = len(lanes)
        # A match consumes at least one event bit, a pop one layer.
        match_cap = max(1, int(np.bitwise_count(slabs.masks[lanes]).sum()))
        pop_cap = max(1, int(slabs.m[lanes].sum()))
        match_rec = np.empty((6, match_cap), _i64)
        pop_rec = np.empty((2, pop_cap), _i64)
        handoff = np.empty((max(1, n_lanes), _HO_FIELDS), _i64)
        counts = np.empty(3, _i64)
        buf = self._buf
        rc = self._lib.controller(
            self._geo(geo), int(thv), int(nlimit), int(stall_limit),
            buf(check(slabs.masks, _u64)), buf(check(slabs.m, _i64)),
            buf(check(slabs.l0, _i64)), buf(check(slabs.popped, _i64)),
            buf(check(slabs.cycles, _i64)),
            buf(check(slabs.cycles_at_last_pop, _i64)),
            buf(check(slabs.row_counts, _i64)),
            buf(check(slabs.budget, _i64)), buf(check(slabs.stall, _i64)),
            buf(check(slabs.parked, bool)), buf(check(slabs.win, _i64)),
            slabs.win.shape[2], buf(check(slabs.win_dirty, bool)),
            buf(check(slabs.drain, bool)),
            buf(check(slabs.wall_exact, bool)),
            buf(check(wall, np.float64)), buf(check(deadline, np.float64)),
            buf(lanes), n_lanes, buf(check(status, np.int8)),
            buf(match_rec), match_cap, buf(pop_rec), pop_cap,
            buf(handoff), buf(counts),
        )
        if rc != 0:
            raise RuntimeError(_CTL_ERRORS[rc])
        n_match, n_pop, n_ho = counts.tolist()
        return ControllerRun(
            match_rec[:, :n_match], pop_rec[:, :n_pop], handoff[:n_ho]
        )
