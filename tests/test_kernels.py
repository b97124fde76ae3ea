"""The engine-kernel backend registry and its cross-backend contract.

Registry mechanics (duplicate/unknown names, default resolution), the
``c`` backend's build cache and its numpy fallback, plus direct
kernel-level equivalence checks between the numpy and ``c`` backends
on reachable slab states — a faster, more targeted complement to the
full machine-level bit-identity suites (``test_engine_equivalence.py``,
``test_engine_batch.py``), which also sweep every registered backend.
"""

from __future__ import annotations

import copy
import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro.core.kernels as kernels
from repro.core.kernels import (
    available_kernel_backends,
    default_kernel_backend,
    get_kernel_backend,
    register_kernel_backend,
    resolve_kernel_backend,
    warm_up,
)
from repro.core.kernels import c_backend
from repro.core.kernels.numpy_backend import NumpyKernelBackend
from repro.service.scheduler import MicroBatchScheduler, SchedulerConfig
from repro.service.session import SessionSpec

SRC = Path(kernels.__file__).resolve().parents[3]


class TestRegistry:
    def test_builtin_backends_registered(self):
        assert set(available_kernel_backends()) == {"numpy", "c"}

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_kernel_backend("no-such-backend")
        with pytest.raises(ValueError, match="numpy"):
            get_kernel_backend("no-such-backend")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_kernel_backend("numpy", lambda: None)

    def test_instances_are_shared(self):
        assert get_kernel_backend("numpy") is get_kernel_backend("numpy")
        assert get_kernel_backend("c") is get_kernel_backend("c")

    def test_default_is_c(self, monkeypatch):
        monkeypatch.delenv(kernels.KERNEL_BACKEND_ENV, raising=False)
        monkeypatch.setattr(kernels, "_default_name", None)
        assert default_kernel_backend() == "c"
        assert resolve_kernel_backend(None).name == "c"

    def test_env_var_overrides_default(self, monkeypatch):
        monkeypatch.setattr(kernels, "_default_name", None)
        monkeypatch.setenv(kernels.KERNEL_BACKEND_ENV, "numpy")
        assert default_kernel_backend() == "numpy"
        assert resolve_kernel_backend(None).name == "numpy"

    def test_set_default_rejects_unknown(self):
        with pytest.raises(ValueError):
            kernels.set_default_kernel_backend("no-such-backend")

    def test_resolve_passthrough_and_name(self):
        backend = get_kernel_backend("numpy")
        assert resolve_kernel_backend(backend) is backend
        assert resolve_kernel_backend("c").name == "c"
        assert resolve_kernel_backend("c").compiled

    @pytest.mark.parametrize("name", ["numba", "python"])
    def test_removed_backends_rejected_at_admission(self, name):
        """The numba and loop backends are gone: a spec naming one is a
        bad spec, refused before it reaches the shared tick."""
        with pytest.raises(ValueError, match="unknown kernel backend"):
            SessionSpec(d=5, p=0.01, seed=1, kernel_backend=name).validate()
        scheduler = MicroBatchScheduler(SchedulerConfig(max_active=4))
        with pytest.raises(ValueError, match="unknown kernel backend"):
            scheduler.submit(
                SessionSpec(d=5, p=0.01, seed=1, kernel_backend=name)
            )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            SchedulerConfig(kernel_backend=name)

    def test_warm_up_every_backend(self):
        """warm_up drives every dispatched kernel on a tiny decode."""
        for name in available_kernel_backends():
            assert warm_up(name).name == name


class TestCBuild:
    def test_fallback_without_compiler_warns_once(self, monkeypatch, tmp_path):
        """With no compiler (and nothing cached), resolving 'c' warns
        exactly once, hands out the numpy backend, and decodes
        bit-identically to the compiled kernels; later resolutions are
        silent (the scheduler constructs engines continuously)."""
        compiled = get_kernel_backend("c")
        assert compiled.name == "c"
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(c_backend, "COMPILER", "no-such-cc-on-path")
        monkeypatch.setattr(kernels, "_warned_fallback", set())
        monkeypatch.delitem(kernels._instances, "c")
        with pytest.warns(UserWarning, match="falling back") as caught:
            backend = get_kernel_backend("c")
        assert len(caught) == 1
        assert backend.name == "numpy"
        assert backend is get_kernel_backend("numpy")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert get_kernel_backend("c") is backend
            assert _drain_outputs("c") == _drain_outputs(compiled)
        assert not any(tmp_path.rglob("*.so")), "nothing was built"

    def test_fresh_process_reuses_cached_library(self, tmp_path):
        """A second process loads the cached library and ffi module
        instead of building them: it runs with no compiler on PATH and
        still gets the ``c`` backend, and the cached files are
        untouched (no leftover temporaries either)."""

        def run(path_var):
            argv, env = _probe(tmp_path, path_var)
            proc = subprocess.run(
                argv, env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            name, lib = proc.stdout.split()
            return name, Path(lib)

        name, lib = run(os.environ.get("PATH", ""))
        assert name == "c" and lib.parent == tmp_path / "repro-qecool"
        built = [lib, lib.with_suffix(".py")]
        assert sorted(lib.parent.iterdir()) == sorted(built)
        before = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in built]
        empty = tmp_path / "empty-bin"
        empty.mkdir()
        assert run(str(empty)) == ("c", lib)
        assert sorted(lib.parent.iterdir()) == sorted(built)
        after = [(p.stat().st_ino, p.stat().st_mtime_ns) for p in built]
        assert after == before

    def test_concurrent_first_builds_agree(self, tmp_path):
        """Processes that miss an empty cache together (``--jobs`` and
        shard workers starting at once) all get the ``c`` backend, and
        leave one library and one ffi module behind, no temporaries."""
        argv, env = _probe(tmp_path, os.environ.get("PATH", ""))
        procs = [
            subprocess.Popen(
                argv, env=env, stdout=subprocess.PIPE,
                stderr=subprocess.PIPE, text=True,
            )
            for _ in range(3)
        ]
        results = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            results.append(tuple(out.split()))
        (name, lib), = set(results)
        lib = Path(lib)
        assert name == "c"
        assert sorted(lib.parent.iterdir()) == sorted(
            [lib, lib.with_suffix(".py")]
        )

    @pytest.mark.parametrize(
        "part",
        ["source", "declarations", "flags", "compiler", "machine", "cffi"],
    )
    def test_cache_key_covers(self, part, monkeypatch, tmp_path):
        """The same inputs name the same library (one build per host,
        not per process); changing anything the build depends on names
        a new one, so a stale library is never loaded."""
        import cffi

        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        before = c_backend.library_path()
        assert c_backend.library_path() == before
        if part == "source":
            edited = tmp_path / "ckernels.c"
            edited.write_bytes(c_backend.SOURCE.read_bytes() + b"\n")
            monkeypatch.setattr(c_backend, "SOURCE", edited)
        elif part == "declarations":
            monkeypatch.setattr(c_backend, "CDEF", c_backend.CDEF + "\n")
        elif part == "flags":
            monkeypatch.setattr(c_backend, "FLAGS", (*c_backend.FLAGS, "-g"))
        elif part == "compiler":
            monkeypatch.setattr(c_backend, "COMPILER", "clang")
        elif part == "machine":
            monkeypatch.setattr(
                c_backend.platform, "machine", lambda: "other-machine"
            )
        else:
            monkeypatch.setattr(cffi, "__version__", cffi.__version__ + "+x")
        after = c_backend.library_path()
        assert after != before
        assert after.parent == before.parent

    @pytest.mark.parametrize("xdg", [None, ""])
    def test_cache_defaults_to_home(self, xdg, monkeypatch, tmp_path):
        """An unset or empty ``XDG_CACHE_HOME`` means ``~/.cache``."""
        if xdg is None:
            monkeypatch.delenv("XDG_CACHE_HOME", raising=False)
        else:
            monkeypatch.setenv("XDG_CACHE_HOME", xdg)
        monkeypatch.setenv("HOME", str(tmp_path))
        assert c_backend.library_path().parent == (
            tmp_path / ".cache" / "repro-qecool"
        )

    @pytest.mark.parametrize(
        "fault", ["failing-compiler", "corrupt-library", "cache-is-a-file"]
    )
    def test_unbuildable_host_falls_back(self, fault, monkeypatch, tmp_path):
        """A compile error, an unloadable cached library and an unusable
        cache directory each resolve 'c' to numpy with one warning
        instead of failing the process; a failed build leaves no
        library or temporary behind."""
        cache = tmp_path / "cache"
        monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
        if fault == "failing-compiler":
            monkeypatch.setattr(c_backend, "COMPILER", "false")
        elif fault == "corrupt-library":
            lib = c_backend.library_path()
            c_backend._write(lib.with_suffix(".py"), c_backend._emit_ffi_module)
            lib.write_bytes(b"not a shared object")
        else:
            cache.write_text("")
        monkeypatch.setattr(kernels, "_warned_fallback", set())
        monkeypatch.delitem(kernels._instances, "c", raising=False)
        with pytest.warns(UserWarning, match="falling back") as caught:
            backend = get_kernel_backend("c")
        assert len(caught) == 1
        assert backend is get_kernel_backend("numpy")
        if fault == "failing-compiler":
            left = sorted(p.name for p in cache.rglob("*"))
            assert not [n for n in left if n.endswith((".so", ".tmp"))], left


def _probe(cache, path_var):
    """``(argv, env)`` for a subprocess that resolves the ``c`` backend
    against ``cache`` with warnings as errors and prints its name and
    the library path."""
    probe = (
        "import warnings; warnings.simplefilter('error');"
        "from repro.core.kernels import get_kernel_backend;"
        "from repro.core.kernels.c_backend import library_path;"
        "print(get_kernel_backend('c').name, library_path())"
    )
    env = dict(
        os.environ, XDG_CACHE_HOME=str(cache), PYTHONPATH=str(SRC),
        PATH=path_var,
    )
    return [sys.executable, "-c", probe], env


def _drain_outputs(backend, d=5, shots=6, seed=3):
    """Matches, per-layer cycles and totals of a small batch drain."""
    from repro.core.engine_batch import QecoolEngineBatch
    from repro.surface_code.lattice import PlanarLattice

    lattice = PlanarLattice(d)
    rng = np.random.default_rng(seed)
    batch = QecoolEngineBatch(
        lattice, capacity=shots, kernel_backend=backend
    )
    lanes = np.asarray([batch.alloc_lane() for _ in range(shots)])
    for _ in range(d + 1):
        batch.push_layers(
            lanes,
            (rng.random((shots, lattice.n_ancillas)) < 0.1).astype(np.uint8),
        )
    batch.begin_drain(lanes)
    batch.run_to_idle(lanes)
    return [
        (batch.matches_of(lane), batch.layer_cycles_of(lane),
         batch.cycles_of(lane))
        for lane in lanes.tolist()
    ]


def _slab_state(seed, d=5, n_lanes=3, density=0.2):
    """A random mid-decode slab state driven through a real batch
    engine, so kernel inputs (masks, cached winners) are reachable
    states rather than arbitrary bit soup."""
    from repro.core.engine_batch import QecoolEngineBatch
    from repro.surface_code.lattice import PlanarLattice

    lattice = PlanarLattice(d)
    rng = np.random.default_rng(seed)
    batch = QecoolEngineBatch(
        lattice, thv=-1, reg_size=7, capacity=n_lanes,
        kernel_backend="numpy",
    )
    lanes = np.asarray([batch.alloc_lane() for _ in range(n_lanes)])
    for _ in range(3):
        rows = (rng.random((n_lanes, lattice.n_ancillas)) < density).astype(
            np.uint8
        )
        batch.push_layers(lanes, rows)
    return batch, lanes, rng


def _fresh(args):
    """A private copy of a kernel call's arguments (slabs included); the
    trailing ``Geometry`` is the engines' shared, read-only one."""
    return copy.deepcopy(args[:-1]) + args[-1:]


class _Recorder(NumpyKernelBackend):
    """The numpy backend, keeping a copy of every survey and commit-scan
    call's inputs as the engine reaches them."""

    def __init__(self):
        self.surveys, self.commits = [], []

    def survey_need(self, *args):
        self.surveys.append(_fresh(args))
        return super().survey_need(*args)

    def commit_scan(self, *args):
        self.commits.append(_fresh(args))
        return super().commit_scan(*args)


@functools.lru_cache(maxsize=None)
def _recorded(seed, d=7, shots=8, density=0.06):
    """Survey and commit-scan inputs of a real batch drain."""
    from repro.core.engine_batch import QecoolEngineBatch
    from repro.surface_code.lattice import PlanarLattice

    lattice = PlanarLattice(d)
    rng = np.random.default_rng(seed)
    recorder = _Recorder()
    batch = QecoolEngineBatch(
        lattice, capacity=shots, kernel_backend=recorder
    )
    lanes = np.asarray([batch.alloc_lane() for _ in range(shots)])
    for _ in range(d + 1):
        batch.push_layers(
            lanes,
            (rng.random((shots, lattice.n_ancillas)) < density).astype(
                np.uint8
            ),
        )
    batch.begin_drain(lanes)
    batch.run_to_idle(lanes)
    assert recorder.surveys and recorder.commits
    return recorder


def _compiled_race(masks, s, i, b, geo):
    """Packed winners of ``(lane, sink, base)`` triples from the
    compiled race, one ``winners_bulk`` call per lane."""
    cb = get_kernel_backend("c")
    out = np.empty(len(s), dtype=np.int64)
    for lane in np.unique(s).tolist():
        sel = s == lane
        out[sel] = cb.winners_bulk(
            masks[lane], np.flatnonzero(masks[lane]), i[sel], b[sel], geo
        )
    return out


@pytest.mark.parametrize("seed", [0, 1, 2])
class TestKernelLevelEquivalence:
    """Kernels on identical reachable slab states: numpy vs c for the
    kernels both compile, and the numpy-only lock-step kernels against
    the compiled race and their record contract."""

    # Lattice of the mid-decode slab states and of the recorded drains.
    D_SLAB, D_DRAIN = 5, 7

    def test_race_and_valid_entries(self, seed):
        """The numpy lock-step race agrees with the compiled race (the
        one ``winners_bulk`` and the compiled Controller run) on every
        live triple; the validity scan reads those winners valid, and
        reads stale every winner whose target event was cleared."""
        batch, lanes, rng = _slab_state(seed, d=self.D_SLAB)
        npb = get_kernel_backend("numpy")
        cb = get_kernel_backend("c")
        masks, geo = batch._masks, batch._geo
        # The race contract: unique (lane, sink, base) triples whose
        # sink holds the base bit — exactly the triples the engines'
        # surveys flatten out of live sink lists.
        s, i = np.nonzero(masks[: len(lanes)])
        b_all = []
        for lane, unit in zip(s, i):
            bits = int(masks[lane, unit])
            b_all.append(min(d for d in range(64) if bits >> d & 1))
        b = np.asarray(b_all, dtype=np.int64)
        if not len(s):
            pytest.skip("no events at this seed")
        got_np = npb.race(masks, s, i, b, geo)
        np.testing.assert_array_equal(got_np, _compiled_race(masks, s, i, b, geo))
        assert npb.valid_entries(got_np, masks, s, i, b, geo).all()
        entries = got_np.copy()
        entries[::3] = -1
        np.testing.assert_array_equal(
            npb.valid_entries(entries, masks, s, i, b, geo), entries >= 0
        )
        # Clearing every live Reg leaves only boundary winners valid.
        boundary = (got_np % geo.radix == 0) & (got_np // geo.radix % 128 == 0)
        cleared = masks.copy()
        cleared[s, i] = 0
        np.testing.assert_array_equal(
            npb.valid_entries(got_np, cleared, s, i, b, geo), boundary
        )

    def test_winners_bulk(self, seed):
        batch, lanes, rng = _slab_state(seed, d=self.D_SLAB)
        npb = get_kernel_backend("numpy")
        cb = get_kernel_backend("c")
        masks1 = batch._masks[0]
        live = np.flatnonzero(masks1).astype(np.int64)
        if not live.size:
            pytest.skip("empty lane 0 at this seed")
        # Same contract as the scalar engine's missing-winner gather:
        # unique (sink, base) pairs whose sink holds the base bit.
        sinks = live
        bases = np.asarray(
            [
                min(d for d in range(64) if int(masks1[u]) >> d & 1)
                for u in live
            ],
            dtype=np.int64,
        )
        got_np = npb.winners_bulk(masks1, live, sinks, bases, batch._geo)
        got_c = cb.winners_bulk(masks1, live, sinks, bases, batch._geo)
        np.testing.assert_array_equal(got_np, got_c)

    def test_survey_need(self, seed):
        """On every survey of a real drain, the numpy survey's per-lane
        minimum equals the minimum winner hops of the compiled race over
        the same triples; missing entries mark their lanes dirty, and
        every entry the survey (re-)raced is the true winner (stale
        entries it left alone are allowed to stay stale)."""
        npb = get_kernel_backend("numpy")
        for call in _recorded(seed, d=self.D_DRAIN).surveys:
            masks, win, dirty, s, i, b, pos, n_top, geo = _fresh(call)
            before, dirty_before = win[s, i, b], dirty.copy()
            need = npb.survey_need(masks, win, dirty, s, i, b, pos, n_top, geo)
            truth = _compiled_race(masks, s, i, b, geo)
            expect = np.full(n_top, 1 << 30, dtype=np.int64)
            np.minimum.at(expect, pos, truth // geo.hops_div >> 1)
            np.testing.assert_array_equal(need, expect)
            dirtied = dirty_before.copy()
            dirtied[s[before < 0]] = True
            np.testing.assert_array_equal(dirty, dirtied)
            touched = win[s, i, b] != before
            np.testing.assert_array_equal(win[s, i, b][touched], truth[touched])

    def test_commit_scan(self, seed):
        """Every commit scan of a real drain returns its observable
        mutations as records: it writes only the winner slab, its Reg
        clears are exactly the events its match records consume, and
        its layer-0 and any-match totals agree with those records."""
        npb = get_kernel_backend("numpy")
        for call in _recorded(seed, d=self.D_DRAIN).commits:
            args = _fresh(call)
            res = npb.commit_scan(*args)
            for k in (0, 2, 3):  # masks, row_counts, popped
                np.testing.assert_array_equal(args[k], call[k])
            cur, popped, b = args[4], args[3], args[5]
            consumed: dict[tuple[int, int], int] = {}
            l0 = np.zeros(len(cur), dtype=np.int64)
            for pos, u, t, u2, t2 in zip(
                res.rec_pos.tolist(), res.rec_u.tolist(),
                res.rec_t.tolist(), res.rec_u2.tolist(),
                res.rec_t2.tolist(),
            ):
                base = int(popped[cur[pos]])
                assert t - base == b
                events = [(u, t)] + ([(u2, t2)] if u2 >= 0 else [])
                for unit, depth in events:
                    bit = 1 << (depth - base)
                    held = consumed.get((pos, unit), 0)
                    assert not held & bit, (pos, unit, depth)
                    consumed[(pos, unit)] = held | bit
                    l0[pos] += depth == base
            clears = dict(zip(
                zip(res.clear_pos.tolist(), res.clear_unit.tolist()),
                res.clear_bits.tolist(),
            ))
            assert clears == consumed
            np.testing.assert_array_equal(res.g_l0, l0[res.g_pos])
            np.testing.assert_array_equal(
                res.g_match, np.isin(res.g_pos, res.rec_pos)
            )

    def test_commit_never_consumes_a_timeout_hit(self, seed):
        """The invariant that lets the commit scan charge every
        non-matchable hit a full timeout: no commit clears a timeout
        hit's event at the scanned depth.  (A pair committed to a later
        hit's event at that depth spans their distance, which bounds
        the later hit's own winner, and any stale lower bound of it,
        within the budget: that hit is matchable.)"""
        npb = get_kernel_backend("numpy")
        checked = 0
        for call in _recorded(seed, d=self.D_DRAIN).commits:
            args = _fresh(call)
            rel, units, matchable, b = args[6], args[7], args[10], args[5]
            res = npb.commit_scan(*args)
            timeouts = set(
                zip(rel[~matchable].tolist(), units[~matchable].tolist())
            )
            # Lanes whose level both committed and timed out a hit.
            checked += len({p for p, _ in timeouts} & set(res.rec_pos.tolist()))
            for pos, unit, bits in zip(
                res.clear_pos.tolist(), res.clear_unit.tolist(),
                res.clear_bits.tolist(),
            ):
                if (pos, unit) in timeouts:
                    assert not bits >> b & 1, (pos, unit, b)
        assert checked

    def test_exposed_any_and_charge_empty(self, seed):
        batch, lanes, rng = _slab_state(seed, d=self.D_SLAB)
        npb = get_kernel_backend("numpy")
        cb = get_kernel_backend("c")
        sel = lanes
        exposed = rng.integers(0, 4, len(sel))
        got_np = npb.exposed_any(batch._masks, sel, exposed)
        got_c = cb.exposed_any(batch._masks, sel, exposed)
        np.testing.assert_array_equal(got_np, got_c)
        cycles = rng.integers(0, 100, 8).astype(np.int64)
        popped = rng.integers(0, 5, 8).astype(np.int64)
        calp = np.minimum(cycles, rng.integers(0, 50, 8)).astype(np.int64)
        lanes_c = np.asarray([1, 4, 6], dtype=np.int64)
        state_np = (cycles.copy(), popped.copy(), calp.copy())
        state_c = (cycles.copy(), popped.copy(), calp.copy())
        d_np = npb.charge_empty(*state_np, lanes_c, 11)
        d_c = cb.charge_empty(*state_c, lanes_c, 11)
        np.testing.assert_array_equal(d_np, d_c)
        for a, b in zip(state_np, state_c):
            np.testing.assert_array_equal(a, b)


class TestKernelLevelEquivalenceD13(TestKernelLevelEquivalence):
    """The same checks on the d = 13 lattice, the threshold benchmark's:
    its packed race keys have the widest radix (n_ancillas + 1) the
    Table IV sweep reaches."""

    D_SLAB = D_DRAIN = 13


def test_full_register_edge_depths():
    """Reg bit 63 (a Reg holding all 64 layers) and exposed depths up to
    it: the c kernels mirror the numpy shifts, since a C shift by 64 or
    more is undefined."""
    from repro.core.engine import _kernel_geometry
    from repro.surface_code.lattice import PlanarLattice

    geo = _kernel_geometry(PlanarLattice(5))
    n = len(geo.bpacked)
    rng = np.random.default_rng(9)
    bits = rng.random((2, n, 64)) < 0.2
    bits[:, :, 63] |= rng.random((2, n)) < 0.5
    masks = (bits.astype(np.uint64) << np.arange(64, dtype=np.uint64)).sum(
        axis=2, dtype=np.uint64
    )
    npb, cb = get_kernel_backend("numpy"), get_kernel_backend("c")
    s, i = np.nonzero(masks >> np.uint64(63))
    b = np.full(len(s), 63, dtype=np.int64)
    np.testing.assert_array_equal(
        npb.race(masks, s, i, b, geo), _compiled_race(masks, s, i, b, geo)
    )
    sel = np.asarray([0, 1, 0, 1], dtype=np.int64)
    exposed = np.asarray([60, 61, 62, 63], dtype=np.int64)
    np.testing.assert_array_equal(
        npb.exposed_any(masks, sel, exposed),
        cb.exposed_any(masks, sel, exposed),
    )


class TestCInputChecks:
    def test_rejects_slabs_it_cannot_write_through(self):
        batch, lanes, _ = _slab_state(0)
        cb = get_kernel_backend("c")
        cycles = np.zeros(8, dtype=np.int32)
        zeros = np.zeros(8, dtype=np.int64)
        with pytest.raises(TypeError, match="C-contiguous int64"):
            cb.charge_empty(cycles, zeros, zeros.copy(), lanes, 1)
        with pytest.raises(TypeError, match="C-contiguous int64"):
            cb.charge_empty(
                np.zeros(16, np.int64)[::2], zeros, zeros.copy(), lanes, 1
            )

    def test_rejects_mismatched_lengths_and_lattices(self):
        batch, lanes, _ = _slab_state(0)
        cb = get_kernel_backend("c")
        s = np.zeros(3, dtype=np.int64)
        row = batch._masks[0]
        with pytest.raises(ValueError, match="expected 3"):
            cb.winners_bulk(row, s, s, s[:2], batch._geo)
        with pytest.raises(ValueError, match="units"):
            cb.winners_bulk(row[:-1], s, s, s, batch._geo)


class TestSessionSpecBackend:
    def test_round_trips_through_json(self):
        spec = SessionSpec(d=5, p=0.004, seed=11, kernel_backend="c")
        payload = json.loads(json.dumps(spec.to_payload()))
        back = SessionSpec.from_payload(payload)
        assert back == spec
        assert back.kernel_backend == "c"

    def test_default_is_none(self):
        spec = SessionSpec(d=5, p=0.004, seed=11)
        assert spec.kernel_backend is None
        assert SessionSpec.from_payload(spec.to_payload()) == spec

    def test_unknown_backend_rejected_at_validation(self):
        spec = SessionSpec(
            d=5, p=0.004, seed=11, kernel_backend="no-such-backend"
        )
        with pytest.raises(ValueError, match="unknown kernel backend"):
            spec.validate()

    def test_known_backend_validates(self):
        SessionSpec(d=5, p=0.004, seed=11, kernel_backend="numpy").validate()

    def test_online_config_carries_backend(self):
        spec = SessionSpec(d=5, p=0.004, seed=11, kernel_backend="c")
        assert spec.online_config().kernel_backend == "c"
