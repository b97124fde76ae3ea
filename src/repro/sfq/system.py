"""System-level hardware roll-up: a full logical qubit's decoder.

The paper sizes one Unit precisely (Table II) and budgets capacity as
``2 d (d-1)`` Units per logical qubit, leaving the Row Masters, shared
Boundary Units and the per-logical-qubit Controller unsized — implicitly
treating them as negligible.  This module makes that assumption
checkable (an *extension* beyond the paper, not one of its results):

- a **Row Master** holds a token latch, an OR-reduction over its row's
  Reg-occupancy flags and the CurrentRow broadcast: we size it as a
  merger tree over ``d-1`` row bits plus a handful of storage cells;
- a **Boundary Unit** is a Unit stripped of Reg, BasePointer and state
  machine: a spike-request receiver plus a ``d``-way splitter tree;
- the **Controller** carries the scan state (row/column counters, base
  pointer, budget counter) sized as bit-counters in DRO/RD cells.

The result: the overhead hardware adds only a few percent to the Unit
array's power, confirming the paper's implicit assumption — and the
module quantifies exactly how much headroom the 2498-qubit headline
loses when the overhead is charged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.sfq.cells import CELL_LIBRARY, WIRE_BIAS_MA_PER_JJ
from repro.sfq.power import FOUR_K_BUDGET_W, PHI0_WB, ersfq_unit_power_w
from repro.sfq.unit_design import UnitDesign, build_unit_design

__all__ = [
    "LogicalQubitDecoder",
    "boundary_unit_bias_ma",
    "controller_bias_ma",
    "row_master_bias_ma",
    "system_protectable_logical_qubits",
]


def _cells_bias_ma(counts: dict[str, int], wire_jjs: int) -> float:
    cells = sum(CELL_LIBRARY[c].bias_current_ma * n for c, n in counts.items())
    return cells + wire_jjs * WIRE_BIAS_MA_PER_JJ


def row_master_bias_ma(d: int) -> float:
    """Estimated bias current of one Row Master.

    OR-reduction over the row's ``d-1`` occupancy bits (a merger tree of
    ``d-2`` mergers), a token latch (NDRO), CurrentRow broadcast
    splitter chain (``d-2`` splitters) and modest wiring.
    """
    if d < 2:
        raise ValueError(f"code distance must be >= 2, got {d}")
    counts = {
        "merger": max(1, d - 2),
        "splitter": max(1, d - 2),
        "ndro": 2,
        "rd": 2,
    }
    wire = 12 * d  # JTL run across the row
    return _cells_bias_ma(counts, wire)


def boundary_unit_bias_ma(d: int) -> float:
    """Estimated bias current of one shared Boundary Unit.

    A spike-request receiver (merger + RD), the footnote-1 delay line,
    and a ``d``-way spike distribution tree (``d-1`` splitters).
    """
    if d < 2:
        raise ValueError(f"code distance must be >= 2, got {d}")
    counts = {
        "splitter": d - 1,
        "merger": 2,
        "rd": 2,
        "ndro": 1,
    }
    wire = 10 * d
    return _cells_bias_ma(counts, wire)


def controller_bias_ma(d: int, depth_bits: int = 7) -> float:
    """Estimated bias current of the per-logical-qubit Controller.

    Row/column scan counters (``2 ceil(log2 d)`` bits), the base and
    budget counters (``depth_bits`` and ``ceil(log2(2d))`` bits), each
    bit a D2 + RD pair with splitter/merger glue, plus broadcast wiring
    to the Row Masters.
    """
    if d < 2:
        raise ValueError(f"code distance must be >= 2, got {d}")
    counter_bits = 2 * math.ceil(math.log2(d)) + depth_bits + math.ceil(
        math.log2(2 * d)
    )
    counts = {
        "d2": counter_bits,
        "rd": counter_bits,
        "splitter": 2 * counter_bits,
        "merger": counter_bits,
        "ndro": 4,
        "switch_1to2": 2,
    }
    wire = 40 * d
    return _cells_bias_ma(counts, wire)


@dataclass(frozen=True)
class LogicalQubitDecoder:
    """Hardware inventory of one distance-``d`` logical qubit's decoder.

    Covers both stabilizer sectors ("The identical hardware applies to
    Z error detection"), each with its own Unit array, Row Masters,
    two Boundary Units and Controller.
    """

    d: int
    unit: UnitDesign

    @property
    def n_units(self) -> int:
        """Matching Units across both sectors: ``2 d (d-1)``."""
        return 2 * self.d * (self.d - 1)

    @property
    def n_row_masters(self) -> int:
        """One per row per sector."""
        return 2 * self.d

    @property
    def n_boundary_units(self) -> int:
        """West and east per sector."""
        return 4

    @property
    def n_controllers(self) -> int:
        """One per sector."""
        return 2

    @property
    def units_bias_ma(self) -> float:
        """Bias current of the Unit arrays alone (the paper's budget)."""
        return self.n_units * self.unit.bias_current_ma

    @property
    def overhead_bias_ma(self) -> float:
        """Bias current of Row Masters + Boundary Units + Controllers."""
        return (
            self.n_row_masters * row_master_bias_ma(self.d)
            + self.n_boundary_units * boundary_unit_bias_ma(self.d)
            + self.n_controllers * controller_bias_ma(self.d)
        )

    @property
    def total_bias_ma(self) -> float:
        """Everything, both sectors."""
        return self.units_bias_ma + self.overhead_bias_ma

    @property
    def overhead_fraction(self) -> float:
        """Overhead share of the total bias current (and so of ERSFQ
        power, which is proportional to bias at fixed clock)."""
        return self.overhead_bias_ma / self.total_bias_ma

    def ersfq_power_w(self, frequency_hz: float) -> float:
        """ERSFQ power of the whole logical-qubit decoder."""
        return ersfq_unit_power_w(self.total_bias_ma * 1e-3, frequency_hz)


def system_protectable_logical_qubits(
    d: int,
    frequency_hz: float = 2.0e9,
    budget_w: float = FOUR_K_BUDGET_W,
) -> tuple[int, float]:
    """Protectable logical qubits when the overhead hardware is charged.

    Returns ``(capacity, overhead_fraction)``.  At d = 9 the overhead
    costs a few percent, dropping the paper's 2498 by roughly that
    share — the implicit "Units dominate" assumption quantified.
    """
    decoder = LogicalQubitDecoder(d, build_unit_design())
    per_logical_w = decoder.ersfq_power_w(frequency_hz)
    return math.floor(budget_w / per_logical_w), decoder.overhead_fraction
