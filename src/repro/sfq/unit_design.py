"""Table II: the microarchitecture of one QECOOL Unit.

The Unit has five modules (Section IV-B) — state machine,
prioritization, base pointer (with the 7-bit ``Reg``), spike out,
syndrome out — plus glue ("other").  Table II publishes, per module, the
cell instance counts, wire (JTL) junction counts, and the rolled-up JJ /
area / bias-current / latency figures.

This module encodes the published cell counts and reference totals, and
recomputes every roll-up bottom-up from the Table I cell library:

- the **cell-count totals reproduce exactly** (1705 cell JJs + 1472 wire
  JJs = 3177 JJs, the paper's headline "about 3000 Josephson junctions");
- the published **per-module** JJ subtotals do not all reconcile with
  their own cell counts (e.g. the state machine's cells alone contain
  771 JJs against a published 675) — the comparison helpers surface
  both numbers so reports can show the discrepancy instead of hiding
  it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sfq.cells import (
    CELL_LIBRARY,
    SUPPLY_VOLTAGE_MV,
    WIRE_AREA_UM2_PER_JJ,
    WIRE_BIAS_MA_PER_JJ,
)

__all__ = [
    "MODULE_CELL_COUNTS",
    "ModuleDesign",
    "PUBLISHED_MODULES",
    "PUBLISHED_UNIT",
    "PublishedModule",
    "UnitDesign",
    "build_unit_design",
]

#: Cell instances per module (Table II columns).
MODULE_CELL_COUNTS: dict[str, dict[str, int]] = {
    "state_machine": {
        "splitter": 17, "merger": 14, "switch_1to2": 8, "ndro": 20, "rd": 6, "d2": 6,
    },
    "prioritization": {"splitter": 4, "merger": 9, "switch_1to2": 3},
    "base_pointer": {"splitter": 8, "merger": 30, "dro": 3, "rd": 30},
    "spike_out": {"splitter": 2, "merger": 8, "rd": 4},
    "syndrome_out": {"merger": 2, "rd": 4},
    "other": {"merger": 2},
}

#: Wire (JTL) junction counts per module (Table II "Wire" row).
MODULE_WIRE_JJS: dict[str, int] = {
    "state_machine": 196,
    "prioritization": 82,
    "base_pointer": 1085,
    "spike_out": 91,
    "syndrome_out": 18,
    "other": 0,
}


@dataclass(frozen=True)
class PublishedModule:
    """Table II's published roll-up for one module (reference data)."""

    name: str
    total_jjs: int
    area_um2: float
    bias_current_ma: float
    latency_ps: float | None


PUBLISHED_MODULES: dict[str, PublishedModule] = {
    m.name: m
    for m in (
        PublishedModule("state_machine", 675, 265_500, 69.7, 98.7),
        PublishedModule("prioritization", 157, 82_800, 15.3, 28.0),
        PublishedModule("base_pointer", 1935, 709_200, 208.5, 147.0),
        PublishedModule("spike_out", 314, 129_600, 32.2, 61.1),
        PublishedModule("syndrome_out", 58, 25_200, 5.4, 10.4),
        PublishedModule("other", 38, 62_100, 5.0, None),
    )
}

#: Table II "Total" column and Section IV-B prose.
PUBLISHED_UNIT = PublishedModule("unit_total", 3177, 1_274_400, 336.0, 215.0)


@dataclass(frozen=True)
class ModuleDesign:
    """Bottom-up roll-up of one module from the cell library."""

    name: str
    cell_counts: dict[str, int]
    wire_jjs: int

    @property
    def cell_jjs(self) -> int:
        """JJs inside logic cells."""
        return sum(CELL_LIBRARY[c].jj_count * n for c, n in self.cell_counts.items())

    @property
    def total_jjs(self) -> int:
        """Logic-cell plus wire junctions."""
        return self.cell_jjs + self.wire_jjs

    @property
    def bias_current_ma(self) -> float:
        """Bias current: cells at Table I figures, wires at the derived
        per-junction figure."""
        cells = sum(
            CELL_LIBRARY[c].bias_current_ma * n for c, n in self.cell_counts.items()
        )
        return cells + self.wire_jjs * WIRE_BIAS_MA_PER_JJ

    @property
    def area_um2(self) -> float:
        """Area: cells at Table I figures, wires at the derived share."""
        cells = sum(CELL_LIBRARY[c].area_um2 * n for c, n in self.cell_counts.items())
        return cells + self.wire_jjs * WIRE_AREA_UM2_PER_JJ

    @property
    def static_power_uw(self) -> float:
        """RSFQ static power of the module."""
        return self.bias_current_ma * SUPPLY_VOLTAGE_MV


@dataclass(frozen=True)
class UnitDesign:
    """Bottom-up roll-up of the whole Unit."""

    modules: tuple[ModuleDesign, ...]

    def module(self, name: str) -> ModuleDesign:
        """Look a module up by Table II name."""
        for m in self.modules:
            if m.name == name:
                return m
        raise KeyError(name)

    @property
    def cell_counts(self) -> dict[str, int]:
        """Total cell instances by type (Table II "Total" column)."""
        totals: dict[str, int] = {}
        for m in self.modules:
            for cell, n in m.cell_counts.items():
                totals[cell] = totals.get(cell, 0) + n
        return totals

    @property
    def wire_jjs(self) -> int:
        """Total wire junctions."""
        return sum(m.wire_jjs for m in self.modules)

    @property
    def cell_jjs(self) -> int:
        """Total JJs inside logic cells."""
        return sum(m.cell_jjs for m in self.modules)

    @property
    def total_jjs(self) -> int:
        """All junctions (the paper's "about 3000 JJs")."""
        return sum(m.total_jjs for m in self.modules)

    @property
    def bias_current_ma(self) -> float:
        """Total Unit bias current (336 mA published)."""
        return sum(m.bias_current_ma for m in self.modules)

    @property
    def area_um2(self) -> float:
        """Total Unit area (1.274 mm^2 published)."""
        return sum(m.area_um2 for m in self.modules)

    @property
    def static_power_uw(self) -> float:
        """RSFQ static power (840 uW published)."""
        return self.bias_current_ma * SUPPLY_VOLTAGE_MV

    @property
    def critical_path_ps(self) -> float:
        """Published critical path (215 ps).

        The paper reports the maximum delay of the designed circuit; the
        per-module latencies it also publishes sum to more than this
        because the critical path does not traverse every module fully.
        We carry the published figure; :meth:`max_frequency_ghz` follows
        from it.
        """
        return PUBLISHED_UNIT.latency_ps

    @property
    def max_frequency_ghz(self) -> float:
        """Maximum operating frequency from the critical path (~5 GHz)."""
        return 1000.0 / self.critical_path_ps


def build_unit_design() -> UnitDesign:
    """The QECOOL Unit, composed per Table II."""
    return UnitDesign(
        modules=tuple(
            ModuleDesign(name, dict(cells), MODULE_WIRE_JJS[name])
            for name, cells in MODULE_CELL_COUNTS.items()
        )
    )
