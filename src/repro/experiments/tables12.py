"""Tables I and II plus the Section IV-B / V-C headline numbers.

Table I is the cell library itself; Table II is the Unit's module
composition.  Both are structured data in :mod:`repro.sfq`; this module
formats them and computes the bottom-up vs published comparison:

- total JJs: 1705 (cells) + 1472 (wires) = **3177** — exact,
- total bias current **336 mA**, area **1.274 mm^2**, RSFQ power
  **840 uW**, ERSFQ power at 2 GHz **2.78 uW** — exact (the wire
  bias/area shares are back-derived, see :mod:`repro.sfq.cells`),
- per-module JJ subtotals: the published numbers do not all reconcile
  with the published cell counts (documented discrepancy).
"""

from __future__ import annotations

from repro.sfq.cells import CELL_LIBRARY, SUPPLY_VOLTAGE_MV
from repro.sfq.power import ersfq_unit_power_w, rsfq_static_power_w
from repro.sfq.unit_design import (
    PUBLISHED_MODULES,
    PUBLISHED_UNIT,
    UnitDesign,
    build_unit_design,
)

__all__ = ["format_table1", "format_table2", "headline_numbers"]


def format_table1() -> list[str]:
    """Table I as formatted lines."""
    lines = ["cell          JJs  bias(mA)  area(um2)  latency(ps)"]
    for cell in CELL_LIBRARY.values():
        lines.append(
            f"{cell.name:<12} {cell.jj_count:>4}  {cell.bias_current_ma:<8}"
            f"  {cell.area_um2:<9.0f}  {cell.latency_ps}"
        )
    return lines


def format_table2(design: UnitDesign | None = None) -> list[str]:
    """Table II as formatted lines: bottom-up roll-up vs published."""
    design = design or build_unit_design()
    lines = [
        "module          cellJJs  wireJJs  totalJJs  (paper)  bias mA  (paper)"
    ]
    for module in design.modules:
        published = PUBLISHED_MODULES[module.name]
        lines.append(
            f"{module.name:<15} {module.cell_jjs:>7}  {module.wire_jjs:>7}"
            f"  {module.total_jjs:>8}  ({published.total_jjs:>5})"
            f"  {module.bias_current_ma:>7.1f}  ({published.bias_current_ma})"
        )
    lines.append(
        f"{'TOTAL':<15} {design.cell_jjs:>7}  {design.wire_jjs:>7}"
        f"  {design.total_jjs:>8}  ({PUBLISHED_UNIT.total_jjs:>5})"
        f"  {design.bias_current_ma:>7.1f}  ({PUBLISHED_UNIT.bias_current_ma})"
    )
    return lines


def headline_numbers(frequency_hz: float = 2.0e9) -> dict[str, float]:
    """The Section IV-B / V-C headline figures, recomputed bottom-up."""
    design = build_unit_design()
    bias_a = design.bias_current_ma * 1e-3
    return {
        "total_jjs": design.total_jjs,
        "area_mm2": design.area_um2 / 1e6,
        "bias_current_ma": design.bias_current_ma,
        "supply_voltage_mv": SUPPLY_VOLTAGE_MV,
        "rsfq_power_uw": rsfq_static_power_w(bias_a) * 1e6,
        "ersfq_power_uw": ersfq_unit_power_w(bias_a, frequency_hz) * 1e6,
        "critical_path_ps": design.critical_path_ps,
        "max_frequency_ghz": design.max_frequency_ghz,
    }
