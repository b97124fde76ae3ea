"""Table III: per-layer execution cycles of online QECOOL.

For each (d, p) combination the online decoder runs with an
*unconstrained* clock (the quantity measured is work per layer, not
real-time feasibility) and the per-layer cycle counts are aggregated
into the max / average / sigma columns of Table III.

The paper's context: ancilla measurement takes ~1 us [10], so one layer
must decode within 1 us — at 2 GHz that is 2000 cycles, which the
average comfortably meets for every tabulated combination.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.online import OnlineConfig
from repro.experiments.montecarlo import run_online_point
from repro.util.rng import spawn_rngs
from repro.util.stats import mean_std

__all__ = [
    "PAPER_TABLE3",
    "Table3Row",
    "run_table3",
]

#: Published Table III values: (d, p) -> (max, avg, sigma).
PAPER_TABLE3: dict[tuple[int, float], tuple[float, float, float]] = {
    (5, 0.001): (104, 6.10, 4.99),
    (5, 0.005): (144, 10.4, 11.2),
    (5, 0.01): (166, 15.6, 15.8),
    (7, 0.001): (303, 11.8, 14.5),
    (7, 0.005): (515, 28.7, 30.1),
    (7, 0.01): (557, 47.4, 43.9),
    (9, 0.001): (800, 22.7, 30.6),
    (9, 0.005): (1018, 64.2, 57.7),
    (9, 0.01): (1308, 107, 89.7),
    (11, 0.001): (996, 41.6, 53.6),
    (11, 0.005): (1779, 120, 95.3),
    (11, 0.01): (2435, 201, 161),
    (13, 0.001): (1890, 71.3, 82.9),
    (13, 0.005): (3289, 199, 147),
    (13, 0.01): (4072, 337, 266),
}

DEFAULT_DISTANCES = (5, 7, 9, 11, 13)
DEFAULT_PS = (0.001, 0.005, 0.01)


@dataclass(frozen=True)
class Table3Row:
    """One Table III cell: measured cycle statistics and paper values."""

    d: int
    p: float
    max_cycles: int
    avg_cycles: float
    sigma_cycles: float
    n_layers: int

    @property
    def paper(self) -> tuple[float, float, float] | None:
        """Published (max, avg, sigma) for this (d, p), if tabulated."""
        return PAPER_TABLE3.get((self.d, self.p))

    @property
    def meets_1us_at_2ghz(self) -> bool:
        """Average-per-layer work fits in a 1 us interval at 2 GHz."""
        return self.avg_cycles <= 2000

    def format(self) -> str:
        """One formatted table line (with the paper's row if available)."""
        line = (
            f"d={self.d:<3} p={self.p:<6} max={self.max_cycles:<6}"
            f" avg={self.avg_cycles:<8.1f} sigma={self.sigma_cycles:<8.1f}"
        )
        if self.paper:
            pm, pa, ps_ = self.paper
            line += f" | paper max={pm:<6} avg={pa:<6} sigma={ps_}"
        return line


def run_table3(
    shots: int = 60,
    distances: tuple[int, ...] = DEFAULT_DISTANCES,
    ps: tuple[float, ...] = DEFAULT_PS,
    rounds_per_shot: int = 25,
    seed: int = 333,
    jobs: int = 1,
    noise: str | None = None,
    noise_params: dict | None = None,
) -> list[Table3Row]:
    """Measure Table III.

    ``shots x rounds_per_shot`` layers contribute to each row; the
    paper's max column is a heavy-tail statistic, so small budgets
    understate it.
    ``jobs`` shards each point's shot loop across worker processes; the
    cycle population is identical at any worker count.  Adaptive
    stopping is deliberately not offered here — max/sigma are
    population statistics and shrinking the population would bias them.
    """
    points = [(d, p) for d in distances for p in ps]
    rngs = spawn_rngs(seed, len(points))
    rows = []
    config = OnlineConfig(frequency_hz=None)
    for (d, p), rng in zip(points, rngs):
        point = run_online_point(
            d, p, shots, config, rng,
            n_rounds=rounds_per_shot, keep_layer_cycles=True, jobs=jobs,
            noise=noise, noise_params=noise_params,
        )
        avg, sigma = mean_std(point.layer_cycles)
        rows.append(
            Table3Row(
                d=d, p=p,
                max_cycles=max(point.layer_cycles, default=0),
                avg_cycles=avg, sigma_cycles=sigma,
                n_layers=len(point.layer_cycles),
            )
        )
    return rows
