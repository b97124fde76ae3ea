"""Table III: per-layer execution cycles of online QECOOL.

Expected shape: averages within tens of percent of the paper's column
(6.1 cycles at d=5/p=0.001 up to 337 at d=13/p=0.01), every average
well under the 2000-cycle budget of a 1 us interval at 2 GHz.  Maxima
are heavy-tail statistics and land below the paper's at this budget.
"""

from __future__ import annotations


def test_table3_cycle_statistics(benchmark, reporter):
    from repro.experiments.table3 import run_table3

    def run():
        return run_table3(shots=40, rounds_per_shot=25, seed=333)

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    reporter(benchmark, "Table III per-layer cycles", [r.format() for r in rows])
    for row in rows:
        assert row.meets_1us_at_2ghz
        paper_max, paper_avg, _ = row.paper
        # Same order of magnitude as the published average.
        assert row.avg_cycles < 3 * paper_avg + 10
        assert row.avg_cycles > paper_avg / 3 - 5
