"""Benchmark regenerating Table 3: throughput (FPS) per category for
partial / full distillation and naive offloading.

Paper averages: 6.54 / 6.08 / 2.09 FPS.  Shape criteria
(``validate_table3``): partial >= full on average, ShadowTutor > 3x
naive (> 2.5x in every category), naive calibrated to the paper's.
"""

import pytest

from repro.experiments.report import format_table
from repro.experiments.tables import table3_throughput
from repro.experiments.validate import validate_table3

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="table3")
def test_table3_throughput(benchmark, scale, results_sink, check_shape):
    result = benchmark.pedantic(
        table3_throughput, args=(scale,), rounds=1, iterations=1
    )

    avg = result.averages()
    text = format_table(
        f"Table 3 — throughput FPS (frames={scale.num_frames})",
        result.rows,
        columns=["partial_fps", "full_fps", "naive_fps"],
    )
    text += (
        f"average: partial={avg['partial_fps']:.2f} full={avg['full_fps']:.2f} "
        f"naive={avg['naive_fps']:.2f}  (paper: 6.54 / 6.08 / 2.09)\n"
    )
    print(text)
    results_sink(text)
    check_shape("Table 3", validate_table3(result))
