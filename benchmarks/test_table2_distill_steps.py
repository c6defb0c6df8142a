"""Benchmark regenerating Table 2: distillation step latency and mean
number of distillation steps (partial vs full).

Paper values: 13 ms / 3.83 steps (partial), 18 ms / 4.44 steps (full).
Shape criterion (``validate_table2``): partial needs fewer and cheaper
steps than full.
"""

import pytest

from repro.experiments.report import format_table
from repro.experiments.tables import table2_distillation
from repro.experiments.validate import validate_table2

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="table2")
def test_table2_distillation(benchmark, scale, results_sink, check_shape):
    result = benchmark.pedantic(
        table2_distillation, args=(scale,), rounds=1, iterations=1
    )

    text = format_table(
        f"Table 2 — distillation (frames={scale.num_frames})", result.rows
    )
    text += (
        f"paper: partial 13 ms / {result.paper['mean_steps']['partial']} steps, "
        f"full 18 ms / {result.paper['mean_steps']['full']} steps\n"
    )
    print(text)
    results_sink(text)
    check_shape("Table 2", validate_table2(result))
