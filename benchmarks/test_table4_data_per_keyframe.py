"""Benchmark regenerating Table 4: data transmitted per key frame (MB).

Paper values: to-server 2.637 for all schemes; to-client 0.395
(partial) / 1.846 (full) / 0.879 (naive); totals 3.032 / 4.483 / 3.516.
These are configuration-level quantities, so measured values must match
the paper exactly (``validate_table4``).
"""

import pytest

from repro.experiments.report import format_table
from repro.experiments.tables import table4_data_per_keyframe
from repro.experiments.validate import validate_table4


@pytest.mark.benchmark(group="table4")
def test_table4_data_per_keyframe(benchmark, scale, results_sink, check_shape):
    result = benchmark.pedantic(
        table4_data_per_keyframe, rounds=1, iterations=1
    )

    text = format_table("Table 4 — MB per key frame", result.rows, precision=3)
    text += "paper totals: partial 3.032, full 4.483, naive 3.516\n"
    print(text)
    results_sink(text)
    check_shape("Table 4", validate_table4(result))
