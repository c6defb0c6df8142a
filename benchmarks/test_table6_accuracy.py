"""Benchmark regenerating Table 6: mean IoU of Wild / P-1 / P-8 / F-1 /
naive per category.

Paper averages: 16.99 / 72.42 / 71.29 / 69.22 / 100.  Shape criteria
(``validate_table6``): Wild << distilled; P-8 within a few points of P-1 (async staleness is
cheap); partial >= full on average; naive exactly 100.
"""

import pytest

from repro.experiments.report import format_table
from repro.experiments.tables import table6_accuracy
from repro.experiments.validate import validate_table6

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="table6")
def test_table6_accuracy(benchmark, scale, results_sink, check_shape):
    result = benchmark.pedantic(
        table6_accuracy, args=(scale,), rounds=1, iterations=1
    )

    avg = result.averages()
    text = format_table(
        f"Table 6 — mean IoU %% (frames={scale.num_frames})", result.rows
    )
    text += (
        f"average: wild={avg['wild_miou_pct']:.1f} p1={avg['p1_miou_pct']:.1f} "
        f"p8={avg['p8_miou_pct']:.1f} f1={avg['f1_miou_pct']:.1f} "
        f"(paper: 16.99 / 72.42 / 71.29 / 69.22)\n"
    )
    print(text)
    results_sink(text)
    # Short warm-up-dominated runs show a smaller (but still decisive)
    # gap between Wild and the distilled students.
    check_shape(
        "Table 6", validate_table6(result, strict=scale.num_frames >= 200)
    )
