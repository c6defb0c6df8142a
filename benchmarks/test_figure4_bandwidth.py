"""Benchmark regenerating Figure 4: throughput vs network bandwidth for
the five named videos plus naive offloading, with the analytic bound
envelope (Eqs. 14/15).

Shape criteria (``validate_figure4``): ShadowTutor throughput is flat
down to ~40 Mbps while naive degrades with every step; videos with
fewer key frames retain throughput further; all measured values fall
inside the bounds.
"""

import pytest

from repro.experiments.figures import figure4_bandwidth_sweep
from repro.experiments.validate import validate_figure4

pytestmark = pytest.mark.slow


@pytest.mark.benchmark(group="figure4")
def test_figure4_bandwidth_sweep(benchmark, scale, results_sink, check_shape):
    result = benchmark.pedantic(
        figure4_bandwidth_sweep, args=(scale,), rounds=1, iterations=1
    )

    lines = [f"Figure 4 — throughput (FPS) vs bandwidth (frames={scale.num_frames})"]
    header = "video          " + "".join(
        f"{int(b):>7}" for b in result.bandwidths_mbps
    )
    lines.append(header + "  (Mbps)")
    for name, series in result.series.items():
        lines.append(
            f"{name:14s} " + "".join(f"{v:7.2f}" for v in series)
        )
    lines.append(
        "bounds lo      " + "".join(f"{lo:7.2f}" for lo, _ in result.bounds)
    )
    lines.append(
        "bounds hi      " + "".join(f"{hi:7.2f}" for _, hi in result.bounds)
    )
    text = "\n".join(lines) + "\n"
    print(text)
    results_sink(text)
    check_shape("Figure 4", validate_figure4(result))
