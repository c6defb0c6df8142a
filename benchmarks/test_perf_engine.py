"""Benchmark: compiled-engine speedup on the Table-3 partial protocol.

The ISSUE-1 acceptance floor: the engine path must be >= 3x faster
end-to-end than the seed autograd path on a 250-frame partial run at
width 0.5 (and >= 1.5x on a lone predict and a lone distillation step),
with argmax-identical predictions.  Regenerate manually with::

    PYTHONPATH=src python scripts/bench_perf.py engine-table3
"""

import pytest

pytestmark = pytest.mark.perf


def _check(record):
    # Predictions must not change: bit-identical argmax per frame.
    assert record["checks"]["argmax_identical"]
    assert record["checks"]["argmax_frames_checked"] > 0
    # Run trajectories are identical on every alternation, so accuracy
    # must match exactly.
    assert record["bit_identical"]
    legs = record["legs"]
    assert legs["autograd"]["mean_miou"] == pytest.approx(
        legs["engine"]["mean_miou"], abs=1e-9
    )


@pytest.mark.benchmark(group="perf_engine")
def test_engine_speedup(scale, run_perf):
    # Wall-clock measurements are load-sensitive; the margin is real
    # (~3.3-3.9x quiet) but do not run this in parallel with other
    # heavy jobs.
    run_perf(
        "engine-table3",
        {"ratio": 3.0, "predict_ratio": 1.5, "distill_step_ratio": 1.5},
        _check,
        num_frames=scale.num_frames,
        width=scale.student_width,
        pretrain_steps=scale.pretrain_steps,
    )
