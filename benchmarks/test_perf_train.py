"""Benchmark: compiled full-mode train step vs interpreted autograd.

The ISSUE-9 acceptance floor: full-mode distillation rides the compiled
forward + generated adjoint plan, and each optimisation step must be
>= 1.5x faster than the define-by-run loop — while producing
bit-identical losses, steps, and metrics (the speedup is only
admissible because the answer does not move).  Regenerate manually
with::

    PYTHONPATH=src python scripts/bench_perf.py train-step
"""

import pytest

pytestmark = pytest.mark.perf


def _check(record):
    # The adjoint plan replays autograd's accumulation order exactly:
    # steps, losses and metrics must match bit for bit, every run.
    assert record["bit_identical"]
    assert record["legs"]["engine"]["ops"] > 0


@pytest.mark.benchmark(group="perf_train")
def test_train_step_speedup(scale, run_perf):
    # Both legs take the same number of steps (bit-identical), so the
    # wall ratio is the per-step ratio.
    run_perf("train-step", {"ratio": 1.5}, _check, width=scale.student_width)
