"""Benchmark configuration.

The table/figure benchmarks execute real system runs.  By default they
use a reduced scale (``REPRO_BENCH_FRAMES``, default 250 frames per
stream at student width 0.5) so the full suite finishes on a CPU-only
box; set ``REPRO_BENCH_FRAMES=5000 REPRO_WIDTH=1.0`` for the paper's
full protocol.

Each paper-table benchmark also sinks its formatted measured-vs-paper
table and its shape-criteria verdicts into ``benchmarks/results.txt``,
the tracked record of the last whole run.  The wall-clock floors
(``test_perf_*.py``) all go through the ``run_perf`` fixture below.
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
from repro.experiments.validate import render_report

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
def results_sink(request):
    """Sink for formatted result tables.  ``results.txt`` is the
    tracked record of one *whole* run: it is rewritten, at the end, only
    by a session that collected every benchmark module and ran to its
    end; any other run prints its tables and leaves the file alone."""
    blocks = []
    yield blocks.append
    session = request.session
    here = RESULTS_PATH.parent
    collected = {item.path.name for item in session.items if item.path.parent == here}
    whole = collected == {path.name for path in here.glob("test_*.py")}
    if whole and not (session.shouldstop or session.shouldfail):
        RESULTS_PATH.write_text("".join(f"{text}\n" for text in blocks))


@pytest.fixture
def check_shape(results_sink):
    """Assert a paper table's shape criteria (the ``validate_*`` of
    :mod:`repro.experiments.validate`, their one statement) and sink
    the rendered verdicts under the table."""

    def check(experiment, criteria):
        report = render_report({experiment: criteria})
        print(report)
        results_sink(report + "\n")
        assert all(c.passed for c in criteria), report

    return check


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
