"""Seeded storms against a live overload-armed server (ISSUE 6).

The tentpole acceptance property, at small scale so the tier-1 gate can
afford it: under **every** named storm at a fixed seed the server never
wedges — honest traffic resolves (served, or refused with a *typed*
REJECT carrying a ``retry_after`` hint), attackers are torn down by the
receive budget / idle reaper, the process exits 0, and no shm segment
leaks.  The full-scale throughput floors live in
``benchmarks/test_perf_overload.py``; plan construction determinism is
unit-tested in ``tests/test_overload.py``.
"""

import pytest

from repro import obs
from repro.serving.storms import STORM_NAMES, run_storm, storm_plan
from tests.helpers import no_shm_leak

pytestmark = pytest.mark.storm


@pytest.mark.parametrize("transport", ["shm", "socket"])
@pytest.mark.parametrize("name", STORM_NAMES)
def test_storm_never_wedges_server(name, transport, monkeypatch):
    plan = storm_plan(name, seed=0, frames=2)
    # Metrics armed in the server and client processes: the
    # storm must still resolve identically, and its report must carry
    # the admission/overload accounting.  Both wire transports face the
    # same storms — the receive budget tears down a half-header staller
    # whether it wedged a ring slot or a TCP stream (ISSUE 10).
    monkeypatch.setenv(obs.ENV_FEATURES, "metrics")
    with no_shm_leak():
        report = run_storm(plan, loris_hold_s=10.0, job_timeout_s=120.0,
                           transport=transport)
    assert report.name == name
    # No wedge: the server drained the storm and exited cleanly, and
    # every honest job resolved one way or the other.
    assert not report.wedged
    assert report.server_exit == 0
    assert report.errors == 0
    assert report.ok + report.rejected == len(plan.jobs)
    assert report.ok >= 1  # the storm never starves *all* honest traffic
    # Refusals, if any, are typed and always carry a retry hint.
    assert set(report.reject_reasons) <= {"overloaded", "capacity"}
    assert report.hinted == report.rejected
    # The server's final accounting survived the storm (ISSUE 8): a
    # typed exit reason and a metrics snapshot whose admission counters
    # cover every honest outcome — never a silent None.
    runtime = report.runtime_report
    assert runtime is not None
    assert runtime["exit_reason"] == "quiesced"
    counters = runtime["metrics"]["counters"]
    assert counters.get("admission.accepted", 0) >= report.ok
    rejects = sum(
        v for k, v in counters.items() if k.startswith("admission.rejected.")
    )
    assert rejects >= report.rejected


@pytest.mark.parametrize("transport", ["shm", "socket"])
def test_slow_loris_honest_traffic_completes(transport):
    """The loris stallers and the never-BYE ghost must not cost any
    honest client its session: budget teardown, not queue starvation."""
    plan = storm_plan("slow-loris", seed=0, frames=2)
    report = run_storm(plan, loris_hold_s=10.0, job_timeout_s=120.0,
                       transport=transport)
    assert not report.wedged
    assert report.ok == len(plan.jobs)
    assert report.rejected == 0
