#!/usr/bin/env python3
"""Tier-1 smoke test: the overload-armed server survives a storm.

Replays two seeded adversarial scenarios at small scale against a live
:class:`~repro.serving.runtime.ServerRuntime` with overload control
armed:

* ``slow-loris`` — partial-frame stallers (built from the real ring
  internals: a first fragment whose header promises more bytes than
  will ever arrive) plus a never-BYE ghost session, beside honest
  clients;
* ``thundering-herd`` — an admission flood against the token bucket,
  every refusal a typed REJECT carrying a ``retry_after`` hint.

Asserts the ISSUE-6 no-wedge contract: the server drains the storm and
exits 0, every honest job resolves (served or typed-rejected, never
errored), refusals are all hinted, and no shm segment leaks.
``scripts/test_tier1.sh`` runs this under a hard timeout after the
pytest suite, so a wedged event loop fails the gate instead of
hanging it.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.serving.storms import run_storm, storm_plan  # noqa: E402


def _shm_segments():
    shm_dir = pathlib.Path("/dev/shm")
    if not shm_dir.is_dir():
        return None
    return {p for p in shm_dir.iterdir() if p.name.startswith("psm_")}


def main() -> int:
    for name in ("slow-loris", "thundering-herd"):
        before = _shm_segments()
        plan = storm_plan(name, seed=0, frames=2)
        report = run_storm(plan, loris_hold_s=10.0, job_timeout_s=120.0)
        assert not report.wedged, f"{name}: server wedged"
        assert report.server_exit == 0, (
            f"{name}: server exited {report.server_exit}"
        )
        assert report.errors == 0, f"{name}: {report.errors} client error(s)"
        assert report.ok + report.rejected == len(plan.jobs), (
            f"{name}: {report.ok} ok + {report.rejected} rejected "
            f"!= {len(plan.jobs)} honest jobs"
        )
        assert report.hinted == report.rejected, (
            f"{name}: {report.rejected - report.hinted} refusal(s) "
            "without a retry_after hint"
        )
        if before is not None:
            leaked = _shm_segments() - before
            assert not leaked, f"{name}: leaked shm segments: {leaked}"
        print(f"storm smoke OK ({name}): {report.ok} honest session(s) "
              f"served, {report.rejected} typed-rejected (all hinted), "
              f"server exit 0 in {report.wall_s:.1f}s")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
