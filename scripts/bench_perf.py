#!/usr/bin/env python3
"""Run one perf scenario (a key of ``repro.experiments.perf.SCENARIOS``,
with its default parameters — to vary one, call it from Python) and add
its record to BENCH_PERF.json, replacing one with the same
``(name, pr, git_rev)``::

    PYTHONPATH=src python scripts/bench_perf.py plan-cache [--pr PR16]
        [--output BENCH_PERF.json]
"""

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from repro.experiments.perf import (  # noqa: E402
    DEFAULT_RESULTS_PATH, SCENARIOS, append_record, format_record,
)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--pr", help="PR tag stamped on the record "
                        "(default: inferred from CHANGES.md)")
    parser.add_argument("--output", type=pathlib.Path, default=DEFAULT_RESULTS_PATH)
    args = parser.parse_args()
    record = SCENARIOS[args.scenario]()
    if args.pr:
        record["pr"] = args.pr
    print(format_record(record))
    print(f"appended record to {append_record(record, args.output)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
