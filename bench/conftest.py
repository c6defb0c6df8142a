"""Keep the benchmark's self-test out of a bare ``pytest`` from the repo
root (the tier-1 gate runs with ``-x``); a path named on the command
line — ``pytest bench/test_bench.py`` — is still collected."""

collect_ignore = ["test_bench.py"]
