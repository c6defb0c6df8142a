"""``benchmarks/results.txt`` is the record of a whole, passing run.

The benchmarks' own ``conftest.py`` runs in a sandbox next to two
sinking test modules, so the record it guards is the sandbox's
``results.txt``: a run that collects every module and fails one test
must leave it byte-identical, and the same run passing rewrites it.
"""

import pathlib

import pytest

pytest_plugins = ["pytester"]

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

_SINKING_TEST = """
def test_sinks(results_sink):
    results_sink("table {name}")
    assert {passes}
"""


@pytest.mark.parametrize("second_passes", [False, True],
                         ids=["one-fails", "all-pass"])
def test_only_a_passing_whole_run_writes_the_record(pytester, monkeypatch,
                                                    second_passes):
    monkeypatch.setenv("PYTHONPATH", str(REPO_ROOT / "src"))
    pytester.makeconftest(
        (REPO_ROOT / "benchmarks" / "conftest.py").read_text()
    )
    pytester.makepyfile(
        test_a=_SINKING_TEST.format(name="a", passes=True),
        test_b=_SINKING_TEST.format(name="b", passes=second_passes),
    )
    record = pytester.path / "results.txt"
    record.write_bytes(b"the last passing run's record\n")
    # No -x: pytest's own stop flags stay down, only the failure count
    # tells this session from a passing one.
    result = pytester.runpytest_subprocess()
    if second_passes:
        result.assert_outcomes(passed=2)
        assert record.read_text() == "table a\ntable b\n"
    else:
        result.assert_outcomes(passed=1, failed=1)
        assert record.read_bytes() == b"the last passing run's record\n"
