"""Importing ``repro`` sizes OpenBLAS's thread pool to one thread.

A GEMM's bits depend on the pool size, so a served session equals its
in-process twin only when the server, client and caller processes run
pools of the same size, and a perf record's fingerprint carries the
size read from the library.  Each case runs in a fresh interpreter, so
the pool size it reads is the one the import left.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")

#: Prints the pool size of the importing process, then of a forked child.
_PROBE = textwrap.dedent("""
    import ctypes, os
    import repro

    def pool_size():
        paths = {line.split()[-1] for line in open("/proc/self/maps")
                 if "openblas" in line}
        for path in paths:
            library = ctypes.CDLL(path)
            for name in ("openblas_get_num_threads",
                         "openblas_get_num_threads64_",
                         "scipy_openblas_get_num_threads",
                         "scipy_openblas_get_num_threads64_"):
                getter = getattr(library, name, None)
                if getter is not None:
                    getter.restype = ctypes.c_int
                    return getter()
        raise SystemExit("no OpenBLAS mapped")

    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.write(write, str(pool_size()).encode())
        os._exit(0)
    os.waitpid(pid, 0)
    print(pool_size(), os.read(read, 16).decode())
""")


def _pool_sizes(openblas_num_threads):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    if openblas_num_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_num_threads
    out = subprocess.run(
        [sys.executable, "-c", _PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout.split()
    return int(out[0]), int(out[1])


def test_import_pins_one_thread():
    own, _ = _pool_sizes(None)
    assert own == 1


@pytest.mark.parametrize("size", ["1", "2"])
def test_explicit_pool_size_is_kept(size):
    own, _ = _pool_sizes(size)
    assert own == int(size)


@pytest.mark.parametrize("size", [None, "2"], ids=["unset", "2"])
def test_forked_child_keeps_pool_size(size):
    """Server and client processes are forked: they run the pool size
    of the process that started them, whichever it is."""
    own, child = _pool_sizes(size)
    assert child == own


#: Prints the perf fingerprint's pool size in this process and in a
#: forked child, then the perf and ``bench/fingerprint.py`` hashes.
_FINGERPRINT_PROBE = textwrap.dedent("""
    import json, os, sys
    from repro.experiments import perf

    sys.path.insert(0, sys.argv[1])
    import fingerprint as bench_fingerprint

    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        size = perf.machine_fingerprint()["openblas_num_threads"]
        os.write(write, size.encode())
        os._exit(0)
    os.waitpid(pid, 0)
    own = perf.machine_fingerprint()
    print(json.dumps({
        "own": own["openblas_num_threads"],
        "child": os.read(read, 16).decode(),
        "hash": own["fingerprint_hash"],
        "bench_hash": bench_fingerprint.fingerprint(0)["fingerprint_hash"],
    }))
""")


def _fingerprint(openblas_num_threads):
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    if openblas_num_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_num_threads
    bench = os.path.join(os.path.dirname(SRC), "bench")
    out = subprocess.run(
        [sys.executable, "-c", _FINGERPRINT_PROBE, bench], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out)


@pytest.mark.parametrize("size, expected", [(None, "1"), ("2", "2")],
                         ids=["unset", "2"])
def test_perf_fingerprint_records_the_pool_size(size, expected):
    """A perf record carries the pool the process ran, not the
    variable: ``"1"`` under the import's pin, in a forked child too."""
    fingerprint = _fingerprint(size)
    assert fingerprint["own"] == fingerprint["child"] == expected


def test_fingerprint_hash_equals_the_bench_one_under_its_pin():
    """``bench/run.py`` sets ``OPENBLAS_NUM_THREADS=1``; there a perf
    record and a bench result block name the same machine."""
    fingerprint = _fingerprint("1")
    assert fingerprint["hash"] == fingerprint["bench_hash"]


#: Prints every pool size after a forked child maps SciPy's OpenBLAS
#: and re-applies the pin, as the SciPy-comparing tests do.
_LATE_LIBRARY_PROBE = textwrap.dedent("""
    import os
    import repro

    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        import scipy.ndimage  # noqa: F401
        repro._one_blas_thread()
        os.write(write, repro._blas_pool_size().encode())
        os._exit(0)
    os.waitpid(pid, 0)
    print(os.read(read, 64).decode())
""")


def test_pin_reaches_a_library_mapped_after_import():
    """A library mapped after ``import repro`` (SciPy's bundled
    OpenBLAS) is sized once the pin is applied again, and the
    fingerprint then reads what a NumPy-only process reads."""
    pytest.importorskip("scipy.ndimage")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = SRC
    sizes = subprocess.run(
        [sys.executable, "-c", _LATE_LIBRARY_PROBE], env=env,
        capture_output=True, text=True, timeout=120, check=True,
    ).stdout.split()
    assert sizes == ["1"]
