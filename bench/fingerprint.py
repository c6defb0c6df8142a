"""Machine fingerprint carried by every result block.

Timing baselines only mean something on the box that produced them, so
baselines are keyed by ``fingerprint_hash`` — the digest of the fields
that identify the machine and its numerics (cores, CPU model, python,
numpy, BLAS build, BLAS threads).  A new box starts a new segment
instead of silently continuing the old one.  ``git_rev`` and
``source_digest`` identify the code, not the machine, and stay out of
the hash.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import subprocess
from typing import Dict

ROOT = pathlib.Path(__file__).resolve().parent.parent

_MACHINE_FIELDS = (
    "nproc", "cpu_model", "python", "numpy", "blas", "openblas_num_threads",
)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _git_rev() -> str:
    # A driver checkout is not a git repository; source_digest still
    # identifies the code there.
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, timeout=10,
            capture_output=True, text=True,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest() -> str:
    """Digest of every ``src/repro`` source file (path and bytes)."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def fingerprint(seed: int) -> Dict[str, object]:
    import numpy

    fp: Dict[str, object] = {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas(),
        "openblas_num_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
        "git_rev": _git_rev(),
        "source_digest": source_digest(),
        "seed": seed,
    }
    fp["fingerprint_hash"] = fingerprint_hash(fp)
    return fp


def fingerprint_hash(fp: Dict[str, object]) -> str:
    machine = {k: fp[k] for k in _MACHINE_FIELDS}
    return hashlib.blake2b(
        json.dumps(machine, sort_keys=True).encode(), digest_size=6
    ).hexdigest()
