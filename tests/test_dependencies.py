"""The runtime needs NumPy alone: importing every entry package in a
fresh interpreter loads no SciPy module."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def test_entry_packages_import_no_scipy():
    code = (
        "import sys\n"
        "import repro, repro.cli, repro.serving, repro.runtime.session, repro.experiments\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
