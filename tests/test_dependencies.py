"""The runtime needs NumPy alone: importing every entry package in a
fresh interpreter loads no SciPy module, nothing under ``src/`` imports
SciPy, and ``setup.py`` does not require it.  (``scipy_openblas``,
NumPy's bundled BLAS, is a different name and may appear.)"""

import ast
import os
import pathlib
import re
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parents[1]
SRC = REPO / "src"


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


def test_no_source_file_imports_scipy():
    """Every import statement, lazy ones inside functions included."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            found += [
                f"{path.relative_to(REPO)}:{node.lineno}: {module}"
                for module in modules if module.split(".")[0] == "scipy"
            ]
    assert not found, "SciPy is back in the runtime:\n" + "\n".join(found)


def test_install_requires_names_no_scipy():
    (call,) = [
        node for node in ast.walk(ast.parse((REPO / "setup.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup"
    ]
    (requires,) = [kw.value for kw in call.keywords if kw.arg == "install_requires"]
    names = [
        re.match(r"\s*([A-Za-z0-9._-]+)", spec).group(1).lower().replace("_", "-")
        for spec in ast.literal_eval(requires)
    ]
    assert "numpy" in names
    assert "scipy" not in names
