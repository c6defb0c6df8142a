"""Legacy setup shim.

Kept so ``pip install -e .`` works on offline machines without the
``wheel`` package (pip falls back to ``setup.py develop`` when no
``[build-system]`` table is present). All metadata lives in
``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22", "scipy>=1.8"],
)
