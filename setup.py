"""Packaging metadata.

The project's only packaging file: there is no ``pyproject.toml``, so
all metadata lives here, and ``pip install -e .`` falls back to
``setup.py develop`` (no ``wheel`` package needed offline). NumPy is
the one runtime dependency.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.22"],
)
