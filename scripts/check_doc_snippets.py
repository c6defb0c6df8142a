#!/usr/bin/env python3
"""Docs smoke: documented Python examples must stay runnable.

Extracts every fenced ``python`` block from README.md and docs/*.md,
then (1) compiles it — a snippet with a syntax error fails the gate —
and (2) executes its top-level ``import``/``from`` statements — a
snippet naming a module, class or function that no longer exists fails
the gate.  Bodies are *not* executed (examples may spawn servers or
run long workloads); imports are the part that rots silently when an
API moves, which is exactly what this check pins down.
``tests/test_doc_snippets.py`` runs this check in the pytest suite;
``python scripts/check_doc_snippets.py`` runs it alone.
"""

import ast
import pathlib
import re
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

DOC_FILES = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md"))]

_FENCE = re.compile(r"^```python\s*$(.*?)^```\s*$", re.M | re.S)


def snippets(path: pathlib.Path):
    """(1-based starting line, source) of each fenced python block."""
    text = path.read_text()
    for match in _FENCE.finditer(text):
        line = text[: match.start(1)].count("\n") + 1
        yield line, match.group(1)


def check_snippet(source: str, origin: str) -> list:
    """Compile the block and import-check it; returns found problems."""
    problems = []
    try:
        tree = ast.parse(source, filename=origin)
        compile(source, origin, "exec")
    except SyntaxError as exc:
        return [f"does not compile: {exc}"]
    imports = [
        node for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    namespace: dict = {}
    for node in imports:
        block = ast.Module(body=[node], type_ignores=[])
        try:
            exec(compile(block, origin, "exec"), namespace)  # noqa: S102
        except Exception as exc:
            problems.append(
                f"line {node.lineno}: import failed — {type(exc).__name__}: {exc}"
            )
    return problems


def main() -> int:
    checked = failures = 0
    for path in DOC_FILES:
        if not path.exists():
            continue
        for line, source in snippets(path):
            checked += 1
            origin = f"{path.relative_to(REPO)}:{line}"
            problems = check_snippet(source, origin)
            for problem in problems:
                failures += 1
                print(f"FAIL {origin}: {problem}")
    if failures:
        print(f"docs snippet check: {failures} problem(s) "
              f"in {checked} snippet(s)")
        return 1
    print(f"docs snippet check OK: {checked} fenced python snippet(s) "
          "compile and their imports resolve")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
