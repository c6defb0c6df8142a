"""Documented Python examples stay runnable: every fenced ``python``
block in README.md and ``docs/*.md`` compiles and its imports resolve
(the check of ``scripts/check_doc_snippets.py``, run in the suite)."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "check_doc_snippets.py"


def _load_checker():
    spec = importlib.util.spec_from_file_location("check_doc_snippets", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CHECKER = _load_checker()


@pytest.mark.parametrize(
    "path", CHECKER.DOC_FILES, ids=lambda p: str(p.relative_to(CHECKER.REPO))
)
def test_every_snippet_compiles_and_imports(path):
    problems = [
        f"{path.name}:{line}: {problem}"
        for line, source in CHECKER.snippets(path)
        for problem in CHECKER.check_snippet(source, f"{path.name}:{line}")
    ]
    assert not problems, "\n".join(problems)


def test_the_docs_have_snippets():
    assert sum(1 for path in CHECKER.DOC_FILES for _ in CHECKER.snippets(path)) > 0
