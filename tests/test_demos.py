"""The demos use only the package's public names: every name a demo
imports from ``ksubmax`` is in ``ksubmax.__all__``.  Parsed, not run."""

import ast
from pathlib import Path

import pytest

import ksubmax

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def imported_names(source: str) -> set:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "ksubmax"
        for alias in node.names
    }


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_are_exported(demo):
    names = imported_names(demo.read_text())
    assert names
    assert names <= set(ksubmax.__all__), names - set(ksubmax.__all__)
