"""The package's public names: ``ksubmax.__all__`` lists exactly what
``ksubmax/__init__.py`` binds, and every name a demo imports from
``ksubmax`` is in it.  Parsed, not run."""

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


def test_all_lists_exactly_the_bound_names():
    tree = ast.parse(Path(ksubmax.__file__).read_text())
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets if not target.id.startswith("__")}
    assert len(ksubmax.__all__) == len(set(ksubmax.__all__))
    assert set(ksubmax.__all__) == bound


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_imports_are_exported(demo):
    names = imported_names(demo.read_text())
    assert names
    assert names <= set(ksubmax.__all__), names - set(ksubmax.__all__)
