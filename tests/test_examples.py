"""The runnable examples, checked without running them (they train models):
each compiles, and every name it imports from ``repro`` exists."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


def test_there_are_examples():
    assert EXAMPLES


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.name)
def test_example_compiles_and_its_repro_imports_resolve(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    compile(tree, str(path), "exec")
    imported = [(node.module, alias.name) for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[0] == "repro"
                for alias in node.names]
    assert imported
    for module_name, name in imported:
        module = importlib.import_module(module_name)
        assert (hasattr(module, name) or importlib.util.find_spec(
            f"{module_name}.{name}") is not None), \
            f"{path.name} imports {name!r} from {module_name}, which has none"
