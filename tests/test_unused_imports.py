"""Every module-level import in src/vvicert is used by its module, listed in
its ``__all__``, or marked ``# noqa: F401`` on its line, so that deleting
code does not leave dead imports behind."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "vvicert").glob("*.py"))


def _module_imports(tree):
    """(bound name, line) of each import at module level, __future__ aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], alias.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, alias.lineno


def _exported(tree) -> set:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    allowed = used | _exported(tree)
    return [
        name for name, line in _module_imports(tree)
        if name not in allowed and "# noqa: F401" not in lines[line - 1]
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom json import dumps, loads\n" \
             "__all__ = ['loads']\nprint(os.sep)\n"
    assert unused_imports(source) == ["dumps"]
