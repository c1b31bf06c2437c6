"""The traced benchmark run wraps the functions that perfbench/spans.py names
in its TRACED table; a rename in the package must not leave a name dangling."""

import ast
import importlib
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_table() -> tuple:
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TRACED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/spans.py defines no TRACED table")


def test_every_traced_name_exists():
    table = _traced_table()
    assert table
    for module_name, attr, _ in table:
        module = importlib.import_module(module_name)
        if "." in attr:
            # methods are looked up in the defining class's own namespace
            cls_name, meth = attr.split(".")
            assert meth in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"
