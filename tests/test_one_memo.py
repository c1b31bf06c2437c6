"""Every memo of the model objects goes through model._memoized: no module
of src/vvicert reads an object's ``__dict__`` or an attribute whose name ends
in ``_cache``, and only model.py reaches into the memo store (``_memo`` or
``_shared``) of an object other than ``self``. The module-level functools
caches stay."""

import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "vvicert").glob("*.py"))
STORES = ("_memo", "_shared")


def memo_bypasses(sources: dict) -> list:
    """(module, line, attribute) of each read of ``__dict__``, of a
    ``*_cache`` attribute, or of another object's memo store outside model,
    in ``sources`` (module name -> source text)."""
    found = []
    for mod, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.Attribute):
                continue
            own = isinstance(node.value, ast.Name) and node.value.id == "self"
            if (
                node.attr == "__dict__"
                or node.attr.endswith("_cache")
                or (node.attr in STORES and mod != "model" and not own)
            ):
                found.append((mod, node.lineno, node.attr))
    return sorted(found)


def test_every_memo_goes_through_the_helper():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert memo_bypasses(sources) == []


def test_the_check_sees_a_bypass():
    sources = {
        "model": "def g(f):\n    return f._shared, f._memo\n",
        "problem": "class P:\n    def m(self):\n        return self._memo\n",
        "audit": "def a(p, f):\n    memo = p.__dict__.setdefault('_verdicts', {})\n"
                 "    return memo, f._probe_cache, p._memo, f.negated()._shared\n",
    }
    assert memo_bypasses(sources) == [
        ("audit", 2, "__dict__"), ("audit", 3, "_memo"), ("audit", 3, "_probe_cache"),
        ("audit", 3, "_shared"),
    ]
