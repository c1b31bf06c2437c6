"""Every private function, class or constant of src/vvicert, at module level
or in a class body, is named somewhere in the package outside its own
definition, so that deleting code does not leave orphan helpers behind."""

import ast
from collections import Counter
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "vvicert").glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def _statements(body: list) -> list:
    """The statements of a module or class body and, after each class, those
    of its body."""
    out = []
    for stmt in body:
        out.append(stmt)
        if isinstance(stmt, ast.ClassDef):
            out += _statements(stmt.body)
    return out


def _definitions(stmt) -> list:
    """The private names that one module-level or class-body statement
    defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, ast.Assign):
        names = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
    elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
        names = [stmt.target.id]
    else:
        names = []
    return [n for n in names if _private(n)]


def _references(node) -> Counter:
    """Names read in ``node``, as a bare name or as an attribute."""
    refs = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            refs[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            refs[sub.attr] += 1
    return refs


def unused_helpers(sources: dict) -> list:
    """(module, name) of each private module-level or class-body definition
    that no code of ``sources`` (module name -> source text) names outside
    that definition."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    total = Counter()
    for tree in trees.values():
        total += _references(tree)
    unused = []
    for mod, tree in trees.items():
        for stmt in _statements(tree.body):
            own = _references(stmt)
            unused += [(mod, n) for n in _definitions(stmt) if total[n] - own[n] <= 0]
    return unused


def test_no_orphan_private_helpers():
    sources = {p.stem: p.read_text(encoding="utf-8") for p in SOURCES}
    assert unused_helpers(sources) == []


def test_the_check_sees_an_orphan():
    sources = {
        "a": "_LIMIT = 3\n_SEEN = 1\ndef _used():\n    return _LIMIT\n"
             "def _loop():\n    return _loop()\nclass _Box:\n    pass\n"
             "class Cone:\n    _tol = 1e-9\n    _rank: int = 2\n"
             "    def __init__(self):\n        self._ok = self._test()\n"
             "    def _test(self):\n        return self._tol\n"
             "    def _detect(self):\n        return self._detect()\n",
        "b": "from a import _used\nimport a\nprint(_used(), a._SEEN)\n",
    }
    assert unused_helpers(sources) == [
        ("a", "_loop"), ("a", "_Box"), ("a", "_rank"), ("a", "_detect"),
    ]
