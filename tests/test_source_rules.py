"""Source rules for the package, checked on its syntax trees.

No handler may catch every exception (a bug would turn into a plausible
result), numpy is the only import outside the standard library, and every
private module-level function or constant is referenced somewhere outside
its own definition (a leftover helper or setting is dead code).
"""

import ast
import sys
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "renormlab"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "renormlab"}


def violations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            names = [] if node.type is None else [
                n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)]
            if node.type is None:
                yield node.lineno, "bare except:"
            elif {"Exception", "BaseException"} & set(names):
                yield node.lineno, f"except {' | '.join(names)}"
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] not in ALLOWED:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] not in ALLOWED:
                yield node.lineno, f"from {node.module} import"


def names(node):
    """Every name the code under node refers to or imports."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def defined(node):
    """The names a module-level statement defines: a function's own, or
    those an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def unreferenced(tree, trees):
    """The private module-level functions and constants of tree that no
    module of trees refers to outside their own definition."""
    used = Counter(name for t in trees for name in names(t))
    for node in tree.body:
        for name in defined(node):
            if (name.startswith("_") and not name.startswith("__")
                    and used[name] == Counter(names(node))[name]):
                yield node.lineno, f"{name} is never referenced"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_source_follows_the_rules(path):
    found = [f"{path.name}:{line}: {what}"
             for line, what in violations(ast.parse(path.read_text(encoding="utf-8")))]
    assert not found, found


@pytest.mark.parametrize("source, expected", [
    ("try:\n    pass\nexcept Exception:\n    pass\n", "except Exception"),
    ("try:\n    pass\nexcept (ValueError, BaseException):\n    pass\n",
     "except ValueError | BaseException"),
    ("try:\n    pass\nexcept:\n    pass\n", "bare except:"),
    ("import scipy.linalg\n", "import scipy.linalg"),
    ("from numba import jit\n", "from numba import"),
])
def test_rules_catch_each_violation(source, expected):
    assert [what for _, what in violations(ast.parse(source))] == [expected]


def test_every_private_function_is_referenced():
    paths = sorted(SRC.glob("*.py"))
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in paths]
    found = [f"{path.name}:{line}: {what}"
             for path, tree in zip(paths, trees) for line, what in unreferenced(tree, trees)]
    assert not found, found


@pytest.mark.parametrize("source, expected", [
    ("def _helper():\n    pass\n", ["_helper is never referenced"]),
    ("def _down(n):\n    return _down(n - 1) if n else 0\n", ["_down is never referenced"]),
    ("def _helper():\n    pass\n\nVALUE = _helper()\n", []),
    ("def _helper():\n    pass\n\nTABLE = {'f': _helper}\n", []),
    ("def __getattr__(name):\n    raise AttributeError(name)\n", []),
    ("class Shape:\n    def _area(self):\n        pass\n", []),
], ids=["unused", "only-recursive", "called", "stored", "dunder", "method"])
def test_rule_catches_an_unreferenced_private_function(source, expected):
    tree = ast.parse(source)
    assert [what for _, what in unreferenced(tree, [tree])] == expected


@pytest.mark.parametrize("source, expected", [
    ("_STRIDE = 8\n", ["_STRIDE is never referenced"]),
    ("_STRIDE: int = 8\n", ["_STRIDE is never referenced"]),
    ("_LOW, _HIGH = 1, 2\nVALUE = _LOW\n", ["_HIGH is never referenced"]),
    ("_STRIDE = 8\n\ndef head(seq):\n    return seq[::_STRIDE]\n", []),
    ("_CACHE = {}\n_CACHE['key'] = 1\n", []),
    ("__all__ = []\nLIMIT = 8\n", []),
], ids=["unused", "annotated", "one-of-a-tuple", "read", "stored-into", "dunder-public"])
def test_rule_catches_an_unreferenced_private_constant(source, expected):
    tree = ast.parse(source)
    assert [what for _, what in unreferenced(tree, [tree])] == expected


def test_rules_allow_stdlib_numpy_and_relative_imports():
    source = ("import math\nimport numpy as np\nfrom .cascade import orbit\n"
              "from renormlab import errors\ntry:\n    pass\nexcept ValueError:\n    pass\n")
    assert list(violations(ast.parse(source))) == []
