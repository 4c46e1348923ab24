"""Source rules for the package, checked on its syntax trees.

No handler may catch every exception (a bug would turn into a plausible
result), and numpy is the only import outside the standard library.
"""

import ast
import sys
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


def test_rules_allow_stdlib_numpy_and_relative_imports():
    source = ("import math\nimport numpy as np\nfrom .cascade import orbit\n"
              "from renormlab import errors\ntry:\n    pass\nexcept ValueError:\n    pass\n")
    assert list(violations(ast.parse(source))) == []
