"""Source rules for the package, checked on its syntax trees.

No handler may catch every exception (a bug would turn into a plausible
result), numpy is the only import outside the standard library, every
private module-level function or constant, and every private method,
property or attribute of a module-level class, is referenced somewhere
outside its own definition (a leftover helper or setting is dead code),
every option, a parameter with a default, is passed by some call of the
package or the benchmark (an option with one value in use, or one that
only tests set, is a constant), and every public function, class, method
or property is reached from the command line, from module-level
statements or from the benchmark (public code that only tests call is not
part of the lab).
"""

import ast
import sys
from collections import Counter, defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "renormlab"
CALLERS = [ROOT / "src", ROOT / "tests", ROOT / "demos", ROOT / "benchmark"]
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
    """The private module-level functions and constants of tree, and the
    private methods, properties and attributes of its module-level classes,
    that no module of trees refers to outside their own definition."""
    used = Counter(name for t in trees for name in names(t))
    members = [f for node in tree.body if isinstance(node, ast.ClassDef) for f in node.body]
    for node in tree.body + members:
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
    ("class Shape:\n    def _area(self):\n        pass\n", ["_area is never referenced"]),
    ("class Shape:\n    def _area(self):\n        pass\n\n    def size(self):\n"
     "        return self._area()\n", []),
    ("class Shape:\n    @property\n    def _area(self):\n        return 1\n",
     ["_area is never referenced"]),
    ("class Shape:\n    _SIDES = 4\n", ["_SIDES is never referenced"]),
    ("class Shape:\n    def __init__(self):\n        pass\n", []),
], ids=["unused", "only-recursive", "called", "stored", "dunder", "method", "method-called",
        "property", "class-attribute", "dunder-method"])
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


def tokens(node):
    """The names the code under node refers to: an attribute as .name, a
    plain or imported name as name."""
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute):
            yield "." + n.attr
        elif isinstance(n, (ast.Name, ast.alias)):
            yield getattr(n, "id", None) or n.name


def unreached(root, exempt):
    """The public module-level functions and classes of root's
    src/renormlab, and the public methods and properties of those classes,
    that no name reaches; then each exempt name that names none of them, or
    that is reached without its exemption.

    Reaching goes by name and is transitive: a reached name reaches every
    name in the code of each function, class or method so named.  A
    function or class is reached as a name or an attribute, a method or
    property only as an attribute.  A class's own code is all but its
    methods that are not dunders, which are reached by their own names; its
    dunders run when it is used.  The roots are cli.main, the package's
    module-level statements other than imports, every name in the
    benchmark's files but its tests, the (module, attribute) pairs of their
    TARGETS, and the exempt names, "Class.method" for a method.
    """
    package = [(path.name, ast.parse(path.read_text(encoding="utf-8")))
               for path in sorted((root / "src" / "renormlab").glob("*.py"))]
    callers = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted((root / "benchmark").glob("*.py"))
               if not path.name.startswith("test_")]
    code, public, roots = defaultdict(Counter), [], {"main"}
    for file, tree in package:
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                if not isinstance(node, (ast.Import, ast.ImportFrom)):
                    roots.update(tokens(node))
                continue
            methods = [f for f in node.body if isinstance(f, ast.FunctionDef)
                       and not f.name.startswith("__")] if isinstance(node, ast.ClassDef) else []
            for key in (node.name, "." + node.name):
                code[key].update(tokens(node))
                for f in methods:
                    code[key].subtract(tokens(f))
            if not node.name.startswith("_"):
                public.append((file, node.lineno, node.name, {node.name, "." + node.name}))
            for f in methods:
                code["." + f.name].update(tokens(f))
                if not f.name.startswith("_"):
                    public.append((file, f.lineno, f"{node.name}.{f.name}", {"." + f.name}))
    for tree in callers:
        roots.update(tokens(tree))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS"
                                                    for t in node.targets):
                # "MapND.__call__" is the name MapND and the attribute .__call__
                roots.update(key for pair in node.value.elts
                             for key in pair.elts[-1].value.replace(".", " .").split())

    def reached(start):
        seen, todo = set(), list(start)
        while todo:
            if (name := todo.pop()) not in seen:
                seen.add(name)
                todo.extend(n for n, count in code[name].items() if count > 0)
        return seen

    keys = {qual: names for _, _, qual, names in public}
    everywhere = reached(roots.union(*(keys.get(qual, ()) for qual in exempt)))
    for file, line, qual, names in public:
        if not names & everywhere:
            yield f"{file}:{line}: {qual} is never reached"
    without = reached(roots)
    for qual in exempt:
        if qual not in keys:
            yield f"{qual} is exempt but not defined"
        elif keys[qual] & without:
            yield f"{qual} is exempt but reached"


# public code that no report or benchmark operation reaches yet, and why
# it stays
UNREACHED = {
    "chart_b": "the paper's b(chi), to be reported along transversal families",
    "verify_periodic_saddles": "the sinks-to-saddles report at the accumulation",
}


def test_every_public_function_is_reached():
    assert list(unreached(ROOT, UNREACHED)) == []


PLANTED = {"src/renormlab/cli.py": "from .shapes import area\n\ndef main():\n    area()\n",
           "src/renormlab/shapes.py": "def area():\n    pass\n\ndef helper():\n    pass\n"}
CALLS_HELPER = "from renormlab.shapes import helper\n\nhelper()\n"
# main reaches Box through a private function, and the property size as an
# attribute; the plain name helper does not reach the method helper
BOX = """def area():
    return _side()


def _side():
    helper = Box()
    return helper.size


class Box:
    def __init__(self):
        pass

    @property
    def size(self):
        pass

    def helper(self):
        pass
"""


@pytest.mark.parametrize("files, exempt, expected", [
    ({}, {}, ["shapes.py:4: helper is never reached"]),
    ({"tests/test_shapes.py": CALLS_HELPER, "benchmark/test_bench.py": CALLS_HELPER}, {},
     ["shapes.py:4: helper is never reached"]),
    ({"benchmark/session.py": CALLS_HELPER}, {}, []),
    ({"benchmark/tracer.py": "TARGETS = ((\"shapes\", \"helper\"),)\n"}, {}, []),
    ({}, {"helper": "kept"}, []),
    ({}, {"helper": "kept", "gone": "kept"}, ["gone is exempt but not defined"]),
    ({}, {"helper": "kept", "area": "kept"}, ["area is exempt but reached"]),
    ({"src/renormlab/shapes.py": BOX}, {}, ["shapes.py:18: Box.helper is never reached"]),
    ({"src/renormlab/shapes.py": BOX}, {"Box.helper": "kept"}, []),
], ids=["unreached", "only-tests", "benchmark", "targets", "exempt", "stale-exemption",
        "needless-exemption", "method", "exempt-method"])
def test_rule_catches_an_unreached_public_function(tmp_path, files, exempt, expected):
    for name, text in (PLANTED | files).items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert list(unreached(tmp_path, exempt)) == expected


def options(tree):
    """Every parameter with a default of tree's module-level functions and
    of its classes' __init__ and __new__: (line, the name a call uses, the
    parameter, its position in a call, None when keyword-only)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            defs = [(node, 0)]
        elif isinstance(node, ast.ClassDef):
            # a call of the class passes no self or cls
            defs = [(f, 1) for f in node.body
                    if isinstance(f, ast.FunctionDef) and f.name in ("__init__", "__new__")]
        else:
            continue
        for fn, skip in defs:
            args = fn.args
            params = args.posonlyargs + args.args
            for pos in range(len(params) - len(args.defaults), len(params)):
                yield params[pos].lineno, node.name, params[pos].arg, pos - skip
            for param, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield param.lineno, node.name, param.arg, None


def passes(call, param, pos):
    """Whether call passes param, at position pos (None when keyword-only):
    by keyword, by position, or through a * or ** splat."""
    if any(kw.arg in (param, None) for kw in call.keywords):      # None: a ** splat
        return True
    return pos is not None and (len(call.args) > pos
                                or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed(tree, trees):
    """The options of tree that no call of their name in trees passes."""
    calls = defaultdict(list)
    for t in trees:
        for node in ast.walk(t):
            if isinstance(node, ast.Call):
                func = node.func
                calls[getattr(func, "id", getattr(func, "attr", None))].append(node)
    for line, name, param, pos in options(tree):
        if not any(passes(call, param, pos) for call in calls[name]):
            yield line, f"{name}({param}) is never passed"


def test_every_option_is_passed():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for root in CALLERS for path in sorted(root.rglob("*.py"))]
    found = [f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
             for line, what in unpassed(ast.parse(path.read_text(encoding="utf-8")), trees)]
    assert not found, found


def test_every_option_is_set_outside_tests():
    # tests and examples do not justify an option: only the package and the
    # benchmark's own code count as callers
    callers = sorted((ROOT / "src").rglob("*.py")) + [
        path for path in sorted((ROOT / "benchmark").rglob("*.py"))
        if not path.name.startswith("test_")]
    trees = [ast.parse(path.read_text(encoding="utf-8")) for path in callers]
    found = [f"{path.name}:{line}: {what}" for path in sorted(SRC.glob("*.py"))
             for line, what in unpassed(ast.parse(path.read_text(encoding="utf-8")), trees)]
    assert not found, found


@pytest.mark.parametrize("source, expected", [
    ("def f(x, y=1):\n    pass\n\nf(0, y=2)\n", []),
    ("def f(x, y=1):\n    pass\n\nf(0, 2)\n", []),
    ("def f(x, y=1):\n    pass\n\nf(*xs)\nf(0, **kw)\n", []),
    ("def f(x, *rest, y=1):\n    pass\n\nf(0, 1, 2)\nf(*xs)\n", ["f(y) is never passed"]),
    ("class Box:\n    def __init__(self, size=1):\n        pass\n\nBox(2)\n", []),
    ("def f(x, y=1):\n    pass\n\nf(0)\n", ["f(y) is never passed"]),
], ids=["keyword", "positional", "splat", "keyword-only", "self-offset", "unused"])
def test_rule_catches_an_option_that_is_never_passed(source, expected):
    tree = ast.parse(source)
    assert [what for _, what in unpassed(tree, [tree])] == expected


def test_rules_allow_stdlib_numpy_and_relative_imports():
    source = ("import math\nimport numpy as np\nfrom .cascade import orbit\n"
              "from renormlab import errors\ntry:\n    pass\nexcept ValueError:\n    pass\n")
    assert list(violations(ast.parse(source))) == []
