"""The benchmark's traced layers still exist in the package.

benchmark/tracer.py wraps the functions named in its TARGETS table; a name
that no longer resolves makes every traced benchmark run fail, and a note
that reads an argument the function no longer takes fails every traced run
that calls it.  The file is read as it is, without importing the benchmark
package.
"""

import ast
import functools
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def targets():
    return tracer().TARGETS


def note_arguments():
    """(span name, key) of every args["key"] that a note function reads."""
    module, tree = tracer(), ast.parse(TRACER.read_text())
    notes = {fn.__name__: name for name, fn in module.NOTES.items()}
    return [(notes[fn.name], node.slice.value)
            for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in notes
            for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
            and node.value.id == fn.args.args[1].arg
            and isinstance(node.slice, ast.Constant)]


def traced(span):
    """The function behind a span name of the tracer's TARGETS."""
    module = tracer()
    for mod, attr in module.TARGETS:
        if module.span_name(mod, attr) == span:
            return functools.reduce(getattr, attr.split("."),
                                    importlib.import_module(f"renormlab.{mod}"))
    raise LookupError(span)


@pytest.mark.parametrize("module, attr", targets(), ids=lambda v: v)
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"renormlab.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))


@pytest.mark.parametrize("span, key", note_arguments(), ids=lambda v: v)
def test_noted_argument_is_a_parameter(span, key):
    assert key in inspect.signature(traced(span)).parameters


def test_argument_notes_are_found():
    assert {key for _, key in note_arguments()} >= {"generations", "n_points", "period", "pts"}
