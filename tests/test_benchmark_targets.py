"""The benchmark's traced layers still exist in the package.

benchmark/tracer.py wraps the functions named in its TARGETS table; a name
that no longer resolves makes every traced benchmark run fail.  The table
is read from the file as it is, without importing the benchmark package.
"""

import functools
import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def targets():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


@pytest.mark.parametrize("module, attr", targets(), ids=lambda v: v)
def test_trace_target_resolves(module, attr):
    owner = importlib.import_module(f"renormlab.{module}")
    assert callable(functools.reduce(getattr, attr.split("."), owner))
