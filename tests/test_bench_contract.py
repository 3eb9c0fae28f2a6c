"""The program names the benchmark under perfbench/ relies on.

The test suite collects only tests/, so a rename under src/ that breaks
the benchmark's tracer or workloads would otherwise show only when the
benchmark runs. The tracer looks up every TRACED name with getattr when
it installs, and the workloads pass with_ef_bound to interval_reduce.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

import fdbt.interval

TRACER = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "tracer.py"
)


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(short, name) for short, names in tracer.TRACED.items() for name in names]


@pytest.mark.parametrize("short, name", _traced())
def test_traced_name_is_a_function_of_its_module(short, name):
    module = importlib.import_module(f"fdbt.{short}")
    assert inspect.isfunction(getattr(module, name, None)), f"fdbt.{short}.{name}"


def test_interval_reduce_accepts_with_ef_bound():
    assert "with_ef_bound" in inspect.signature(fdbt.interval.interval_reduce).parameters
