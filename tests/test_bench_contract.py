"""The program names the benchmark under perfbench/ relies on.

The test suite collects only tests/, so a rename under src/ that breaks
the benchmark's tracer or workloads would otherwise show only when the
benchmark runs. The tracer looks up every TRACED name with getattr when
it installs, the workloads pass with_ef_bound to interval_reduce, and
they read or set the harness names in HARNESS_NAMES; ladder-dc sets the
ladder orders while it runs ex3 case 1, so the scenario must read them
per call.
"""

import importlib
import importlib.util
import inspect
import os

import pytest

import numpy as np

import fdbt.harness
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


HARNESS_NAMES = {
    "LADDER_ORDER": int,
    "LADDER_BASELINE_ORDER": int,
    "LADDER_SF_ORDER": int,
    "EXPERIMENT_HALF_WIDTHS": tuple,
    "EXPERIMENT_ORDERS": tuple,
    "generate_ladder": inspect.isfunction,
    "verify_bound": inspect.isfunction,
}


@pytest.mark.parametrize("name", HARNESS_NAMES)
def test_harness_name_the_workloads_use(name):
    kind = HARNESS_NAMES[name]
    value = getattr(fdbt.harness, name, None)
    assert isinstance(value, kind) if isinstance(kind, type) else kind(value), name


def test_ladder_orders_set_at_run_time_reach_ex3_case1(monkeypatch):
    # as the ladder-dc workload sets them: a 21-state ladder, orders scaled
    monkeypatch.setattr(fdbt.harness, "LADDER_ORDER", 21)
    monkeypatch.setattr(fdbt.harness, "LADDER_BASELINE_ORDER", 19)
    monkeypatch.setattr(fdbt.harness, "LADDER_SF_ORDER", 5)
    bundle = fdbt.harness.reproduce_example("ex3_case1")
    assert [(rec.method, rec.order) for rec in bundle.records] == [("fibt", 19), ("sf-fdbt", 5)]
    response = bundle.sweeps["response_full"]
    ladder = fdbt.harness.generate_ladder(21)
    assert np.array_equal(response.sigma_max, fdbt.sysmodel.sweep(ladder, response.grid).sigma_max)
