"""Self-tests of the benchmark on tiny instances.

    python3 -m pytest perfbench -q

A 21-state ladder stands in for the 101-state one and random-batch draws
2 models per pass, so the whole file runs in well under a minute.
"""

import cProfile
import json
import os
import pstats
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "ladder-band": lambda work: workloads.LadderBand(work, 0, ladder_order=21),
    "ladder-dc": lambda work: workloads.LadderDc(work, 0, ladder_order=21),
    "random-batch": lambda work: workloads.RandomBatch(work, 0, models=2),
}


@pytest.fixture
def work_dir():
    path = os.path.join(ROOT, ".perfbench", "selftest")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _profiled_calls(profile, tracer):
    """cProfile ncalls of every traced function, keyed like tracer totals."""
    stats = pstats.Stats(profile).stats
    calls = {}
    for key in tracer.totals:
        short, fn_name = key.split(".")
        code = getattr(sys.modules[f"fdbt.{short}"], fn_name).__code__
        entry = stats.get((code.co_filename, code.co_firstlineno, code.co_name))
        calls[key] = entry[1] if entry else 0
    return calls


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_calls_match_cprofile(name, work_dir):
    """A binding site the tracer missed shows up as fewer traced calls."""
    workload = TINY[name](work_dir)
    workload.prepare(0)
    tracer = tracing.Tracer()
    tracer.install()
    profile = cProfile.Profile()
    try:
        profile.enable()
        out = workload.run(0)
        profile.disable()
    finally:
        tracer.uninstall()
    traced = {key: entry["calls"] for key, entry in tracer.totals.items()}
    assert traced == _profiled_calls(profile, tracer)
    assert sum(traced.values()) > 0
    outcome = workload.check(0, out)
    assert (outcome.failed, outcome.problems) == (0, [])


@pytest.mark.parametrize("name", ["ladder-dc", "random-batch"])
def test_cli_outputs_identical_with_tracing(name, work_dir):
    workload = TINY[name](work_dir)
    results = []
    for traced in (False, True):
        workload.prepare(0)
        tracer = tracing.Tracer()
        if traced:
            tracer.install()
        try:
            out = workload.run(0)
        finally:
            tracer.uninstall()
        results.append((out, workload.files()))
    (plain, plain_files), (traced, traced_files) = results
    assert plain["code"] == 0
    assert plain == traced
    assert plain_files == traced_files
    assert plain_files


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_declared(trace):
    """The benchmark end to end: every printed metric is in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "random-batch",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared


def test_refuses_a_directory_without_sources():
    """With only BENCHMARK.json and perfbench/ there is nothing to measure."""
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "ladder-band",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
