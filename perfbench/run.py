"""fdbt benchmark: one workload, end-to-end or traced, with output checks.

Usage, from the root of a checkout that holds fdbt's sources under src/:

    python3 perfbench/run.py --workload ladder-band --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of BENCHMARK.json: wall_s (median
time of one pass of the workload's calls), setup_s (median of several
fresh-process set-ups) and peak_rss_mb. --trace 1 runs the workload
untraced and then traced, half the time each, and prints the per-layer
metrics plus the tracing overhead. Every operation's output is checked;
the last stdout line is one JSON object with keys correct, attempted,
failed and metrics. The line before it records the machine and inputs.
Exits non-zero without a result when the checkout or a measurement is
broken.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
SCRATCH = os.path.join(ROOT, ".perfbench")

# Fresh processes timed for setup_s; the measuring process adds one more.
SETUP_SAMPLES = 5
# Every run must end well inside the 180 s a run is allowed.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """A broken checkout or measurement: no result is printed."""


def run_worker(workload, seed, seconds, trace, deadline) -> dict:
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, f"result-{os.getpid()}.json")
    if os.path.exists(path):
        os.remove(path)
    cmd = [
        sys.executable, WORKER,
        "--root", ROOT,
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", repr(float(seconds)),
        "--trace", str(trace),
        "--result", path,
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("run budget used up before a measurement")
    try:
        # run() kills and reaps the worker when the timeout expires
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run budget: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    with open(path) as fh:
        result = json.load(fh)
    os.remove(path)
    return result


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def common_median(a, b):
    """Medians of two pass-time lists over the passes both ran."""
    n = min(len(a), len(b))
    return statistics.median(a[:n]), statistics.median(b[:n])


def measure(args, deadline) -> tuple:
    if args.trace == 0:
        samples = [
            run_worker(args.workload, args.seed, 0, 0, deadline)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        main = run_worker(args.workload, args.seed, args.seconds, 0, deadline)
        metrics = {
            "wall_s": statistics.median(main["pass_s"]),
            "setup_s": statistics.median(samples + [main["setup_s"]]),
            "peak_rss_mb": main["peak_rss_mb"],
        }
        runs = [main]
    else:
        plain = run_worker(args.workload, args.seed, args.seconds / 2, 0, deadline)
        traced = run_worker(args.workload, args.seed, args.seconds / 2, 1, deadline)
        untraced_s, traced_s = common_median(plain["pass_s"], traced["pass_s"])
        metrics = dict(traced["layers"])
        metrics["trace.untraced_wall_s"] = untraced_s
        metrics["trace.wall_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.passes"] = len(traced["pass_s"])
        runs = [plain, traced]
    return metrics, runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "fdbt", "__init__.py")):
            raise BenchError(f"no fdbt sources under {os.path.join(ROOT, 'src')}")
        spec = load_spec()
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise BenchError(f"unknown workload {args.workload!r}")
        if args.seed < 0 or args.seconds <= 0:
            raise BenchError("need --seed >= 0 and --seconds > 0")
        metrics, runs = measure(args, deadline)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        units = {m["name"]: m["unit"] for m in declared}
        if sorted(metrics) != sorted(units):
            raise BenchError(
                f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json"
            )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    for run in runs:
        for problem in run["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": [len(r["pass_s"]) for r in runs],
        "pass_s": [r["pass_s"] for r in runs],
        "inputs": runs[-1]["inputs"],
        "env": runs[-1]["env"],
    }
    print(json.dumps({"record": record}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
