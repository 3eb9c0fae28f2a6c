"""One benchmark process: set up, run timed passes, check every output.

run.py starts this file once per measurement and reads the JSON result it
writes to --result. Set-up is timed from the start of main: importing
fdbt, building the workload's fixture and a warm-up reduction. With
--seconds 0 the process only sets up, which gives run.py another set-up
sample. With --trace 1 the tracer's wrappers are installed after set-up
and active only inside the timed passes.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import argparse  # noqa: E402  (imports are part of the timed set-up)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def environment() -> dict:
    """Machine and library versions, recorded next to every result."""
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {key: blas.get(key) for key in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024 / 1e6  # ru_maxrss is in KiB on Linux


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run passes while another one fits in `seconds` (at least one pass)."""
    pass_s, bytes_written, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start + statistics.median(pass_s) <= seconds:
        workload.prepare(k)
        if tracer:
            tracer.active = True
        began = time.perf_counter()
        out = workload.run(k)
        pass_s.append(time.perf_counter() - began)
        if tracer:
            tracer.active = False
        outcome = workload.check(k, out)
        attempted += outcome.attempted
        failed += outcome.failed
        problems += [f"pass {k}: {p}" for p in outcome.problems]
        bytes_written.append(outcome.bytes_written)
        k += 1
    return {
        "pass_s": pass_s,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "bytes_written": bytes_written,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True, help="checkout holding src/fdbt")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", required=True, help="path for the JSON result")
    args = parser.parse_args(argv)

    src = os.path.join(args.root, "src")
    sys.path.insert(0, src)
    import fdbt

    if not os.path.abspath(fdbt.__file__).startswith(src + os.sep):
        raise SystemExit(f"fdbt was imported from {fdbt.__file__}, not from {src}")
    import tracer as tracing
    import workloads

    scratch = os.path.join(args.root, ".perfbench")
    workload = workloads.WORKLOADS[args.workload](
        os.path.join(scratch, f"work-{args.workload}"), args.seed
    )
    workloads.warm_up()
    result = {"setup_s": time.perf_counter() - _START}

    if args.seconds > 0:
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            tracer.active = False
        result.update(measure(workload, args.seconds, tracer))
        if tracer:
            tracer.uninstall()
            passes = len(result["pass_s"])
            result["layers"] = tracer.layer_metrics(passes)
            result["layers"]["cli.bytes_written"] = statistics.fmean(result["bytes_written"])
            tracer.write_spans(
                os.path.join(scratch, f"spans-{args.workload}-seed{args.seed}.jsonl")
            )
        result["inputs"] = workload.describe(len(result["pass_s"]))
        result["env"] = environment()
    result["peak_rss_mb"] = peak_rss_mb()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
