"""Command-line front end: model I/O, reductions, bounds, sweeps, benchmarks.

Exit codes follow one contract across commands: 0 success, 2 validation
problem (unparseable file, missing or inconsistent flags, bad dimensions),
3 numerical failure inside the requested computation. Failure diagnostics
are single-line JSON objects on stderr; results go to stdout or to the
requested output files. Nothing here depends on wall clock or environment,
so identical invocations produce identical bytes.
"""

import argparse
import json
import math
import os
import re
import sys as _sys

import numpy as np

from .baselines import check_rho, fgbt_reduce, fibt_reduce, gspa_reduce, prepare_standard
from .errors import DimensionMismatch, FdbtError, InvalidParameters
from .harness import (
    EXAMPLE_NAMES,
    EXPERIMENT_ORDERS,
    LADDER_GRID_POINTS,
    RandomModelSpec,
    generate_ladder,
    reproduce_example,
    run_randomized_experiment,
    write_json,
    write_sweep_csv,
)
from .interval import interval_reduce
from .reduction import IntervalConfig, ReductionResult
from .sf import SfConfig, sf_reduce
from .sysmodel import FrequencyGrid, StateSpace, error_system, is_hurwitz, sweep

METHODS = ("fibt", "spa", "gspa", "sf-fdbt", "int-fdbt", "fgbt")


# --------------------------------------------------------------------------
# model files


def _entry(value, where):
    ok = (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in value)
    )
    if not ok:
        raise DimensionMismatch(f"{where} must be a [re, im] number pair")
    try:
        return complex(float(value[0]), float(value[1]))
    except OverflowError:  # an integer beyond float64's range: refused as 1e400 is
        return complex(math.inf)


def _matrix_from_rows(rows, label, nrows, ncols):
    if not isinstance(rows, list) or len(rows) != nrows:
        raise DimensionMismatch(f"matrix {label} must have {nrows} rows")
    out = np.zeros((nrows, ncols), dtype=complex)
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != ncols:
            raise DimensionMismatch(f"matrix {label} row {i} must have {ncols} entries")
        for j, value in enumerate(row):
            out[i, j] = _entry(value, f"{label}[{i}][{j}]")
    if not np.all(np.isfinite(out.view(np.float64))):
        raise DimensionMismatch(f"matrix {label} contains non-finite entries")
    return out


def model_from_dict(doc):
    """Parse a model document into (StateSpace, metadata dict)."""
    if not isinstance(doc, dict):
        raise DimensionMismatch("model document must be a JSON object")
    dims = {}
    for key in ("n", "m", "p"):
        value = doc.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise DimensionMismatch(f"model field {key!r} must be a positive integer")
        dims[key] = value
    n, m, p = dims["n"], dims["m"], dims["p"]
    a = _matrix_from_rows(doc.get("A"), "A", n, n)
    b = _matrix_from_rows(doc.get("B"), "B", n, m)
    c = _matrix_from_rows(doc.get("C"), "C", p, n)
    d = _matrix_from_rows(doc.get("D"), "D", p, m)
    meta = doc.get("metadata", {})
    if not isinstance(meta, dict):
        raise DimensionMismatch("metadata must be a JSON object when present")
    return StateSpace(a, b, c, d), dict(meta)


def model_to_dict(sys: StateSpace, name: str = "") -> dict:
    """Serialize with [re, im] entry pairs; inverse of model_from_dict."""

    def rows(mat):
        return [[[float(z.real), float(z.imag)] for z in row] for row in mat]

    return {
        "n": sys.n,
        "m": sys.m,
        "p": sys.p,
        "A": rows(sys.A),
        "B": rows(sys.B),
        "C": rows(sys.C),
        "D": rows(sys.D),
        "metadata": {"name": str(name), "real": sys.A.dtype.kind == "f"},
    }


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidParameters(f"cannot read model file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InvalidParameters(f"model file {path} is not valid JSON: {exc}") from exc
    return model_from_dict(doc)


def write_model(path: str, sys: StateSpace, name: str = "") -> None:
    write_json(path, model_to_dict(sys, name=name))


# --------------------------------------------------------------------------
# reduction requests


def _require(condition, message):
    if not condition:
        raise InvalidParameters(message)


def build_runner(args, n: int):
    """Validate a reduce request's flags against a model of order n.

    Returns the reduction call. Validation is two-phase on purpose: argparse
    checks each flag alone (choices=, type=), and the method-specific
    requirements are checked here against the model order, so flag problems
    report as validation failures (exit 2) while anything the reduction
    itself raises reports as numerical (exit 3).
    """
    r = args.order
    _require(1 <= r < n, f"--order must satisfy 1 <= r < n = {n}")
    if args.symmetrize and args.method not in ("int-fdbt", "fgbt"):
        raise InvalidParameters("--symmetrize only applies to int-fdbt and fgbt")

    if args.method == "fibt":
        return lambda model: fibt_reduce(model, r)
    if args.method == "spa":
        _require(args.rho is None, "spa does not take --rho; use gspa for rho != 0")
        return lambda model: gspa_reduce(model, r, 0.0)
    if args.method == "gspa":
        _require(args.rho is not None, "method gspa requires --rho")
        rho = check_rho(args.rho)
        return lambda model: gspa_reduce(model, r, rho)
    if args.method == "sf-fdbt":
        _require(args.epsilon is not None, "method sf-fdbt requires --epsilon")
        _require(args.varpi is not None, "method sf-fdbt requires --varpi")
        sf_cfg = SfConfig(varpi=float(args.varpi), epsilon=float(args.epsilon))
        return lambda model: sf_reduce(model, sf_cfg, r)

    _require(args.w1 is not None, f"method {args.method} requires --w1")
    _require(args.w2 is not None, f"method {args.method} requires --w2")
    # the band rule sees the flags as given, before --symmetrize mirrors them
    band = IntervalConfig(float(args.w1), float(args.w2))
    if args.symmetrize:
        half = max(abs(band.w1), abs(band.w2))
        band = IntervalConfig(-half, half)
    if args.method == "int-fdbt":
        return lambda model: interval_reduce(model, band, r)
    return lambda model: fgbt_reduce(model, r, band.w1, band.w2)


def reduction_report(method: str, result: ReductionResult) -> dict:
    return {
        "method": method,
        "r": int(result.order),
        "bounds": {k: float(v) for k, v in sorted(result.bounds.items())},
        "stable": bool(result.stable),
        "warnings": list(result.warnings),
    }


# --------------------------------------------------------------------------
# plumbing


def _emit(payload) -> None:
    print(json.dumps(payload, sort_keys=True))


def _diag(payload) -> None:
    print(json.dumps(payload, sort_keys=True), file=_sys.stderr)


def _error_slug(exc) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


def _fail(exc, code: int) -> int:
    _diag({"error": _error_slug(exc), "message": str(exc)})
    return code


# --------------------------------------------------------------------------
# commands


def cmd_reduce(args) -> int:
    """fdbt reduce, and fdbt bounds: the same run without the model write."""
    try:
        model, meta = load_model(args.model)
        runner = build_runner(args, model.n)
    except FdbtError as exc:
        return _fail(exc, 2)
    result = runner(model)
    if args.output is not None:
        base = str(meta.get("name", "") or "model")
        write_model(args.output, result.reduced, name=f"{base}__{args.method}_r{args.order}")
    _emit(reduction_report(args.method, result))
    return 0


def cmd_sweep(args) -> int:
    try:
        model, _ = load_model(args.model)
        target = model
        if args.reduced:
            reduced, _ = load_model(args.reduced)
            target = error_system(model, reduced)
        _require(args.points >= 2, "--points must be >= 2")
        _require(args.wmin < args.wmax, "--wmin must be strictly below --wmax")
        if args.log:
            _require(args.wmin > 0, "--log spacing requires 0 < wmin")
            grid = FrequencyGrid.logarithmic(args.wmin, args.wmax, args.points)
        else:
            grid = FrequencyGrid.linear(args.wmin, args.wmax, args.points)
    except FdbtError as exc:
        return _fail(exc, 2)
    report = sweep(target, grid, refine=False, on_pole="skip")
    for omega in report.skipped:
        _diag({"warning": "pole-on-grid", "omega": float(omega)})
    write_sweep_csv(args.output, report)
    return 0


def cmd_bench_random(args) -> int:
    try:
        spec = RandomModelSpec(n=args.n, seed=args.seed, count=args.count)
        _require(args.n > max(EXPERIMENT_ORDERS), f"--n must be > {max(EXPERIMENT_ORDERS)}")
    except FdbtError as exc:
        return _fail(exc, 2)
    report = run_randomized_experiment(spec)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(
        args.out, f"experiment_n{args.n}_seed{args.seed}_count{args.count}.json"
    )
    write_json(path, report.to_json_dict())
    _emit(
        {
            "seed": args.seed,
            "count": args.count,
            "n": args.n,
            "resamples": report.resamples,
            "written": path,
        }
    )
    return 0


def cmd_bench_example(args) -> int:
    try:
        _require(
            args.name in EXAMPLE_NAMES,
            f"unknown example {args.name!r}; expected one of {list(EXAMPLE_NAMES)}",
        )
    except FdbtError as exc:
        return _fail(exc, 2)
    bundle = reproduce_example(args.name, out_dir=args.out)
    _emit(
        {
            "example": bundle.name,
            "out": args.out,
            "assertions": dict(bundle.assertions),
            "notes": list(bundle.notes),
        }
    )
    return 0


def cmd_bench_ladder(args) -> int:
    try:
        ladder = generate_ladder(args.order)
    except FdbtError as exc:
        return _fail(exc, 2)
    grid = FrequencyGrid.linear(-2.0, 2.0, LADDER_GRID_POINTS)
    response = sweep(ladder, grid, refine=False, on_pole="skip")
    sigma = prepare_standard(ladder).sigma
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"ladder_{args.order}")
    write_model(stem + ".json", ladder, name=f"ladder-{args.order}")
    write_sweep_csv(stem + "__response.csv", response)
    summary = {
        "order": args.order,
        "stable": bool(is_hurwitz(ladder).stable),
        "hankel": [float(s) for s in sigma],
        "model": stem + ".json",
        "response": stem + "__response.csv",
    }
    write_json(stem + "__summary.json", summary)
    _emit(
        {
            "order": args.order,
            "stable": summary["stable"],
            "written": [summary["model"], summary["response"], stem + "__summary.json"],
        }
    )
    return 0


def cmd_gen_ladder(args) -> int:
    try:
        ladder = generate_ladder(
            args.order,
            R=args.source_resistance,
            Rbar=args.load_resistance,
            Cval=args.capacitance,
            L=args.inductance,
        )
    except FdbtError as exc:
        return _fail(exc, 2)
    write_model(args.output, ladder, name=f"ladder-{args.order}")
    _emit({"order": args.order, "written": args.output})
    return 0


# --------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        # what starts like a negative number is a value: -5e-1, -.5, -inf, -NaN
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)

    # keep stderr machine-readable even for argparse's own complaints
    def error(self, message):
        _diag({"error": "usage", "message": message})
        raise SystemExit(2)


def _add_config_flags(p) -> None:
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--order", required=True, type=int, help="reduced order r")
    p.add_argument("--epsilon", type=float, help="sf-fdbt damping, > 0")
    p.add_argument("--varpi", type=float, help="sf-fdbt anchor frequency (rad/s)")
    p.add_argument("--w1", type=float, help="band lower edge (int-fdbt, fgbt)")
    p.add_argument("--w2", type=float, help="band upper edge (int-fdbt, fgbt)")
    p.add_argument("--rho", type=float, help="gspa residualization shift")
    p.add_argument(
        "--symmetrize",
        action="store_true",
        help="widen the band to [-max|wi|, +max|wi|] before reducing",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fdbt", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a model file")
    p.add_argument("model", help="input model JSON")
    _add_config_flags(p)
    p.add_argument("--output", required=True, help="path for the reduced model JSON")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("bounds", help="recompute bounds without writing a model")
    p.add_argument("model")
    _add_config_flags(p)
    p.set_defaults(func=cmd_reduce, output=None)

    p = sub.add_parser("sweep", help="sigma_max sweep to CSV")
    p.add_argument("model")
    p.add_argument("--reduced", help="second model; sweeps the error system")
    p.add_argument("--wmin", required=True, type=float)
    p.add_argument("--wmax", required=True, type=float)
    p.add_argument("--points", required=True, type=int)
    spacing = p.add_mutually_exclusive_group()
    spacing.add_argument("--log", action="store_true", help="log-spaced grid")
    spacing.add_argument("--lin", action="store_true", help="linear grid (default)")
    p.add_argument("--output", required=True, help="CSV path")
    p.set_defaults(func=cmd_sweep)

    bench = sub.add_parser("bench", help="benchmark and reproduction runs")
    bsub = bench.add_subparsers(dest="what", required=True)

    p = bsub.add_parser("random", help="randomized comparison experiment")
    p.add_argument("--count", type=int, default=100, help="models to draw")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int, default=4, help="full model order")
    p.add_argument("--out", default=".", help="report directory")
    p.set_defaults(func=cmd_bench_random)

    p = bsub.add_parser("example", help="rebuild a recorded example scenario")
    p.add_argument("name", help="one of " + ", ".join(EXAMPLE_NAMES))
    p.add_argument("--out", default=".", help="bundle directory")
    p.set_defaults(func=cmd_bench_example)

    p = bsub.add_parser("ladder", help="emit the ladder fixture and its response")
    p.add_argument("--order", type=int, default=201)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_bench_ladder)

    gen = sub.add_parser("gen", help="fixture generators")
    gsub = gen.add_subparsers(dest="what", required=True)

    p = gsub.add_parser("ladder", help="write a ladder model file")
    p.add_argument("--order", required=True, type=int)
    p.add_argument("--source-resistance", type=float, default=1.0)
    p.add_argument("--load-resistance", type=float, default=1.0)
    p.add_argument("--capacitance", type=float, default=1.0)
    p.add_argument("--inductance", type=float, default=1.0)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_gen_ladder)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FdbtError as exc:
        # anything a command did not classify itself counts as numerical
        return _fail(exc, 3)
    except OSError as exc:
        return _fail(exc, 2)


if __name__ == "__main__":
    raise SystemExit(main())
