"""Empirical verification: bound checks, paper-style fixtures, random trials.

Everything here treats the library as a black box: reductions come from the
public entry points, measurements come from dense grid sweeps, and outcomes
are recorded as data rather than raised. Bundles can be written to disk as
CSV (sweeps, tables) and JSON (records, summaries) in the formats the CLI
documents.
"""

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .baselines import (
    fgbt_truncate,
    fibt_truncate,
    gspa_truncate,
    prepare_band,
    prepare_standard,
)
from .errors import ConvergenceFailure, FdbtError, InvalidParameters, PoleOnGrid
from .interval import IntervalConfig, interval_truncate, prepare_interval
from .reduction import ReductionResult
from .sf import SfConfig, epsilon_sweep, sf_reduce
from .sysmodel import (
    FrequencyGrid,
    StateSpace,
    error_sweeps,
    is_hurwitz,
    symmetric_log_grid,
)

# Grid densities. The experiment grid is deliberately lighter than the
# example grids: 100 models x 12 cells x 3 methods adds up, and 512 points
# plus golden refinement resolves the in-band peak of a 4th-order error
# system to far better than the ratios' meaningful digits.
EXPERIMENT_GRID_POINTS = 512
EXAMPLE_GRID_POINTS = 2001
LADDER_GRID_POINTS = 801
EF_GRID_POINTS = 1200

# Example 3 scenario: a 201st-order unit RLC ladder. The baselines get a
# generous order 181 and still fail around w = 0; the shift-parameterized
# method succeeds at 51. epsilon = 1.0 is the recorded scenario value: the
# pullback from the extended domain need not stay Hurwitz (only the
# extended truncation is), and on this fixture order-one epsilons give a
# DC-accurate reduced model whose spurious modes stay clear of w = 0.
LADDER_ORDER = 201
LADDER_BASELINE_ORDER = 181
LADDER_SF_ORDER = 51
LADDER_SF_EPSILON = 1.0
LADDER_INTERVAL_ORDERS = (51, 61)
LADDER_BAND = (-0.5, 0.5)

EXPERIMENT_HALF_WIDTHS = (0.2, 0.4, 0.8, 1.5)
EXPERIMENT_ORDERS = (1, 2, 3)

_REL_SLACK = 1e-8


@dataclass(frozen=True)
class ExampleFixture:
    """A named fixture system."""

    name: str
    system: StateSpace


@dataclass(frozen=True)
class VerificationRecord:
    """One bound checked against one measured sweep.

    margin = bound - peak; the check passes when the margin is no worse
    than -1e-8 * (1 + bound), i.e. failures beyond rounding are failures.
    """

    method: str
    order: int
    bound_key: str
    bound: float
    peak: float
    peak_frequency: float
    margin: float
    passed: bool
    points: int
    skipped: tuple = ()


_DEFAULT_BOUND_KEY = {"sf-fdbt": "sf", "int-fdbt": "interval"}


def verify_bound(
    sys: StateSpace,
    result: ReductionResult,
    grid: FrequencyGrid,
    bound_key: str = "",
) -> VerificationRecord:
    """Measure the error system over `grid` and compare with one bound.

    The caller picks a grid matching the bound's validity range: the single
    shift frequency for the sf bound, the band for the interval bound, a
    whole-axis grid for ef. Pole hits are skipped, not fatal; failures are
    data, not exceptions.
    """
    return _verified(sys, [(result, bound_key)], grid)[0]


def _verified(sys: StateSpace, checks, grid: FrequencyGrid) -> list:
    """verify_bound for each (result, bound_key) of one plant over one grid.

    Every key is checked before anything is swept; the plant is evaluated
    over the grid once for all of them.
    """
    keys = []
    for result, bound_key in checks:
        key = bound_key or _DEFAULT_BOUND_KEY.get(result.method, "ef")
        if key not in result.bounds:
            raise InvalidParameters(
                f"result from {result.method!r} carries no {key!r} bound"
            )
        keys.append(key)
    reports = _error_sweeps(sys, [result.reduced for result, _ in checks], grid)
    return [
        _record(result, key, report)
        for (result, _), key, report in zip(checks, keys, reports)
    ]


def _record(result: ReductionResult, key: str, report) -> VerificationRecord:
    """The bound under `key` checked against the peak of a refined error
    sweep with pole hits skipped, as verify_bound measures it."""
    bound = float(result.bounds[key])
    peak = float(report.peak_value)
    margin = bound - peak
    passed = bool(margin >= -_REL_SLACK * (1.0 + bound))
    return VerificationRecord(
        method=result.method,
        order=result.order,
        bound_key=key,
        bound=bound,
        peak=peak,
        peak_frequency=float(report.peak_frequency),
        margin=margin,
        passed=passed,
        points=len(report.grid),
        skipped=report.skipped,
    )


# --------------------------------------------------------------------------
# random model generation


@dataclass(frozen=True)
class RandomModelSpec:
    """Recipe for the randomized comparison population.

    Off-diagonal entries of A and all of B, C, D are standard normal;
    diagonal entries are normal with mean diag_mean and spread diag_spread.
    Whether 4.5 means the variance or the standard deviation is ambiguous
    in the source experiment description; diag_spread_is_variance selects
    the reading (variance by default). Models are SISO. Non-Hurwitz draws
    are resampled and counted.
    """

    n: int
    seed: int
    count: int
    diag_mean: float = -5.5
    diag_spread: float = 4.5
    diag_spread_is_variance: bool = True

    def __post_init__(self):
        if self.n < 1 or self.count < 1:
            raise InvalidParameters("need n >= 1 and count >= 1")
        if not (math.isfinite(self.diag_mean) and self.diag_spread > 0):
            raise InvalidParameters("diagonal law needs finite mean, positive spread")


def draw_random_models(spec: RandomModelSpec):
    """Draw spec.count Hurwitz systems; returns (models, resample_count)."""
    rng = np.random.default_rng(spec.seed)
    std = math.sqrt(spec.diag_spread) if spec.diag_spread_is_variance else spec.diag_spread
    models = []
    resamples = 0
    budget = 1000 * spec.count
    while len(models) < spec.count:
        a = rng.standard_normal((spec.n, spec.n))
        np.fill_diagonal(a, spec.diag_mean + std * rng.standard_normal(spec.n))
        b = rng.standard_normal((spec.n, 1))
        c = rng.standard_normal((1, spec.n))
        d = rng.standard_normal((1, 1))
        sys = StateSpace(a, b, c, d)
        if is_hurwitz(sys).stable:
            models.append(sys)
        else:
            resamples += 1
            if resamples > budget:
                raise ConvergenceFailure(
                    f"{resamples} non-Hurwitz draws for {spec.count} requested models"
                )
    return tuple(models), resamples


# --------------------------------------------------------------------------
# randomized comparison experiment


@dataclass(frozen=True)
class ModelCellRecord:
    """Per-model measurements in one (half-width, order) cell.

    Ratios are against the plain balanced-truncation baseline: err_* are
    in-band peak-error ratios, eb_fdbt is interval bound over ef bound.
    Fields are NaN when the underlying method failed; note says why.
    """

    model_index: int
    half_width: float
    order: int
    peak_fibt: float
    peak_fdbt: float
    peak_fgbt: float
    bound_fibt: float
    bound_fdbt: float
    err_fdbt: float
    err_fgbt: float
    eb_fdbt: float
    note: str = ""


@dataclass(frozen=True)
class CellStats:
    """Aggregates over models for one cell: means of per-model ratios.

    The band-limited baseline carries no bound, so eb_fgbt is NaN by
    construction; excluded counts how many models were dropped from the
    fgbt columns (indefinite Gramians and friends).
    """

    half_width: float
    order: int
    err_fdbt_mean: float
    err_fgbt_mean: float
    eb_fdbt_mean: float
    eb_fgbt_mean: float
    err_fdbt_frac_below_1: float
    eb_fdbt_frac_below_1: float
    models_used: int
    fgbt_excluded: int
    fdbt_excluded: int


@dataclass(frozen=True)
class ExperimentReport:
    spec: RandomModelSpec
    half_widths: tuple
    orders: tuple
    resamples: int
    records: tuple
    cells: tuple

    def cell(self, half_width: float, order: int) -> CellStats:
        for c in self.cells:
            if c.half_width == half_width and c.order == order:
                return c
        raise KeyError((half_width, order))

    def to_json_dict(self) -> dict:
        return {
            "spec": _jsonable(vars(self.spec)),
            "half_widths": list(self.half_widths),
            "orders": list(self.orders),
            "resamples": self.resamples,
            "records": [_jsonable(vars(rec)) for rec in self.records],
            "cells": [_jsonable(vars(c)) for c in self.cells],
        }


def _prepared(prepare, *args):
    """prepare(*args), or the FdbtError it raised, kept for every order."""
    try:
        return prepare(*args)
    except FdbtError as exc:
        return exc


def _truncated(truncate, prepared, r, **flags):
    """truncate(prepared, r), re-raising the error a failed prepare kept."""
    if isinstance(prepared, FdbtError):
        raise prepared
    return truncate(prepared, r, **flags)


def _model_records(index: int, model: StateSpace, half_widths, orders):
    # Gramians, balancing and the eta chain depend on the model and the
    # band, not on the order: prepare once, truncate per order, and give
    # fgbt's band step the standard pair fibt has solved. The int-fdbt ef
    # bound is never read here, so it is not computed. Every reduced model
    # of one band is swept in one pass, which evaluates the model once.
    rows = []
    standard = prepare_standard(model)
    fibt = {r: fibt_truncate(standard, r) for r in orders}
    for wl in half_widths:
        grid = FrequencyGrid.linear(-wl, wl, EXPERIMENT_GRID_POINTS)
        fdbt = _prepared(prepare_interval, model, IntervalConfig(-wl, wl))
        fgbt = _prepared(prepare_band, model, -wl, wl, (standard.Wc, standard.Wo))
        reduced = {}  # (method, r) -> reduced model, for the methods that ran
        bound_fdbt = dict.fromkeys(orders, math.nan)
        notes = {r: [] for r in orders}
        for r in orders:
            reduced["fibt", r] = fibt[r].reduced
            try:
                res = _truncated(interval_truncate, fdbt, r, with_ef_bound=False)
                reduced["fdbt", r] = res.reduced
                bound_fdbt[r] = float(res.bounds["interval"])
            except FdbtError as exc:
                notes[r].append(f"fdbt: {exc}")
            try:
                reduced["fgbt", r] = _truncated(fgbt_truncate, fgbt, r).reduced
            except FdbtError as exc:
                notes[r].append(f"fgbt: {exc}")
        reports = _error_sweeps(model, list(reduced.values()), grid)
        peaks = {key: rep.peak_value for key, rep in zip(reduced, reports)}
        for r in orders:
            peak_fibt = peaks["fibt", r]
            peak_fdbt = peaks.get(("fdbt", r), math.nan)
            peak_fgbt = peaks.get(("fgbt", r), math.nan)
            bound_fibt = float(fibt[r].bounds["ef"])
            note = notes[r]
            usable = peak_fibt > 0.0 and math.isfinite(peak_fibt)
            if not usable:
                note.append("fibt peak degenerate; ratios undefined")
            rows.append(
                ModelCellRecord(
                    model_index=index,
                    half_width=wl,
                    order=r,
                    peak_fibt=float(peak_fibt),
                    peak_fdbt=float(peak_fdbt),
                    peak_fgbt=float(peak_fgbt),
                    bound_fibt=bound_fibt,
                    bound_fdbt=bound_fdbt[r],
                    err_fdbt=float(peak_fdbt / peak_fibt) if usable else math.nan,
                    err_fgbt=float(peak_fgbt / peak_fibt) if usable else math.nan,
                    eb_fdbt=float(bound_fdbt[r] / bound_fibt) if bound_fibt > 0 else math.nan,
                    note="; ".join(note),
                )
            )
    return rows


def _mean_and_majority(values):
    vals = np.asarray(values, dtype=float)
    vals = vals[np.isfinite(vals)]
    if vals.size == 0:
        return math.nan, math.nan, 0
    return float(np.mean(vals)), float(np.mean(vals < 1.0)), int(vals.size)


def run_randomized_experiment(
    spec: RandomModelSpec,
    wl_list=EXPERIMENT_HALF_WIDTHS,
    r_list=EXPERIMENT_ORDERS,
) -> ExperimentReport:
    """Table-style comparison over a seeded random population.

    Each cell reports means of per-model ratios (mean of ratios, not ratio
    of means) plus the fraction of models where the ratio is below one.
    Models where a method failed are excluded from that method's columns
    only, with the exclusion counted. Models run one after another in
    index order. Each model is prepared once for fibt and once per
    half-width for int-fdbt and fgbt, then truncated at every order; the
    int-fdbt whole-axis ef bound, which no cell reads, is not computed.
    """
    wl_list = tuple(float(w) for w in wl_list)
    r_list = tuple(int(r) for r in r_list)
    if not wl_list or not r_list:
        raise InvalidParameters("need at least one half-width and one order")
    if any(w <= 0 for w in wl_list):
        raise InvalidParameters("half-widths must be positive")
    if any(not 1 <= r < spec.n for r in r_list):
        raise InvalidParameters(f"orders must satisfy 1 <= r < n = {spec.n}")

    models, resamples = draw_random_models(spec)
    per_model = [_model_records(i, m, wl_list, r_list) for i, m in enumerate(models)]
    records = tuple(row for rows in per_model for row in rows)

    cells = []
    for wl in wl_list:
        for r in r_list:
            batch = [c for c in records if c.half_width == wl and c.order == r]
            err_fdbt_mean, err_fdbt_frac, n_fdbt = _mean_and_majority(
                [c.err_fdbt for c in batch]
            )
            err_fgbt_mean, _, n_fgbt = _mean_and_majority([c.err_fgbt for c in batch])
            eb_fdbt_mean, eb_fdbt_frac, _ = _mean_and_majority(
                [c.eb_fdbt for c in batch]
            )
            cells.append(
                CellStats(
                    half_width=wl,
                    order=r,
                    err_fdbt_mean=err_fdbt_mean,
                    err_fgbt_mean=err_fgbt_mean,
                    eb_fdbt_mean=eb_fdbt_mean,
                    eb_fgbt_mean=math.nan,
                    err_fdbt_frac_below_1=err_fdbt_frac,
                    eb_fdbt_frac_below_1=eb_fdbt_frac,
                    models_used=len(batch),
                    fgbt_excluded=len(batch) - n_fgbt,
                    fdbt_excluded=len(batch) - n_fdbt,
                )
            )
    return ExperimentReport(
        spec=spec,
        half_widths=wl_list,
        orders=r_list,
        resamples=resamples,
        records=records,
        cells=tuple(cells),
    )


# --------------------------------------------------------------------------
# ladder circuit generator


def generate_ladder(
    order: int, R: float = 1.0, Rbar: float = 1.0, Cval: float = 1.0, L: float = 1.0
) -> StateSpace:
    """State-space model of a resistively terminated LC ladder.

    The input drives node 1 through R; k = (order-1)/2 series inductors
    alternate with shunt capacitors, and the final node carries the load
    Rbar; the output is the last node voltage. States are ordered
    (v1, i1, v2, i2, ..., v_{k+1}), which makes A tridiagonal with damping
    only in its corner entries. order = 1 degenerates to the bare RC
    section with its pole at -1/(R*Cval).
    """
    if not isinstance(order, (int, np.integer)) or isinstance(order, bool):
        raise InvalidParameters("order must be an integer")
    if order < 1 or order % 2 == 0:
        raise InvalidParameters("ladder order must be odd and >= 1")
    for name, val in (("R", R), ("Rbar", Rbar), ("Cval", Cval), ("L", L)):
        if not (math.isfinite(val) and val > 0):
            raise InvalidParameters(f"{name} must be positive and finite")

    n = int(order)
    a = np.zeros((n, n))
    b = np.zeros((n, 1))
    c = np.zeros((1, n))
    b[0, 0] = 1.0 / (R * Cval)
    c[0, n - 1] = 1.0
    if n == 1:
        a[0, 0] = -1.0 / (R * Cval)
        return StateSpace(a, b, c, np.zeros((1, 1)))

    k = (n - 1) // 2
    a[0, 0] = -1.0 / (R * Cval)
    a[0, 1] = -1.0 / Cval
    for ell in range(1, k + 1):
        row = 2 * ell - 1  # inductor current i_ell
        a[row, row - 1] = 1.0 / L
        a[row, row + 1] = -1.0 / L
    for j in range(1, k):
        row = 2 * j  # interior node voltage v_{j+1}
        a[row, row - 1] = 1.0 / Cval
        a[row, row + 1] = -1.0 / Cval
    a[n - 1, n - 2] = 1.0 / Cval
    a[n - 1, n - 1] = -1.0 / (Rbar * Cval)
    return StateSpace(a, b, c, np.zeros((1, 1)))


# --------------------------------------------------------------------------
# fixtures


_EX1_A = np.array(
    [
        [0.2128, 0.7749, 0.1945, -0.2864, 0.0501, -0.0464],
        [-0.6613, -2.6801, -0.8468, -0.5733, -0.7945, 0.9653],
        [0.2423, -0.8043, -0.7669, -0.5423, -0.9032, 0.1441],
        [-0.1508, 0.5229, 0.6927, -0.0704, 0.8778, -0.5350],
        [0.3542, 0.7882, 0.3681, -0.2077, -0.1705, -0.7660],
        [-0.6424, -0.5045, -0.0252, 0.6453, 0.9838, -0.9392],
    ]
)
_EX1_B = np.array([[0.9673], [-1.4467], [-1.2514], [-0.4141], [-0.6560], [-0.1651]])
_EX1_C = np.array([[-1.5883, -1.3181, 0.5656, 1.1507, -0.5106, -0.7736]])
_EX1_D = np.array([[3.9764]])

_EX2_A = np.array(
    [
        [-0.62, 0.44, -0.03, -0.00],
        [0.44, -3.64, 0.59, 0.02],
        [0.03, -0.59, -6.80, -0.46],
        [-0.00, 0.02, 0.46, -5.64],
    ]
)
_EX2_B = np.array([[-0.31], [0.47], [0.12], [-0.00]])
_EX2_C = np.array([[-0.31, 0.47, -0.12, -0.00]])
_EX2_D = np.array([[0.00]])

EX1_SF_EPSILONS = (1.0, 3.0, 4.0, 5.0, 10.0)
EX1_GSPA_RHOS = (0.0, 0.5, 5.0)
EX2_BANDS = {"case1": (-0.4, 0.4), "case2": (-0.8, 0.8)}
EX2_ORDERS = (1, 2)


def example_fixture(name: str) -> ExampleFixture:
    """Fixture systems transcribed digit-for-digit."""
    if name == "ex1":
        return ExampleFixture("ex1", StateSpace(_EX1_A, _EX1_B, _EX1_C, _EX1_D))
    if name == "ex2":
        return ExampleFixture("ex2", StateSpace(_EX2_A, _EX2_B, _EX2_C, _EX2_D))
    if name == "ex3":
        return ExampleFixture("ex3", generate_ladder(LADDER_ORDER))
    raise InvalidParameters(f"unknown fixture {name!r}")


# --------------------------------------------------------------------------
# example reproduction bundles


@dataclass(frozen=True)
class ExampleBundle:
    """Sweeps, verification records, and computed assertions for one scenario.

    Assertion outcomes are plain booleans stored as data; values holds the
    numbers behind them so a consumer can re-derive every claim.
    """

    name: str
    sweeps: dict
    records: tuple
    assertions: dict
    values: dict
    tables: dict = field(default_factory=dict)
    notes: tuple = ()


def _error_sweeps(sys, reduced_models, grid) -> list:
    """Refined error sweeps of one plant's reduced models over one grid,
    pole hits skipped; the plant is evaluated once (see error_sweeps)."""
    return error_sweeps(sys, reduced_models, grid, refine=True, on_pole="skip")


def _dc_reports(sys, reduced_models) -> list:
    """Error reports of one plant's reduced models at w = 0, stepping off
    spurious cancelling poles; the plant is evaluated once (see
    error_sweeps).

    Truncation can park exactly-cancelling modes on the origin (finite
    response, formally a pole); bundles must record data rather than raise,
    so the models whose error is undefined at the origin are measured at
    an offset of 1e-9 instead, and PoleOnGrid is raised if that point is
    undefined too.
    """
    reports = _error_sweeps(sys, reduced_models, FrequencyGrid.explicit([0.0]))
    undefined = [i for i, report in enumerate(reports) if report.skipped]
    if undefined:
        offset = error_sweeps(
            sys, [reduced_models[i] for i in undefined], FrequencyGrid.explicit([1e-9])
        )
        for i, report in zip(undefined, offset):
            reports[i] = report
    return reports


def _reproduce_ex1() -> ExampleBundle:
    fix = example_fixture("ex1")
    sys = fix.system
    grid = FrequencyGrid.linear(-20.0, 20.0, EXAMPLE_GRID_POINTS)
    sweeps, records, values = {}, [], {}

    standard = prepare_standard(sys)
    results = {"fibt": fibt_truncate(standard, 3)}
    for rho in EX1_GSPA_RHOS:
        label = f"rho{rho:g}".replace(".", "p")
        results[f"gspa_{label}"] = gspa_truncate(standard, 3, rho)
    for eps in EX1_SF_EPSILONS:
        label = f"eps{eps:g}".replace(".", "p")
        results[f"sf_{label}"] = sf_reduce(sys, SfConfig(varpi=0.0, epsilon=eps), 3)

    reduced = [res.reduced for res in results.values()]
    reports = _error_sweeps(sys, reduced, grid)
    dc_reports = _dc_reports(sys, reduced)
    for label, report, at_dc in zip(results, reports, dc_reports):
        sweeps[f"error_{label}_r3"] = report
        values[f"err0_{label}"] = float(at_dc.peak_value)
    # fibt always carries an ef bound, gspa only at rho = 0, sf-fdbt only
    # when both models are Hurwitz
    ef_records = iter(
        _verified(
            sys,
            [(res, "ef") for res in results.values() if "ef" in res.bounds],
            symmetric_log_grid(sys.poles, EF_GRID_POINTS),
        )
    )
    for (label, res), at_dc in zip(results.items(), dc_reports):
        # the sf bound holds at the shift point, w = 0: the DC error's own
        # measurement is its record
        if label.startswith("sf_"):
            records.append(_record(res, "sf", at_dc))
        if "ef" in res.bounds:
            records.append(next(ef_records))

    in_three_five = [
        values[f"err0_sf_eps{e:g}".replace(".", "p")]
        for e in EX1_SF_EPSILONS
        if 3.0 <= e <= 5.0
    ]
    assertions = {
        "sf_dc_error_below_fibt_for_some_eps_in_3_5": bool(
            min(in_three_five) < values["err0_fibt"]
        ),
        "gspa_dc_error_increases_with_rho": bool(
            values["err0_gspa_rho0"]
            <= values["err0_gspa_rho0p5"]
            <= values["err0_gspa_rho5"]
        ),
    }
    tables = {
        "epsilon_sweep": tuple(
            epsilon_sweep(sys, 0.0, 3, np.geomspace(0.1, 100.0, 61))
        )
    }
    return ExampleBundle("ex1", sweeps, tuple(records), assertions, values, tables)


def _reproduce_ex2(case: str) -> ExampleBundle:
    fix = example_fixture("ex2")
    sys = fix.system
    w1, w2 = EX2_BANDS[case]
    cfg = IntervalConfig(w1, w2)
    band = FrequencyGrid.linear(w1, w2, EXAMPLE_GRID_POINTS)
    sweeps, records, values, assertions = {}, [], {}, {}

    standard = prepare_standard(sys)
    interval = prepare_interval(sys, cfg)
    band_limited = prepare_band(sys, w1, w2, (standard.Wc, standard.Wo))
    for r in EX2_ORDERS:
        fibt = fibt_truncate(standard, r)
        intr = interval_truncate(interval, r)
        fgbt = fgbt_truncate(band_limited, r)
        rep = dict(
            zip(
                ("fibt", "int", "fgbt"),
                _error_sweeps(sys, [fibt.reduced, intr.reduced, fgbt.reduced], band),
            )
        )
        for meth, report in rep.items():
            sweeps[f"error_{meth}_r{r}"] = report
            values[f"peak_{meth}_r{r}"] = float(report.peak_value)
        values[f"interval_bound_r{r}"] = float(intr.bounds["interval"])
        values[f"stable_fgbt_r{r}"] = float(fgbt.stable)
        # the in-band sweep just made is the interval bound's measurement
        records.append(_record(intr, "interval", rep["int"]))
        ef_checks = [(intr, "ef")] if "ef" in intr.bounds else []
        records += _verified(
            sys, ef_checks + [(fibt, "ef")], symmetric_log_grid(sys.poles, EF_GRID_POINTS)
        )
        peak_int = values[f"peak_int_r{r}"]
        allow = 1.0 + _REL_SLACK
        assertions[f"int_peak_le_fibt_r{r}"] = bool(
            peak_int <= values[f"peak_fibt_r{r}"] * allow
        )
        # same usable-competitor rule as the ladder scenario: an unstable
        # reduced model has no in-band steady state and cannot win
        assertions[f"int_peak_le_fgbt_r{r}"] = bool(
            not fgbt.stable or peak_int <= values[f"peak_fgbt_r{r}"] * allow
        )
    return ExampleBundle(
        f"ex2_{case}", sweeps, tuple(records), assertions, values
    )


def _reproduce_ex3_case1() -> ExampleBundle:
    sys = generate_ladder(LADDER_ORDER)
    grid = FrequencyGrid.linear(-2.0, 2.0, LADDER_GRID_POINTS)
    # rho = 0 residualization interpolates at w = 0 exactly, so the honest
    # comparison for it is a neighborhood peak, kept as data only
    nbhd = FrequencyGrid.linear(-0.1, 0.1, 401)
    sweeps, records, values, notes = {}, [], {}, []

    standard = prepare_standard(sys)
    results = {"fibt_r181": fibt_truncate(standard, LADDER_BASELINE_ORDER)}
    try:
        results["gspa_r181"] = gspa_truncate(standard, LADDER_BASELINE_ORDER, 0.0)
    except FdbtError as exc:
        notes.append(f"gspa failed: {exc}")
    # ef estimate on a 402-state error system costs minutes and nothing in
    # this scenario consumes it; the shift-point bound is the one of record
    results["sf_r51"] = sf = sf_reduce(
        sys,
        SfConfig(varpi=0.0, epsilon=LADDER_SF_EPSILON),
        LADDER_SF_ORDER,
        with_ef_bound=False,
    )
    try:
        dc = _dc_reports(sys, [res.reduced for res in results.values()])
    except PoleOnGrid as exc:
        # a gspa model whose DC error is undefined fails as gspa; any
        # other model's failure raises again without it
        if results.pop("gspa_r181", None) is None:
            raise
        notes.append(f"gspa failed: {exc}")
        dc = _dc_reports(sys, [res.reduced for res in results.values()])
    dc = dict(zip(results, dc))
    if "gspa_r181" not in results:
        values["err0_gspa_r181"] = values["peak_nbhd_gspa_r181"] = math.nan
    for label, at_dc in dc.items():
        values[f"err0_{label}"] = float(at_dc.peak_value)

    # the full model's own response comes from the same plant evaluation
    reduced = [res.reduced for res in results.values()]
    full_report, *reports = _error_sweeps(sys, [None] + reduced, grid)
    sweeps["response_full"] = full_report
    for label, report in zip(results, reports):
        sweeps[f"error_{label}"] = report
    for label, report in zip(results, _error_sweeps(sys, reduced, nbhd)):
        values[f"peak_nbhd_{label}"] = float(report.peak_value)
    ef_grid = symmetric_log_grid(sys.poles, 600)
    records.append(verify_bound(sys, results["fibt_r181"], ef_grid, "ef"))
    # the sf bound holds at the shift point, w = 0: the DC error's own
    # measurement is its record
    records.append(_record(sf, "sf", dc["sf_r51"]))

    assertions = {
        "sf_r51_dc_error_below_fibt_r181": bool(
            values["err0_sf_r51"] < values["err0_fibt_r181"]
        ),
        "sf_r51_nbhd_peak_below_fibt_r181": bool(
            values["peak_nbhd_sf_r51"] < values["peak_nbhd_fibt_r181"]
        ),
    }
    return ExampleBundle(
        "ex3_case1", sweeps, tuple(records), assertions, values, notes=tuple(notes)
    )


def _reproduce_ex3_case2() -> ExampleBundle:
    sys = generate_ladder(LADDER_ORDER)
    w1, w2 = LADDER_BAND
    cfg = IntervalConfig(w1, w2)
    band = FrequencyGrid.linear(w1, w2, LADDER_GRID_POINTS)
    sweeps, records, values, assertions, notes = {}, [], {}, {}, []

    # one prepare per method: the eta chain walked for the lowest order
    # already holds every higher order's steps
    interval = prepare_interval(sys, cfg)
    band_limited = _prepared(prepare_band, sys, w1, w2)
    for r in LADDER_INTERVAL_ORDERS:
        # in-band bound only: the ef gap terms sweep systems whose order
        # scales with the full 201 states and add nothing to this scenario
        intr = interval_truncate(interval, r, with_ef_bound=False)
        try:
            fgbt = _truncated(fgbt_truncate, band_limited, r)
        except FdbtError as exc:
            fgbt = exc
        failed = isinstance(fgbt, FdbtError)
        reduced = [intr.reduced] + ([] if failed else [fgbt.reduced])
        rep_int, *rep_fgbt = _error_sweeps(sys, reduced, band)
        sweeps[f"error_int_r{r}"] = rep_int
        values[f"peak_int_r{r}"] = float(rep_int.peak_value)
        values[f"interval_bound_r{r}"] = float(intr.bounds["interval"])
        values[f"stable_int_r{r}"] = float(intr.stable)
        # the in-band sweep just made is the interval bound's measurement
        records.append(_record(intr, "interval", rep_int))

        if failed:
            values[f"peak_fgbt_r{r}"] = math.nan
            values[f"stable_fgbt_r{r}"] = 0.0
            notes.append(f"fgbt r={r} failed: {fgbt}")
        else:
            sweeps[f"error_fgbt_r{r}"] = rep_fgbt[0]
            values[f"peak_fgbt_r{r}"] = float(rep_fgbt[0].peak_value)
            values[f"stable_fgbt_r{r}"] = float(fgbt.stable)
            if not fgbt.stable:
                notes.append(
                    f"fgbt r={r}: reduced model not Hurwitz "
                    f"(max Re pole {float(np.max(fgbt.reduced.poles.real)):+.3e})"
                )

        # A reduced model that loses stability has no steady-state response
        # to an in-band sinusoid, so it cannot win an in-band approximation
        # comparison no matter how small its axis error looks. Raw peaks and
        # stability flags stay recorded above so the call is auditable.
        peak_fgbt = values[f"peak_fgbt_r{r}"]
        fgbt_usable = math.isfinite(peak_fgbt) and values[f"stable_fgbt_r{r}"] > 0
        assertions[f"int_beats_fgbt_in_band_r{r}"] = bool(
            not fgbt_usable
            or values[f"peak_int_r{r}"] <= peak_fgbt * (1.0 + _REL_SLACK)
        )
    return ExampleBundle(
        "ex3_case2",
        sweeps,
        tuple(records),
        assertions,
        values,
        notes=tuple(notes),
    )


_REPRODUCERS = {
    "ex1": _reproduce_ex1,
    "ex2_case1": lambda: _reproduce_ex2("case1"),
    "ex2_case2": lambda: _reproduce_ex2("case2"),
    "ex3_case1": _reproduce_ex3_case1,
    "ex3_case2": _reproduce_ex3_case2,
}

EXAMPLE_NAMES = tuple(sorted(_REPRODUCERS))


def reproduce_example(name: str, out_dir: str = "") -> ExampleBundle:
    """Rebuild one example scenario end to end.

    Returns the bundle; when out_dir is given, also writes one CSV per
    sweep/table plus records and summary JSON files there. Assertion
    outcomes are data: nothing raises on a failed comparison.
    """
    if name not in _REPRODUCERS:
        raise InvalidParameters(
            f"unknown example {name!r}; expected one of {sorted(_REPRODUCERS)}"
        )
    bundle = _REPRODUCERS[name]()
    if out_dir:
        write_bundle(bundle, out_dir)
    return bundle


# --------------------------------------------------------------------------
# serialization helpers (formats documented in the cli module)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        # before the int check: Python bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def record_dict(rec: VerificationRecord) -> dict:
    return _jsonable(vars(rec))


def write_sweep_csv(path: str, report) -> None:
    """CSV with header omega,sigma_max; skipped points carry NaN."""
    lines = ["omega,sigma_max"]
    for w, s in zip(report.grid.points, report.sigma_max):
        lines.append(f"{float(w)!r},{'NaN' if not math.isfinite(s) else repr(float(s))}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_bundle(bundle: ExampleBundle, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for label, report in bundle.sweeps.items():
        write_sweep_csv(os.path.join(out_dir, f"{bundle.name}__{label}.csv"), report)
    write_json(
        os.path.join(out_dir, f"{bundle.name}__records.json"),
        [record_dict(rec) for rec in bundle.records],
    )
    write_json(
        os.path.join(out_dir, f"{bundle.name}__summary.json"),
        {
            "name": bundle.name,
            "assertions": bundle.assertions,
            "values": bundle.values,
            "notes": list(bundle.notes),
        },
    )
    for label, rows in bundle.tables.items():
        path = os.path.join(out_dir, f"{bundle.name}__{label}.csv")
        lines = ["epsilon,sf_bound,ef_bound,note"]
        for row in rows:
            sf = "" if row.sf_bound is None else repr(float(row.sf_bound))
            ef = "" if row.ef_bound is None else repr(float(row.ef_bound))
            note = row.note.replace(",", ";")
            lines.append(f"{row.epsilon!r},{sf},{ef},{note}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
