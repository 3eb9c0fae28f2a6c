"""Empirical verification: bound checks, paper-style fixtures, random trials.

Everything here treats the library as a black box: reductions come from the
public entry points, measurements come from dense grid sweeps, and outcomes
are recorded as data rather than raised. Bundles can be written to disk as
CSV (sweeps, tables) and JSON (records, summaries) in the formats the CLI
documents.

The five example bundles and the randomized experiment's bands are run by
one function under one failure rule (_measured): a method whose prepare,
truncate or measurement raises FdbtError fails alone, with NaN values and a
note, so every example and the experiment record it instead of aborting.
"""

import json
import math
import os
from dataclasses import dataclass, field
from functools import partial
from operator import lt

import numpy as np

from .baselines import (
    fgbt_truncate,
    fibt_truncate,
    gspa_truncate,
    prepare_band,
    prepare_standard,
)
from .errors import ConvergenceFailure, FdbtError, InvalidParameters
from .interval import IntervalConfig, interval_truncate, prepare_interval
from .reduction import ReductionResult
from .sf import SfConfig, epsilon_sweep, prepare_sf, sf_truncate
from .sysmodel import (
    FrequencyGrid,
    StateSpace,
    SweepReport,
    error_sweeps,
    is_hurwitz,
    symmetric_log_grid,
)

# Grid densities. The experiment grid is deliberately lighter than the
# example grids: 100 models x 12 cells x 3 methods adds up, and 512 points
# plus the peak search (one probe for a peak on a band edge, parabolic
# steps inside) resolves the in-band peak of a 4th-order error system to
# far better than the ratios' meaningful digits.
EXPERIMENT_GRID_POINTS = 512
EXAMPLE_GRID_POINTS = 2001
LADDER_GRID_POINTS = 801
EF_GRID_POINTS = 1200
LADDER_NBHD_GRID_POINTS = 401
LADDER_EF_GRID_POINTS = 600

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
# The diagonal law of the experiment's A. The source leaves open whether 4.5
# is the variance or the standard deviation; it is read as the variance.
EXPERIMENT_DIAG_MEAN = -5.5
EXPERIMENT_DIAG_VARIANCE = 4.5

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
    key = bound_key or _DEFAULT_BOUND_KEY.get(result.method, "ef")
    if key not in result.bounds:
        raise InvalidParameters(f"result from {result.method!r} carries no {key!r} bound")
    (report,) = _error_sweeps(sys, [result.reduced], grid)
    return _record(result, key, report)


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

    SISO models: A's diagonal is normal with mean EXPERIMENT_DIAG_MEAN and
    variance EXPERIMENT_DIAG_VARIANCE, read at draw time, and every other
    entry of A, B, C, D standard normal. Non-Hurwitz draws are resampled and
    counted. seed must be >= 0 (numpy's default_rng refuses a negative one).
    """

    n: int
    seed: int
    count: int

    def __post_init__(self):
        if self.n < 1 or self.count < 1 or self.seed < 0:
            raise InvalidParameters("need n >= 1, count >= 1 and seed >= 0")


def draw_random_models(spec: RandomModelSpec):
    """Draw spec.count Hurwitz systems; returns (models, resample_count)."""
    rng = np.random.default_rng(spec.seed)
    mean, std = EXPERIMENT_DIAG_MEAN, math.sqrt(EXPERIMENT_DIAG_VARIANCE)
    models = []
    resamples = 0
    budget = 1000 * spec.count
    while len(models) < spec.count:
        a = rng.standard_normal((spec.n, spec.n))
        np.fill_diagonal(a, mean + std * rng.standard_normal(spec.n))
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
    """Aggregates over models for one cell: means of per-model ratios, and
    in *_excluded the models dropped from each method's error column."""

    half_width: float
    order: int
    err_fdbt_mean: float
    err_fgbt_mean: float
    eb_fdbt_mean: float
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
    """prepare(*args), or the FdbtError it raised, kept for every order.
    Every example method's prepare, truncate and measurement runs through
    here: the one place their errors are caught (see _measured)."""
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
    # band, not on the order: prepare once, truncate per order. The int-fdbt
    # ef bound is never read here, so it is not computed. Each band is one
    # example for _measured, whose one sweep evaluates the model once.
    rows = []
    standard = prepare_standard(model)
    fibt = {r: fibt_truncate(standard, r) for r in orders}
    for wl in half_widths:
        fdbt = _prepared(prepare_interval, model, IntervalConfig(-wl, wl))
        fgbt = _prepared(prepare_band, model, -wl, wl)
        int_fdbt = partial(_truncated, interval_truncate, fdbt, with_ef_bound=False)
        methods = (
            _Method("fibt", orders, fibt.__getitem__),
            _Method("fdbt", orders, int_fdbt),
            _Method("fgbt", orders, partial(_truncated, fgbt_truncate, fgbt)),
        )
        grid = FrequencyGrid.linear(-wl, wl, EXPERIMENT_GRID_POINTS)
        results, got, _ = _measured(_Example("random", model, methods, grid, {}))
        failed = {run: res for run, res in results.items() if isinstance(res, FdbtError)}
        for r in orders:
            peak_fibt, peak_fdbt, peak_fgbt = (
                math.nan if (m, r) in failed else got[m, r]["peak"].peak_value for m in methods
            )
            run = methods[1], r  # int-fdbt's
            bound_fdbt = math.nan if run in failed else float(results[run].bounds["interval"])
            bound_fibt = float(fibt[r].bounds["ef"])
            note = [f"{m.label}: {failed[m, r]}" for m in methods if (m, r) in failed]
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
                    bound_fdbt=bound_fdbt,
                    err_fdbt=float(peak_fdbt / peak_fibt) if usable else math.nan,
                    err_fgbt=float(peak_fgbt / peak_fibt) if usable else math.nan,
                    eb_fdbt=float(bound_fdbt / bound_fibt) if bound_fibt > 0 else math.nan,
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


def run_randomized_experiment(spec: RandomModelSpec) -> ExperimentReport:
    """Table-style comparison over a seeded random population.

    Cells are EXPERIMENT_HALF_WIDTHS x EXPERIMENT_ORDERS, read at call time;
    each reports means of per-model ratios (mean of ratios, not ratio of
    means) plus the fraction of models where the ratio is below one. A
    method failed under the one failure rule (_measured) excludes the model
    from that method's columns only, with the exclusion counted. Models
    run one after another in index order. Each model is prepared once for fibt and once per
    half-width for int-fdbt and fgbt, then truncated at every order; the
    int-fdbt whole-axis ef bound, which no cell reads, is not computed.
    """
    half_widths, orders = EXPERIMENT_HALF_WIDTHS, EXPERIMENT_ORDERS
    if any(not 1 <= r < spec.n for r in orders):
        raise InvalidParameters(f"orders must satisfy 1 <= r < n = {spec.n}")

    models, resamples = draw_random_models(spec)
    per_model = [_model_records(i, m, half_widths, orders) for i, m in enumerate(models)]
    records = tuple(row for rows in per_model for row in rows)

    cells = []
    for wl in half_widths:
        for r in orders:
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
                    err_fdbt_frac_below_1=err_fdbt_frac,
                    eb_fdbt_frac_below_1=eb_fdbt_frac,
                    models_used=len(batch),
                    fgbt_excluded=len(batch) - n_fgbt,
                    fdbt_excluded=len(batch) - n_fdbt,
                )
            )
    return ExperimentReport(
        spec=spec,
        half_widths=half_widths,
        orders=orders,
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


def _dc_reports(sys, reduced_models, reports) -> list:
    """Error reports of one plant's reduced models at w = 0, read off the
    models' reports over one grid, which must hold w = 0 (a point's bytes
    do not depend on its grid).

    Truncation can park exactly-cancelling modes on the origin (finite
    response, formally a pole), so a model whose error is undefined there
    is measured at w = 1e-9 instead; if that is undefined too, the model's
    entry is the PoleOnGrid raised, its failure alone.
    """
    dc, offset = FrequencyGrid.explicit([0.0]), FrequencyGrid.explicit([1e-9])
    out = []
    for reduced, rep in zip(reduced_models, reports):
        om = rep.grid.points
        if 0.0 not in om:
            raise InvalidParameters("DC errors are read off a grid holding w = 0")
        k = int(np.searchsorted(om, 0.0))
        if math.isnan(rep.sigma_max[k]):
            out.append(_prepared(lambda m: error_sweeps(sys, [m], offset)[0], reduced))
        else:
            out.append(SweepReport(dc, rep.sigma_max[k : k + 1], float(rep.sigma_max[k]), 0.0))
    return out


@dataclass(frozen=True)
class _Method:
    """One reduction method of an example, run at each of its orders.

    reduce(r) is a ReductionResult; it raises the FdbtError of a failed
    prepare (_truncated) at every order. values names the families recorded
    per order: err0, peak, peak_nbhd, stable (keyed <family>_<tag>) and
    interval_bound (keyed interval_bound_r<r>). ef asks for an ef record,
    made when the result carries that bound. An sf-fdbt method records
    err0, the measurement of its sf record.
    """

    label: str
    orders: tuple
    reduce: object
    values: tuple = ("peak",)
    ef: bool = False


@dataclass(frozen=True)
class _Example:
    """One example scenario as data, run by _measured.

    Each method's error is swept over grid (its sweep file, named by sweep;
    with full_response the plant's response too), err0 is read off that
    sweep at w = 0, peak_nbhd comes from the nbhd grid and ef records from
    a symmetric log grid of ef_points. tag names a method's values at an
    order; assertions maps names to (value keys, predicate of the values).
    """

    name: str
    plant: StateSpace
    methods: tuple
    grid: FrequencyGrid
    assertions: dict
    nbhd: FrequencyGrid = None
    ef_points: int = EF_GRID_POINTS
    full_response: bool = False
    tag: str = "{label}_r{r}"
    sweep: str = "error_{label}_r{r}"
    tables: dict = field(default_factory=dict)


def _measured(ex: _Example):
    """Run every method of one example at its orders and measure each run.

    The one failure rule: an FdbtError from a run's prepare, truncate or
    measurement (its DC error included) fails that run alone. Each grid is
    swept once for its live runs, each model alone when a refining probe
    meets a pole; a DC, neighbourhood or ef grid is built only when some
    run asks for it. Returns (results, got, sweeps): each run's
    ReductionResult or failing FdbtError in run order, its reports by what
    they measured, and sweeps["response_full"] when ex.full_response asks.
    """
    orders = dict.fromkeys(r for method in ex.methods for r in method.orders)
    runs = [(method, r) for r in orders for method in ex.methods if r in method.orders]
    results = {run: _prepared(run[0].reduce, run[1]) for run in runs}
    got = {run: {} for run in runs}  # run -> what was measured -> its report
    sweeps = {}

    def live(family=None):
        ok = [run for run in runs if not isinstance(results[run], FdbtError)]
        return [run for run in ok if family is None or family in run[0].values]

    def keep(what, chosen, reports):
        for run, report in zip(chosen, reports):
            if isinstance(report, FdbtError):
                results[run] = report
            got[run][what] = report

    def measure(what, grid, chosen, full=False):
        models = ([None] if full else []) + [results[run].reduced for run in chosen]
        reports = _prepared(_error_sweeps, ex.plant, models, grid) if models else []
        if isinstance(reports, FdbtError):
            # a refining probe hit a pole: sweep each model alone to find whose
            reports = [_prepared(lambda m: _error_sweeps(ex.plant, [m], grid)[0], m) for m in models]
        if full:
            # the plant's own response, from the evaluation its errors share
            sweeps["response_full"] = reports.pop(0)
        keep(what, chosen, reports)

    measure("peak", ex.grid, live(), ex.full_response)
    if chosen := live("err0"):
        models = [results[run].reduced for run in chosen]
        keep("err0", chosen, _dc_reports(ex.plant, models, [got[run]["peak"] for run in chosen]))
    if chosen := live("peak_nbhd"):
        measure("peak_nbhd", ex.nbhd, chosen)
    if chosen := [run for run in live() if run[0].ef and "ef" in results[run].bounds]:
        measure("ef", symmetric_log_grid(ex.plant.poles, ex.ef_points), chosen)
    return results, got, sweeps


def _reproduced(ex: _Example) -> ExampleBundle:
    """Record every method of one example at its orders as _measured ran
    them: a failed run is a `<label> r=<r> failed: ...` note, NaN values
    (stable 0.0), no sweep file and no record, and an assertion reading any
    of its values is false. Records follow the methods' order within each
    order: a method's own bound (interval, sf) first, its ef record after.
    """
    results, got, sweeps = _measured(ex)
    records, values, notes, failed = [], {}, [], set()
    for run, result in results.items():
        method, r = run
        tag = ex.tag.format(label=method.label, r=r)
        keys = {
            family: f"interval_bound_r{r}" if family == "interval_bound" else f"{family}_{tag}"
            for family in method.values
        }
        if isinstance(result, FdbtError):
            notes.append(f"{method.label} r={r} failed: {result}")
            values.update({key: 0.0 if f == "stable" else math.nan for f, key in keys.items()})
            failed.update(keys.values())
            continue
        sweeps[ex.sweep.format(label=method.label, r=r)] = got[run]["peak"]
        quantity = {what: report.peak_value for what, report in got[run].items()}
        quantity.update(stable=result.stable, interval_bound=result.bounds.get("interval"))
        values.update({key: float(quantity[family]) for family, key in keys.items()})
        own = _DEFAULT_BOUND_KEY.get(result.method)
        if own:  # the in-band sweep measures the interval bound, the DC error the sf
            records.append(_record(result, own, got[run]["err0" if own == "sf" else "peak"]))
        if "ef" in got[run]:
            records.append(_record(result, "ef", got[run]["ef"]))
        if "stable" in method.values and not result.stable:
            notes.append(
                f"{method.label} r={r}: reduced model not Hurwitz "
                f"(max Re pole {float(np.max(result.reduced.poles.real)):+.3e})"
            )
    assertions = {
        name: failed.isdisjoint(keys) and bool(predicate(*(values[key] for key in keys)))
        for name, (keys, predicate) in ex.assertions.items()
    }
    return ExampleBundle(
        ex.name, sweeps, tuple(records), assertions, values, ex.tables, tuple(notes)
    )


def _beats(peak, other, other_stable=1.0) -> bool:
    """peak <= other up to rounding. A competitor that is not Hurwitz has no
    steady-state response to an in-band sinusoid, so it cannot win in-band
    however small its axis error looks (its peak and flag stay recorded)."""
    return not other_stable or peak <= other * (1.0 + _REL_SLACK)


def _int_fgbt_keys(r: int) -> tuple:
    return f"peak_int_r{r}", f"peak_fgbt_r{r}", f"stable_fgbt_r{r}"


def _ex1() -> _Example:
    sys = example_fixture("ex1").system
    standard = _prepared(prepare_standard, sys)
    # fibt always carries an ef bound, gspa only at rho = 0, sf-fdbt only
    # when sf_ef_bound can compute it
    reduce = {"fibt": partial(_truncated, fibt_truncate, standard)}
    for rho in EX1_GSPA_RHOS:
        label = f"gspa_rho{rho:g}".replace(".", "p")
        reduce[label] = partial(_truncated, gspa_truncate, standard, rho=rho)
    for eps in EX1_SF_EPSILONS:
        sf = _prepared(prepare_sf, sys, SfConfig(0.0, eps))
        reduce[f"sf_eps{eps:g}".replace(".", "p")] = partial(_truncated, sf_truncate, sf)
    methods = tuple(_Method(label, (3,), fn, ("err0",), ef=True) for label, fn in reduce.items())
    sf_3_5 = [f"err0_sf_eps{e:g}".replace(".", "p") for e in EX1_SF_EPSILONS if 3.0 <= e <= 5.0]
    return _Example(
        "ex1", sys, methods, FrequencyGrid.linear(-20.0, 20.0, EXAMPLE_GRID_POINTS),
        {
            "sf_dc_error_below_fibt_for_some_eps_in_3_5": (
                ("err0_fibt", *sf_3_5),
                lambda fibt, *sf: min(sf) < fibt,
            ),
            "gspa_dc_error_increases_with_rho": (
                ("err0_gspa_rho0", "err0_gspa_rho0p5", "err0_gspa_rho5"),
                lambda rho0, rho0p5, rho5: rho0 <= rho0p5 <= rho5,
            ),
        },
        tag="{label}",
        tables={"epsilon_sweep": tuple(epsilon_sweep(sys, 0.0, 3, np.geomspace(0.1, 100.0, 61)))},
    )


def _ex2(case: str) -> _Example:
    sys = example_fixture("ex2").system
    w1, w2 = EX2_BANDS[case]
    standard = _prepared(prepare_standard, sys)
    interval = _prepared(prepare_interval, sys, IntervalConfig(w1, w2))
    band = _prepared(prepare_band, sys, w1, w2)
    methods = (
        _Method("int", EX2_ORDERS, partial(_truncated, interval_truncate, interval),
                ("peak", "interval_bound"), ef=True),
        _Method("fibt", EX2_ORDERS, partial(_truncated, fibt_truncate, standard), ef=True),
        _Method("fgbt", EX2_ORDERS, partial(_truncated, fgbt_truncate, band), ("peak", "stable")),
    )
    assertions = {}
    for r in EX2_ORDERS:
        assertions[f"int_peak_le_fibt_r{r}"] = ((f"peak_int_r{r}", f"peak_fibt_r{r}"), _beats)
        assertions[f"int_peak_le_fgbt_r{r}"] = (_int_fgbt_keys(r), _beats)
    return _Example(
        f"ex2_{case}", sys, methods, FrequencyGrid.linear(w1, w2, EXAMPLE_GRID_POINTS), assertions
    )


def _ex3_case1() -> _Example:
    sys = generate_ladder(LADDER_ORDER)
    standard = _prepared(prepare_standard, sys)
    # nothing here reads ef, and whether it is computed hangs on a stability
    # verdict rounding decides; the shift-point bound is the one of record
    sf = _prepared(prepare_sf, sys, SfConfig(0.0, LADDER_SF_EPSILON))
    sf_fdbt = partial(_truncated, sf_truncate, sf, with_ef_bound=False)
    both, baseline = ("err0", "peak_nbhd"), (LADDER_BASELINE_ORDER,)
    methods = (
        _Method("fibt_r181", baseline, partial(_truncated, fibt_truncate, standard), both, True),
        _Method("gspa_r181", baseline, partial(_truncated, gspa_truncate, standard), both),
        _Method("sf_r51", (LADDER_SF_ORDER,), sf_fdbt, both),
    )
    return _Example(
        "ex3_case1", sys, methods, FrequencyGrid.linear(-2.0, 2.0, LADDER_GRID_POINTS),
        {
            "sf_r51_dc_error_below_fibt_r181": (("err0_sf_r51", "err0_fibt_r181"), lt),
            "sf_r51_nbhd_peak_below_fibt_r181": (("peak_nbhd_sf_r51", "peak_nbhd_fibt_r181"), lt),
        },
        # rho = 0 residualization interpolates at w = 0 exactly, so the
        # honest comparison for it is a neighborhood peak, kept as data only
        nbhd=FrequencyGrid.linear(-0.1, 0.1, LADDER_NBHD_GRID_POINTS),
        ef_points=LADDER_EF_GRID_POINTS,
        full_response=True,
        tag="{label}",
        sweep="error_{label}",
    )


def _ex3_case2() -> _Example:
    sys = generate_ladder(LADDER_ORDER)
    w1, w2 = LADDER_BAND
    # one prepare per method: the eta chain walked for the lowest order
    # already holds every higher order's steps. In-band bound only: the ef
    # gap terms sweep systems whose order scales with the full 201 states
    # and add nothing to this scenario.
    interval = _prepared(prepare_interval, sys, IntervalConfig(w1, w2))
    band = _prepared(prepare_band, sys, w1, w2)
    orders = LADDER_INTERVAL_ORDERS
    int_fdbt = partial(_truncated, interval_truncate, interval, with_ef_bound=False)
    methods = (
        _Method("int", orders, int_fdbt, ("peak", "interval_bound", "stable")),
        _Method("fgbt", orders, partial(_truncated, fgbt_truncate, band), ("peak", "stable")),
    )
    assertions = {f"int_beats_fgbt_in_band_r{r}": (_int_fgbt_keys(r), _beats) for r in orders}
    return _Example(
        "ex3_case2", sys, methods, FrequencyGrid.linear(w1, w2, LADDER_GRID_POINTS), assertions
    )


_EXAMPLES = {
    "ex1": _ex1,
    "ex2_case1": lambda: _ex2("case1"),
    "ex2_case2": lambda: _ex2("case2"),
    "ex3_case1": _ex3_case1,
    "ex3_case2": _ex3_case2,
}

EXAMPLE_NAMES = tuple(sorted(_EXAMPLES))


def reproduce_example(name: str, out_dir: str = "") -> ExampleBundle:
    """Rebuild one example scenario end to end.

    Returns the bundle; when out_dir is given, also writes one CSV per
    sweep/table plus records and summary JSON files there. Assertion
    outcomes are data: nothing raises on a failed comparison, and a method
    that fails is a note in the bundle (see _reproduced).
    """
    if name not in _EXAMPLES:
        raise InvalidParameters(f"unknown example {name!r}; expected one of {sorted(_EXAMPLES)}")
    bundle = _reproduced(_EXAMPLES[name]())
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
