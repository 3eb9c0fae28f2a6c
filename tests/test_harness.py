"""Verification records, the randomized study, the ladder, and bundles."""

import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

import oracles as orc
from helpers import random_stable
from fdbt import (
    ConvergenceFailure,
    EXAMPLE_NAMES,
    FrequencyGrid,
    InvalidParameters,
    RandomModelSpec,
    ReductionResult,
    StateSpace,
    draw_random_models,
    error_system,
    example_fixture,
    fibt_reduce,
    generate_ladder,
    interval_reduce,
    is_hurwitz,
    reproduce_example,
    run_randomized_experiment,
    sigma_max_at,
    sweep,
    verify_bound,
    write_bundle,
    write_json,
    write_sweep_csv,
)
import fdbt
from fdbt import cli, fgbt_reduce
from fdbt.baselines import prepare_standard
from fdbt.errors import (
    FdbtError,
    IndefiniteGramian,
    SingularReconstruction,
    SingularShift,
)
from fdbt.harness import (
    EXPERIMENT_GRID_POINTS,
    EXPERIMENT_HALF_WIDTHS,
    EXPERIMENT_ORDERS,
    ModelCellRecord,
    _beats,
    _dc_reports,
    _truncated,
)


class TestVerifyBound:
    def test_margin_and_pass_flag(self):
        sys = random_stable(200, 4)
        res = fibt_reduce(sys, 2)
        grid = FrequencyGrid.linear(-5.0, 5.0, 501)
        rec = verify_bound(sys, res, grid, "ef")
        assert rec.bound == res.bounds["ef"]
        assert rec.margin == pytest.approx(rec.bound - rec.peak)
        assert rec.passed and rec.points == 501
        assert rec.method == "fibt" and rec.order == 2

    def test_default_key_follows_method(self):
        sys = random_stable(201, 4)
        res = interval_reduce(sys, __import__("fdbt").IntervalConfig(-0.5, 0.5), 2)
        rec = verify_bound(sys, res, FrequencyGrid.linear(-0.5, 0.5, 301))
        assert rec.bound_key == "interval"

    def test_missing_bound_key_rejected(self):
        sys = random_stable(202, 4)
        res = fibt_reduce(sys, 2)
        with pytest.raises(InvalidParameters):
            verify_bound(sys, res, FrequencyGrid.linear(-1, 1, 11), "interval")

    def test_violated_bound_is_recorded_not_raised(self):
        sys = random_stable(203, 4)
        res = fibt_reduce(sys, 2)
        doctored = ReductionResult(
            reduced=res.reduced,
            method=res.method,
            order=res.order,
            bounds={"ef": 0.0},
            stable=res.stable,
            sigma=res.sigma,
        )
        rec = verify_bound(sys, doctored, FrequencyGrid.linear(-2, 2, 101), "ef")
        assert not rec.passed and rec.margin < 0

    def test_slack_covers_rounding_only(self):
        # a bound 1e-9 below its peak passes, one 1e-6 relative below fails
        sys = random_stable(203, 4)
        res = fibt_reduce(sys, 2)
        grid = FrequencyGrid.linear(-2, 2, 101)
        peak = verify_bound(sys, res, grid, "ef").peak
        for bound, passed in ((peak - 1e-9, True), (peak * (1.0 - 1e-6), False)):
            assert verify_bound(sys, replace(res, bounds={"ef": bound}), grid).passed is passed


def test_a_win_is_a_lower_peak_up_to_rounding():
    # or any peak against a competitor that is not Hurwitz
    assert _beats(1.0 + 1e-9, 1.0) and not _beats(1.0 + 1e-6, 1.0)
    assert _beats(2.0, 1.0, other_stable=0.0)


class TestRandomModels:
    def test_spec_validation(self):
        with pytest.raises(InvalidParameters):
            RandomModelSpec(n=0, seed=1, count=5)
        with pytest.raises(InvalidParameters):
            RandomModelSpec(n=3, seed=1, count=0)
        with pytest.raises(InvalidParameters):
            RandomModelSpec(n=3, seed=-1, count=5)

    def test_deterministic_and_hurwitz(self):
        spec = RandomModelSpec(n=4, seed=9, count=6)
        models_a, resamples_a = draw_random_models(spec)
        models_b, resamples_b = draw_random_models(spec)
        assert resamples_a == resamples_b
        assert len(models_a) == 6
        for ma, mb in zip(models_a, models_b):
            assert ma.A.tobytes() == mb.A.tobytes()
            assert ma.B.tobytes() == mb.B.tobytes()
            assert is_hurwitz(ma).stable

    def test_resample_budget_enforced(self, monkeypatch):
        # a diagonal mean of +60 makes Hurwitz draws essentially impossible
        monkeypatch.setattr(fdbt.harness, "EXPERIMENT_DIAG_MEAN", 60.0)
        with pytest.raises(ConvergenceFailure):
            draw_random_models(RandomModelSpec(n=3, seed=2, count=1))


def _experiment(monkeypatch, spec, half_widths, orders):
    """run_randomized_experiment(spec) over the cells half_widths x orders."""
    monkeypatch.setattr(fdbt.harness, "EXPERIMENT_HALF_WIDTHS", half_widths)
    monkeypatch.setattr(fdbt.harness, "EXPERIMENT_ORDERS", orders)
    return run_randomized_experiment(spec)


@pytest.fixture(scope="module")
def mini_report():
    with pytest.MonkeyPatch.context() as monkeypatch:
        return _experiment(monkeypatch, RandomModelSpec(n=4, seed=5, count=2), (0.4,), (1, 2))


class TestExperiment:

    def test_record_grid_shape(self, mini_report):
        recs = mini_report.records
        assert len(recs) == 4  # 2 models x 1 half-width x 2 orders
        assert {(r.half_width, r.order) for r in recs} == {(0.4, 1), (0.4, 2)}

    def test_cell_stats_recomputable_from_records(self, mini_report):
        cell = mini_report.cell(0.4, 1)
        rows = [r for r in mini_report.records if r.order == 1]
        errs = [r.err_fdbt for r in rows if math.isfinite(r.err_fdbt)]
        ebs = [r.eb_fdbt for r in rows if math.isfinite(r.eb_fdbt)]
        assert cell.err_fdbt_mean == pytest.approx(np.mean(errs))
        assert cell.eb_fdbt_mean == pytest.approx(np.mean(ebs))
        assert cell.err_fdbt_frac_below_1 == pytest.approx(
            np.mean([e < 1.0 for e in errs])
        )
        assert cell.models_used == len(errs)

    def test_ratios_recomputable_from_raw_peaks(self, mini_report):
        for rec in mini_report.records:
            if math.isfinite(rec.err_fdbt):
                assert rec.err_fdbt == pytest.approx(rec.peak_fdbt / rec.peak_fibt)
            if math.isfinite(rec.eb_fdbt):
                assert rec.eb_fdbt == pytest.approx(rec.bound_fdbt / rec.bound_fibt)

    def test_peaks_agree_with_independent_dense_scan(self, mini_report):
        spec = RandomModelSpec(n=4, seed=5, count=2)
        models, _ = draw_random_models(spec)
        rec = next(r for r in mini_report.records if r.model_index == 0 and r.order == 1)
        sys = models[0]
        red = fibt_reduce(sys, 1).reduced
        err = error_system(sys, red)
        coarse, _ = orc.peak_on_grid(
            err.A, err.B, err.C, err.D, np.linspace(-0.4, 0.4, 512)
        )
        dense, _ = orc.peak_on_grid(
            err.A, err.B, err.C, err.D, np.linspace(-0.4, 0.4, 20001)
        )
        # the recorded peak is refinement-sharpened: at least the coarse grid
        # max, at most (up to refinement slack) the dense-scan value
        assert rec.peak_fibt >= coarse * (1.0 - 1e-12)
        assert rec.peak_fibt <= dense * (1.0 + 1e-3)

    def test_report_json_deterministic(self, monkeypatch):
        spec = RandomModelSpec(n=3, seed=6, count=2)
        a = _experiment(monkeypatch, spec, (0.2,), (1,))
        b = _experiment(monkeypatch, spec, (0.2,), (1,))
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )


class TestExperimentFailures:
    """A failed method leaves a note and NaN in its own columns only."""

    SPEC = RandomModelSpec(n=4, seed=5, count=4)

    @pytest.fixture()
    def report(self, monkeypatch):
        # model 0: fgbt's prepare fails; model 1: int-fdbt's prepare fails;
        # model 2: int-fdbt's truncation fails at r = 2; model 3: the fibt
        # peak at r = 1 reads 0
        models, _ = draw_random_models(self.SPEC)

        def index(model):
            return next(i for i, m in enumerate(models) if np.array_equal(m.A, model.A))

        harness = fdbt.harness
        real = {
            name: getattr(harness, name)
            for name in ("prepare_band", "prepare_interval", "interval_truncate",
                         "_error_sweeps")
        }
        truncated = []

        def prepare_band(model, *args):
            if index(model) == 0:
                raise IndefiniteGramian("injected band failure")
            return real["prepare_band"](model, *args)

        def prepare_interval(model, cfg):
            if index(model) == 1:
                raise SingularShift("injected prepare failure")
            return real["prepare_interval"](model, cfg)

        def interval_truncate(prep, r, **flags):
            truncated.append((index(prep.sys), r))
            if (index(prep.sys), r) == (2, 2):
                raise SingularReconstruction("injected truncate failure")
            return real["interval_truncate"](prep, r, **flags)

        def error_sweeps(model, reduced_models, grid):
            reports = real["_error_sweeps"](model, reduced_models, grid)
            if index(model) == 3:
                reports[0] = replace(reports[0], peak_value=0.0)  # fibt at r = 1
            return reports

        monkeypatch.setattr(harness, "prepare_band", prepare_band)
        monkeypatch.setattr(harness, "prepare_interval", prepare_interval)
        monkeypatch.setattr(harness, "interval_truncate", interval_truncate)
        monkeypatch.setattr(harness, "_error_sweeps", error_sweeps)
        report = _experiment(monkeypatch, self.SPEC, (0.4,), (1, 2))
        # a failed prepare is re-raised by _truncated at every order, so the
        # truncation never runs on model 1
        assert sorted(truncated) == [(i, r) for i in (0, 2, 3) for r in (1, 2)]
        return {(rec.model_index, rec.order): rec for rec in report.records}, report

    def test_notes_name_the_failed_method(self, report):
        records, _ = report
        assert {key: rec.note for key, rec in records.items()} == {
            (0, 1): "fgbt: injected band failure",
            (0, 2): "fgbt: injected band failure",
            (1, 1): "fdbt: injected prepare failure",
            (1, 2): "fdbt: injected prepare failure",
            (2, 1): "",
            (2, 2): "fdbt: injected truncate failure",
            (3, 1): "fibt peak degenerate; ratios undefined",
            (3, 2): "",
        }

    def test_failed_columns_are_nan_and_the_others_are_not(self, report):
        records, _ = report
        for (model, r), rec in records.items():
            fdbt_failed = model == 1 or (model, r) == (2, 2)
            fgbt_failed = model == 0
            # a degenerate fibt peak leaves both error ratios undefined
            degenerate = (model, r) == (3, 1)
            assert (rec.peak_fibt == 0.0) == degenerate, (model, r)
            for name in ("peak_fdbt", "bound_fdbt", "eb_fdbt"):
                assert math.isnan(getattr(rec, name)) == fdbt_failed, (model, r, name)
            assert math.isnan(rec.err_fdbt) == (fdbt_failed or degenerate), (model, r)
            assert math.isnan(rec.peak_fgbt) == fgbt_failed, (model, r)
            assert math.isnan(rec.err_fgbt) == (fgbt_failed or degenerate), (model, r)

    def test_cells_count_the_exclusions(self, report):
        records, rep = report
        # r = 1: fdbt fails on model 1 and the fibt peak of model 3 is
        # degenerate; r = 2: fdbt fails on models 1 and 2; fgbt fails on
        # model 0 at both orders
        for r, fdbt_excluded, fgbt_excluded in ((1, 2, 2), (2, 2, 1)):
            cell = rep.cell(0.4, r)
            assert cell.models_used == 4
            assert (cell.fdbt_excluded, cell.fgbt_excluded) == (fdbt_excluded, fgbt_excluded)
            used = [records[i, r].err_fdbt for i in range(4)]
            assert cell.err_fdbt_mean == pytest.approx(np.nanmean(used))
            used = [records[i, r].err_fgbt for i in range(4)]
            assert cell.err_fgbt_mean == pytest.approx(np.nanmean(used))

    def test_a_probe_that_meets_a_pole_fails_its_method_alone(self, monkeypatch):
        # the second fgbt truncation (model 0, r = 2) overflows at its
        # refining probe, so the band's one sweep raises PoleOnGrid and each
        # model is swept alone
        clean = _experiment(monkeypatch, self.SPEC, (0.4,), (1, 2))
        harness = fdbt.harness
        real_truncate, real_point = harness.fgbt_truncate, fdbt.sysmodel._point_response
        fgbt_models, probed = [], []

        def fgbt_truncate(prep, r):
            result = real_truncate(prep, r)
            fgbt_models.append(result.reduced)
            return result

        def point_response(sys, s):
            if sys is fgbt_models[1]:
                probed.append(s)
                return np.full((1, 1), np.inf + 0j)
            return real_point(sys, s)

        monkeypatch.setattr(harness, "fgbt_truncate", fgbt_truncate)
        monkeypatch.setattr(fdbt.sysmodel, "_point_response", point_response)
        report = _experiment(monkeypatch, self.SPEC, (0.4,), (1, 2))
        assert probed
        hit = report.records[1]
        assert (hit.model_index, hit.order) == (0, 2)
        assert hit.note.startswith("fgbt: response overflowed at s = ")
        assert math.isnan(hit.peak_fgbt) and math.isnan(hit.err_fgbt)
        assert report.cell(0.4, 2).fgbt_excluded == 1
        for got, want in zip(report.records, clean.records):
            for key, value in vars(want).items():
                if got is hit and (key.endswith("fgbt") or key == "note"):
                    continue
                other = getattr(got, key)
                if isinstance(value, float):
                    # bitwise, NaN included: a model swept alone reads as in
                    # the band's one sweep
                    assert np.float64(other).tobytes() == np.float64(value).tobytes(), key
                else:
                    assert other == value, key

    def test_truncated_reraises_a_failed_prepare_at_every_order(self):
        failure = SingularShift("prepare failed")
        calls = []
        for r in (1, 2, 3):
            with pytest.raises(SingularShift) as info:
                _truncated(lambda *args: calls.append(args), failure, r)
            assert info.value is failure
        assert calls == []

    @pytest.mark.parametrize("orders", [(1, 4), (0,)])
    def test_refused_before_any_model_is_drawn(self, monkeypatch, orders):
        def draw(spec):
            raise AssertionError("models drawn")

        monkeypatch.setattr(fdbt.harness, "draw_random_models", draw)
        with pytest.raises(InvalidParameters) as info:
            _experiment(monkeypatch, self.SPEC, (0.4,), orders)
        assert str(info.value) == "orders must satisfy 1 <= r < n = 4"


def _records_by_public_calls(models, half_widths, orders):
    """The experiment's records from one public reduce call per order."""
    rows = []
    for index, model in enumerate(models):
        for wl in half_widths:
            grid = FrequencyGrid.linear(-wl, wl, EXPERIMENT_GRID_POINTS)
            cfg = fdbt.IntervalConfig(-wl, wl)

            def peak(res):
                err = error_system(model, res.reduced)
                return sweep(err, grid, refine=True, on_pole="skip").peak_value

            for r in orders:
                fibt = fibt_reduce(model, r)
                peak_fibt, bound_fibt = peak(fibt), float(fibt.bounds["ef"])
                note = []
                peak_fdbt = bound_fdbt = peak_fgbt = math.nan
                try:
                    res = interval_reduce(model, cfg, r, with_ef_bound=False)
                    peak_fdbt, bound_fdbt = peak(res), float(res.bounds["interval"])
                except FdbtError as exc:
                    note.append(f"fdbt: {exc}")
                try:
                    peak_fgbt = peak(fgbt_reduce(model, r, -wl, wl))
                except FdbtError as exc:
                    note.append(f"fgbt: {exc}")
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


def _counting(monkeypatch, module, name, counts):
    """Count calls to module.name at every fdbt namespace that binds it."""
    original = getattr(module, name)
    counts[name] = 0

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    modules = (fdbt.baselines, fdbt.harness, fdbt.interval, fdbt.linalg, fdbt.reduction)
    for mod in (fdbt, *modules, fdbt.sf, fdbt.sysmodel):
        if getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)


class TestPreparedExperiment:
    SPEC = RandomModelSpec(n=4, seed=3, count=3)

    def test_records_equal_per_order_public_calls_bitwise(self):
        report = run_randomized_experiment(self.SPEC)
        models, _ = draw_random_models(self.SPEC)
        want = _records_by_public_calls(models, EXPERIMENT_HALF_WIDTHS, EXPERIMENT_ORDERS)
        assert len(report.records) == len(want)
        for got, ref in zip(report.records, want):
            for key, value in vars(ref).items():
                other = getattr(got, key)
                if isinstance(value, float):
                    # bitwise, NaN included
                    assert np.float64(other).tobytes() == np.float64(value).tobytes(), key
                else:
                    assert other == value, key

    def test_prepares_once_per_model_and_band(self, monkeypatch):
        counts = {}
        for module, name in (
            (fdbt.baselines, "band_gramians"),
            (fdbt.baselines, "standard_gramians"),
            (fdbt.baselines, "log_principal"),
            (fdbt.linalg, "solve_lyapunov"),
            (fdbt.interval, "interval_gramians"),
            (fdbt.interval, "interval_eta"),
            (fdbt.interval, "interval_ef_bound"),
            (fdbt.interval, "_band_factors"),
            (fdbt.sysmodel, "hinf_estimate"),
        ):
            _counting(monkeypatch, module, name, counts)
        asked = []
        interval_schur = fdbt.interval.schur

        def recording_schur(a):
            asked.append(a.dtype)
            return interval_schur(a)

        monkeypatch.setattr(fdbt.interval, "schur", recording_schur)
        report = run_randomized_experiment(self.SPEC)
        assert not any("fdbt: " in rec.note for rec in report.records)
        k, b = self.SPEC.count, len(EXPERIMENT_HALF_WIDTHS)
        orders = len(EXPERIMENT_ORDERS)
        # fibt's pair once per model, which the model keeps for
        # band_gramians to read, and per band the pair of interval_gramians
        assert counts["solve_lyapunov"] == 2 * k + 2 * k * b
        assert counts["standard_gramians"] == k + 2 * k * b
        assert counts["band_gramians"] == k * b
        # the models are real and every band is [-x, x]: one logarithm
        # serves both edges, since log(-j x I - A) = conj(log(j x I - A))
        assert counts["log_principal"] == k * b
        assert counts["interval_gramians"] == k * b
        assert counts["interval_eta"] <= k * b
        assert counts["interval_ef_bound"] == 0
        assert counts["hinf_estimate"] == 0
        # per model and band: the band-weighted realization and one factor
        # per truncation (the chain factors no order), all of them real
        assert counts["_band_factors"] == k * b * (1 + orders)
        assert asked and set(asked) == {np.dtype(float)}


def _evaluations(monkeypatch):
    """system -> grid sizes of its sysmodel._response_stack calls, in order."""
    evaluated = {}
    real_stack = fdbt.sysmodel._response_stack

    def counting(sys, points):
        evaluated.setdefault(sys, []).append(points.shape[0])
        return real_stack(sys, points)

    monkeypatch.setattr(fdbt.sysmodel, "_response_stack", counting)
    return evaluated


def _scaled_ladder(monkeypatch, order=21):
    """The ex3 scenarios on a smaller ladder, orders scaled by order/201 as
    the benchmark scales them; returns the list the ladder lands in."""
    def scaled(paper_order):
        return max(1, round(order * paper_order / 201))

    monkeypatch.setattr(fdbt.harness, "LADDER_ORDER", order)
    monkeypatch.setattr(fdbt.harness, "LADDER_BASELINE_ORDER", scaled(181))
    monkeypatch.setattr(fdbt.harness, "LADDER_SF_ORDER", scaled(51))
    monkeypatch.setattr(fdbt.harness, "LADDER_INTERVAL_ORDERS", (scaled(51), scaled(61)))
    made = []

    def ladder(*args, **kwargs):
        made.append(generate_ladder(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(fdbt.harness, "generate_ladder", ladder)
    return made


class TestEvaluatedOncePerGrid:
    """Every reduced model of one plant is swept against one evaluation of
    the plant per grid (error_sweeps)."""

    def test_ex3_case1_evaluates_the_ladder_once_per_grid(self, monkeypatch):
        made = _scaled_ladder(monkeypatch)
        evaluated = _evaluations(monkeypatch)
        reproduce_example("ex3_case1")
        # the 801-point grid (its response and three errors, and at its
        # w = 0 the DC errors and the sf record, one measurement), the
        # 401-point neighbourhood and the 601-point ef grid
        assert len(made) == 1
        assert sorted(evaluated[made[0]]) == [401, 601, 801]

    def test_ex3_case1_dc_errors_are_the_sf_record_bitwise(self, monkeypatch):
        _scaled_ladder(monkeypatch)
        bundle = reproduce_example("ex3_case1")
        (rec,) = [rec for rec in bundle.records if rec.bound_key == "sf"]
        assert rec.peak == bundle.values["err0_sf_r51"]
        assert (rec.peak_frequency, rec.points) == (0.0, 1)

    @pytest.mark.parametrize(
        "name, counted",
        [("ex3_case1", ("error_system", "sigma_max_at")), ("ex1", ("sigma_max_at",))],
    )
    def test_bundles_measure_by_error_sweeps_alone(self, monkeypatch, name, counted):
        # no stacked error system and no single-point probe: every number is
        # an error_sweeps report (ex1's sf-fdbt ef bounds still build their
        # gap error systems in fdbt.sf, so only probes count there)
        _scaled_ladder(monkeypatch)
        calls = []
        for fn_name in counted:
            real = getattr(fdbt.sysmodel, fn_name)

            def counting(*args, _name=fn_name, _real=real):
                calls.append(_name)
                return _real(*args)

            for mod in (fdbt.sysmodel, fdbt.harness, fdbt.sf):
                if getattr(mod, fn_name, None) is real:
                    monkeypatch.setattr(mod, fn_name, counting)
        reproduce_example(name)
        assert calls == []

    def test_ex3_case1_gspa_undefined_at_dc_is_a_gspa_failure(self, monkeypatch):
        # poles at 0 and at 1e-9 j: the error is undefined at both DC points
        _scaled_ladder(monkeypatch)
        poles = StateSpace(np.diag([0.0, 1e-9j]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        monkeypatch.setattr(
            fdbt.harness,
            "gspa_truncate",
            lambda *args: ReductionResult(poles, "gspa", 2, {}, False, ()),
        )
        bundle = reproduce_example("ex3_case1")
        (note,) = bundle.notes
        assert note.startswith(f"gspa_r181 r={fdbt.harness.LADDER_BASELINE_ORDER} failed: ")
        assert math.isnan(bundle.values["err0_gspa_r181"])
        assert math.isnan(bundle.values["peak_nbhd_gspa_r181"])
        assert "error_gspa_r181" not in bundle.sweeps
        assert math.isfinite(bundle.values["err0_fibt_r181"])

    def test_ex3_case2_sweeps_each_interval_error_once(self, monkeypatch):
        made = _scaled_ladder(monkeypatch)
        evaluated = _evaluations(monkeypatch)
        bundle = reproduce_example("ex3_case2")
        # one band evaluation serves the int-fdbt sweeps of both orders,
        # their interval records and the fgbt sweeps
        assert len(made) == 1
        assert evaluated[made[0]] == [801]
        for rec in bundle.records:
            sweep = bundle.sweeps[f"error_int_r{rec.order}"]
            assert (rec.peak, rec.peak_frequency) == (sweep.peak_value, sweep.peak_frequency)

    @pytest.mark.parametrize("case", ["case1", "case2"])
    def test_ex2_evaluates_the_plant_once_per_grid(self, monkeypatch, case):
        plant = example_fixture("ex2").system
        grids = []  # (points, first, last) of each evaluation of the plant
        real_stack = fdbt.sysmodel._response_stack

        def recording(sys, points):
            if sys.n == plant.n and np.array_equal(sys.A, plant.A):
                grids.append((points.shape[0], points[0].imag, points[-1].imag))
            return real_stack(sys, points)

        monkeypatch.setattr(fdbt.sysmodel, "_response_stack", recording)
        bundle = reproduce_example(f"ex2_{case}")
        # the band grid serves every method at both orders and the interval
        # records; the ef log grid serves all four ef records (the other
        # evaluations are the int-fdbt ef bounds' own estimates)
        w1, w2 = fdbt.harness.EX2_BANDS[case]
        assert grids.count((fdbt.harness.EXAMPLE_GRID_POINTS, w1, w2)) == 1
        ef_points = len(fdbt.symmetric_log_grid(plant.poles, fdbt.harness.EF_GRID_POINTS))
        assert [g[0] for g in grids].count(ef_points) == 1
        assert [rec.points for rec in bundle.records if rec.bound_key == "ef"] == [ef_points] * 4

    def test_model_records_evaluate_each_model_once_per_band(self, monkeypatch):
        evaluated = _evaluations(monkeypatch)
        report = run_randomized_experiment(RandomModelSpec(n=4, seed=3, count=2))
        models = [sys for sys in evaluated if sys.n == 4]
        assert len(models) == 2 and len(report.records) == 2 * 12
        for model in models:
            assert evaluated[model] == [EXPERIMENT_GRID_POINTS] * len(EXPERIMENT_HALF_WIDTHS)


def _planted(real, when=lambda *args, **kwargs: True):
    """real, except that it raises an FdbtError where when(*args) holds."""
    def fake(*args, **kwargs):
        if when(*args, **kwargs):
            raise ConvergenceFailure("planted failure")
        return real(*args, **kwargs)

    return fake


class TestOneFailureRule:
    """A method that raises FdbtError in prepare, truncate or measurement
    fails alone: a note, NaN values (stable 0.0), no sweep file and no
    record for it, every other method's values bitwise unchanged, and the
    CLI still exits 0."""

    def check(self, capsys, tmp_path, bundle, reference, failed, reads_failed):
        """failed: (label, r, sweep, value keys) of each failed run;
        reads_failed: the assertions that read one of their values."""
        name = bundle.name
        assert [note for note in bundle.notes if " failed: " in note] == [
            f"{label} r={r} failed: planted failure" for label, r, _, _ in failed
        ]
        assert [note for note in bundle.notes if " failed: " not in note] == list(reference.notes)
        gone = {key for *_, keys in failed for key in keys}
        assert set(bundle.values) == set(reference.values)
        for key, value in reference.values.items():
            got = bundle.values[key]
            if key in gone:
                assert (got == 0.0) if key.startswith("stable_") else math.isnan(got), key
            else:
                assert np.float64(got).tobytes() == np.float64(value).tobytes(), key
        assert set(bundle.sweeps) == set(reference.sweeps) - {sweep for _, _, sweep, _ in failed}
        for claim, ok in bundle.assertions.items():
            assert ok is (reference.assertions[claim] and claim not in reads_failed), claim
        assert cli.main(["bench", "example", name, "--out", str(tmp_path)]) == 0
        assert json.loads(capsys.readouterr().out)["notes"] == list(bundle.notes)
        files = {f"{name}__{label}.csv" for label in (*bundle.sweeps, *bundle.tables)}
        files |= {f"{name}__records.json", f"{name}__summary.json"}
        assert set(os.listdir(tmp_path)) == files

    def test_ex1_one_sf_epsilon(self, bundles, monkeypatch, capsys, tmp_path):
        reference = bundles.get("ex1")
        monkeypatch.setattr(fdbt.harness, "sf_truncate", _planted(
            fdbt.harness.sf_truncate, lambda prep, r: prep.ext.config.epsilon == 4.0
        ))
        bundle = reproduce_example("ex1")
        failed = [("sf_eps4", 3, "error_sf_eps4_r3", ["err0_sf_eps4"])]
        claims = {"sf_dc_error_below_fibt_for_some_eps_in_3_5"}
        self.check(capsys, tmp_path, bundle, reference, failed, claims)
        # eps = 4's sf and ef records (after fibt's, gspa's and two per
        # smaller epsilon) are gone, the others are unchanged
        kept = [rec for i, rec in enumerate(reference.records) if i not in (6, 7)]
        assert [vars(rec) for rec in bundle.records] == [vars(rec) for rec in kept]

    def test_ex2_fgbt_at_r2(self, bundles, monkeypatch, capsys, tmp_path):
        reference = bundles.get("ex2_case1")
        monkeypatch.setattr(fdbt.harness, "fgbt_truncate", _planted(
            fdbt.harness.fgbt_truncate, lambda prep, r: r == 2
        ))
        bundle = reproduce_example("ex2_case1")
        failed = [("fgbt", 2, "error_fgbt_r2", ["peak_fgbt_r2", "stable_fgbt_r2"])]
        self.check(capsys, tmp_path, bundle, reference, failed, {"int_peak_le_fgbt_r2"})
        assert [vars(rec) for rec in bundle.records] == [vars(rec) for rec in reference.records]

    def test_ex2_fgbt_sweep_at_r2(self, bundles, monkeypatch, capsys, tmp_path):
        # a sweep that raises for one model (a refining probe on a pole)
        # fails that model alone, though all are swept together
        reference = bundles.get("ex2_case1")
        planted, fgbt, sweeps = [], fdbt.harness.fgbt_truncate, fdbt.harness._error_sweeps

        def truncate(prep, r):
            result = fgbt(prep, r)
            if r == 2:
                planted.append(result.reduced)
            return result

        monkeypatch.setattr(fdbt.harness, "fgbt_truncate", truncate)
        monkeypatch.setattr(fdbt.harness, "_error_sweeps", _planted(
            sweeps, lambda sys, models, grid: any(m is planted[-1] for m in models)
        ))
        bundle = reproduce_example("ex2_case1")
        failed = [("fgbt", 2, "error_fgbt_r2", ["peak_fgbt_r2", "stable_fgbt_r2"])]
        self.check(capsys, tmp_path, bundle, reference, failed, {"int_peak_le_fgbt_r2"})
        assert [vars(rec) for rec in bundle.records] == [vars(rec) for rec in reference.records]

    def test_ex3_case2_int_fdbt(self, monkeypatch, capsys, tmp_path):
        _scaled_ladder(monkeypatch)
        # fgbt marked unstable: int-fdbt failing must still not read as a win
        fgbt = fdbt.harness.fgbt_truncate
        monkeypatch.setattr(
            fdbt.harness, "fgbt_truncate", lambda *args: replace(fgbt(*args), stable=False)
        )
        reference = reproduce_example("ex3_case2")
        orders = fdbt.harness.LADDER_INTERVAL_ORDERS
        assert all(reference.assertions.values())
        monkeypatch.setattr(fdbt.harness, "interval_truncate", _planted(
            fdbt.harness.interval_truncate
        ))
        bundle = reproduce_example("ex3_case2")
        failed = [
            ("int", r, f"error_int_r{r}",
             [f"peak_int_r{r}", f"interval_bound_r{r}", f"stable_int_r{r}"])
            for r in orders
        ]
        self.check(capsys, tmp_path, bundle, reference, failed, set(reference.assertions))
        assert bundle.records == ()

    def test_every_method_of_ex1(self, bundles, monkeypatch, capsys, tmp_path):
        reference = bundles.get("ex1")
        for name in ("fibt_truncate", "gspa_truncate", "sf_truncate"):
            monkeypatch.setattr(fdbt.harness, name, _planted(getattr(fdbt.harness, name)))
        bundle = reproduce_example("ex1")
        labels = [key.removeprefix("err0_") for key in reference.values]
        failed = [(label, 3, f"error_{label}_r3", [f"err0_{label}"]) for label in labels]
        self.check(capsys, tmp_path, bundle, reference, failed, set(reference.assertions))
        assert bundle.records == () and bundle.sweeps == {}
        assert bundle.tables == reference.tables


class TestLadder:
    def test_order_validation(self):
        for bad in (0, 2, 4, -3, True, 1.5):
            with pytest.raises(InvalidParameters):
                generate_ladder(bad)
        with pytest.raises(InvalidParameters):
            generate_ladder(3, R=0.0)
        with pytest.raises(InvalidParameters):
            generate_ladder(3, L=-1.0)

    def test_order_one_is_the_bare_rc_section(self):
        lad = generate_ladder(1, R=2.0, Rbar=3.0, Cval=0.5, L=0.7)
        assert lad.poles[0] == pytest.approx(-1.0 / (2.0 * 0.5))
        assert orc.dc_gain_inv(lad.A, lad.B, lad.C, lad.D)[0, 0] == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "params", [(1.0, 1.0, 1.0, 1.0), (2.0, 3.0, 0.5, 0.7)]
    )
    def test_order_three_matches_symbolic_circuit_analysis(self, params):
        lad = generate_ladder(3, *params)
        poles, dc = orc.ladder3_poles_symbolic(*params)
        assert orc.match_spectra(lad.poles, poles) <= 1e-9
        got_dc = orc.dc_gain_inv(lad.A, lad.B, lad.C, lad.D)[0, 0]
        assert got_dc == pytest.approx(dc, abs=1e-12)
        # matched termination: dc gain is the resistive divider Rbar/(R+Rbar)
        assert dc == pytest.approx(params[1] / (params[0] + params[1]), abs=1e-12)

    def test_full_order_ladder_properties(self):
        lad = generate_ladder(201)
        assert lad.n == 201
        verdict = is_hurwitz(lad)
        assert verdict.stable
        sigma = prepare_standard(lad).sigma
        # slow singular-value decay is the point of the benchmark: truncation
        # at mid order must leave a visible tail
        assert sigma[49] / sigma[0] >= 0.01
        assert orc.dc_gain_inv(lad.A, lad.B, lad.C, lad.D)[0, 0] == pytest.approx(0.5)


class TestFixtures:
    def test_fixture_names(self):
        assert EXAMPLE_NAMES == (
            "ex1",
            "ex2_case1",
            "ex2_case2",
            "ex3_case1",
            "ex3_case2",
        )

    def test_ex1_fixture_shape_and_digits(self):
        fix = example_fixture("ex1")
        assert (fix.system.n, fix.system.m, fix.system.p) == (6, 1, 1)
        assert fix.system.A[0, 0] == pytest.approx(0.2128)
        assert fix.system.D[0, 0] == pytest.approx(3.9764)

    def test_ex2_fixture_shape_and_digits(self):
        fix = example_fixture("ex2")
        assert fix.system.n == 4
        assert fix.system.A[0, 0] == pytest.approx(-0.62)
        assert fix.system.B[0, 0] == pytest.approx(-0.31)
        assert is_hurwitz(fix.system).stable

    def test_unknown_fixture_rejected(self):
        with pytest.raises(InvalidParameters):
            example_fixture("ex9")
        with pytest.raises(InvalidParameters):
            reproduce_example("nope")


class TestDcError:
    GRID = FrequencyGrid.linear(-1.0, 1.0, 5)

    def test_plain_path_matches_direct_evaluation(self):
        sys = random_stable(204, 4)
        red = fibt_reduce(sys, 2).reduced
        direct = sigma_max_at(error_system(sys, red), 0.0)
        (report,) = _dc_reports(sys, [red], fdbt.sysmodel.error_sweeps(sys, [red], self.GRID))
        assert report.peak_value == pytest.approx(direct, rel=1e-12)
        assert (report.peak_frequency, report.skipped, len(report.grid)) == (0.0, (), 1)
        # the DC point is read off the grid, never swept again
        without = fdbt.sysmodel.error_sweeps(sys, [red], FrequencyGrid.linear(-1.0, 1.0, 4))
        with pytest.raises(InvalidParameters):
            _dc_reports(sys, [red], without)

    def test_no_models_no_reports(self):
        # every method of an example can fail; nothing is left to read off
        assert _dc_reports(random_stable(205, 4), [], []) == []

    def test_cancelling_origin_mode_falls_back(self):
        # identical responses, but the stacked error realization carries an
        # uncontrollable pole at the origin; the value must come back ~0
        # instead of raising
        withzero = StateSpace(
            [[0.0, 0.0], [0.0, -1.0]], [[0.0], [1.0]], [[0.0, 1.0]], [[0.0]]
        )
        copy = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        reports = fdbt.sysmodel.error_sweeps(withzero, [copy], self.GRID, on_pole="skip")
        (report,) = _dc_reports(withzero, [copy], reports)
        assert report.peak_value <= 1e-8
        assert report.peak_frequency == 1e-9


# What each bundle writes (file names after the "<name>__" prefix), the
# keys of its values and assertions, and its record sequence
# (method, order, bound_key, points).
BUNDLE_SHAPES = {
    "ex1": {
        "files": (
            "epsilon_sweep.csv error_fibt_r3.csv error_gspa_rho0_r3.csv error_gspa_rho0p5_r3.csv "
            "error_gspa_rho5_r3.csv error_sf_eps10_r3.csv error_sf_eps1_r3.csv "
            "error_sf_eps3_r3.csv error_sf_eps4_r3.csv error_sf_eps5_r3.csv records.json "
            "summary.json"
        ).split(),
        "values": (
            "err0_fibt err0_gspa_rho0 err0_gspa_rho0p5 err0_gspa_rho5 err0_sf_eps1 err0_sf_eps10 "
            "err0_sf_eps3 err0_sf_eps4 err0_sf_eps5"
        ).split(),
        "assertions": [
            "gspa_dc_error_increases_with_rho",
            "sf_dc_error_below_fibt_for_some_eps_in_3_5",
        ],
        "records": [
            ("fibt", 3, "ef", 1201),
            ("gspa", 3, "ef", 1201),
            ("sf-fdbt", 3, "sf", 1),
            ("sf-fdbt", 3, "ef", 1201),
            ("sf-fdbt", 3, "sf", 1),
            ("sf-fdbt", 3, "ef", 1201),
            ("sf-fdbt", 3, "sf", 1),
            ("sf-fdbt", 3, "ef", 1201),
            ("sf-fdbt", 3, "sf", 1),
            ("sf-fdbt", 3, "ef", 1201),
            ("sf-fdbt", 3, "sf", 1),
            ("sf-fdbt", 3, "ef", 1201),
        ],
    },
    "ex2_case1": {
        "files": (
            "error_fgbt_r1.csv error_fgbt_r2.csv error_fibt_r1.csv error_fibt_r2.csv "
            "error_int_r1.csv error_int_r2.csv records.json summary.json"
        ).split(),
        "values": (
            "interval_bound_r1 interval_bound_r2 peak_fgbt_r1 peak_fgbt_r2 peak_fibt_r1 "
            "peak_fibt_r2 peak_int_r1 peak_int_r2 stable_fgbt_r1 stable_fgbt_r2"
        ).split(),
        "assertions": (
            "int_peak_le_fgbt_r1 int_peak_le_fgbt_r2 int_peak_le_fibt_r1 int_peak_le_fibt_r2"
        ).split(),
        "records": [
            ("int-fdbt", 1, "interval", 2001),
            ("int-fdbt", 1, "ef", 1201),
            ("fibt", 1, "ef", 1201),
            ("int-fdbt", 2, "interval", 2001),
            ("int-fdbt", 2, "ef", 1201),
            ("fibt", 2, "ef", 1201),
        ],
    },
    "ex2_case2": {
        "files": (
            "error_fgbt_r1.csv error_fgbt_r2.csv error_fibt_r1.csv error_fibt_r2.csv "
            "error_int_r1.csv error_int_r2.csv records.json summary.json"
        ).split(),
        "values": (
            "interval_bound_r1 interval_bound_r2 peak_fgbt_r1 peak_fgbt_r2 peak_fibt_r1 "
            "peak_fibt_r2 peak_int_r1 peak_int_r2 stable_fgbt_r1 stable_fgbt_r2"
        ).split(),
        "assertions": (
            "int_peak_le_fgbt_r1 int_peak_le_fgbt_r2 int_peak_le_fibt_r1 int_peak_le_fibt_r2"
        ).split(),
        "records": [
            ("int-fdbt", 1, "interval", 2001),
            ("int-fdbt", 1, "ef", 1201),
            ("fibt", 1, "ef", 1201),
            ("int-fdbt", 2, "interval", 2001),
            ("int-fdbt", 2, "ef", 1201),
            ("fibt", 2, "ef", 1201),
        ],
    },
    "ex3_case1": {
        "files": (
            "error_fibt_r181.csv error_gspa_r181.csv error_sf_r51.csv records.json "
            "response_full.csv summary.json"
        ).split(),
        "values": (
            "err0_fibt_r181 err0_gspa_r181 err0_sf_r51 peak_nbhd_fibt_r181 peak_nbhd_gspa_r181 "
            "peak_nbhd_sf_r51"
        ).split(),
        "assertions": "sf_r51_dc_error_below_fibt_r181 sf_r51_nbhd_peak_below_fibt_r181".split(),
        "records": [
            ("fibt", 181, "ef", 601),
            ("sf-fdbt", 51, "sf", 1),
        ],
    },
    "ex3_case2": {
        "files": (
            "error_fgbt_r51.csv error_fgbt_r61.csv error_int_r51.csv error_int_r61.csv "
            "records.json summary.json"
        ).split(),
        "values": (
            "interval_bound_r51 interval_bound_r61 peak_fgbt_r51 peak_fgbt_r61 peak_int_r51 "
            "peak_int_r61 stable_fgbt_r51 stable_fgbt_r61 stable_int_r51 stable_int_r61"
        ).split(),
        "assertions": "int_beats_fgbt_in_band_r51 int_beats_fgbt_in_band_r61".split(),
        "records": [
            ("int-fdbt", 51, "interval", 801),
            ("int-fdbt", 61, "interval", 801),
        ],
    },
}

# Every ex1 and ex2 value, frozen from the first complete runs.
FROZEN_VALUES = {
    "ex1": {
        "err0_fibt": 0.6551881243438045,
        "err0_gspa_rho0": 3.552713678800501e-15,
        "err0_gspa_rho0p5": 0.0951438400672533,
        "err0_gspa_rho5": 0.26568844021113946,
        "err0_sf_eps1": 0.013009809967271302,
        "err0_sf_eps10": 0.33650641989704067,
        "err0_sf_eps3": 0.0943993432832233,
        "err0_sf_eps4": 0.14168943449225146,
        "err0_sf_eps5": 0.18547169298703814,
    },
    "ex2_case1": {
        "interval_bound_r1": 0.004779835075461691,
        "interval_bound_r2": 4.087866400050684e-05,
        "peak_fgbt_r1": 0.010898889503885931,
        "peak_fgbt_r2": 2.353626218284783e-06,
        "peak_fibt_r1": 0.026203492110724452,
        "peak_fibt_r2": 0.0004496613493245818,
        "peak_int_r1": 0.0040390658717153125,
        "peak_int_r2": 2.5048203738171904e-05,
        "stable_fgbt_r1": 1.0,
        "stable_fgbt_r2": 1.0,
    },
    "ex2_case2": {
        "interval_bound_r1": 0.00927244926997266,
        "interval_bound_r2": 8.113413693730766e-05,
        "peak_fgbt_r1": 0.023040723659061263,
        "peak_fgbt_r2": 2.099088139305178e-05,
        "peak_fibt_r1": 0.026203492110724452,
        "peak_fibt_r2": 0.0004496613493245818,
        "peak_int_r1": 0.007660791917640068,
        "peak_int_r2": 4.963577875055636e-05,
        "stable_fgbt_r1": 1.0,
        "stable_fgbt_r2": 1.0,
    },
}


class TestBundles:
    def test_ex1_and_ex2_records_all_pass(self, bundles):
        for name in ("ex1", "ex2_case1", "ex2_case2"):
            bundle = bundles.get(name)
            assert bundle.records, name
            for rec in bundle.records:
                assert rec.passed, (name, rec.method, rec.bound_key, rec.margin)

    def test_ex1_dc_errors_are_the_sf_records_bitwise(self, bundles):
        bundle = bundles.get("ex1")
        sf_records = [rec for rec in bundle.records if rec.bound_key == "sf"]
        labels = [f"err0_sf_eps{e:g}".replace(".", "p") for e in fdbt.harness.EX1_SF_EPSILONS]
        assert len(sf_records) == len(labels)
        for rec, label in zip(sf_records, labels):
            assert rec.peak == bundle.values[label], label

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_bundle_shape(self, bundles, tmp_path, name):
        # what every bundle writes and records, pinned across refactors;
        # thread-independent, so it holds at any BLAS thread count
        bundle = bundles.get(name)
        shape = BUNDLE_SHAPES[name]
        write_bundle(bundle, str(tmp_path))
        assert sorted(os.listdir(tmp_path)) == [f"{name}__{f}" for f in shape["files"]]
        assert sorted(bundle.values) == shape["values"]
        assert sorted(bundle.assertions) == shape["assertions"]
        records = [(rec.method, rec.order, rec.bound_key, rec.points) for rec in bundle.records]
        assert records == shape["records"]
        if name == "ex3_case2":
            # fgbt's stability at r = 51 moves with the BLAS thread count
            # (ROADMAP item 1): one note per unstable fgbt model
            unstable = [r for r in (51, 61) if bundle.values[f"stable_fgbt_r{r}"] == 0.0]
            assert len(bundle.notes) == len(unstable)
            for note, r in zip(bundle.notes, unstable):
                pattern = rf"fgbt r={r}: reduced model not Hurwitz " + (
                    r"\(max Re pole \+\d\.\d{3}e[+-]\d\d\)"
                )
                assert re.fullmatch(pattern, note), note
        else:
            assert bundle.notes == ()

    @pytest.mark.xfail(
        strict=True,
        reason="ex3 case 1 records sf-fdbt r = 51 without a mark, though 161 of its "
        "201 directions are below numerical rank (the FOUND line in CHANGES.md); "
        "ROADMAP item 1 marks such orders",
    )
    def test_ex3_case1_marks_the_sf_order_below_rank(self, bundles):
        # sf_truncate warns that order 51 keeps directions below numerical rank
        rank = re.compile(r"order 51 keeps \d+ directions below numerical rank")
        assert any(rank.search(note) for note in bundles.get("ex3_case1").notes)

    @pytest.mark.parametrize("name", ["ex1", "ex2_case1", "ex2_case2"])
    def test_thread_independent_values_frozen(self, bundles, name):
        # ex1 and ex2 are byte-identical across BLAS thread counts (README,
        # "Determinism"); gspa at rho = 0 interpolates at DC, so its err0
        # is rounding and gets an absolute floor
        values = bundles.get(name).values
        assert sorted(values) == sorted(FROZEN_VALUES[name])
        for key, want in FROZEN_VALUES[name].items():
            assert values[key] == pytest.approx(want, rel=1e-9, abs=1e-13), key

    def test_bundle_files_written(self, bundles, tmp_path):
        bundles.get("ex1")  # warm the cache; writing re-runs the scenario
        bundle = reproduce_example("ex1", str(tmp_path))
        names = sorted(os.listdir(tmp_path))
        assert "ex1__summary.json" in names
        assert "ex1__records.json" in names
        assert "ex1__epsilon_sweep.csv" in names
        assert any(n.startswith("ex1__error_") for n in names)
        doc = json.loads((tmp_path / "ex1__summary.json").read_text())
        assert doc["assertions"] == {
            k: bool(v) for k, v in bundle.assertions.items()
        }


class TestWriters:
    def test_sweep_csv_format_and_nan(self, tmp_path):
        osc = StateSpace(
            [[0.0, 1.0], [-1.0, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]
        )
        rep = sweep(osc, FrequencyGrid.explicit([0.0, 1.0, 2.0]), on_pole="skip")
        path = tmp_path / "s.csv"
        write_sweep_csv(str(path), rep)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,sigma_max"
        assert lines[2] == "1.0,NaN"
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0)

    def test_json_writer_stable_bytes(self, tmp_path):
        payload = {"b": [1.5, float("nan")], "a": np.float64(2.0), "flag": np.bool_(True)}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        write_json(str(p1), payload)
        write_json(str(p2), payload)
        assert p1.read_bytes() == p2.read_bytes()
        doc = json.loads(p1.read_text())
        assert doc["b"][1] is None  # NaN flattened to null
        assert doc["flag"] is True
