"""Verification records, the randomized study, the ladder, and bundles."""

import json
import math
import os

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
    write_json,
    write_sweep_csv,
)
import fdbt
from fdbt import fgbt_reduce
from fdbt.baselines import prepare_standard
from fdbt.errors import FdbtError
from fdbt.harness import (
    EXPERIMENT_GRID_POINTS,
    EXPERIMENT_HALF_WIDTHS,
    EXPERIMENT_ORDERS,
    ModelCellRecord,
    _dc_reports,
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


class TestRandomModels:
    def test_spec_validation(self):
        with pytest.raises(InvalidParameters):
            RandomModelSpec(n=0, seed=1, count=5)
        with pytest.raises(InvalidParameters):
            RandomModelSpec(n=3, seed=1, count=0)
        with pytest.raises(InvalidParameters):
            RandomModelSpec(n=3, seed=1, count=5, diag_spread=0.0)

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

    def test_resample_budget_enforced(self):
        # a diagonal mean of +60 makes Hurwitz draws essentially impossible
        spec = RandomModelSpec(n=3, seed=2, count=1, diag_mean=60.0)
        with pytest.raises(ConvergenceFailure):
            draw_random_models(spec)


@pytest.fixture(scope="module")
def mini_report():
    spec = RandomModelSpec(n=4, seed=5, count=2)
    return run_randomized_experiment(spec, wl_list=(0.4,), r_list=(1, 2))


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

    def test_report_json_deterministic(self):
        spec = RandomModelSpec(n=3, seed=6, count=2)
        a = run_randomized_experiment(spec, wl_list=(0.2,), r_list=(1,))
        b = run_randomized_experiment(spec, wl_list=(0.2,), r_list=(1,))
        assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
            b.to_json_dict(), sort_keys=True
        )


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

        def recording_schur(a, output="real"):
            asked.append(output)
            return interval_schur(a, output)

        monkeypatch.setattr(fdbt.interval, "schur", recording_schur)
        report = run_randomized_experiment(self.SPEC)
        assert not any("fdbt: " in rec.note for rec in report.records)
        k, b = self.SPEC.count, len(EXPERIMENT_HALF_WIDTHS)
        orders = len(EXPERIMENT_ORDERS)
        # fibt's pair once per model, which band_gramians reuses, and per
        # band the pair of interval_gramians
        assert counts["solve_lyapunov"] == 2 * k + 2 * k * b
        assert counts["standard_gramians"] == k + k * b
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
        assert asked and "complex" not in asked


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
        fdbt.harness._reproduce_ex3_case1()
        # the 801-point grid (its response and three errors, and at its
        # w = 0 the DC errors and the sf record, one measurement), the
        # 401-point neighbourhood and the 601-point ef grid
        assert len(made) == 1
        assert sorted(evaluated[made[0]]) == [401, 601, 801]

    def test_ex3_case1_dc_errors_are_the_sf_record_bitwise(self, monkeypatch):
        _scaled_ladder(monkeypatch)
        bundle = fdbt.harness._reproduce_ex3_case1()
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
        # gap error systems in reduction.ef_bound, so only probes count there)
        _scaled_ladder(monkeypatch)
        calls = []
        for fn_name in counted:
            real = getattr(fdbt.sysmodel, fn_name)

            def counting(*args, _name=fn_name, _real=real):
                calls.append(_name)
                return _real(*args)

            for mod in (fdbt.sysmodel, fdbt.harness, fdbt.reduction):
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
        bundle = fdbt.harness._reproduce_ex3_case1()
        (note,) = bundle.notes
        assert note.startswith("gspa failed: ")
        assert math.isnan(bundle.values["err0_gspa_r181"])
        assert math.isnan(bundle.values["peak_nbhd_gspa_r181"])
        assert "error_gspa_r181" not in bundle.sweeps
        assert math.isfinite(bundle.values["err0_fibt_r181"])

    def test_ex3_case2_sweeps_each_interval_error_once(self, monkeypatch):
        made = _scaled_ladder(monkeypatch)
        evaluated = _evaluations(monkeypatch)
        bundle = fdbt.harness._reproduce_ex3_case2()
        # one band evaluation per order serves the int-fdbt sweep, its
        # interval record and the fgbt sweep
        assert len(made) == 1
        assert evaluated[made[0]] == [801, 801]
        for rec in bundle.records:
            sweep = bundle.sweeps[f"error_int_r{rec.order}"]
            assert (rec.peak, rec.peak_frequency) == (sweep.peak_value, sweep.peak_frequency)

    def test_model_records_evaluate_each_model_once_per_band(self, monkeypatch):
        evaluated = _evaluations(monkeypatch)
        report = run_randomized_experiment(RandomModelSpec(n=4, seed=3, count=2))
        models = [sys for sys in evaluated if sys.n == 4]
        assert len(models) == 2 and len(report.records) == 2 * 12
        for model in models:
            assert evaluated[model] == [EXPERIMENT_GRID_POINTS] * len(EXPERIMENT_HALF_WIDTHS)


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


class TestBundles:
    def test_ex1_and_ex2_records_all_pass(self, bundles):
        for name in ("ex1", "ex2_case1", "ex2_case2"):
            bundle = bundles.get(name)
            assert bundle.records, name
            for rec in bundle.records:
                assert rec.passed, (name, rec.method, rec.bound_key, rec.margin)

    def test_ex1_frozen_values(self, bundles):
        vals = bundles.get("ex1").values
        # values pinned from the first complete run of this scenario; any
        # drift here means determinism broke
        assert vals["err0_fibt"] == pytest.approx(6.551881243e-01, rel=1e-9)
        assert vals["err0_sf_eps4"] == pytest.approx(1.416894345e-01, rel=1e-9)
        assert vals["err0_gspa_rho0"] <= 1e-12

    def test_ex1_dc_errors_are_the_sf_records_bitwise(self, bundles):
        bundle = bundles.get("ex1")
        sf_records = [rec for rec in bundle.records if rec.bound_key == "sf"]
        labels = [f"err0_sf_eps{e:g}".replace(".", "p") for e in fdbt.harness.EX1_SF_EPSILONS]
        assert len(sf_records) == len(labels)
        for rec, label in zip(sf_records, labels):
            assert rec.peak == bundle.values[label], label

    def test_ex2_case1_frozen_values(self, bundles):
        vals = bundles.get("ex2_case1").values
        assert vals["peak_int_r1"] == pytest.approx(4.039065872e-03, rel=1e-9)
        assert vals["peak_fgbt_r1"] == pytest.approx(1.089888950e-02, rel=1e-9)
        assert vals["peak_fibt_r1"] == pytest.approx(2.620349211e-02, rel=1e-9)

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
