"""State-space container, evaluation, sweeps, and the rational substitution."""

import dataclasses

import numpy as np
import pytest

import oracles as orc
from helpers import random_stable
import fdbt.sysmodel as sysmodel
from fdbt import (
    DegenerateMap,
    DimensionMismatch,
    FrequencyGrid,
    PoleOnGrid,
    SingularSubstitution,
    StateSpace,
    error_system,
    evaluate,
    evaluate_at,
    fibt_reduce,
    generate_ladder,
    hinf_estimate,
    is_hurwitz,
    moebius_substitute,
    sigma_max_at,
    sweep,
    symmetric_log_grid,
)


def _oscillator(damping=0.0):
    # poles at +/- j for damping 0; G(jw) = 1/(1 - w^2 + j*damping*w)
    return StateSpace(
        [[0.0, 1.0], [-1.0, -damping]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]
    )


class TestStateSpace:
    def test_shapes_validated(self):
        with pytest.raises(DimensionMismatch):
            StateSpace(np.zeros((2, 3)), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0]])
        with pytest.raises(DimensionMismatch):
            StateSpace(np.zeros((2, 2)), np.zeros((3, 1)), np.zeros((1, 2)), [[0.0]])
        with pytest.raises(DimensionMismatch):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 3)), [[0.0]])
        with pytest.raises(DimensionMismatch):
            StateSpace(np.zeros((2, 2)), np.zeros((2, 1)), np.zeros((1, 2)), [[0.0, 0.0]])

    def test_nonfinite_entries_rejected(self):
        with pytest.raises(DimensionMismatch):
            StateSpace([[np.nan]], [[1.0]], [[1.0]], [[0.0]])

    def test_immutable_and_read_only(self):
        sys = random_stable(1, 3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            sys.A = np.eye(3)
        with pytest.raises(ValueError):
            sys.A[0, 0] = 5.0
        with pytest.raises(ValueError):
            sys.poles[0] = 0.0

    def test_input_array_mutation_cannot_leak_in(self):
        a = np.array([[-1.0]])
        sys = StateSpace(a, [[1.0]], [[1.0]], [[0.0]])
        a[0, 0] = 99.0
        assert sys.A[0, 0] == -1.0

    def test_order_zero_feedthrough(self):
        sys = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((1, 0)), [[3.0, -4.0]]
        )
        assert sys.n == 0 and (sys.p, sys.m) == (1, 2)
        assert np.array_equal(evaluate(sys, 17.3), sys.D)
        assert is_hurwitz(sys).stable

    def test_is_real_flag(self):
        assert random_stable(2, 3).is_real
        assert not random_stable(2, 3, complex_entries=True).is_real

    def test_poles_cached_against_eigvals(self):
        sys = random_stable(3, 5, complex_entries=True)
        assert orc.match_spectra(sys.poles, np.linalg.eigvals(sys.A)) == 0.0
        assert sys.poles is sys.poles  # cached object, not recomputed

    def test_transformed_preserves_response(self):
        sys = random_stable(4, 4, m=2, p=3)
        rng = np.random.default_rng(8)
        t = rng.standard_normal((4, 4)) + np.eye(4) * 3.0
        tr = sys.transformed(t, np.linalg.inv(t))
        for w in (0.0, 0.7, -2.2):
            assert np.allclose(evaluate(tr, w), evaluate(sys, w), atol=1e-10)


class TestEvaluation:
    def test_matches_dense_inverse_oracle(self):
        sys = random_stable(5, 6, m=2, p=2, complex_entries=True)
        for s in (0.3 + 0.7j, -1.2j, 2.0):
            ref = orc.response_inv(sys.A, sys.B, sys.C, sys.D, s)
            assert np.linalg.norm(evaluate_at(sys, s) - ref) <= 1e-12 * (
                1.0 + np.linalg.norm(ref)
            )

    def test_scalar_lowpass_analytic(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        for w in (0.0, 0.5, 1.0, -3.0):
            assert abs(sigma_max_at(sys, w) - 1.0 / np.hypot(1.0, w)) <= 1e-14

    def test_pole_hit_raises_with_location(self):
        with pytest.raises(PoleOnGrid) as info:
            sigma_max_at(_oscillator(), 1.0)
        assert info.value.omega == pytest.approx(1.0)

    def test_error_system_is_the_difference(self):
        full = random_stable(6, 5)
        red = random_stable(7, 2)
        err = error_system(full, red)
        for w in (0.0, 1.3, -0.4):
            ref = evaluate(full, w) - evaluate(red, w)
            assert np.allclose(evaluate(err, w), ref, atol=1e-12)

    def test_error_system_io_mismatch(self):
        with pytest.raises(DimensionMismatch):
            error_system(random_stable(1, 2, m=2), random_stable(2, 2, m=1))


class TestFrequencyGrid:
    def test_constructors_and_tags(self):
        assert FrequencyGrid.linear(-1.0, 1.0, 5).spacing == "linear"
        assert FrequencyGrid.logarithmic(0.1, 10.0, 7).spacing == "logarithmic"
        assert FrequencyGrid.explicit([0.0]).spacing == "explicit"

    def test_log_grid_needs_positive_lo(self):
        with pytest.raises(DimensionMismatch):
            FrequencyGrid.logarithmic(0.0, 1.0, 4)
        with pytest.raises(DimensionMismatch):
            FrequencyGrid.logarithmic(-1.0, 1.0, 4)

    def test_explicit_sorts_and_dedupes(self):
        g = FrequencyGrid.explicit([2.0, -1.0, 2.0, 0.0])
        assert np.array_equal(g.points, [-1.0, 0.0, 2.0])

    def test_non_increasing_rejected(self):
        with pytest.raises(DimensionMismatch):
            FrequencyGrid([0.0, 0.0, 1.0])
        with pytest.raises(DimensionMismatch):
            FrequencyGrid.linear(1.0, -1.0, 5)

    def test_non_finite_rejected(self):
        with pytest.raises(DimensionMismatch):
            FrequencyGrid([0.0, np.inf])

    def test_len(self):
        assert len(FrequencyGrid.linear(0.0, 1.0, 11)) == 11


class TestSweep:
    def test_values_match_pointwise_evaluation(self):
        sys = random_stable(9, 4, m=2, p=2)
        grid = FrequencyGrid.linear(-3.0, 3.0, 41)
        rep = sweep(sys, grid)
        for w, v in zip(grid.points, rep.sigma_max):
            assert v == pytest.approx(sigma_max_at(sys, float(w)), abs=1e-13)

    def test_block_split_does_not_change_bytes(self, monkeypatch):
        sys = random_stable(10, 30, m=2, p=2)
        grid = FrequencyGrid.linear(-2.0, 2.0, 257)
        whole = sweep(sys, grid).sigma_max.tobytes()
        monkeypatch.setattr(sysmodel, "_STACK_BLOCK_BYTES", 16 * 30 * 30 * 3)
        split = sweep(sys, grid).sigma_max.tobytes()
        assert whole == split

    def test_pole_on_grid_raise_mode(self):
        grid = FrequencyGrid.explicit([0.0, 1.0, 2.0])
        with pytest.raises(PoleOnGrid):
            sweep(_oscillator(), grid, on_pole="raise")

    def test_pole_on_grid_skip_mode(self):
        grid = FrequencyGrid.explicit([0.0, 1.0, 2.0])
        rep = sweep(_oscillator(), grid, on_pole="skip")
        assert rep.skipped == (1.0,)
        assert np.isnan(rep.sigma_max[1])
        # neighbours obey |1/(1-w^2)|: 1 at w=0, 1/3 at w=2
        assert rep.sigma_max[0] == pytest.approx(1.0, abs=1e-12)
        assert rep.sigma_max[2] == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert rep.peak_value == pytest.approx(1.0, abs=1e-12)

    def test_bad_on_pole_value_rejected(self):
        with pytest.raises(DimensionMismatch):
            sweep(_oscillator(), FrequencyGrid.explicit([0.5]), on_pole="ignore")

    def test_refinement_sharpens_interior_peak(self):
        sys = _oscillator(damping=0.02)  # resonance near w = 1, very sharp
        grid = FrequencyGrid.explicit([0.5, 0.9, 1.05, 1.5])
        coarse = sweep(sys, grid, refine=False)
        fine = sweep(sys, grid, refine=True)
        true_peak = hinf_estimate(sys, points=40000)[0]
        assert fine.peak_value > coarse.peak_value
        assert fine.peak_value == pytest.approx(true_peak, rel=1e-4)
        # the sampled rows are the same; only the located peak moves
        assert np.array_equal(coarse.sigma_max, fine.sigma_max)

    def test_sweep_deterministic_bytes(self):
        sys = random_stable(12, 6, complex_entries=True)
        grid = FrequencyGrid.linear(-4.0, 4.0, 101)
        a = sweep(sys, grid, refine=True)
        b = sweep(sys, grid, refine=True)
        assert a.sigma_max.tobytes() == b.sigma_max.tobytes()
        assert (a.peak_value, a.peak_frequency) == (b.peak_value, b.peak_frequency)


class TestMoebiusSubstitute:
    def test_response_contract_random_coefficients(self):
        sys = random_stable(13, 5, m=2, p=2, complex_entries=True)
        rng = np.random.default_rng(14)
        for _ in range(6):
            a, b, c, d = (complex(*rng.standard_normal(2)) for _ in range(4))
            if abs(a * d - b * c) < 0.1:
                continue
            try:
                sub = moebius_substitute(sys, a, b, c, d)
            except SingularSubstitution:
                continue
            for w in rng.uniform(-3.0, 3.0, size=5):
                target = (a * 1j * w + b) / (c * 1j * w + d)
                ref = evaluate_at(sys, target)
                got = evaluate(sub, float(w))
                assert np.linalg.norm(got - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))

    def test_identity_map(self):
        sys = random_stable(15, 4)
        sub = moebius_substitute(sys, 1.0, 0.0, 0.0, 1.0)
        for w in (0.0, 0.9, -2.0):
            assert np.allclose(evaluate(sub, w), evaluate(sys, w), atol=1e-12)

    def test_degenerate_map_rejected(self):
        with pytest.raises(DegenerateMap):
            moebius_substitute(random_stable(16, 3), 2.0, 4.0, 1.0, 2.0)

    def test_singular_substitution_rejected(self):
        sys = random_stable(17, 3)
        lam = complex(sys.poles[0])
        with pytest.raises(SingularSubstitution):
            moebius_substitute(sys, lam, 1.0, 1.0, 0.0)


class TestWholeAxisEstimate:
    def test_symmetric_log_grid_structure(self):
        g = symmetric_log_grid(np.array([0.5, 2.0]), points=100)
        pts = g.points
        assert 0.0 in pts
        assert np.array_equal(pts, -pts[::-1])  # symmetric about zero
        assert np.all(np.diff(pts) > 0)

    def test_scalar_lowpass_norm(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        val, freq = hinf_estimate(sys)
        assert val == pytest.approx(1.0, rel=1e-6)
        assert abs(freq) <= 1e-3

    def test_feedthrough_limit_wins(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1e-3]], [[2.0]])
        val, freq = hinf_estimate(sys)
        assert val == pytest.approx(2.0 + 1e-3, rel=1e-3)
        # the estimate must never undershoot the w -> inf level
        assert val >= 2.0


# 57 axis points plus two points off the axis, in the right half-plane
_ORACLE_POINTS = np.concatenate([1j * np.linspace(-4.0, 4.0, 57), [0.3 + 0.7j, 2.0]])


def _worst_gap(sys, points, scale_sys=None):
    """max over points of ||G - G_lu|| / (1 + ||G_scale||): G from the
    package's Schur stack, G_lu from the per-point LU oracle, and G_scale
    the oracle response of scale_sys (default: sys itself)."""
    got = sysmodel._response_stack(sys, points)
    ref = orc.response_stack_lu(sys.A, sys.B, sys.C, sys.D, points)
    scale = ref if scale_sys is None else orc.response_stack_lu(
        scale_sys.A, scale_sys.B, scale_sys.C, scale_sys.D, points
    )
    gap = np.linalg.norm(got - ref, axis=(1, 2))
    return float(np.max(gap / (1.0 + np.linalg.norm(scale, axis=(1, 2)))))


class TestSchurResponses:
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("n", [1, 7, 30])
    @pytest.mark.parametrize("seed", range(95, 103))
    def test_matches_lu_oracle(self, seed, n, m, p, complex_entries):
        sys = random_stable(seed, n, m=m, p=p, complex_entries=complex_entries)
        assert _worst_gap(sys, _ORACLE_POINTS) <= 1e-12

    @pytest.mark.parametrize("r", [5, 20, 29])
    def test_ladder_error_system_matches_lu_oracle(self, r):
        ladder = generate_ladder(31)
        err = error_system(ladder, fibt_reduce(ladder, r).reduced)
        assert _worst_gap(err, _ORACLE_POINTS, scale_sys=ladder) <= 1e-11


class TestSeededErrorSystem:
    def _pair(self):
        full = random_stable(18, 9, m=2, p=3, complex_entries=True)
        return full, fibt_reduce(full, 4).reduced

    def test_responses_match_unseeded_realization(self):
        err = error_system(*self._pair())
        fresh = StateSpace(err.A, err.B, err.C, err.D)
        got = sysmodel._response_stack(err, _ORACLE_POINTS)
        ref = sysmodel._response_stack(fresh, _ORACLE_POINTS)
        gap = np.linalg.norm(got - ref, axis=(1, 2))
        assert np.all(gap <= 1e-12 * (1.0 + np.linalg.norm(ref, axis=(1, 2))))

    def test_poles_are_the_spectrum_of_the_stacked_matrix(self):
        err = error_system(*self._pair())
        assert orc.match_spectra(err.poles, np.linalg.eigvals(err.A)) <= 1e-9

    def test_pole_of_a_part_still_raises(self):
        err = error_system(_oscillator(), random_stable(19, 1))
        with pytest.raises(PoleOnGrid) as info:
            sweep(err, FrequencyGrid.explicit([0.0, 1.0, 2.0]), on_pole="raise")
        assert info.value.omega == pytest.approx(1.0)
        with pytest.raises(PoleOnGrid):
            sigma_max_at(err, 1.0)

    def test_empty_reduced_part(self):
        full = random_stable(20, 5, m=2, p=2)
        empty = StateSpace(
            np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((2, 0)), [[1.0, 0.0], [0.5, -2.0]]
        )
        err = error_system(full, empty)
        assert err.n == 5
        assert orc.match_spectra(err.poles, full.poles) == 0.0
        for w in (0.0, 0.8, -3.1):
            ref = evaluate(full, w) - empty.D
            assert np.linalg.norm(evaluate(err, w) - ref) <= 1e-12 * (
                1.0 + np.linalg.norm(ref)
            )

    def test_each_model_is_factored_once(self, monkeypatch):
        full = random_stable(21, 12, m=2, p=2)
        reduced = [fibt_reduce(full, r).reduced for r in (2, 4, 6)]
        factored = []
        real_schur = sysmodel.schur

        def counting_schur(a, *args, **kwargs):
            factored.append(a.shape[0])
            return real_schur(a, *args, **kwargs)

        monkeypatch.setattr(sysmodel, "schur", counting_schur)
        errs = [error_system(full, red) for red in reduced]
        sweep(errs[0], FrequencyGrid.linear(-3.0, 3.0, 61), refine=True)
        for j in range(20):
            sigma_max_at(errs[j % 3], 0.1 * j)
        assert sorted(factored) == [2, 4, 6, 12]
