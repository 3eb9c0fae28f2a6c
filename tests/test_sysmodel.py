"""State-space container, evaluation, sweeps, and the rational substitution."""

import dataclasses

import numpy as np
import pytest

import oracles as orc
from helpers import damped_chain, random_stable
import fdbt.interval as interval
import fdbt.linalg as linalg
import fdbt.sf as sf
import fdbt.sysmodel as sysmodel
from fdbt import (
    DegenerateMap,
    DimensionMismatch,
    FrequencyGrid,
    IntervalConfig,
    PoleOnGrid,
    SfConfig,
    SingularSubstitution,
    StateSpace,
    error_sweeps,
    error_system,
    evaluate,
    example_fixture,
    fgbt_reduce,
    fibt_reduce,
    generate_ladder,
    hinf_estimate,
    interval_reduce,
    is_hurwitz,
    moebius_substitute,
    sf_reduce,
    sigma_max_at,
    sweep,
    symmetric_log_grid,
    verify_bound,
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
        # realness is the dtype, chosen once for all four matrices
        assert random_stable(2, 3).A.dtype == np.float64
        assert random_stable(2, 3, complex_entries=True).A.dtype == np.complex128

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


def _fixture(name):
    if name.startswith("random"):
        return random_stable(int(name[6:]), 3 + int(name[6:]) % 9, m=2, p=2)
    if name == "ladder-201":
        return generate_ladder(201)
    return example_fixture(name).system


POLE_FIXTURES = ["random30", "random31", "random32", "random33", "ex1", "ex2", "ladder-201"]


class TestPoles:
    """The poles are the eigenvalues the one cached gees of A returns."""

    @pytest.mark.parametrize("name", POLE_FIXTURES)
    def test_real_poles_are_exact_conjugate_pairs(self, name):
        sys = _fixture(name)
        assert sys.A.dtype == np.float64
        poles = sys.poles
        assert np.array_equal(np.sort_complex(poles), np.sort_complex(poles.conj()))
        ref = np.linalg.eigvals(sys.A)
        assert orc.match_spectra(poles, ref) <= 1e-12 * float(np.max(np.abs(ref)))

    @pytest.mark.parametrize("seed", [40, 41, 42, 43])
    def test_complex_poles_are_the_cached_triangle_diagonal(self, seed):
        sys = random_stable(seed, 3 + seed % 9, m=2, p=2, complex_entries=True)
        t = sys._form.t
        assert np.array_equal(np.triu(t), t)
        assert np.array_equal(sys.poles, np.diagonal(t))
        # the sweep's triangle is the same form, not a second factorization
        assert sys._schur_form[0] is t

    @pytest.mark.parametrize("seed", [40, 41, 42, 43])
    def test_real_sweeps_read_the_cached_quasi_triangle(self, seed):
        sys = random_stable(seed, 3 + seed % 9, m=2, p=2)
        t = sys._form.t
        assert t.dtype == np.float64 and np.array_equal(np.triu(t, -1), t)
        # sweeps and probes read the one real form: no complex Schur form
        assert sys._schur_form[0] is t
        assert all(x.dtype == np.float64 for x in sys._schur_form)


class TestEvaluation:
    @pytest.mark.parametrize("m,p", [(0, 2), (2, 0)])
    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_no_inputs_or_no_outputs(self, m, p, complex_entries):
        sys = random_stable(7, 4, m=m, p=p, complex_entries=complex_entries)
        got = evaluate(sys, 0.7)
        assert got.shape == (p, m) and got.dtype == np.complex128

    def test_matches_dense_inverse_oracle(self):
        sys = random_stable(5, 6, m=2, p=2, complex_entries=True)
        for w in (0.7, -1.2, 0.0):
            ref = orc.response_inv(sys.A, sys.B, sys.C, sys.D, 1j * w)
            assert np.linalg.norm(evaluate(sys, w) - ref) <= 1e-12 * (
                1.0 + np.linalg.norm(ref)
            )
        # the point kernel behind evaluate, off the axis too
        for s in (0.3 + 0.7j, 2.0):
            ref = orc.response_lu(sys.A, sys.B, sys.C, sys.D, s)
            assert np.linalg.norm(sysmodel._point_response(sys, s) - ref) <= 1e-12 * (
                1.0 + np.linalg.norm(ref)
            )

    def test_scalar_lowpass_analytic(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        for w in (0.0, 0.5, 1.0, -3.0):
            assert abs(sigma_max_at(sys, w) - 1.0 / np.hypot(1.0, w)) <= 1e-14

    def test_overflow_raises_with_location(self):
        sys = StateSpace([[-1.0]], [[1e300]], [[1e300]], [[0.0]])
        # the last target's parts both overflow, and their difference is NaN
        for target in (sys, error_system(sys, random_stable(24, 1)), error_system(sys, sys)):
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(PoleOnGrid, match="response overflowed") as info:
                    evaluate(target, 0.5)
            assert info.value.omega == 0.5

    def test_pole_hit_raises_with_location(self):
        with pytest.raises(PoleOnGrid) as info:
            sigma_max_at(_oscillator(), 1.0)
        assert info.value.omega == pytest.approx(1.0)

    @pytest.mark.parametrize("omega", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("kernel", [evaluate, sigma_max_at])
    def test_non_finite_frequency_is_refused(self, kernel, omega):
        # not a pole: an invalid input, refused as FrequencyGrid refuses one
        sys = generate_ladder(5)
        for target in (sys, error_system(sys, fibt_reduce(sys, 2).reduced)):
            with pytest.raises(DimensionMismatch, match="frequency must be finite"):
                kernel(target, omega)

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
    def test_linear_and_log_constructors_build_their_points(self):
        assert np.array_equal(
            FrequencyGrid.linear(-1.0, 1.0, 5).points, np.linspace(-1.0, 1.0, 5)
        )
        assert np.array_equal(
            FrequencyGrid.logarithmic(0.1, 10.0, 7).points, np.geomspace(0.1, 10.0, 7)
        )

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
        # an error system: sweep and point kernel each take it by parts
        full = random_stable(22, 8, m=2, p=3, complex_entries=True)
        err = error_system(full, fibt_reduce(full, 3).reduced)
        rep = sweep(err, grid)
        for w, v in zip(grid.points, rep.sigma_max):
            assert v == pytest.approx(sigma_max_at(err, float(w)), abs=1e-13)

    @pytest.mark.parametrize(
        "seed,n,m,p", [(10, 30, 2, 2), (100, 9, 1, 1), (101, 9, 1, 1), (102, 9, 1, 1)]
    )
    def test_block_split_does_not_change_bytes(self, monkeypatch, seed, n, m, p):
        # a point's response has the same bytes alone, in a pair, inside a
        # larger block and in every group of chunks the memory cap allows,
        # whatever padding its grid's last chunk takes; on a real form
        # (whose complex pole pairs are 2 x 2 blocks) and a complex one
        real = random_stable(seed, n, m=m, p=p)
        assert np.any(np.diagonal(real._form.t, -1))
        for sys in (real, random_stable(seed, n, m=m, p=p, complex_entries=True)):
            points = 1j * np.linspace(-3.0, 3.0, 41)
            whole = sysmodel._response_stack(sys, points)
            for i in range(points.size):
                alone = sysmodel._response_stack(sys, points[i : i + 1])
                pair = sysmodel._response_stack(sys, points[[i, i - 1]])
                assert alone[0].tobytes() == pair[0].tobytes() == whole[i].tobytes(), i
            for size in range(2, points.size):
                split = sysmodel._response_stack(sys, points[: size + 1])
                assert split.tobytes() == whole[: size + 1].tobytes(), size
            grid = FrequencyGrid.linear(-2.0, 2.0, 257)
            swept = sweep(sys, grid).sigma_max.tobytes()
            per_chunk = 16 * (p + n) * m * sysmodel._CHUNK_POINTS
            for chunks in (1, 2, 3):
                # 257 points: four full chunks and a one-point last one
                monkeypatch.setattr(sysmodel, "_STACK_BLOCK_BYTES", per_chunk * chunks)
                assert sweep(sys, grid).sigma_max.tobytes() == swept
            monkeypatch.undo()

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3)])
    @pytest.mark.parametrize("seed", [3, 4])
    def test_real_sigma_max_is_bitwise_even(self, seed, m, p):
        # a real system's responses at s and conj(s) are exact conjugates
        sys = random_stable(seed, 12, m=m, p=p)
        half = np.geomspace(1e-3, 1e2, 60)
        grid = FrequencyGrid.explicit(np.concatenate([-half, half]))
        sig = sweep(sys, grid).sigma_max
        assert sig[:60][::-1].tobytes() == sig[60:].tobytes()
        responses = sysmodel._response_stack(sys, 1j * grid.points)
        assert responses[:60][::-1].tobytes() == responses[60:].conj().tobytes()

    def test_mirror_tie_reports_the_negative_frequency(self):
        # on a mirror-exact grid the two peaks of a real system are equal,
        # so the first, negative, one is reported; refinement searches its
        # bracket and keeps the sign
        sys = damped_chain(4)
        grid = symmetric_log_grid(sys.poles, 400)
        assert np.array_equal(grid.points, -grid.points[::-1])
        rep = sweep(sys, grid)
        k = int(np.argmax(rep.sigma_max))
        assert rep.peak_frequency < 0.0
        assert rep.sigma_max[k] == rep.sigma_max[grid.points.size - 1 - k]
        assert sweep(sys, grid, refine=True).peak_frequency < 0.0
        assert hinf_estimate(sys)[1] < 0.0

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

    def test_overflow_is_skipped_or_raised(self):
        # the pole at -1 is far from the axis, but C x overflows
        sys = StateSpace([[-1.0]], [[1e300]], [[1e300]], [[0.0]])
        grid = FrequencyGrid.explicit([0.0, 1.0])
        for target in (sys, error_system(sys, random_stable(23, 1))):
            with np.errstate(over="ignore"):
                rep = sweep(target, grid, on_pole="skip")
                with pytest.raises(PoleOnGrid, match="coincides") as info:
                    sweep(target, grid, on_pole="raise")
            assert rep.skipped == (0.0, 1.0)
            assert np.all(np.isnan(rep.sigma_max))
            assert np.isnan(rep.peak_value) and np.isnan(rep.peak_frequency)
            assert info.value.omega == 0.0

    def test_nan_response_is_skipped_or_raised(self):
        # both parts overflow to +inf, so the error system's response is
        # inf - inf = NaN, which must never reach the SVD
        sys = StateSpace([[-1.0]], [[1e300]], [[1e300]], [[0.0]])
        grid = FrequencyGrid.explicit([0.0, 1.0])
        with np.errstate(over="ignore", invalid="ignore"):
            rep = sweep(error_system(sys, sys), grid, on_pole="skip")
            with pytest.raises(PoleOnGrid, match="coincides") as info:
                sweep(error_system(sys, sys), grid, on_pole="raise")
        assert rep.skipped == (0.0, 1.0)
        assert np.all(np.isnan(rep.sigma_max))
        assert np.isnan(rep.peak_value) and np.isnan(rep.peak_frequency)
        assert info.value.omega == 0.0

    def test_bad_on_pole_value_rejected(self):
        with pytest.raises(DimensionMismatch):
            sweep(_oscillator(), FrequencyGrid.explicit([0.5]), on_pole="ignore")
        with pytest.raises(DimensionMismatch):
            error_sweeps(
                _oscillator(), [None], FrequencyGrid.explicit([0.5]), on_pole="ignore"
            )

    def test_refinement_sharpens_interior_peak(self):
        sys = _oscillator(damping=0.02)  # resonance near w = 1, very sharp
        grid = FrequencyGrid.explicit([0.5, 0.9, 1.05, 1.5])
        coarse = sweep(sys, grid, refine=False)
        fine = sweep(sys, grid, refine=True)
        true_peak = sweep(sys, symmetric_log_grid(sys.poles, 40000), refine=True).peak_value
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
                ref = orc.response_lu(sys.A, sys.B, sys.C, sys.D, target)
                got = evaluate(sub, float(w))
                assert np.linalg.norm(got - ref) <= 1e-9 * (1.0 + np.linalg.norm(ref))

    def test_identity_map(self):
        sys = random_stable(15, 4)
        sub = moebius_substitute(sys, 1.0, 0.0, 0.0, 1.0)
        for w in (0.0, 0.9, -2.0):
            assert np.allclose(evaluate(sub, w), evaluate(sys, w), atol=1e-12)

    def test_real_map_on_real_data_stays_real(self):
        sub = moebius_substitute(random_stable(15, 4), 2.0, 0.5, 0.3, 1.0)
        assert all(x.dtype == np.float64 for x in (sub.A, sub.B, sub.C, sub.D))

    def test_complex_coefficient_gives_complex(self):
        sub = moebius_substitute(random_stable(15, 4), 2.0 + 0.5j, 0.5, 0.3, 1.0)
        assert all(x.dtype == np.complex128 for x in (sub.A, sub.B, sub.C, sub.D))

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
        # G(s) = 1 - 0.5/(s + 1) climbs from 0.5 at w = 0 towards D = 1 and
        # never reaches it: only the w -> inf candidate gives the sup
        assert hinf_estimate(StateSpace([[-1.0]], [[1.0]], [[-0.5]], [[1.0]])) == (1.0, np.inf)


def _no_io(m, p, kind):
    """A 3-state model with m inputs and p outputs, one of them 0: static."""
    a = np.diag([-1.0, -2.0, -3.0]) + (0.5j * np.eye(3) if kind == "complex" else 0.0)
    return StateSpace(a, np.ones((3, m)), np.ones((p, 3)), np.zeros((p, m)))


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("m, p", [(0, 1), (1, 0), (0, 0)])
class TestStaticModels:
    """A model with states but no inputs or no outputs responds D, an empty
    matrix, at every point: every sweep, refined or not, and every estimate
    reads zero, and none raises."""

    GRID = FrequencyGrid.linear(-1.0, 1.0, 5)

    def test_sweeps_to_zero(self, m, p, kind):
        for refine in (False, True):
            rep = sweep(_no_io(m, p, kind), self.GRID, refine=refine)
            assert rep.sigma_max.tolist() == [0.0] * 5 and rep.skipped == ()
            assert (rep.peak_value, rep.peak_frequency) == (0.0, -1.0)

    def test_whole_axis_estimate_is_its_feedthrough(self, m, p, kind):
        assert hinf_estimate(_no_io(m, p, kind)) == (0.0, np.inf)

    def test_a_reduction_errs_by_zero(self, m, p, kind):
        # fibt's reduced model can park a pole on the axis (Wc = 0 without
        # inputs); a static model's response has no pole to skip
        sys = _no_io(m, p, kind)
        result = fibt_reduce(sys, 1)
        for refine in (False, True):
            (rep,) = error_sweeps(sys, [result.reduced], self.GRID, refine=refine)
            assert rep.peak_value == 0.0 and rep.skipped == ()
        assert hinf_estimate(error_system(sys, result.reduced)) == (0.0, np.inf)
        rec = verify_bound(sys, result, self.GRID, "ef")
        assert (rec.bound, rec.peak, rec.passed, rec.skipped) == (0.0, 0.0, True, ())
        assert evaluate(result.reduced, 0.0).shape == (p, m)


# 57 axis points plus two points off the axis, in the right half-plane
_ORACLE_POINTS = np.concatenate([1j * np.linspace(-4.0, 4.0, 57), [0.3 + 0.7j, 2.0]])


def _pointwise(sys, points):
    return np.stack([sysmodel._point_response(sys, complex(s)) for s in points])


def _worst_gap(sys, points, scale_sys=None, kernel=sysmodel._response_stack):
    """max over points of ||G - G_lu|| / (1 + ||G_scale||): G from the
    package's kernel (default: the Schur stack), G_lu from the per-point LU
    oracle, and G_scale the oracle response of scale_sys (default: sys
    itself)."""
    got = kernel(sys, points)
    ref = orc.response_stack_lu(sys.A, sys.B, sys.C, sys.D, points)
    scale = ref if scale_sys is None else orc.response_stack_lu(
        scale_sys.A, scale_sys.B, scale_sys.C, scale_sys.D, points
    )
    gap = np.linalg.norm(got - ref, axis=(1, 2))
    return float(np.max(gap / (1.0 + np.linalg.norm(scale, axis=(1, 2)))))


class TestSchurResponses:
    def test_one_panel_path_for_both_arithmetics(self, monkeypatch):
        # a real form with no 2 x 2 blocks and its diagonal-unitary complex
        # twin have panels of the same rows, so both sweeps make the same
        # gemm updates (add_product) above their panels
        rng = np.random.default_rng(61)
        n = 19
        x = rng.standard_normal((n, n))
        real = StateSpace(
            -(x @ x.T) / n - 0.1 * np.eye(n), rng.standard_normal((n, 2)),
            rng.standard_normal((2, n)), rng.standard_normal((2, 2)),
        )
        assert not np.diagonal(real._form.t, -1).any()
        u = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, n))
        twin = StateSpace(
            u.conj()[:, None] * real.A * u[None, :], u.conj()[:, None] * real.B,
            real.C * u[None, :], real.D,
        )
        assert twin.A.dtype == np.complex128
        grid = FrequencyGrid.linear(-3.0, 3.0, 101)
        calls = []
        add_product = sysmodel.add_product
        monkeypatch.setattr(
            sysmodel, "add_product", lambda *args: calls.append(1) or add_product(*args)
        )
        sigmas, counts = [], []
        for sys in (real, twin):
            calls.clear()
            sigmas.append(sweep(sys, grid).sigma_max)
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0
        gap = np.max(np.abs(sigmas[0] - sigmas[1]))
        assert gap <= 1e-12 * max(1.0, float(np.max(sigmas[0])))

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

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3), (3, 2)])
    @pytest.mark.parametrize("n", [1, 7, 30])
    @pytest.mark.parametrize("seed", range(95, 103))
    def test_point_kernel_matches_lu_oracle(self, seed, n, m, p, complex_entries):
        sys = random_stable(seed, n, m=m, p=p, complex_entries=complex_entries)
        assert _worst_gap(sys, _ORACLE_POINTS, kernel=_pointwise) <= 1e-12

    @pytest.mark.parametrize("r", [5, 20, 29])
    def test_ladder_error_system_point_kernel_matches_lu_oracle(self, r):
        ladder = generate_ladder(31)
        err = error_system(ladder, fibt_reduce(ladder, r).reduced)
        gap = _worst_gap(err, _ORACLE_POINTS, scale_sys=ladder, kernel=_pointwise)
        assert gap <= 1e-11

    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3)])
    def test_lightly_damped_chain_matches_lu_oracle(self, m, p):
        # pole pairs -0.005 +- j w_i: 2 x 2 blocks of the real form, probed
        # at points a relative 1e-3 off each resonance, on both sides
        sys = damped_chain(8, m=m, p=p)
        assert np.count_nonzero(np.diagonal(sys._form.t, -1)) == 8
        w = np.abs(sys.poles.imag)
        points = 1j * np.concatenate([w * (1.0 + 1e-3), -w * (1.0 - 1e-3)])
        for kernel in (sysmodel._response_stack, _pointwise):
            assert _worst_gap(sys, points, kernel=kernel) <= 1e-12


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

    def test_pole_tolerance_is_cached_and_assembled_from_parts(self, monkeypatch):
        full, reduced = self._pair()
        empty = StateSpace(np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)), full.D)
        errs = [error_system(full, reduced), error_system(full, empty)]
        # the stacked spectrum's largest magnitude, as computed before caching
        want = [1e-12 * max(1.0, float(np.max(np.abs(e.poles)))) for e in errs]
        fresh = [error_system(full, reduced), error_system(full, empty)]
        assert [sysmodel._pole_tolerance(e) for e in fresh] == want
        # later calls read the cache: no pole magnitude is recomputed
        monkeypatch.setattr(
            StateSpace, "poles", property(lambda self: pytest.fail("poles read"))
        )
        for _ in range(3):
            assert [sysmodel._pole_tolerance(e) for e in fresh] == want

    def test_stacked_states_are_never_factored(self):
        full, reduced = self._pair()
        err = error_system(full, reduced)
        sweep(err, FrequencyGrid.linear(-3.0, 3.0, 61), refine=True)
        sigma_max_at(err, 0.7)
        # each part holds its own Schur form; the error system holds none
        assert "_schur_form" not in err.__dict__
        assert all("_schur_form" in part.__dict__ for part in (full, reduced))

    def test_each_model_is_factored_once(self, monkeypatch):
        full = random_stable(21, 12, m=2, p=2)
        # fresh copies, so that every factorization, the poles' too, is counted
        models = [
            StateSpace(s.A, s.B, s.C, s.D)
            for s in [full] + [fibt_reduce(full, r).reduced for r in (2, 4, 6)]
        ]
        full, reduced = models[0], models[1:]
        factored = []
        routine = linalg._routine

        def counting_routine(name, char):
            fn = routine(name, char)

            def wrapped(*args, **kwargs):
                if kwargs.get("lwork") != -1:  # not a workspace query
                    factored.append((name, char, args[name == "gees"].shape[0]))
                return fn(*args, **kwargs)

            return wrapped if name in ("gees", "geev") else fn

        monkeypatch.setattr(linalg, "_routine", counting_routine)
        errs = [error_system(full, red) for red in reduced]
        sweep(errs[0], FrequencyGrid.linear(-3.0, 3.0, 61), refine=True)
        for j in range(20):
            sigma_max_at(errs[j % 3], 0.1 * j)
        # one real gees per model: poles, sweeps and probes all read it
        assert sorted(factored) == [("gees", "d", n) for n in (2, 4, 6, 12)]


def _per_system_sweep(err, grid, refine=False, on_pole="raise"):
    """sweep of one error system as it ran before error_sweeps: screened on
    its stacked poles and evaluated (by parts) on exactly its own points."""
    s_points = 1j * grid.points
    bad = sysmodel._pole_distances(err, s_points) < sysmodel._pole_tolerance(err)
    responses = None if bad.all() else sysmodel._response_stack(err, s_points[~bad])
    report = sysmodel._grid_report(grid, bad, responses, on_pole)
    return sysmodel._refined([report], [sysmodel._split(err) if refine else None])[0]


def _outcome(sweep_call):
    """A report's bytes, or the frequency of the PoleOnGrid it raised."""
    try:
        rep = sweep_call()
    except PoleOnGrid as exc:
        return ("raised", exc.omega)
    return (
        rep.sigma_max.tobytes(),
        np.float64(rep.peak_value).tobytes(),
        np.float64(rep.peak_frequency).tobytes(),
        rep.skipped,
    )


def _batched_outcomes(full, models, grid, refine=False, on_pole="raise"):
    """error_sweeps of all models at once; a raise ends the batch there."""
    try:
        reports = error_sweeps(full, models, grid, refine, on_pole)
    except PoleOnGrid as exc:
        return ("raised", exc.omega)
    return [_outcome(lambda rep=rep: rep) for rep in reports]


def _one_by_one(full, models, grid, refine=False, on_pole="raise", kernel=sweep):
    """What sweeping each model's error system in turn gives, stopping at
    the first raise as a batch does."""
    out = []
    for red in models:
        got = _outcome(lambda red=red: kernel(error_system(full, red), grid, refine, on_pole))
        if got[0] == "raised":
            return got
        out.append(got)
    return out


def _empty_model(m, p, d):
    return StateSpace(np.zeros((0, 0)), np.zeros((0, m)), np.zeros((p, 0)), d)


class TestErrorSweeps:
    """error_sweeps evaluates the plant once per grid; every report must be
    bitwise the one sweep gives for that model's error system alone."""

    GRIDS = (
        FrequencyGrid.linear(-3.0, 3.0, 41),
        FrequencyGrid.explicit([0.4]),
        FrequencyGrid.explicit([-1.0, 0.0, 1.0, 2.0]),
    )

    def _models(self, full):
        m, p = full.m, full.p
        oscillator = StateSpace(
            [[0.0, 1.0], [-1.0, 0.0]], np.ones((2, m)), np.ones((p, 2)), np.zeros((p, m))
        )
        # fibt truncations, a zero-order model, and a model with poles at
        # +/- j, which the plant does not have
        return [fibt_reduce(full, r).reduced for r in (1, 3, 6)] + [
            _empty_model(m, p, 0.5 * full.D),
            oscillator,
        ]

    @pytest.mark.parametrize("refine", [False, True])
    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3)])
    def test_matches_sweep_per_model_bitwise(self, m, p, complex_entries, refine):
        full = random_stable(104, 9, m=m, p=p, complex_entries=complex_entries)
        models = self._models(full)
        for grid in self.GRIDS:
            for on_pole in ("skip", "raise"):
                got = _batched_outcomes(full, models, grid, refine, on_pole)
                assert got == _one_by_one(full, models, grid, refine, on_pole)
                ref = _one_by_one(full, models, grid, refine, on_pole, _per_system_sweep)
                assert got == ref

    def test_model_pole_on_grid_is_skipped_or_raised_as_alone(self):
        full = random_stable(105, 6, m=2, p=3)
        oscillator = self._models(full)[-1]
        grid = FrequencyGrid.explicit([-1.0, 0.0, 1.0, 2.0])
        skip = error_sweeps(full, [oscillator], grid, on_pole="skip")[0]
        alone = sweep(error_system(full, oscillator), grid, on_pole="skip")
        assert skip.skipped == alone.skipped == (-1.0, 1.0)
        with pytest.raises(PoleOnGrid) as info:
            error_sweeps(full, [fibt_reduce(full, 2).reduced, oscillator], grid)
        assert info.value.omega == -1.0

    @pytest.mark.parametrize("seed", [100, 101, 102])
    def test_a_lone_point_left_by_a_model_pole_keeps_its_bytes(self, seed):
        # of two points, the model's pole at w = 1 leaves one, which the
        # model evaluates alone while the plant evaluated it in a pair: a
        # point's response has the same bytes either way
        full = random_stable(seed, 9)
        oscillator = self._models(full)[-1]
        for w in np.linspace(-3.0, 3.0, 40):
            grid = FrequencyGrid.explicit([w, 1.0])
            got = _batched_outcomes(full, [oscillator], grid, on_pole="skip")
            ref = _one_by_one(
                full, [oscillator], grid, on_pole="skip", kernel=_per_system_sweep
            )
            assert got == ref, w

    def test_none_gives_the_plants_own_report(self):
        full = random_stable(106, 7, m=2, p=2, complex_entries=True)
        grid = FrequencyGrid.linear(-3.0, 3.0, 41)
        reduced = fibt_reduce(full, 3).reduced
        own, err = error_sweeps(full, [None, reduced], grid, refine=True, on_pole="skip")
        assert _outcome(lambda: own) == _outcome(lambda: sweep(full, grid, on_pole="skip"))
        ref = sweep(error_system(full, reduced), grid, refine=True, on_pole="skip")
        assert _outcome(lambda: err) == _outcome(lambda: ref)

    def test_ladder_error_systems_match_bitwise(self):
        ladder = generate_ladder(31)
        models = [fibt_reduce(ladder, r).reduced for r in (5, 20, 29)]
        grid = FrequencyGrid.linear(-2.0, 2.0, 801)
        got = _batched_outcomes(ladder, models, grid, refine=True, on_pole="skip")
        ref = _one_by_one(ladder, models, grid, True, "skip", _per_system_sweep)
        assert got == ref

    def test_plant_evaluated_once_per_grid(self, monkeypatch):
        full = random_stable(107, 8, m=2, p=2)
        models = [fibt_reduce(full, r).reduced for r in (2, 4, 6)]
        evaluated = []
        real_stack = sysmodel._response_stack

        def counting(sys, points):
            evaluated.append(sys)
            return real_stack(sys, points)

        monkeypatch.setattr(sysmodel, "_response_stack", counting)
        error_sweeps(full, [None] + models, FrequencyGrid.linear(-3.0, 3.0, 61), refine=True)
        assert [sys is full for sys in evaluated] == [True, False, False, False]
        assert evaluated[1:] == models

    def test_io_mismatch_rejected(self):
        full = random_stable(108, 4, m=2, p=2)
        with pytest.raises(DimensionMismatch):
            error_sweeps(full, [random_stable(109, 2)], FrequencyGrid.explicit([0.0]))


class TestSigmaKernel:
    """_sigma_stack is the one sigma_max kernel: |z| for a 1 x 1 response,
    the bits of numpy's SVD for every larger one."""

    @staticmethod
    def _scalars():
        rng = np.random.default_rng(2026)

        def mags(k, lo=-320.0, hi=308.0):
            # signed magnitudes, log-uniform over [1e-320, 1e308]
            return rng.choice([-1.0, 1.0], k) * 10.0 ** rng.uniform(lo, hi, k)

        tiny = np.array([5e-324, 1e-323, 2.2e-308, 1e-310, 1e-315, 1e-320])
        zeros = np.array([0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0)])
        huge = np.array([1e308 + 1e308j, -1.7e308 + 0j, 1j * 1.7e308])
        alike = mags(40_000, hi=307.0)
        return np.concatenate([
            mags(50_000) + 1j * mags(50_000),  # independent parts
            alike + 1j * alike * rng.uniform(-3.0, 3.0, alike.size),  # parts alike
            mags(20_000) + 0j,  # pure real
            1j * mags(20_000),  # pure imaginary
            rng.standard_normal(30_000) + 1j * rng.standard_normal(30_000),
            tiny, -tiny, 1j * tiny, tiny + 1j * tiny[::-1], zeros, huge,
        ])

    def test_one_by_one_is_abs(self, monkeypatch):
        bad = np.array([np.inf, complex(1.0, np.nan), complex(-np.inf, 2.0), np.nan])
        z = np.concatenate([self._scalars(), bad])

        def no_svd(*args, **kwargs):
            raise AssertionError("the SVD ran on a 1 x 1 stack")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        for stack in (z, z.real.copy(), z.conj()):
            got = sysmodel._sigma_stack(stack[:, None, None])
            finite = np.isfinite(stack)
            assert got.dtype == np.float64 and (~finite).sum() >= 3
            assert got[finite].tobytes() == np.abs(stack[finite]).tobytes()
            assert np.all(np.isnan(got[~finite]))
        # |z| is even under conjugation, so a real system's sigma_max is
        # even in omega to the bit
        assert sysmodel._sigma_stack(z.conj()[:, None, None]).tobytes() == (
            sysmodel._sigma_stack(z[:, None, None]).tobytes()
        )

    def test_non_finite_and_empty(self):
        stack = np.array([np.inf, complex(1.0, np.nan), complex(-np.inf, 2.0), 3.0 - 4.0j])
        got = sysmodel._sigma_stack(stack[:, None, None])
        assert np.all(np.isnan(got[:3])) and got[3] == 5.0
        assert np.array_equal(sysmodel._sigma_stack(np.zeros((4, 0, 3))), np.zeros(4))
        empty = np.zeros((4, 2, 0), complex)
        assert np.array_equal(sysmodel._sigma_stack(empty), np.zeros(4))

    @pytest.mark.parametrize("complex_entries", [False, True])
    def test_larger_responses_are_the_svd(self, complex_entries):
        rng = np.random.default_rng(2027)
        scale = 10.0 ** rng.uniform(-200, 200, (500, 1, 1))
        stack = rng.standard_normal((500, 2, 3)) * scale
        if complex_entries:
            stack = stack + 1j * rng.standard_normal((500, 2, 3))
        stack[[3, 70]] = np.inf
        stack[11, 1, 2] = np.nan
        got = sysmodel._sigma_stack(stack)
        finite = np.isfinite(stack).all(axis=(1, 2))
        want = np.linalg.svd(stack[finite], compute_uv=False)[:, 0]
        assert got[finite].tobytes() == want.tobytes()
        assert np.all(np.isnan(got[~finite])) and (~finite).sum() == 3

    def test_point_kernels_and_feedthrough_use_it(self):
        sys = random_stable(112, 5, complex_entries=True)
        for w in (0.0, 0.37, -2.5):
            want = np.abs(evaluate(sys, w)[0, 0])
            assert np.float64(sigma_max_at(sys, w)).tobytes() == want.tobytes()
        feed = StateSpace(np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), [[-0.3]])
        assert hinf_estimate(feed) == (0.3, np.inf)
        mimo = random_stable(113, 3, m=3, p=2)
        d_limit = np.linalg.svd(mimo.D, compute_uv=False)[0]
        assert sysmodel._sigma_stack(mimo.D[None])[0] == d_limit


def _samples(rep):
    """The grid samples a refined report's peak search starts from, as
    floats: (lo, sigma) of the peak's lower finite neighbour, of the peak,
    of its upper one (the peak itself on the edge); None with under two
    finite points."""
    finite = np.flatnonzero(~np.isnan(rep.sigma_max))
    if finite.size < 2:
        return None
    k = int(finite[np.argmax(rep.sigma_max[finite])])
    lo = int(finite[finite < k][-1]) if (finite < k).any() else k
    hi = int(finite[finite > k][0]) if (finite > k).any() else k
    return [float(x[i]) for i in (lo, k, hi) for x in (rep.grid.points, rep.sigma_max)]


def _oracle_peak(err, grid, on_pole="skip", probes=None):
    """(peak_value, peak_frequency) of the refined sweep of err made the
    scalar way: its grid report, then the oracle's peak_search between the
    peak's grid neighbours, one orc.sigma_max_at per probe. probes, when
    given, collects the probed frequencies in order."""
    rep = _per_system_sweep(err, grid, on_pole=on_pole)
    peak_v, peak_w = rep.peak_value, rep.peak_frequency
    samples = _samples(rep)
    if samples is None:
        return peak_v, peak_w

    def f(w):
        if probes is not None:
            probes.append(w)
        if (err.p, err.m) == (1, 1):
            return float(np.abs(orc.evaluate(err, w)[0, 0]))
        return orc.sigma_max_at(err, w)

    w_ref, v_ref = orc.peak_search(f, *samples)
    if v_ref > peak_v:
        peak_w, peak_v = w_ref, v_ref
    return peak_v, peak_w


def _is_edge(rep):
    """Whether a report's grid peak is on its first or last finite point."""
    samples = _samples(rep)
    return samples is not None and samples[2] in (samples[0], samples[4])


def _peak_bytes(value, frequency):
    return np.array([value, frequency], dtype=float).tobytes()


def _constant_model(m, p, d):
    # one state that is never excited: the response is d at every point
    return StateSpace([[-1.0]], np.zeros((1, m)), np.ones((p, 1)), d)


class TestLockstepRefinement:
    """error_sweeps refines each model's peak by its own search, model
    after model; each peak must be bitwise the scalar search's
    (tests/oracles.py), alone or in a batch."""

    def _check(self, full, models, grid, on_pole="skip"):
        """Compare every refined report with the oracle; return the reports
        and each error model's number of oracle probes."""
        reports = error_sweeps(full, models, grid, refine=True, on_pole=on_pole)
        counts = []
        for red, rep in zip(models, reports):
            if red is None:
                ref = sweep(full, grid, on_pole=on_pole)
                want = (ref.peak_value, ref.peak_frequency)
            else:
                probes = []
                want = _oracle_peak(error_system(full, red), grid, on_pole, probes)
                counts.append(len(probes))
            assert _peak_bytes(rep.peak_value, rep.peak_frequency) == _peak_bytes(*want)
        return reports, counts

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3)])
    def test_matches_scalar_oracle_bitwise(self, m, p, complex_entries):
        full = random_stable(110, 6, m=m, p=p, complex_entries=complex_entries)
        oscillator = StateSpace(
            [[0.0, 1.0], [-1.0, 0.0]], np.ones((2, m)), np.ones((p, 2)), np.zeros((p, m))
        )
        # truncations, a zero-order model, a model with poles at +/- j (its
        # points +/-1 are skipped), the plant itself (zero error: every
        # probe ties at 0) and a model whose response is its constant D
        models = [None] + [fibt_reduce(full, r).reduced for r in (1, 2, 4)] + [
            _empty_model(m, p, 0.5 * full.D),
            oscillator,
            full,
            _constant_model(m, p, full.D + 1.0),
        ]
        linear = FrequencyGrid.explicit(np.concatenate([np.linspace(-3, 3, 41), [-1, 1]]))
        reports, counts = self._check(full, models, linear)
        assert reports[5].skipped == (-1.0, 1.0)
        assert not np.any(reports[6].sigma_max) and reports[6].peak_value == 0.0
        # every sample of the zero error ties: its edge peak settles in one
        # probe, the point inside the edge
        assert counts[-2] == 1
        # a whole-axis grid: brackets with |w| on both sides of 1 stop
        # after different numbers of steps
        _, counts = self._check(full, models, symmetric_log_grid(full.poles, 300))
        assert len(set(counts)) > 2

    def test_peaks_on_the_grid_edges(self):
        # the plant is 0, so each error is minus its model: a low-pass that
        # peaks on the first point and a resonance above the grid that
        # peaks on the last one
        zero = _empty_model(1, 1, [[0.0]])
        low = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        high = StateSpace([[0.0, 1.0], [-9.0, -0.3]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        grid = FrequencyGrid.explicit([0.5, 1.0, 2.0])
        reports = error_sweeps(zero, [low, high], grid, refine=True)
        assert [rep.sigma_max[[0, 2]].argmax() for rep in reports] == [0, 1]
        self._check(zero, [low, high, None], grid)
        self._check(zero, [high, low], FrequencyGrid.explicit([-2.0, -1.0, -0.5]))

    def test_mirror_ties_keep_the_scalar_branch(self):
        # |G| of a real first-order model is bitwise even in w: on [-h, 0, h]
        # the peak's two neighbours tie and the parabola through them steps
        # by a signed zero; on [-h, h] the edges tie and the inner probe
        # hands the search over. Which way each step goes must be the
        # scalar search's, probe by probe
        zero = _empty_model(1, 1, [[0.0]])
        low = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        for h in (0.3, 1.0, 4.0):
            for grid in (FrequencyGrid.explicit([-h, 0.0, h]), FrequencyGrid.explicit([-h, h])):
                samples = _samples(sweep(low, grid))
                got, want = [], []

                def probe(w):
                    got.append(w)
                    return sigma_max_at(low, w)

                def f(w):
                    want.append(w)
                    return orc.sigma_max_at(low, w)

                result = sysmodel._peak_search(probe, *samples)
                assert _peak_bytes(*result) == _peak_bytes(*orc.peak_search(f, *samples))
                assert got == want and len(got) >= 2
                self._check(zero, [low, low], grid)

    def test_width_under_tolerance(self):
        # hi - lo = 5e-7 < 1e-6: the bracket is already within the search's
        # width, so it is not probed and the grid peak stands
        full = random_stable(114, 5, m=2, p=3, complex_entries=True)
        models = [fibt_reduce(full, r).reduced for r in (1, 2)]
        for lo in (1.0, 0.25):
            grid = FrequencyGrid.explicit([lo, lo + 5e-7])
            reports, counts = self._check(full, models, grid)
            assert counts == [0, 0]
            unrefined = error_sweeps(full, models, grid)
            assert [_outcome(lambda r=r: r) for r in reports] == [
                _outcome(lambda r=r: r) for r in unrefined
            ]

    def test_one_model_alone_or_in_a_batch(self):
        full = random_stable(115, 7, complex_entries=True)
        models = [fibt_reduce(full, r).reduced for r in (1, 3, 5)]
        grid = symmetric_log_grid(full.poles, 200)
        batch = error_sweeps(full, models, grid, refine=True)
        for red, rep in zip(models, batch):
            (alone,) = error_sweeps(full, [red], grid, refine=True)
            assert _outcome(lambda: rep) == _outcome(lambda: alone)

    def test_report_is_finished(self):
        # _refined finishes a single swept system's report too
        full = random_stable(116, 6)
        err = error_system(full, fibt_reduce(full, 2).reduced)
        grid = FrequencyGrid.linear(-3.0, 3.0, 41)
        rep = _per_system_sweep(err, grid, refine=True)
        assert isinstance(rep, sysmodel.SweepReport)
        assert _peak_bytes(rep.peak_value, rep.peak_frequency) == _peak_bytes(
            *_oracle_peak(err, grid)
        )
        assert rep.peak_value > np.nanmax(rep.sigma_max)

    def test_one_kernel_call_per_grid_and_per_probe(self, monkeypatch):
        # the experiment's batch: 9 models of a 4-state plant over one band
        full = random_stable(117, 4)
        band = (-0.5, 0.5)
        models = (
            [fibt_reduce(full, r).reduced for r in (1, 2, 3)]
            + [interval_reduce(full, IntervalConfig(*band), r, with_ef_bound=False).reduced
               for r in (1, 2, 3)]
            + [fgbt_reduce(full, r, *band).reduced for r in (1, 2, 3)]
        )
        grid = FrequencyGrid.linear(*band, 512)
        unrefined = error_sweeps(full, models, grid)
        edge = [_is_edge(rep) for rep in unrefined]
        _, counts = self._check(full, models, grid)
        # an edge peak whose sigma_max falls away from the edge costs one
        # probe, the point inside the edge
        assert sum(edge) == 6 and all(c == 1 for c, e in zip(counts, edge) if e)
        kernel_calls, probes = [], []
        kernel, point = sysmodel._sigma_stack, sysmodel._point_response

        def counting_kernel(responses):
            kernel_calls.append(responses.shape[0])
            return kernel(responses)

        def counting_point(sys, s):
            probes.append(s)
            return point(sys, s)

        monkeypatch.setattr(sysmodel, "_sigma_stack", counting_kernel)
        monkeypatch.setattr(sysmodel, "_point_response", counting_point)
        monkeypatch.setattr(sysmodel, "sigma_max_at", lambda *a: pytest.fail("probe"))
        monkeypatch.setattr(sysmodel, "error_system", lambda *a: pytest.fail("stacked"))
        error_sweeps(full, models, grid, refine=True, on_pole="skip")
        # one call per model's grid, then one per probe
        assert kernel_calls == [512] * 9 + [1] * sum(counts)
        # each probe evaluates the plant and the model once; the
        # golden-section search this one replaced made 372 point responses
        # on this batch, and up to 19 probes in one model's search
        assert len(probes) == 2 * sum(counts) <= 372 // 2
        assert max(counts) <= 19 // 2

    def test_refined_sweep_of_a_static_plant(self):
        # n = 0: every grid point and every probe is D (as complex data), so
        # the peak is sigma_max(D) on the first grid point, bit for bit
        d = np.random.default_rng(118).standard_normal((3, 2))
        grid = FrequencyGrid.linear(-2.0, 2.0, 41)
        rep = sweep(_empty_model(2, 3, d), grid, refine=True)
        want = np.linalg.svd(d.astype(complex), compute_uv=False)[0]
        assert set(rep.sigma_max.tolist()) == {want}
        assert (rep.peak_value, rep.peak_frequency) == (want, -2.0)

    @pytest.mark.parametrize("seed", [109, 119, 158, 169])
    def test_static_models_share_a_round_with_dynamic_ones(self, seed):
        # a static plant's error with a static model is their D difference,
        # probed in the same round as the errors of dynamic models; at seeds
        # 109, 158 and 169 a round that took that probe in real arithmetic
        # and the others in complex moved its peak by rounding
        d = np.random.default_rng(seed).standard_normal((3, 2))
        plant = _empty_model(2, 3, d)
        models = [_empty_model(2, 3, 0.5 * d)] + [
            random_stable(seed + s, 3, m=2, p=3) for s in (100, 200)
        ]
        grid = FrequencyGrid.linear(-2.0, 2.0, 41)
        batch = error_sweeps(plant, models, grid, refine=True)
        want = np.linalg.svd(0.5 * d.astype(complex), compute_uv=False)[0]
        assert set(batch[0].sigma_max.tolist()) == {want}
        for red, rep in zip(models, batch):
            (alone,) = error_sweeps(plant, [red], grid, refine=True)
            assert _outcome(lambda: rep) == _outcome(lambda: alone)


class TestRefinementAccuracy:
    """Refined peaks against the golden-section search of tests/oracles.py
    run to width 1e-12: never below the grid peak, and within 1e-9 of the
    reference relative to the peak."""

    @staticmethod
    def _gaps(full, models, grid):
        """(relative gap to the reference, edge peak?) of each model."""
        refined = error_sweeps(full, models, grid, refine=True)
        out = []
        for red, rep, raw in zip(models, refined, error_sweeps(full, models, grid)):
            assert rep.peak_value >= raw.peak_value
            lo, _, _, _, hi, _ = _samples(raw)
            err = error_system(full, red)
            _, v_ref = orc.golden_max(lambda w: orc.sigma_max_at(err, w), lo, hi, rel_tol=1e-12)
            ref = max(v_ref, raw.peak_value)
            out.append((abs(rep.peak_value - ref) / ref, _is_edge(raw)))
        return out

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("m,p", [(1, 1), (2, 3)])
    def test_seeded_peaks_match_the_reference(self, m, p, complex_entries):
        gaps = []
        for seed in (120, 121, 122):
            full = random_stable(seed, 6, m=m, p=p, complex_entries=complex_entries)
            models = [fibt_reduce(full, r).reduced for r in (1, 2, 3, 4)]
            for grid in (FrequencyGrid.linear(-0.5, 0.5, 64), FrequencyGrid.linear(-3, 3, 97)):
                gaps += self._gaps(full, models, grid)
        edges = sum(edge for _, edge in gaps)
        assert 0 < edges < len(gaps)
        assert max(gap for gap, _ in gaps) <= 1e-9

    @pytest.mark.parametrize("first", [True, False])
    def test_bump_one_width_from_an_edge_is_found(self, first):
        # |G| of a lightly damped resonance peaks at wp; the grid's peak is
        # its edge, one search width from wp, so the inner probe lands on
        # the bump and the edge rule must hand the peak to the full search
        zeta = 0.05
        wp = float(np.sqrt(1.0 - 2.0 * zeta**2))
        plant = StateSpace(
            [[0.0, 1.0], [-1.0, -2.0 * zeta]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]
        )
        zero = _empty_model(1, 1, [[0.0]])
        width = sysmodel._REFINE_REL_TOL * (wp + 0.5)
        ends = [wp - width, wp - width + 0.5] if first else [wp + width - 0.5, wp + width]
        grid = FrequencyGrid.explicit(ends)
        (raw,) = error_sweeps(plant, [zero], grid)
        assert raw.peak_frequency == ends[0 if first else 1]
        (rep,) = error_sweeps(plant, [zero], grid, refine=True)
        assert rep.peak_value > raw.peak_value and abs(rep.peak_frequency - wp) < width
        [(gap, edge)] = self._gaps(plant, [zero], grid)
        assert edge and gap <= 1e-9


class TestProbeErrors:
    """A probe within pole tolerance, or one that overflows, raises
    PoleOnGrid at that probe, with the message of a one-point evaluate."""

    # the peak lies at 1.05; probes close in on the resonance at w ~ 1
    GRID = FrequencyGrid.explicit([0.5, 0.9, 1.05, 1.5])

    @staticmethod
    def _resonant(gain=1.0):
        # poles at -1e-4 +/- j (to 1e-8): every grid point is >= 0.05 away
        return StateSpace(
            [[0.0, 1.0], [-1.0, -2e-4]], [[0.0], [gain]], [[gain, 0.0]], [[0.0]]
        )

    @staticmethod
    def _scalar_raise(err, grid):
        """(probe index, message, omega) of the PoleOnGrid that the scalar
        search of err raises."""
        probes = []
        with pytest.raises(PoleOnGrid) as info:
            _oracle_peak(err, grid, probes=probes)
        return len(probes) - 1, str(info.value), info.value.omega

    def _check(self, full, models, grid, match):
        with np.errstate(over="ignore", invalid="ignore"):
            for on_pole in ("skip", "raise"):
                # the grid itself passes the screen
                error_sweeps(full, models, grid, on_pole=on_pole)
                with pytest.raises(PoleOnGrid, match=match) as got:
                    error_sweeps(full, models, grid, refine=True, on_pole=on_pole)
            scalar = [self._scalar_raise(error_system(full, red), grid) for red in models]
        # each search runs to its end before the next model's starts, so
        # the first model's search raises, whichever meets a pole soonest
        _, message, omega = scalar[0]
        assert (str(got.value), got.value.omega) == (message, omega)
        assert omega not in grid.points and abs(omega - 1.0) < 0.04
        return [index for index, _, _ in scalar]

    def test_probe_within_widened_tolerance(self, monkeypatch):
        plant = self._resonant()
        wide = _empty_model(1, 1, [[5.0]])
        # the grid stays >= 0.05 from the poles; wide's probes hit within a
        # few steps, the others' only close to w = 1
        monkeypatch.setattr(
            sysmodel, "_pole_tolerance", lambda *parts: 0.04 if parts[-1] is wide else 1e-3
        )
        models = [_empty_model(1, 1, [[0.0]]), fibt_reduce(plant, 1).reduced, wide]
        probes = self._check(plant, models, self.GRID, "within tolerance of a pole")
        # the first model raises, though the last one's search meets its
        # pole in fewer probes; in reverse order the last one raises
        assert probes[0] > probes[2]
        self._check(plant, models[::-1], self.GRID, "within tolerance of a pole")
        self._check(plant, models[:2], self.GRID, "within tolerance of a pole")
        with pytest.raises(PoleOnGrid, match="within tolerance") as info:
            sweep(plant, self.GRID, refine=True)
        assert info.value.omega == self._scalar_raise(plant, self.GRID)[2]

    def test_probe_overflow(self):
        # |G| reaches 1e307 on the grid, and overflows within ~3e-3 of w = 1
        plant = self._resonant(gain=1e153)
        models = [_empty_model(1, 1, [[0.0]]), _empty_model(1, 1, [[1e300]])]
        self._check(plant, models, self.GRID, "response overflowed")

    @pytest.mark.parametrize("w", [0.0, 1e-9])
    def test_probe_that_trsyl_perturbs_is_an_overflow(self, w):
        # 1e-9 or so from the pole at -1e-9: outside its screening
        # tolerance, 2e-12, but inside trsyl's perturbation threshold,
        # eps * 1e8; w = 0 meets a real pivot, w != 0 a 2 x 2 shift block
        sys = StateSpace([[-1e-9, 1e8], [0.0, -2.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        with pytest.raises(PoleOnGrid, match="response overflowed") as info:
            evaluate(sys, w)
        assert str(info.value) == f"response overflowed at s = {1j * w}"
        assert info.value.omega == w

    def test_grids_are_checked_before_any_probe(self, monkeypatch):
        # the first model's search would hit the pole, but the second
        # model's pole on the grid raises first
        monkeypatch.setattr(sysmodel, "_pole_tolerance", lambda *parts: 1e-3)
        plant = self._resonant()
        # poles at +/- 1.5j, on the grid's last point
        on_grid = StateSpace(
            [[0.0, 1.0], [-2.25, 0.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]]
        )
        models = [_empty_model(1, 1, [[0.0]]), on_grid]
        with pytest.raises(PoleOnGrid, match="coincides") as info:
            error_sweeps(plant, models, self.GRID, refine=True)
        assert info.value.omega == 1.5
        with pytest.raises(PoleOnGrid, match="within tolerance"):
            error_sweeps(plant, models[:1], self.GRID, refine=True)


class TestNoStackedRealization:
    def test_ef_bounds_build_each_error_system_once(self, monkeypatch):
        estimated = []
        estimate = sysmodel.hinf_estimate
        for module in (interval, sf):
            monkeypatch.setattr(
                module, "hinf_estimate", lambda sys: estimated.append(sys) or estimate(sys)
            )
        built = []
        stacked = sysmodel.error_system

        def counting(full, reduced):
            built.append(stacked(full, reduced))
            return built[-1]

        monkeypatch.setattr(sysmodel, "error_system", counting)
        monkeypatch.setattr(sf, "error_system", counting)
        ladder = generate_ladder(31)
        assert "ef" in interval_reduce(ladder, IntervalConfig(-0.5, 0.5), 10).bounds
        # int-fdbt's gaps are realizations on A and A_r, not error systems
        assert built == [] and sorted(g.n for g in estimated) == [10, 31]
        assert "ef" in sf_reduce(random_stable(62, 5), SfConfig(0.0, 1.0), 3).bounds
        # one per sf-fdbt estimate: sweeping an error system builds no second one
        assert estimated[2:] == built and len(built) == 2
        monkeypatch.setattr(sysmodel, "error_system", stacked)
        # and each estimate is bitwise the scalar refinement's
        for err in estimated:
            d_limit = float(np.linalg.svd(err.D, compute_uv=False)[0])
            value, freq = _oracle_peak(err, symmetric_log_grid(err.poles, 2000), "raise")
            want = (d_limit, np.inf) if d_limit > value else (value, freq)
            assert _peak_bytes(*estimate(err)) == _peak_bytes(*want)
