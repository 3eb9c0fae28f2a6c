"""Shift-anchored reduction: extension, inversion, cap, bounds."""

import numpy as np
import pytest

import oracles as orc
from helpers import random_stable, random_unstable, response_gap
from fdbt import (
    FrequencyGrid,
    InvalidParameters,
    NotHurwitz,
    OrderOutOfRange,
    SfConfig,
    SingularShift,
    StateSpace,
    build_sf_extended,
    epsilon_sweep,
    error_system,
    evaluate,
    example_fixture,
    generate_ladder,
    invert_sf_extension,
    is_hurwitz,
    leading_block,
    sf_bound,
    sf_ef_bound,
    sf_gramians,
    sf_reduce,
    sigma_max_at,
    stability_epsilon_cap,
    sweep,
)

SCALAR = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])


def _assert_realization_matches(got, ref):
    # matrix by matrix, each relative to the reference's norm
    for name, x, y in zip("ABCD", (got.A, got.B, got.C, got.D), ref):
        assert np.linalg.norm(x - y) <= 1e-12 * np.linalg.norm(y), name


class TestConfig:
    def test_epsilon_must_be_positive(self):
        with pytest.raises(InvalidParameters):
            SfConfig(varpi=0.0, epsilon=0.0)
        with pytest.raises(InvalidParameters):
            SfConfig(varpi=0.0, epsilon=-2.0)

    def test_varpi_must_be_finite(self):
        with pytest.raises(InvalidParameters):
            SfConfig(varpi=np.inf, epsilon=1.0)


class TestBuildExtension:
    def test_scalar_worked_values(self):
        ext = build_sf_extended(SCALAR, SfConfig(varpi=0.0, epsilon=1.0)).sys
        ref = orc.SCALAR_SF
        assert ext.A[0, 0] == pytest.approx(ref["A"], abs=1e-14)
        assert ext.B[0, 0] == pytest.approx(ref["B"], abs=1e-14)
        assert ext.C[0, 0] == pytest.approx(ref["C"], abs=1e-14)
        assert ext.D[0, 0] == pytest.approx(ref["D"], abs=1e-14)
        assert abs(evaluate(SCALAR, 0.0)[0, 0] - ref["value_at_anchor"]) <= 1e-14

    def test_anchor_value_is_preserved(self):
        # at w = varpi the substitution maps the extension back onto G
        sys = random_stable(41, 5, complex_entries=True)
        for varpi, eps in ((0.0, 1.0), (0.8, 2.5), (-1.2, 0.3)):
            ext = build_sf_extended(sys, SfConfig(varpi=varpi, epsilon=eps)).sys
            ref = evaluate(sys, varpi)
            assert np.linalg.norm(evaluate(ext, varpi) - ref) <= 1e-10 * (
                1.0 + np.linalg.norm(ref)
            )

    def test_substitution_identity_on_the_axis(self):
        # the extension is G evaluated through the rational map
        # w |-> ((eps + j varpi) jw + varpi^2) / (jw + eps - j varpi);
        # the mirrored tuple (eps - j varpi, -varpi^2, -1, eps + j varpi)
        # is the inverse map, undoing the extension (see TestBuildExtension
        # in tests and the criterion checks in test_acceptance)
        sys = random_stable(42, 4)
        eps, varpi = 1.7, 0.6
        ext = build_sf_extended(sys, SfConfig(varpi=varpi, epsilon=eps)).sys
        rng = np.random.default_rng(43)
        for w in rng.uniform(-4.0, 4.0, size=10):
            target = ((eps + 1j * varpi) * 1j * w + varpi**2) / (
                1j * w + eps - 1j * varpi
            )
            ref = orc.response_lu(sys.A, sys.B, sys.C, sys.D, target)
            assert np.linalg.norm(evaluate(ext, float(w)) - ref) <= 1e-9 * (
                1.0 + np.linalg.norm(ref)
            )

    @pytest.mark.parametrize("varpi", [0.8, -1.2])
    def test_matches_the_closed_form_realization(self, varpi):
        sys = random_stable(49, 5, m=2, p=3, complex_entries=True)
        ext = build_sf_extended(sys, SfConfig(varpi=varpi, epsilon=1.7)).sys
        ref = orc.sf_extension_closed_form(sys.A, sys.B, sys.C, sys.D, 1.7, varpi)
        _assert_realization_matches(ext, ref)

    def test_stiff_pole_passes_the_forward_map(self):
        # R = diag(2, 1e16 + 1) is far from singular by pole distance, though
        # an n eps singular-value test would refuse it; only the way back
        # (TestSolveGuarded in test_linalg) is refused
        sys = StateSpace(np.diag([-1.0, -1e16]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
        ext = build_sf_extended(sys, SfConfig(varpi=0.0, epsilon=1.0)).sys
        assert np.array_equal(np.diag(ext.A), [-0.5, -1.0])

    def test_shift_onto_eigenvalue_rejected(self):
        # z = epsilon + j varpi needs epsilon > 0, so park it on an
        # eigenvalue in the right half-plane
        sys = random_unstable(44, 3, lift=0.7)
        lam = complex(sys.poles[np.argmax(sys.poles.real)])
        with pytest.raises(SingularShift):
            build_sf_extended(sys, SfConfig(varpi=lam.imag, epsilon=lam.real))


class TestStabilityCap:
    def test_hurwitz_input_has_no_cap(self):
        assert stability_epsilon_cap(random_stable(45, 4), 0.7) == np.inf

    def test_cap_matches_brute_force_threshold(self):
        sys = random_unstable(46, 4, lift=0.8)
        varpi = 0.3
        cap = stability_epsilon_cap(sys, varpi)
        assert np.isfinite(cap) and cap > 0
        ext_lo = build_sf_extended(sys, SfConfig(varpi=varpi, epsilon=0.98 * cap)).sys
        ext_hi = build_sf_extended(sys, SfConfig(varpi=varpi, epsilon=1.02 * cap)).sys
        assert is_hurwitz(ext_lo).stable
        assert not is_hurwitz(ext_hi).stable

    def test_pole_pinned_at_anchor_gives_zero_cap(self):
        sys = StateSpace([[1j * 2.0]], [[1.0]], [[1.0]], [[0.0]])
        assert stability_epsilon_cap(sys, 2.0) == 0.0


class TestInversion:
    def test_inverts_the_extension_exactly(self):
        sys = random_stable(47, 5, m=2, p=2, complex_entries=True)
        cfg = SfConfig(varpi=0.4, epsilon=2.0)
        back = invert_sf_extension(build_sf_extended(sys, cfg).sys, cfg)
        gap = response_gap(sys, back, np.linspace(-5.0, 5.0, 30))
        assert gap <= 1e-10

    @pytest.mark.parametrize("varpi", [0.8, -1.2])
    def test_matches_the_closed_form_realization(self, varpi):
        trunc = random_stable(50, 4, m=2, p=3, complex_entries=True)
        back = invert_sf_extension(trunc, SfConfig(varpi=varpi, epsilon=0.9))
        ref = orc.sf_inverse_closed_form(trunc.A, trunc.B, trunc.C, trunc.D, 0.9, varpi)
        _assert_realization_matches(back, ref)


class TestReduce:
    def test_full_order_round_trip(self):
        sys = random_stable(48, 5, complex_entries=True)
        cfg = SfConfig(varpi=0.2, epsilon=1.5)
        res = sf_reduce(sys, cfg, 5)
        omegas = np.linspace(-6.0, 6.0, 40)
        scale = max(float(sigma_max_at(sys, float(w))) for w in omegas)
        assert response_gap(sys, res.reduced, omegas) <= 1e-9 * (1.0 + scale)

    @pytest.mark.parametrize("eps", [1e-8, 1e170])
    def test_extreme_epsilon_still_reduces(self, eps):
        # written as (epsilon, 0, 1, epsilon) the map has ad - bc = epsilon^2:
        # 1e-16 is below the degeneracy threshold moebius_substitute refuses
        # at, and 1e340 overflows
        res = sf_reduce(generate_ladder(11), SfConfig(varpi=0.0, epsilon=eps), 4)
        assert res.reduced.n == 4 and res.reduced.A.dtype == np.float64
        assert np.isfinite(res.bounds["sf"])

    def test_bound_names_and_sigma(self):
        sys = random_stable(49, 4)
        res = sf_reduce(sys, SfConfig(varpi=0.0, epsilon=1.0), 2)
        assert set(res.bounds) == {"sf", "ef"}
        assert res.method == "sf-fdbt" and res.order == 2
        assert len(res.sigma) == 4 and all(s >= 0 for s in res.sigma)

    def test_anchor_bound_sound_over_seeded_batch(self):
        for seed in range(50, 60):
            sys = random_stable(seed, 4)
            cfg = SfConfig(varpi=float(seed % 3) - 1.0, epsilon=1.0 + 0.2 * (seed % 5))
            for r in (1, 2, 3):
                res = sf_reduce(sys, cfg, r, with_ef_bound=False)
                err = sigma_max_at(error_system(sys, res.reduced), cfg.varpi)
                bound = res.bounds["sf"]
                assert err <= bound + 1e-8 * (1.0 + bound)

    def test_anchor_bound_equals_twice_tail(self):
        sys = random_stable(61, 5)
        cfg = SfConfig(varpi=0.1, epsilon=2.0)
        gram = sf_gramians(build_sf_extended(sys, cfg))
        res = sf_reduce(sys, cfg, 2)
        assert res.bounds["sf"] == pytest.approx(2.0 * np.sum(gram.sigma[2:]), rel=1e-12)
        assert sf_bound(gram, 5) == 0.0

    def test_ef_bound_dominates_measured_sup(self):
        sys = random_stable(62, 5)
        res = sf_reduce(sys, SfConfig(varpi=0.0, epsilon=1.0), 3)
        grid = FrequencyGrid.linear(-50.0, 50.0, 2001)
        peak = sweep(error_system(sys, res.reduced), grid, refine=True).peak_value
        assert peak <= res.bounds["ef"] * (1.0 + 1e-8)

    @pytest.mark.parametrize("complex_entries", [False, True])
    @pytest.mark.parametrize("varpi", [0.0, 0.7])
    def test_reduced_models_substitution_is_its_truncation(self, complex_entries, varpi):
        # sf_ef_bound compares the reduced model with the truncation it was
        # mapped back from: substituting the reduced model gives that back
        sys = random_stable(66, 6, m=2, p=3, complex_entries=complex_entries)
        cfg = SfConfig(varpi=varpi, epsilon=1.3)
        gram = sf_gramians(build_sf_extended(sys, cfg))
        for r in (2, 4, 5):
            trunc = leading_block(gram.sys, r)
            again = build_sf_extended(sf_reduce(sys, cfg, r, with_ef_bound=False).reduced, cfg)
            for w in (-4.0, -0.9, 0.0, varpi, 0.3, 2.5, 10.0):
                want = evaluate(trunc, w)
                got = evaluate(again.sys, w)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), (r, w)

    def test_ef_bound_refuses_a_reduced_system_that_is_not_hurwitz(self):
        sys = random_stable(62, 5)
        ext = build_sf_extended(sys, SfConfig(varpi=0.0, epsilon=1.0))
        unstable = StateSpace(np.diag([0.5, -1.0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
        with pytest.raises(NotHurwitz, match="^reduced system is not Hurwitz"):
            sf_ef_bound(sys, ext, unstable, sf_gramians(ext), 2)

    def test_order_out_of_range(self):
        sys = random_stable(63, 3)
        cfg = SfConfig(varpi=0.0, epsilon=1.0)
        for r in (0, 4):
            with pytest.raises(OrderOutOfRange):
                sf_reduce(sys, cfg, r)

    def test_unstable_input_skips_ef_bound_with_warning(self):
        sys = random_unstable(64, 4, lift=0.2)
        cap = stability_epsilon_cap(sys, 0.0)
        res = sf_reduce(sys, SfConfig(varpi=0.0, epsilon=0.9 * cap), 2)
        assert "sf" in res.bounds and "ef" not in res.bounds
        why = "original system is not Hurwitz; whole-axis sup undefined"
        assert res.warnings[-1] == f"ef bound unavailable: {why}"

    def test_an_unstable_reduced_model_is_refused_by_the_ef_bound_itself(self):
        # ex1's epsilon-sweep row at 10^-0.2: the back-mapped model is not
        # Hurwitz, and the warning carries sf_ef_bound's own refusal
        sys = example_fixture("ex1").system
        res = sf_reduce(sys, SfConfig(0.0, 0.6309573444801932), 3)
        assert set(res.bounds) == {"sf"} and not res.stable
        why = "reduced system is not Hurwitz; whole-axis sup undefined"
        assert res.warnings[-1] == f"ef bound unavailable: {why}"


    @pytest.mark.parametrize(
        "seed, epsilon, r, why",
        [
            (33, 1e-3, 6, "substituted reduced system is not Hurwitz"),
            (1, 1e-6, 3, "grid frequency 0.0 coincides with a pole"),
        ],
    )
    def test_an_ef_bound_it_cannot_compute_leaves_the_reduction(self, seed, epsilon, r, why):
        # the truncated substitution is not Hurwitz, or the gap estimate
        # meets a pole: the reduced model and its sf bound stand
        sys, cfg = random_stable(seed, 8), SfConfig(0.0, epsilon)
        res = sf_reduce(sys, cfg, r)
        plain = sf_reduce(sys, cfg, r, with_ef_bound=False)
        assert set(res.bounds) == {"sf"} and res.stable
        assert np.float64(res.bounds["sf"]).tobytes() == np.float64(plain.bounds["sf"]).tobytes()
        assert np.array_equal(res.reduced.A, plain.reduced.A)
        assert res.warnings == plain.warnings + (f"ef bound unavailable: {why}",)


class TestGramians:
    def test_scalar_gramian_value(self):
        # Lyapunov for the worked scalar extension: 2*(-1/2) W + (1/2)^2 = 0
        gram = sf_gramians(build_sf_extended(SCALAR, SfConfig(varpi=0.0, epsilon=1.0)))
        assert gram.Wc[0, 0] == pytest.approx(orc.SCALAR_SF["gramian"], abs=1e-12)
        assert gram.Wo[0, 0] == pytest.approx(orc.SCALAR_SF["gramian"], abs=1e-12)

    def test_matches_kronecker_oracle(self):
        sys = random_stable(65, 5)
        ext = build_sf_extended(sys, SfConfig(varpi=0.5, epsilon=1.3))
        gram = sf_gramians(ext)
        a, b = np.asarray(ext.sys.A), np.asarray(ext.sys.B)
        ref = orc.lyap_kron(a, b @ b.conj().T)
        assert np.linalg.norm(gram.Wc - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_unstable_extension_rejected(self):
        sys = random_unstable(66, 4, lift=1.0)
        cap = stability_epsilon_cap(sys, 0.0)
        ext = build_sf_extended(sys, SfConfig(varpi=0.0, epsilon=1.5 * cap))
        with pytest.raises(NotHurwitz):
            sf_gramians(ext)


class TestEpsilonSweep:
    def test_rows_cover_failures_without_raising(self):
        sys = random_stable(67, 4)
        rows = epsilon_sweep(sys, 0.0, 2, [1.0, -3.0, 2.0])
        assert len(rows) == 3
        assert rows[0].sf_bound is not None and rows[2].sf_bound is not None
        assert rows[1].sf_bound is None and rows[1].note != ""

    def test_rows_carry_both_bounds_for_good_epsilon(self):
        sys = random_stable(68, 3)
        (row,) = epsilon_sweep(sys, 0.5, 1, [2.0])
        assert row.epsilon == 2.0
        assert row.sf_bound > 0 and row.ef_bound is not None

    def test_a_row_that_fails_only_through_ef_keeps_its_sf_bound(self):
        sys = random_stable(33, 8)
        (row,) = epsilon_sweep(sys, 0.0, 6, [1e-3])
        plain = sf_reduce(sys, SfConfig(0.0, 1e-3), 6, with_ef_bound=False)
        assert row.sf_bound == plain.bounds["sf"] and row.ef_bound is None
        assert row.note.endswith("ef bound unavailable: substituted reduced system is not Hurwitz")
