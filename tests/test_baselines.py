"""Whole-axis and band-limited reference methods."""

import numpy as np
import pytest

import fdbt
import oracles as orc
from helpers import count_lapack_calls, random_stable, random_unstable, response_gap
from fdbt import (
    FrequencyGrid,
    IndefiniteGramian,
    InvalidParameters,
    NotHurwitz,
    OrderOutOfRange,
    PoleOnGrid,
    StateSpace,
    band_gramians,
    error_sweeps,
    error_system,
    evaluate,
    fgbt_reduce,
    fibt_reduce,
    gspa_reduce,
    hinf_estimate,
    sigma_max_at,
    standard_gramians,
    sweep,
)
from fdbt.baselines import prepare_band, prepare_standard

# band-limited Gramians go numerically indefinite under deep cancellation;
# a far narrow band on a system with a nearly unreachable direction does it
# reliably (the true Gramian is ~1e5 times below the rounding floor of the
# log-difference formula)
_INDEFINITE_A = np.array(
    [
        [-0.80472, -1.555438, -0.377616, 0.507314],
        [0.589385, -1.565277, 0.299146, 1.156408],
        [1.755092, -0.700795, -1.397734, 0.054416],
        [-2.92809, -0.531034, -0.270975, -0.992876],
    ]
)
_INDEFINITE_B = np.array(
    [[-1.583873228163], [-2.45551e-07], [-0.776608620056], [7.57483e-07]]
)
_INDEFINITE_C = np.array([[-0.918475, -0.282345, -0.232948, 0.567571]])


class TestStandardGramians:
    def test_matches_kronecker_oracle(self):
        sys = random_stable(110, 6, m=2, p=2, complex_entries=True)
        wc, wo = standard_gramians(sys)
        refc = orc.lyap_kron(sys.A, np.asarray(sys.B) @ np.asarray(sys.B).conj().T)
        refo = orc.lyap_kron(
            np.asarray(sys.A).conj().T, np.asarray(sys.C).conj().T @ np.asarray(sys.C)
        )
        assert np.linalg.norm(wc - refc) <= 1e-8 * np.linalg.norm(refc)
        assert np.linalg.norm(wo - refo) <= 1e-8 * np.linalg.norm(refo)

    def test_unstable_rejected(self):
        with pytest.raises(NotHurwitz):
            standard_gramians(random_unstable(111, 3))

    def test_pair_is_read_only(self):
        # the model keeps the pair for every caller, so no caller may edit it
        wc, wo = standard_gramians(random_stable(110, 4))
        for w in (wc, wo):
            with pytest.raises(ValueError):
                w[0, 0] = 1.0

    def test_one_model_solves_its_pair_once(self, monkeypatch):
        # fibt's prepare solves the pair; fgbt's band steps read the same one
        solved = []
        solve = fdbt.linalg.solve_lyapunov

        def counted(*args):
            solved.append(args)
            return solve(*args)

        for mod in (fdbt.linalg, fdbt.sysmodel, fdbt.baselines, fdbt.interval, fdbt.sf):
            if getattr(mod, "solve_lyapunov", None) is solve:
                monkeypatch.setattr(mod, "solve_lyapunov", counted)
        sys = random_stable(112, 5)
        prepare_standard(sys)
        prepare_band(sys, -0.5, 0.5)
        prepare_band(sys, 0.2, 0.9)
        assert len(solved) == 2


class TestFibt:
    def test_full_order_identity(self):
        sys = random_stable(112, 4, complex_entries=True)
        res = fibt_reduce(sys, 4)
        assert response_gap(sys, res.reduced, np.linspace(-5, 5, 30)) <= 1e-9
        assert res.bounds["ef"] <= 1e-12

    def test_classic_bound_sound_on_seeded_batch(self):
        for seed in range(113, 121):
            sys = random_stable(seed, 5)
            for r in (1, 3):
                res = fibt_reduce(sys, r)
                peak = hinf_estimate(error_system(sys, res.reduced))[0]
                bound = res.bounds["ef"]
                assert peak <= bound * (1.0 + 1e-8) + 1e-12, f"seed {seed} r {r}"

    def test_bound_is_twice_the_dropped_tail(self):
        sys = random_stable(121, 5)
        res = fibt_reduce(sys, 2)
        assert res.bounds["ef"] == pytest.approx(2.0 * sum(res.sigma[2:]), rel=1e-12)

    def test_stability_preserved(self):
        for seed in range(122, 127):
            sys = random_stable(seed, 6)
            assert fibt_reduce(sys, 2).stable

    def test_order_validated(self):
        with pytest.raises(OrderOutOfRange):
            fibt_reduce(random_stable(127, 3), 0)

    @pytest.mark.xfail(
        strict=True,
        raises=PoleOnGrid,
        reason="truncating a model whose controllability Gramian is zero keeps a "
        "zero block, A_r = [[0]], a pole at w = 0 though the reduced response is D "
        "(the FOUND line in CHANGES.md); ROADMAP item 6 truncates from the "
        "leading factors",
    )
    def test_zero_gramian_truncation_sweeps_as_its_response(self):
        # the plant responds D = 0.5 everywhere, and so does its truncation
        sys = StateSpace(np.diag([-1.0, -2.0, -3.0]), np.zeros((3, 1)), np.ones((1, 3)), [[0.5]])
        reduced = fibt_reduce(sys, 1).reduced
        (rep,) = error_sweeps(sys, [reduced], FrequencyGrid.linear(-1.0, 1.0, 5))
        assert rep.peak_value == 0.0


class TestGspa:
    def test_zero_rho_interpolates_dc_exactly(self):
        for seed in (128, 129, 130):
            sys = random_stable(seed, 5)
            res = gspa_reduce(sys, 2, 0.0)
            gap = np.linalg.norm(evaluate(res.reduced, 0.0) - evaluate(sys, 0.0))
            assert gap <= 1e-10 * (1.0 + np.linalg.norm(evaluate(sys, 0.0)))

    def test_zero_rho_keeps_tail_bound(self):
        sys = random_stable(131, 5)
        res = gspa_reduce(sys, 2, 0.0)
        assert res.bounds["ef"] == pytest.approx(2.0 * sum(res.sigma[2:]), rel=1e-12)
        peak = hinf_estimate(error_system(sys, res.reduced))[0]
        assert peak <= res.bounds["ef"] * (1.0 + 1e-8)

    def test_positive_rho_carries_no_bound(self):
        assert gspa_reduce(random_stable(132, 4), 2, 1.5).bounds == {}

    def test_large_rho_approaches_truncation(self):
        sys = random_stable(133, 5)
        by_gspa = gspa_reduce(sys, 2, 1e9).reduced
        by_fibt = fibt_reduce(sys, 2).reduced
        assert response_gap(by_gspa, by_fibt, np.linspace(-3, 3, 21)) <= 1e-6

    def test_full_order_identity_any_rho(self):
        sys = random_stable(134, 4)
        res = gspa_reduce(sys, 4, 0.7)
        assert response_gap(sys, res.reduced, np.linspace(-3, 3, 21)) <= 1e-9

    def test_rho_validated(self):
        sys = random_stable(135, 3)
        with pytest.raises(InvalidParameters):
            gspa_reduce(sys, 1, -0.5)
        with pytest.raises(InvalidParameters):
            gspa_reduce(sys, 1, np.nan)


class TestBandGramians:
    def test_straddling_band_matches_quadrature(self):
        sys = random_stable(136, 4, complex_entries=True)
        wcb, wob = band_gramians(sys, -0.4, 0.4)
        qc, qo = orc.band_gramians_quad(sys.A, sys.B, sys.C, [(-0.4, 0.4)])
        assert np.linalg.norm(wcb - qc) <= 1e-6 * np.linalg.norm(qc)
        assert np.linalg.norm(wob - qo) <= 1e-6 * np.linalg.norm(qo)

    def test_one_sided_band_is_mirrored_union(self):
        sys = random_stable(137, 4)
        wcb, wob = band_gramians(sys, 0.3, 0.7)
        qc, qo = orc.band_gramians_quad(
            sys.A, sys.B, sys.C, [(-0.7, -0.3), (0.3, 0.7)]
        )
        assert np.linalg.norm(wcb - qc) <= 1e-6 * np.linalg.norm(qc)
        assert np.linalg.norm(wob - qo) <= 1e-6 * np.linalg.norm(qo)

    def test_band_ordering_validated(self):
        sys = random_stable(138, 3)
        with pytest.raises(InvalidParameters):
            band_gramians(sys, 0.5, 0.5)
        with pytest.raises(InvalidParameters):
            band_gramians(sys, np.inf, 2 * np.inf)

    def test_numerically_indefinite_case_rejected(self):
        # band_gramians returns the pair as computed; balancing it is the
        # one indefiniteness test, so prepare_band and fgbt_reduce refuse it
        sys = StateSpace(_INDEFINITE_A, _INDEFINITE_B, _INDEFINITE_C, [[0.0]])
        wc, wo = band_gramians(sys, 1e4, 1e4 + 1e-3)
        assert min(np.linalg.eigvalsh(wc)[0], np.linalg.eigvalsh(wo)[0]) < 0.0
        with pytest.raises(IndefiniteGramian, match="^controllability Gramian is indefinite"):
            prepare_band(sys, 1e4, 1e4 + 1e-3)
        with pytest.raises(IndefiniteGramian):
            fgbt_reduce(sys, 2, 1e4, 1e4 + 1e-3)


class TestFgbt:
    @pytest.mark.parametrize("complex_entries", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("band", [(-0.5, 0.5), (0.2, 0.9)])
    def test_prepare_runs_two_symmetric_eigensolves(
        self, monkeypatch, complex_entries, band
    ):
        # one per Gramian, the PSD factors of balance_gramians: the band pair
        # is tested for indefiniteness there and nowhere else
        sys = random_stable(151, 6, m=2, complex_entries=complex_entries)
        standard_gramians(sys)  # the pair the model keeps, not counted here
        calls = count_lapack_calls(monkeypatch)
        prepare_band(sys, *band)
        assert calls["syevd"] + calls["heevd"] == 2

    def test_full_order_identity(self):
        sys = random_stable(139, 4)
        res = fgbt_reduce(sys, 4, -0.5, 0.5)
        assert response_gap(sys, res.reduced, np.linspace(-3, 3, 21)) <= 1e-9

    def test_no_bound_by_construction(self):
        res = fgbt_reduce(random_stable(140, 4), 2, -0.5, 0.5)
        assert res.bounds == {}
        assert any("no error bound" in w for w in res.warnings)
        assert res.method == "fgbt"

    def test_wide_band_recovers_whole_axis_truncation(self):
        sys = random_stable(141, 4)
        wide = fgbt_reduce(sys, 2, -1e6, 1e6).reduced
        plain = fibt_reduce(sys, 2).reduced
        assert response_gap(wide, plain, np.linspace(-3, 3, 21)) <= 1e-4

    def test_in_band_competitiveness_against_whole_axis_truncation(self):
        # the point of band weighting: inside a narrow band the band-limited
        # truncation should not lose to the whole-axis one (seeded sample)
        wins = 0
        total = 0
        for seed in range(142, 150):
            sys = random_stable(seed, 5)
            grid = FrequencyGrid.linear(-0.3, 0.3, 201)
            for r in (1, 2):
                fg = fgbt_reduce(sys, r, -0.3, 0.3)
                if not fg.stable:
                    continue
                p_fg = sweep(
                    error_system(sys, fg.reduced), grid, refine=True, on_pole="skip"
                ).peak_value
                p_bt = sweep(
                    error_system(sys, fibt_reduce(sys, r).reduced),
                    grid,
                    refine=True,
                    on_pole="skip",
                ).peak_value
                total += 1
                wins += bool(p_fg <= p_bt * (1 + 1e-12))
        assert total >= 10
        assert wins / total >= 0.75

    def test_stability_not_guaranteed_flag_is_honest(self):
        # whichever way it lands, the flag and the warning must agree
        res = fgbt_reduce(random_stable(150, 6), 3, 0.2, 0.4)
        if res.stable:
            assert all("not Hurwitz" not in w for w in res.warnings)
        else:
            assert any("not Hurwitz" in w for w in res.warnings)
