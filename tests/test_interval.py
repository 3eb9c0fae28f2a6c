"""Band-restricted reduction: factors, Gramians, eta chain, bounds."""

import collections
import dataclasses

import numpy as np
import pytest

import fdbt.interval
import fdbt.linalg
import oracles as orc
from helpers import (
    count_lapack_calls,
    damped_chain,
    random_stable,
    random_unstable,
    response_gap,
    well_conditioned_transform,
)
from fdbt import (
    BranchCutViolation,
    FrequencyGrid,
    IntervalConfig,
    InvalidParameters,
    NotHurwitz,
    OrderOutOfRange,
    SingularReconstruction,
    SingularShift,
    StateSpace,
    build_interval_extended,
    error_system,
    evaluate,
    example_fixture,
    generate_ladder,
    hinf_estimate,
    interval_bound,
    interval_ef_bound,
    interval_eta,
    interval_gramians,
    interval_reduce,
    is_hurwitz,
    sigma_max_at,
    solve_lyapunov,
    sweep,
)
from fdbt.baselines import prepare_standard
from fdbt.linalg import check_off_branch_cut, rank_cutoff
from fdbt.reduction import Balanced, tail_bound
from fdbt.interval import (
    IntervalBalanced,
    _band_factors,
    _check_band_spectrum,
    _sandwich,
    interval_truncate,
    prepare_interval,
)

SCALAR = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
UNIT_BAND = IntervalConfig(-1.0, 1.0)


class TestConfig:
    def test_band_order_enforced(self):
        with pytest.raises(InvalidParameters):
            IntervalConfig(1.0, 1.0)
        with pytest.raises(InvalidParameters):
            IntervalConfig(2.0, -2.0)

    def test_width_and_center(self):
        cfg = IntervalConfig(-0.4, 0.8)
        assert cfg.wd == pytest.approx(0.6)
        assert cfg.wc == pytest.approx(0.2)


def _sandwich_cases():
    for seed in range(95, 103):
        for cplx in (False, True):
            a = np.asarray(random_stable(seed, 7, m=2, p=3, complex_entries=cplx).A)
            kind = "complex" if cplx else "real"
            for band in ((-1.0, 1.5), (0.3, 2.0), (-1.2, 1.2)):
                cfg = IntervalConfig(*band)
                yield pytest.param(a, cfg, id=f"seed{seed}-{kind}{band}")
    cfg = IntervalConfig(-0.5, 0.5)
    a = np.asarray(prepare_interval(generate_ladder(31), cfg).gram.sys.A)
    for k in (1, 2, 5, 10, 20, 30, 31):
        yield pytest.param(a[:k, :k], cfg, id=f"ladder31-order{k}")


class TestBandFactors:
    def test_scalar_worked_values(self):
        m, n = _band_factors(np.array([[-1.0 + 0j]]), UNIT_BAND)
        assert m[0, 0] == pytest.approx(orc.SCALAR_INTERVAL["M"], abs=1e-14)
        assert n[0, 0] == pytest.approx(orc.SCALAR_INTERVAL["N"], abs=1e-14)

    def test_square_of_m_factor(self):
        # M^2 = wd^2 (j w1 I - A)^(-1) (j w2 I - A)^(-1) by construction
        sys = random_stable(70, 4)
        cfg = IntervalConfig(-0.5, 1.5)
        a = np.asarray(sys.A)
        m, _ = _band_factors(a, cfg)
        eye = np.eye(4)
        target = (
            cfg.wd**2
            * np.linalg.inv(1j * cfg.w1 * eye - a)
            @ np.linalg.inv(1j * cfg.w2 * eye - a)
        )
        assert np.linalg.norm(m @ m - target) <= 1e-10 * np.linalg.norm(target)

    def test_band_edge_on_eigenvalue_rejected(self):
        with pytest.raises(SingularShift):
            _band_factors(np.array([[1j]]), UNIT_BAND)

    def test_branch_cut_rejected(self):
        # the square-root argument maps eigenvalue 3j to 1/((-4j)(-2j)) = -1/8
        with pytest.raises(BranchCutViolation):
            _band_factors(np.array([[3j]]), UNIT_BAND)

    @pytest.mark.parametrize("band", [(-0.5, 0.5), (0.2, 0.9)])
    def test_branch_cut_tested_once(self, monkeypatch, band):
        # _check_band_spectrum hands its values to sqrt_principal, whose
        # test is the only one
        seen = []
        real_check = fdbt.linalg.check_off_branch_cut

        def counting(values, what):
            seen.append(values)
            return real_check(values, what)

        for module in (fdbt.linalg, fdbt.interval):
            if getattr(module, "check_off_branch_cut", None) is real_check:
                monkeypatch.setattr(module, "check_off_branch_cut", counting)
        a = np.asarray(random_stable(71, 5).A)
        cfg = IntervalConfig(*band)
        _band_factors(a, cfg)
        assert len(seen) == 1
        lam = np.linalg.eigvals(a)
        want = cfg.wd**2 / ((1j * cfg.w1 - lam) * (1j * cfg.w2 - lam))
        assert np.allclose(np.sort_complex(seen[0]), np.sort_complex(want), rtol=1e-12)

    @pytest.mark.parametrize("a, cfg", _sandwich_cases())
    def test_sandwich_is_the_closed_form_of_the_dense_factors(self, a, cfg):
        # M^(-1) N M^(-1) = (j wc I - A) / wd^2, the identity the eta chain
        # rests on, against the oracle's dense solves and dense sqrtm
        m, n = orc.band_factors_dense(a, cfg.w1, cfg.w2)
        m_inv = np.linalg.inv(m)
        ref = m_inv @ n @ m_inv
        got = _sandwich(a, np.eye(a.shape[0]), cfg)
        assert np.linalg.norm(got - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("a, cfg", _sandwich_cases())
    def test_factors_match_the_dense_oracle(self, a, cfg, monkeypatch):
        # one Schur-form path for real and complex arithmetic alike, and the
        # square root only ever sees the form's upper quasi-triangular factor
        arguments = []
        real_sqrt = fdbt.interval.sqrt_principal

        def recording(m, spectrum=None):
            arguments.append(np.array(m))
            return real_sqrt(m, spectrum)

        monkeypatch.setattr(fdbt.interval, "sqrt_principal", recording)
        m, n = _band_factors(a, cfg)
        m_ref, n_ref = orc.band_factors_dense(a, cfg.w1, cfg.w2)
        assert np.linalg.norm(m - m_ref) <= 1e-10 * np.linalg.norm(m_ref)
        assert np.linalg.norm(n - n_ref) <= 1e-10 * np.linalg.norm(n_ref)
        real = np.isrealobj(a) and cfg.wc == 0.0
        assert m.dtype == n.dtype == (np.float64 if real else np.complex128)
        assert arguments
        for arg in arguments:
            assert not np.tril(arg, -2).any()

    def test_similarity_commutes_with_factors(self):
        sys = random_stable(71, 5)
        cfg = IntervalConfig(-0.7, 0.3)
        t, tinv = well_conditioned_transform(72, 5)
        m, n = _band_factors(np.asarray(sys.A), cfg)
        mt, nt = _band_factors(tinv @ sys.A @ t, cfg)
        assert np.linalg.norm(mt - tinv @ m @ t) <= 1e-8 * np.linalg.norm(m)
        assert np.linalg.norm(nt - tinv @ n @ t) <= 1e-8 * np.linalg.norm(n)


class TestExtension:
    def test_scalar_worked_values(self):
        ext = build_interval_extended(SCALAR, UNIT_BAND).sys
        root_half = orc.SCALAR_INTERVAL["M"]
        assert ext.A[0, 0] == pytest.approx(-1.0, abs=1e-14)
        assert ext.B[0, 0] == pytest.approx(root_half, abs=1e-14)
        assert ext.C[0, 0] == pytest.approx(root_half, abs=1e-14)
        assert ext.D[0, 0] == pytest.approx(orc.SCALAR_INTERVAL["D_ext"], abs=1e-14)

    def test_extension_invariants_under_state_transform(self):
        # B, C transform with the state; the feedthrough is invariant
        sys = random_stable(73, 4, m=2, p=2)
        cfg = IntervalConfig(0.2, 1.1)
        t, tinv = well_conditioned_transform(74, 4)
        ext = build_interval_extended(sys, cfg).sys
        ext_t = build_interval_extended(sys.transformed(t, tinv), cfg).sys
        assert np.linalg.norm(ext_t.B - tinv @ ext.B) <= 1e-8 * np.linalg.norm(ext.B)
        assert np.linalg.norm(ext_t.C - ext.C @ t) <= 1e-8 * np.linalg.norm(ext.C)
        assert np.linalg.norm(ext_t.D - ext.D) <= 1e-9 * max(1.0, np.linalg.norm(ext.D))


class TestGramians:
    def test_scalar_gramian_value(self):
        gram = interval_gramians(build_interval_extended(SCALAR, UNIT_BAND))
        assert gram.Wc[0, 0] == pytest.approx(orc.SCALAR_INTERVAL["gramian"], abs=1e-12)
        assert gram.Wo[0, 0] == pytest.approx(orc.SCALAR_INTERVAL["gramian"], abs=1e-12)

    def test_matches_kronecker_oracle(self):
        sys = random_stable(75, 5, complex_entries=True)
        ext = build_interval_extended(sys, IntervalConfig(-0.9, 0.4))
        gram = interval_gramians(ext)
        a, b = np.asarray(ext.sys.A), np.asarray(ext.sys.B)
        ref = orc.lyap_kron(a, b @ b.conj().T)
        assert np.linalg.norm(gram.Wc - ref) <= 1e-8 * np.linalg.norm(ref)

    def test_narrow_band_gramians_are_small(self):
        sys = random_stable(76, 4)
        wc_std = solve_lyapunov(sys.A, np.asarray(sys.B) @ np.asarray(sys.B).conj().T)
        tiny = interval_gramians(
            build_interval_extended(sys, IntervalConfig(-1e-6, 1e-6))
        )
        assert np.linalg.norm(tiny.Wc) <= 1e-6 * np.linalg.norm(wc_std)


class TestEta:
    def _balanced(self, sys, cfg):
        gram = interval_gramians(build_interval_extended(sys, cfg))
        return sys.transformed(gram.T, gram.Tinv), gram

    def test_scalar_eta_value(self):
        bal, gram = self._balanced(SCALAR, UNIT_BAND)
        eta = interval_eta(bal, gram, UNIT_BAND, 0)
        assert eta.eta.shape == (1,)
        assert eta.eta[0] == pytest.approx(orc.SCALAR_INTERVAL["eta1"], abs=1e-12)
        assert interval_bound(eta) == pytest.approx(0.5**0.5, abs=1e-12)

    def test_chain_covers_all_dropped_indices(self):
        sys = random_stable(77, 5)
        cfg = IntervalConfig(-0.6, 0.6)
        bal, gram = self._balanced(sys, cfg)
        eta = interval_eta(bal, gram, cfg, 2)
        assert eta.eta.shape == (3,)
        assert np.all(eta.eta > 0)
        assert interval_bound(eta) == pytest.approx(np.sum(np.sqrt(eta.eta)), rel=1e-14)

    def test_full_order_chain_is_empty(self):
        sys = random_stable(78, 3)
        cfg = IntervalConfig(-0.5, 0.5)
        bal, gram = self._balanced(sys, cfg)
        eta = interval_eta(bal, gram, cfg, 3)
        assert eta.eta.size == 0
        assert interval_bound(eta) == 0.0

    @staticmethod
    def _hand_built(a, sigma):
        # T = I: the given coordinates are the balanced ones
        n = len(sigma)
        sys = StateSpace(a, np.ones((n, 1)), np.ones((1, n)), np.zeros((1, 1)))
        eye = np.eye(n, dtype=complex)
        gram = Balanced(sys, np.array(sigma, dtype=float), eye, eye, eye, eye)
        return sys, gram

    def test_record_that_is_not_hurwitz_refused(self):
        # order 2 holds the band edge j: a record that is not balanced, whose
        # state matrix is not Hurwitz, so it is not interval_gramians'
        sys, gram = self._hand_built(np.diag([-1.0, 1j]), [1.0, 0.5])
        with pytest.raises(NotHurwitz, match="^gram.sys is not Hurwitz"):
            interval_eta(sys, gram, UNIT_BAND, 1)

    def test_record_that_is_not_hurwitz_refused_at_every_order(self):
        # orders 1 and 3 both hold the band edge j; every order with a tail
        # gets the one refusal, and the empty tail of order n claims nothing
        sys, gram = self._hand_built(np.diag([1j, -1.0, 1j]), [1.0, 0.5, 0.25])
        for r in range(3):
            with pytest.raises(NotHurwitz, match="^gram.sys is not Hurwitz"):
                interval_eta(sys, gram, UNIT_BAND, r)
        assert interval_eta(sys, gram, UNIT_BAND, 3).eta.size == 0

    def test_record_of_other_gramians_rejected(self):
        # Bx and Cx are read off gram.sys, so the whole-axis balanced record
        # of the same system must not pass for the band's
        sys = random_stable(77, 5)
        cfg = IntervalConfig(-0.6, 0.6)
        bal, _ = self._balanced(sys, cfg)
        with pytest.raises(InvalidParameters, match="interval_gramians"):
            interval_eta(bal, prepare_standard(sys), cfg, 2)

    def test_vanishing_sigma_rejected(self):
        sys, gram = self._hand_built(np.diag([-1.0, -2.0]), [1.0, 0.0])
        with pytest.raises(SingularReconstruction, match="^truncation order 2:"):
            interval_eta(sys, gram, UNIT_BAND, 1)


def _oracle_cases():
    ex2 = example_fixture("ex2").system
    for band in ((-0.4, 0.4), (-0.8, 0.8), (0.2, 0.9)):
        yield pytest.param(ex2, band, 0, id=f"ex2{band}")
    for seed in range(95, 103):
        for cplx in (False, True):
            sys = random_stable(seed, 7, m=2, p=3, complex_entries=cplx)
            kind = "complex" if cplx else "real"
            yield pytest.param(sys, (-1.0, 1.5), 0, id=f"seed{seed}-{kind}-r0")
            yield pytest.param(sys, (0.3, 2.0), 2, id=f"seed{seed}-{kind}-r2")
    yield pytest.param(generate_ladder(31), (-0.5, 0.5), 0, id="ladder31")


@pytest.mark.parametrize("sys, band, r", _oracle_cases())
def test_eta_chain_matches_dense_oracle(sys, band, r):
    # the Schur-basis chain against the block-diagonal one formed densely;
    # single eta_i carry cancellation inside (2 sigma_i)^2 I + He(K), hence
    # their looser tolerance than the bound's
    cfg = IntervalConfig(*band)
    gram = interval_gramians(build_interval_extended(sys, cfg))
    bal = sys.transformed(gram.T, gram.Tinv)
    eta = interval_eta(bal, gram, cfg, r)
    ref_eta = orc.eta_dense(bal.A, bal.B, bal.C, gram.sigma, cfg.w1, cfg.w2, r)
    assert interval_bound(eta) == pytest.approx(np.sum(np.sqrt(ref_eta)), rel=1e-10)
    np.testing.assert_allclose(eta.eta, ref_eta, rtol=1e-9, atol=0)


def _chain_cases():
    ex2 = example_fixture("ex2").system
    for band in ((-0.4, 0.4), (-0.8, 0.8)):
        yield pytest.param(ex2, band, id=f"ex2{band}")
    for seed in range(95, 103):
        for cplx in (False, True):
            sys = random_stable(seed, 7, m=2, p=3, complex_entries=cplx)
            kind = "complex" if cplx else "real"
            yield pytest.param(sys, (-1.0, 1.5), id=f"seed{seed}-{kind}")
    yield pytest.param(generate_ladder(31), (-0.5, 0.5), id="ladder31")


def _eta_outcome(chain, r):
    """The chain's EtaTerms at r, or the (type, message) it raised."""
    try:
        return chain(r)
    except Exception as exc:  # the parity checked is of the exception itself
        return type(exc), str(exc)


def _assert_same_outcome(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        # bitwise: every eta_i is the same double
        assert got.eta.tobytes() == want.eta.tobytes()
        assert interval_bound(got) == interval_bound(want)


class TestPreparedChain:
    """One memoized eta chain per prepared system and band."""

    @pytest.mark.parametrize("ascending", [True, False], ids=["up", "down"])
    @pytest.mark.parametrize("sys, band", _chain_cases())
    def test_memoized_chain_equals_fresh_chain_bitwise(self, sys, band, ascending):
        cfg = IntervalConfig(*band)
        prep = prepare_interval(sys, cfg)
        orders = list(range(sys.n))
        for r in orders if ascending else orders[::-1]:
            fresh = interval_eta(prep.gram.sys, prep.gram, cfg, r)
            _assert_same_outcome(prep.eta(r), fresh)

    def test_truncation_matches_one_shot_reduction(self):
        sys = random_stable(96, 7, m=2, p=3, complex_entries=True)
        cfg = IntervalConfig(-1.0, 1.5)
        prep = prepare_interval(sys, cfg)
        for r in (5, 1, 3):
            got = interval_truncate(prep, r)
            want = interval_reduce(sys, cfg, r)
            assert got.bounds == want.bounds and got.warnings == want.warnings
            for name in "ABCD":
                assert np.array_equal(getattr(got.reduced, name), getattr(want.reduced, name))

    def test_truncation_factors_its_state_matrix_once(self, monkeypatch):
        # the one gees of a_r serves the band factors and the reduced
        # model's poles, and the chain solves no eigenvalue problem
        prep = prepare_interval(generate_ladder(31), IntervalConfig(-0.5, 0.5))
        calls = count_lapack_calls(monkeypatch)
        interval_truncate(prep, 10)
        assert (calls["gees"], calls["geev"]) == (1, 0)
        # off the centre a real model's factors take a complex form, which
        # the band-weighted realization keeps for the input's ef gap
        prep = prepare_interval(generate_ladder(31), IntervalConfig(0.2, 0.9))
        calls = count_lapack_calls(monkeypatch)
        interval_truncate(prep, 10)
        assert (calls["gees"], calls["geev"]) == (1, 0)

    def test_failing_truncation_raises_the_band_factors_error(self):
        # a_r's own band factors refuse it before the chain is asked, with
        # their message; a fresh chain refuses the record, whose state
        # matrix is not Hurwitz
        prep = self._hand_prepared(*self.SHIFT_CASE)
        message = "band edge frequency -1.0 is within 1e-10 of an eigenvalue"
        with pytest.raises(SingularShift) as info:
            interval_truncate(prep, 2)
        assert str(info.value) == message
        with pytest.raises(NotHurwitz, match="^gram.sys is not Hurwitz"):
            interval_eta(prep.gram.sys, prep.gram, UNIT_BAND, 2)

    @staticmethod
    def _hand_prepared(a, sigma):
        sys, gram = TestEta._hand_built(a, sigma)
        ext = build_interval_extended(sys, UNIT_BAND)
        # T = I: the balanced band-weighted realization is ext.sys itself
        gram = dataclasses.replace(gram, sys=ext.sys)
        return IntervalBalanced(sys, ext, gram)

    # step 2 fails its sigma cutoff (sigma_2 is positive, below n eps sigma_1),
    # so orders 0 and 1 raise while orders 2.. need only steps 3..
    CUTOFF_CASE = (
        np.diag([-1.0, -2.0, -3.0, -4.0, -5.0]) + 0.1 * np.triu(np.ones((5, 5)), 1),
        [1.0, 1e-17, 0.5, 0.25, 0.125],
    )
    # the leading 2x2 block rotates at the band edges +-1, so factoring
    # order 2 raises; the record is not balanced, and its full state matrix
    # is not Hurwitz (eigenvalues 0.052 +- 0.979j)
    SHIFT_CASE = (
        np.array(
            [[0.0, 1.0, 0.5, 0.0], [-1.0, 0.0, 0.0, 0.5],
             [0.3, 0.0, -2.0, 0.0], [0.0, 0.3, 0.0, -3.0]]
        ),
        [1.0, 0.5, 0.25, 0.125],
    )
    # the same state matrix with sigma_2 below the cutoff as well: a fresh
    # chain from orders 0 and 1 fails step 2 before the record is refused
    SHIFT_AND_CUTOFF_CASE = (SHIFT_CASE[0], [1.0, 1e-17, 0.25, 0.125])

    @pytest.mark.parametrize(
        "a, k, error",
        [
            (np.array([[1j]]), 1, SingularShift),
            (np.array([[3j]]), 1, BranchCutViolation),
            (SHIFT_CASE[0], 2, SingularShift),
            (np.diag([-1.0, 1j]), 2, SingularShift),
        ],
        ids=["shift", "branch-cut", "shift-case", "second-state"],
    )
    def test_order_the_band_factors_refuse_is_refused_by_a_fresh_chain(
        self, a, k, error
    ):
        # A_k's band factors refuse its spectrum; a record holding A_k as a
        # leading block, with one more state so that order k lies below
        # order n, is not balanced, and a fresh chain through it refuses it
        with pytest.raises(error, match="^(band edge|principal square root)"):
            _band_factors(a[:k, :k], UNIT_BAND)
        padded = np.diag(np.full(k + 1, -1.0 + 0j))
        padded[:k, :k] = a[:k, :k]
        sys = StateSpace(padded, np.ones((k + 1, 1)), np.ones((1, k + 1)), [[0.0]])
        eye = np.eye(k + 1)
        gram = Balanced(sys, np.ones(k + 1), eye, eye, eye, eye)
        for r in range(k + 1):
            with pytest.raises(NotHurwitz, match="^gram.sys is not Hurwitz"):
                interval_eta(sys, gram, UNIT_BAND, r)

    @pytest.mark.parametrize("ascending", [True, False], ids=["up", "down"])
    @pytest.mark.parametrize(
        "case, error, first_ok",
        [(CUTOFF_CASE, (SingularReconstruction, "truncation order 2: sigma below"), 2)],
        ids=["cutoff"],
    )
    def test_failing_step_raises_what_a_fresh_chain_raises(
        self, case, error, first_ok, ascending
    ):
        prep = self._hand_prepared(*case)
        n = prep.sys.n
        orders = list(range(n)) if ascending else list(range(n))[::-1]
        for r in orders:
            got = _eta_outcome(prep.eta, r)
            fresh = _eta_outcome(
                lambda k: interval_eta(prep.gram.sys, prep.gram, UNIT_BAND, k), r
            )
            _assert_same_outcome(got, fresh)
            if r < first_ok:
                assert got[0] is error[0] and got[1].startswith(error[1]), r
            else:
                assert np.all(np.isfinite(got.eta)) and got.eta.size == n - r

    @pytest.mark.parametrize(
        "case, refused",
        [
            (SHIFT_CASE, {r: (NotHurwitz, "gram.sys is not Hurwitz") for r in range(4)}),
            (
                SHIFT_AND_CUTOFF_CASE,
                {
                    0: (SingularReconstruction, "truncation order 2: sigma below"),
                    1: (SingularReconstruction, "truncation order 2: sigma below"),
                    2: (NotHurwitz, "gram.sys is not Hurwitz"),
                    3: (NotHurwitz, "gram.sys is not Hurwitz"),
                },
            ),
        ],
        ids=["shift", "shift-before-cutoff"],
    )
    def test_unbalanced_record_refused_by_a_fresh_chain(self, case, refused):
        # a fresh chain refuses the record at every order with a tail,
        # after any step below numerical rank; truncating at order 2 takes
        # A_2's band factors, which refuse it with their own error
        prep = self._hand_prepared(*case)
        for r, (error, message) in refused.items():
            with pytest.raises(error, match=f"^{message}"):
                interval_eta(prep.gram.sys, prep.gram, UNIT_BAND, r)
        with pytest.raises(SingularShift, match="^band edge frequency -1.0"):
            interval_truncate(prep, 2)


class TestClosedFormChain:
    # the in-band bound of interval_reduce(generate_ladder(101), [-0.5, 0.5],
    # 26, with_ef_bound=False) as computed by the chain that factored every
    # order (one complex Schur form and square root per order from 26 to 101)
    LADDER101_R26_BOUND = 7.864712825806392

    def test_ladder_bound_matches_factored_chain(self):
        res = interval_reduce(
            generate_ladder(101), IntervalConfig(-0.5, 0.5), 26, with_ef_bound=False
        )
        bound = res.bounds["interval"]
        assert bound == pytest.approx(self.LADDER101_R26_BOUND, rel=1e-10)

    def test_two_square_roots_per_reduction(self, monkeypatch):
        # the band-weighted realization and the reduced model's factors; the
        # chain reads Bx and Cx off the balanced band-weighted realization
        calls = []
        real = fdbt.interval.sqrt_principal
        monkeypatch.setattr(
            fdbt.interval, "sqrt_principal", lambda *args: calls.append(1) or real(*args)
        )
        lad = generate_ladder(31)
        for r in range(1, lad.n + 1):
            calls.clear()
            interval_reduce(lad, IntervalConfig(-0.5, 0.5), r, with_ef_bound=False)
            assert len(calls) == 2, r

    def test_square_roots_reuse_the_guarded_spectrum(self, monkeypatch):
        # each band factor's square root takes the spectrum its guards have
        # checked, so it solves no eigenvalue problem of its own; the
        # band-factor guards read Schur forms (the full model's cached one,
        # and the reduced state matrix's, which the reduced model keeps for
        # its poles), and the chain solves none
        calls = count_lapack_calls(monkeypatch)
        lad = generate_ladder(31)
        for r in (5, 20, 31):
            calls.clear()
            interval_reduce(lad, IntervalConfig(-0.5, 0.5), r, with_ef_bound=False)
            assert calls["geev"] == 0, r


def _genuine_records():
    for seed in range(120, 126):
        for cplx in (False, True):
            kind = "complex" if cplx else "real"
            for margin in (0.3, 1e-2, 1e-4):
                sys = random_stable(
                    seed, 4 + seed % 9, m=1 + seed % 2, p=2 - seed % 2,
                    complex_entries=cplx, margin=margin,
                )
                for band in ((-1.0, 1.0), (0.2, 1.7)):
                    yield pytest.param(sys, band, id=f"seed{seed}-{kind}-{margin}{band}")
    for k, damping in ((3, 0.01), (5, 0.1), (6, 1e-3)):
        for band in ((-0.5, 0.5), (0.1, 1.2)):
            sys = damped_chain(k, damping=damping, seed=k)
            yield pytest.param(sys, band, id=f"chain{k}-{damping}{band}")
    for band in ((-0.5, 0.5), (0.0, 1.0)):
        yield pytest.param(generate_ladder(31), band, id=f"ladder31{band}")


@pytest.mark.parametrize("sys, band", _genuine_records())
def test_orders_above_rank_pass_the_band_factor_rules(sys, band):
    # the oracle the eta chain's unguarded orders rest on: in a balanced
    # record every leading block A_k with sigma_k above numerical rank is
    # Hurwitz up to rounding, so it passes the spectrum rules the band
    # factors apply before a square root: the shift test and, on the values
    # it returns, sqrt_principal's branch-cut test
    cfg = IntervalConfig(*band)
    gram = prepare_interval(sys, cfg).gram
    a = np.asarray(gram.sys.A)
    rounding = 8.0 * np.finfo(float).eps * np.max(np.abs(sys.poles))
    above = np.flatnonzero(gram.sigma > rank_cutoff(gram.sigma)) + 1
    assert above.size
    for k in above:
        lam = np.linalg.eigvals(a[:k, :k])
        check_off_branch_cut(_check_band_spectrum(lam, cfg), "principal square root")
        assert np.max(lam.real) <= rounding, k


@pytest.mark.xfail(
    strict=True,
    reason="balance_gramians' regularized directions are not a similarity: "
    "gram.sys gets an eigenvalue 0 that the Hurwitz input does not have",
)
def test_balanced_record_of_a_hurwitz_input_is_hurwitz():
    # prepare_interval refuses an input that is not Hurwitz
    gram = prepare_interval(random_stable(12, 15), IntervalConfig(-0.8, 0.8)).gram
    assert is_hurwitz(gram.sys).stable


class TestReduce:
    def test_full_order_round_trip(self):
        sys = random_stable(79, 5, complex_entries=True)
        res = interval_reduce(sys, IntervalConfig(-0.8, 0.8), 5)
        omegas = np.linspace(-4.0, 4.0, 40)
        scale = max(float(sigma_max_at(sys, float(w))) for w in omegas)
        assert response_gap(sys, res.reduced, omegas) <= 1e-9 * (1.0 + scale)
        assert res.bounds["interval"] <= 1e-9

    def test_stability_preserved_over_seeded_batch(self):
        for seed in range(80, 95):
            sys = random_stable(seed, 5)
            for r in (1, 2, 3, 4):
                res = interval_reduce(
                    sys, IntervalConfig(-0.5, 0.5), r, with_bounds=False
                )
                assert res.stable, f"seed {seed}, r {r}"

    def test_in_band_bound_sound_over_seeded_batch(self):
        for seed in range(95, 103):
            sys = random_stable(seed, 4)
            cfg = IntervalConfig(-0.4, 0.4)
            grid = FrequencyGrid.linear(cfg.w1, cfg.w2, 501)
            for r in (1, 2, 3):
                res = interval_reduce(sys, cfg, r, with_ef_bound=False)
                peak = sweep(
                    error_system(sys, res.reduced), grid, refine=True, on_pole="skip"
                ).peak_value
                bound = res.bounds["interval"]
                assert peak <= bound + 1e-8 * (1.0 + bound), f"seed {seed}, r {r}"

    def test_bound_flags_control_dict_keys(self):
        sys = random_stable(103, 4)
        cfg = IntervalConfig(-0.3, 0.9)
        full = interval_reduce(sys, cfg, 2)
        assert set(full.bounds) == {"interval", "ef"}
        no_ef = interval_reduce(sys, cfg, 2, with_ef_bound=False)
        assert set(no_ef.bounds) == {"interval"}
        assert no_ef.bounds["interval"] == full.bounds["interval"]
        bare = interval_reduce(sys, cfg, 2, with_bounds=False)
        assert bare.bounds == {}

    def test_ef_bound_dominates_whole_axis_sup(self):
        sys = random_stable(104, 4)
        res = interval_reduce(sys, IntervalConfig(-0.5, 0.5), 2)
        grid = FrequencyGrid.linear(-60.0, 60.0, 3001)
        peak = sweep(error_system(sys, res.reduced), grid, refine=True).peak_value
        assert peak <= res.bounds["ef"] * (1.0 + 1e-8)

    def test_centre_anchor_over_seeded_batch(self):
        # (D + C N B) + C M (jwc - A)^(-1) M B = G(jwc): the band-weighted
        # realization is exact at the centre, so the classic tail bound of
        # its balanced truncation holds there, met with equality up to rounding
        for seed in range(95, 103):
            sys = random_stable(seed, 4)
            for band in ((-0.4, 0.4), (-1.2, 0.5), (0.3, 1.1), (-2.0, -0.6)):
                cfg = IntervalConfig(*band)
                ext = build_interval_extended(sys, cfg).sys
                scale = sigma_max_at(sys, cfg.wc)
                assert response_gap(ext, sys, [cfg.wc]) <= 1e-12 * scale, (
                    f"seed {seed}, band {band}"
                )
                for r in (1, 2, 3):
                    res = interval_reduce(sys, cfg, r, with_bounds=False)
                    err = sigma_max_at(error_system(sys, res.reduced), cfg.wc)
                    tail = 2.0 * sum(res.sigma[r:])
                    assert err <= tail + 1e-8 * (1.0 + tail), (
                        f"seed {seed}, band {band}, r {r}"
                    )

    def test_unstable_input_rejected(self):
        with pytest.raises(NotHurwitz):
            interval_reduce(random_unstable(105, 3), IntervalConfig(-1.0, 1.0), 1)

    def test_order_out_of_range(self):
        sys = random_stable(106, 3)
        for r in (0, 4):
            with pytest.raises(OrderOutOfRange):
                interval_reduce(sys, IntervalConfig(-1.0, 1.0), r)

    def test_reduced_band_realization_matches_truncated_balanced(self):
        # the defining property of the reassembled (B_r, C_r, D_r): the band
        # extension of the reduced model equals the truncation of the full
        # balanced band extension
        sys = random_stable(107, 5)
        cfg = IntervalConfig(-0.6, 0.2)
        r = 3
        ext = build_interval_extended(sys, cfg)
        gram = interval_gramians(ext)
        bx = (gram.Tinv @ ext.sys.B)[:r, :]
        cx = (ext.sys.C @ gram.T)[:, :r]
        res = interval_reduce(sys, cfg, r, with_bounds=False)
        ext_red = build_interval_extended(res.reduced, cfg).sys
        assert np.linalg.norm(ext_red.B - bx) <= 1e-9 * np.linalg.norm(bx)
        assert np.linalg.norm(ext_red.C - cx) <= 1e-9 * np.linalg.norm(cx)
        assert np.linalg.norm(ext_red.D - ext.sys.D) <= 1e-9 * max(
            1.0, np.linalg.norm(ext.sys.D)
        )

    @staticmethod
    def _stiff(big):
        # B = C = 1; M's argument has eigenvalues 0.2 and 0.25/(big^2 + 0.25)
        return StateSpace(np.diag([-1.0, -big]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])

    def test_stiff_spectrum_refused_by_the_branch_cut_guard(self):
        # 0.2 and 2.5e-17: both off the cut, but the second lies within
        # 1e-12 times the first of it, which the guard refuses as
        # ill-conditioned
        with pytest.raises(BranchCutViolation) as info:
            interval_reduce(self._stiff(1e8), IntervalConfig(-0.5, 0.5), 1)
        assert type(info.value) is BranchCutViolation
        assert str(info.value) == (
            "principal square root refused by a conditioning guard: an eigenvalue "
            "lies within 1e-12 times the spectral radius of the closed negative "
            "real axis"
        )

    def test_milder_stiffness_meets_the_rank_cutoff_instead(self):
        # 0.2 and 2.5e-13, 1.25e-12 times the first: the guard passes, and
        # the band pair's second Hankel value falls below numerical rank
        with pytest.raises(SingularReconstruction) as info:
            interval_reduce(self._stiff(1e6), IntervalConfig(-0.5, 0.5), 1)
        assert type(info.value) is SingularReconstruction


class TestEfBound:
    def test_requires_reduced_result_pieces(self):
        sys = random_stable(108, 4)
        cfg = IntervalConfig(-0.5, 0.5)
        res = interval_reduce(sys, cfg, 2, with_ef_bound=False)
        val = interval_ef_bound(prepare_interval(sys, cfg), res.reduced, 2)
        assert val >= res.bounds["interval"] - 1e-12

    @pytest.mark.parametrize(
        "seed, band, term",
        [
            (65, (-0.5, 0.5), "reduced gap"),  # peak 1.5x the others
            (12, (-5.0, 5.0), "tail"),  # 33x
            (45, (-0.5, 0.5), "full gap"),  # 44x
        ],
    )
    def test_ef_bound_needs_every_term(self, seed, band, term):
        # the error peak (a grid lower estimate of the whole-axis sup) is
        # within 10% of ef = tail + full gap + reduced gap and above the sum
        # of the other two terms at r = 1: ef scaled by 0.7, or without this
        # term, would fall below it
        sys = random_stable(seed, 8)
        prep = prepare_interval(sys, IntervalConfig(*band))
        res = interval_truncate(prep, 1)
        ef = res.bounds["ef"]
        tail, full = tail_bound(prep.gram.sigma, 1), prep._gap
        terms = {"tail": tail, "full gap": full, "reduced gap": ef - tail - full}
        peak, _ = hinf_estimate(error_system(sys, res.reduced))
        assert res.warnings == ()
        assert 0.9 * ef <= peak <= ef
        assert peak > ef - terms[term]

    def test_reduced_system_that_is_not_hurwitz_refused(self):
        prep = prepare_interval(random_stable(108, 4), IntervalConfig(-0.5, 0.5))
        unstable = StateSpace(np.diag([0.5, -1.0]), np.ones((2, 1)), np.ones((1, 2)), [[0.0]])
        with pytest.raises(NotHurwitz, match="^reduced system is not Hurwitz"):
            interval_ef_bound(prep, unstable, 2)

    def test_a_refused_bound_leaves_the_reduction_with_its_refusal(self, monkeypatch):
        # interval_truncate asks no stability question of its own: the
        # bound's NotHurwitz is the warning, and the in-band bound stands
        def refuse(prep, reduced, r):
            raise NotHurwitz("the bound's own refusal")

        monkeypatch.setattr(fdbt.interval, "interval_ef_bound", refuse)
        sys, cfg = random_stable(108, 4), IntervalConfig(-0.5, 0.5)
        res = interval_reduce(sys, cfg, 2)
        plain = interval_reduce(sys, cfg, 2, with_ef_bound=False)
        assert set(res.bounds) == {"interval"} and res.bounds == plain.bounds
        assert res.warnings == plain.warnings + ("ef bound unavailable: the bound's own refusal",)

    @pytest.mark.parametrize("band", [(-0.5, 0.5), (0.2, 0.9)])
    def test_input_gap_computed_once_per_band(self, monkeypatch, band):
        # the input's gap is the prepared record's and the reduced model's
        # lives on A_r: k orders take k + 1 estimates, one extension and one
        # square root per order
        calls = collections.Counter()
        for name in ("hinf_estimate", "build_interval_extended", "sqrt_principal"):
            real = getattr(fdbt.interval, name)
            monkeypatch.setattr(
                fdbt.interval, name, lambda *args, _n=name, _r=real: calls.update([_n]) or _r(*args)
            )
        prep = prepare_interval(generate_ladder(31), IntervalConfig(*band))
        orders = (4, 8, 12)
        assert all("ef" in interval_truncate(prep, r).bounds for r in orders)
        assert calls == {
            "hinf_estimate": len(orders) + 1,
            "build_interval_extended": 1,
            "sqrt_principal": 1 + len(orders),
        }

    def test_gap_is_the_extended_realizations_difference(self):
        # G_ext - G on A alone: the response of the 2n-state difference
        for sys in (random_stable(109, 5, m=2, p=2), random_stable(110, 5, complex_entries=True)):
            for band in ((-0.5, 0.5), (0.2, 0.9)):
                cfg = IntervalConfig(*band)
                ext = build_interval_extended(sys, cfg).sys
                gap = fdbt.interval._band_gap(sys, cfg, ext._form)
                assert gap.n == sys.n
                for w in (-3.0, -0.5, 0.0, 0.3, 0.9, 7.0):
                    full = evaluate(ext, w)
                    want = full - evaluate(sys, w)
                    assert np.abs(evaluate(gap, w) - want).max() <= 1e-12 * np.abs(full).max()
