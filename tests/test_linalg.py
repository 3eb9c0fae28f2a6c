"""Dense kernels against naive reference implementations."""

import numpy as np
import pytest
import scipy.linalg

import oracles as orc
from helpers import python_at_threads, random_stable
from fdbt import (
    BranchCutViolation,
    DimensionMismatch,
    IndefiniteGramian,
    IntervalConfig,
    SfConfig,
    SingularReconstruction,
    SingularResidualization,
    SingularSubstitution,
    SingularSylvester,
    StateSpace,
    balance_gramians,
    build_interval_extended,
    hermitize,
    log_principal,
    moebius_substitute,
    sf_reduce,
    solve_lyapunov,
    sqrt_principal,
)
from fdbt import linalg
from fdbt.baselines import gspa_truncate
from fdbt.harness import generate_ladder
from fdbt.interval import IntervalBalanced, interval_truncate
from fdbt.linalg import (
    eigh,
    gemm,
    rank_cutoff,
    resolvent,
    schur,
    solve,
    svd,
)
from fdbt.reduction import Balanced


def _rand_complex(rng, n):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


class TestSolveLyapunov:
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_matches_kronecker_oracle(self, n, kind):
        rng = np.random.default_rng(100 * n + (kind == "complex"))
        a = _rand_complex(rng, n) if kind == "complex" else rng.standard_normal((n, n))
        a = a - (np.max(np.linalg.eigvals(a).real) + 0.4) * np.eye(n)
        q = _rand_complex(rng, n)
        q = q @ q.conj().T + np.eye(n)
        w = solve_lyapunov(a, q)
        w_ref = orc.lyap_kron(a, q)
        assert np.linalg.norm(w - w_ref) <= 1e-8 * np.linalg.norm(w_ref)

    def test_residual_vanishes(self):
        sys = random_stable(7, 5)
        q = np.asarray(sys.B) @ np.asarray(sys.B).conj().T
        w = solve_lyapunov(sys.A, q)
        res = np.asarray(sys.A) @ w + w @ np.asarray(sys.A).conj().T + q
        assert np.linalg.norm(res) <= 1e-10 * max(1.0, np.linalg.norm(w))

    def test_hermitian_rhs_gives_hermitian_solution(self):
        sys = random_stable(11, 4, complex_entries=True)
        q = np.asarray(sys.B) @ np.asarray(sys.B).conj().T
        w = solve_lyapunov(sys.A, q)
        assert np.linalg.norm(w - w.conj().T) <= 1e-12 * np.linalg.norm(w)

    def test_regular_but_antistable_pairing_is_solvable(self):
        # solvability needs lambda_i + conj(lambda_j) != 0, not stability
        a = np.diag([1.0, 2.0])
        q = np.array([[2.0, 1.0], [1.0, 3.0]])
        w = solve_lyapunov(a, q)
        assert np.linalg.norm(w - orc.lyap_kron(a, q)) <= 1e-10

    def test_singular_pairing_rejected(self):
        # spectrum {1, -1}: the (1, 2) pairing gives 1 + conj(-1) = 0
        with pytest.raises(SingularSylvester):
            solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_imaginary_axis_pairing_rejected(self):
        with pytest.raises(SingularSylvester):
            solve_lyapunov(np.array([[1j]]), np.eye(1))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionMismatch):
            solve_lyapunov(np.eye(3), np.eye(2))

    def test_near_singular_pairing_rejected_by_precheck(self):
        # 1 + (-1 + 1e-13) sits below the 1e-12 pairing tolerance
        with pytest.raises(SingularSylvester, match="lambda_i"):
            solve_lyapunov(np.diag([1.0, -1.0 + 1e-13]), np.eye(2))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_adjoint_form_solves_the_observability_equation(self, kind):
        # A* X + X A + Q = 0 on the Schur form of A, by trsyl's trana
        sys = random_stable(17, 6, m=2, complex_entries=kind == "complex")
        a, c = np.asarray(sys.A), np.asarray(sys.C)
        q = c.conj().T @ c
        form = schur(a)
        w = solve_lyapunov(a.conj().T, q, form._replace(adjoint=True))
        assert w.dtype == a.dtype
        ref = orc.lyap_kron(a.conj().T, q)
        assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)
        assert np.array_equal(solve_lyapunov(a, q.T, form), solve_lyapunov(a, q.T))

    def test_a_form_keeps_both_checks(self):
        a = np.diag([1.0, -1.0])
        for lhs, form in ((a, schur(a)), (a.T, schur(a)._replace(adjoint=True))):
            with pytest.raises(SingularSylvester, match="lambda_i"):
                solve_lyapunov(lhs, np.eye(2), form)
        # the form of A read as the form of A* solves the wrong equation,
        # which the backward-error check refuses
        b = np.asarray(random_stable(18, 5).A)
        with pytest.raises(SingularSylvester, match="backward error"):
            solve_lyapunov(b.T, np.eye(5), schur(b))

    def test_real_form_with_complex_rhs_refactors(self):
        a = np.asarray(random_stable(19, 5).A)
        q = _rand_complex(np.random.default_rng(19), 5)
        q = q @ q.conj().T
        w = solve_lyapunov(a, q, schur(a))
        assert np.array_equal(w, solve_lyapunov(a, q))

    @staticmethod
    def _nonnormal(seed, n):
        # A = Q (diag(poles) + U) Q^T: poles log-uniform in [-1e6, -1e-4],
        # strictly upper U with magnitudes log-uniform up to 1e8, Q orthogonal;
        # B with rows scaled by up to 1e+-4
        rng = np.random.default_rng(seed)
        poles = -(10.0 ** rng.uniform(-4, 6, n))
        u = np.triu(rng.choice([-1.0, 1.0], (n, n)) * 10.0 ** rng.uniform(0, 8, (n, n)), 1)
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q @ (np.diag(poles) + u) @ q.T
        b = rng.standard_normal((n, 2)) * 10.0 ** rng.uniform(-4, 4, (n, 1))
        return a, b @ b.T

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("seed", [0, 1, 4, 5, 7])
    def test_strongly_nonnormal_equations_solve(self, seed, n):
        # a residual measured against max(1, |Q|) refused every one of these
        # (6e-3 to 7e13); as a backward error it is at rounding level
        a, q = self._nonnormal(seed, n)
        x = solve_lyapunov(a, q)
        ref = scipy.linalg.solve_continuous_lyapunov(a, -q)
        assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
        res = np.linalg.norm(a @ x + x @ a.T + q)
        assert res / max(1.0, np.linalg.norm(q)) > 1e-10
        assert res <= 1e-14 * (2.0 * np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(q))

    @pytest.mark.parametrize("seed", [3, 8, 13, 21])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_random_stable_matches_kronecker_oracle(self, seed, kind):
        sys = random_stable(seed, 7, m=2, complex_entries=kind == "complex")
        a, b = np.asarray(sys.A), np.asarray(sys.B)
        q = b @ b.conj().T
        for lhs, rhs in ((a, q), (a.conj().T, np.asarray(sys.C).conj().T @ np.asarray(sys.C))):
            w = solve_lyapunov(lhs, rhs)
            assert w.dtype == (np.float64 if kind == "real" else np.complex128)
            ref = orc.lyap_kron(lhs, rhs)
            assert np.linalg.norm(w - ref) <= 1e-10 * np.linalg.norm(ref)


class TestMatrixFunctions:
    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_sqrt_matches_eig_oracle(self, n):
        rng = np.random.default_rng(40 + n)
        m = _rand_complex(rng, n) + (n + 2.0) * np.eye(n)
        s = sqrt_principal(m)
        assert np.linalg.norm(s - orc.sqrt_eig(m)) <= 1e-8 * np.linalg.norm(s)
        assert np.linalg.norm(s @ s - m) <= 1e-10 * np.linalg.norm(m)

    @pytest.mark.parametrize("n", [1, 3, 5, 7])
    def test_log_matches_eig_oracle(self, n):
        rng = np.random.default_rng(60 + n)
        m = _rand_complex(rng, n) + (n + 2.0) * np.eye(n)
        lg = log_principal(m)
        assert np.linalg.norm(lg - orc.log_eig(m)) <= 1e-8 * max(1.0, np.linalg.norm(lg))
        assert np.linalg.norm(scipy.linalg.expm(lg) - m) <= 1e-9 * np.linalg.norm(m)

    def test_sqrt_spectrum_in_right_half_plane(self):
        rng = np.random.default_rng(5)
        m = _rand_complex(rng, 6) + 8.0 * np.eye(6)
        s = sqrt_principal(m)
        assert np.min(np.linalg.eigvals(s).real) > 0.0

    def test_log_of_identity_is_zero(self):
        assert np.linalg.norm(log_principal(np.eye(4))) <= 1e-14

    def test_branch_cut_rejected_for_sqrt(self):
        with pytest.raises(BranchCutViolation):
            sqrt_principal(np.diag([1.0, -2.0]))

    def test_branch_cut_rejected_for_log(self):
        with pytest.raises(BranchCutViolation):
            log_principal(np.diag([3.0, 0.0]))

    def test_repeated_calls_bitwise_identical(self):
        # no kernel draws random probes (the logarithm takes exact norms),
        # so results never depend on call history or the global stream
        rng = np.random.default_rng(77)
        mats = [_rand_complex(rng, 5) + 7.0 * np.eye(5) for _ in range(4)]
        first = [sqrt_principal(m) for m in mats] + [log_principal(m) for m in mats]
        np.random.shuffle(np.arange(10))  # disturb the global stream
        second = [sqrt_principal(m) for m in mats] + [log_principal(m) for m in mats]
        for x, y in zip(first, second):
            assert x.tobytes() == y.tobytes()

    def test_global_random_state_not_consumed(self):
        np.random.seed(12321)
        expected = np.random.RandomState(12321).standard_normal(8)
        rng = np.random.default_rng(3)
        sqrt_principal(_rand_complex(rng, 6) + 8.0 * np.eye(6))
        log_principal(_rand_complex(rng, 6) + 8.0 * np.eye(6))
        assert np.allclose(np.random.standard_normal(8), expected)


def _real_with_pairs(seed, n):
    # real, spectrum in the right half-plane with complex-conjugate pairs:
    # the real Schur form has 2x2 blocks, so triangular's rotations run
    rng = np.random.default_rng(seed)
    blocks = []
    for _ in range(n // 2):
        re, im = rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.0)
        blocks.append(np.array([[re, im], [-im, re]]))
    if n % 2:
        blocks.append(np.array([[rng.uniform(0.5, 3.0)]]))
    t = scipy.linalg.block_diag(*blocks) + np.triu(rng.standard_normal((n, n)), 2)
    v = rng.standard_normal((n, n)) + n * np.eye(n)
    return v @ t @ np.linalg.inv(v)


def _real_with_real_spectrum(seed, n):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, n)) + n * np.eye(n)
    return v @ np.diag(rng.uniform(0.2, 4.0, n)) @ np.linalg.inv(v)


def _shifted_complex(seed, n):
    return _rand_complex(np.random.default_rng(seed), n) + (n + 2.0) * np.eye(n)


class TestLogarithmOnSchurForm:
    CASES = [
        ("real-pairs", _real_with_pairs, 4),
        ("real-pairs", _real_with_pairs, 7),
        ("real-spectrum", _real_with_real_spectrum, 6),
        ("complex", _shifted_complex, 6),
    ]

    @pytest.mark.parametrize("kind, make, n", CASES, ids=[f"{c[0]}-{c[2]}" for c in CASES])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_eig_oracle_and_full_logm(self, kind, make, n, seed):
        m = make(seed, n)
        lg = log_principal(m)
        assert lg.dtype == m.dtype
        if kind == "real-pairs":
            t, _ = scipy.linalg.schur(m)
            assert np.any(np.diagonal(t, -1))  # the 2x2-block path is exercised
        for ref in (orc.log_eig(m), scipy.linalg.logm(m)):
            assert np.linalg.norm(lg - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_rerun_is_bitwise_identical(self):
        m = _real_with_pairs(3, 9)
        assert log_principal(m).tobytes() == log_principal(m).tobytes()

    FORMS = [
        ("real-pairs", _real_with_pairs, 7, "real"),
        ("real-spectrum", _real_with_real_spectrum, 6, "real"),
        ("complex", _shifted_complex, 6, "complex"),
        ("real-pairs-complex-form", _real_with_pairs, 7, "complex"),
    ]

    @pytest.mark.parametrize("kind, make, n, output", FORMS, ids=[f[0] for f in FORMS])
    def test_given_form_matches_own_gees(self, kind, make, n, output):
        # a Schur form from scipy's own schur in place of log_principal's gees
        m = make(4, n)
        t, z = scipy.linalg.schur(m, output=output)
        assert np.any(np.diagonal(t, -1)) == (kind == "real-pairs")
        form = linalg.SchurForm(t, z, scipy.linalg.eigvals(t))
        lg = log_principal(m, form)
        ref = log_principal(m)
        assert lg.dtype == ref.dtype == m.dtype
        assert np.linalg.norm(lg - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_given_form_on_the_branch_cut(self, dtype):
        # the guard reads the given form's eigenvalues
        t = np.array([[2.0, 1.0], [0.0, -0.5]], dtype=dtype)
        form = linalg.SchurForm(t, np.eye(2, dtype=dtype), np.diagonal(t).astype(complex))
        with pytest.raises(BranchCutViolation):
            log_principal(t, form)

    @pytest.mark.parametrize("n", [2, 7, 10])
    def test_triangular_matches_rsf2csf(self, n):
        m = _real_with_pairs(5, n)
        form = schur(m)
        t, z, lam, adjoint = linalg.triangular(form)
        assert t.dtype.kind == "c" and not np.any(np.tril(t, -1))
        assert lam is form.lam and adjoint is form.adjoint
        assert np.linalg.norm(z @ t @ z.conj().T - m) <= 1e-12 * np.linalg.norm(m)
        ref_t, ref_z = scipy.linalg.rsf2csf(form.t, form.z)
        assert np.linalg.norm(t - ref_t) <= 1e-12 * np.linalg.norm(ref_t)
        assert np.linalg.norm(z - ref_z) <= 1e-12 * np.sqrt(n)
        # a triangular form is returned as it is
        for done in (schur(_real_with_real_spectrum(5, 6)), schur(_shifted_complex(5, 6))):
            assert linalg.triangular(done).t is done.t


def _triangular(delta, real=False, n=5, seed=0):
    """Upper triangular, eigenvalues 1 + delta·e^(jφ) (1 + delta·cos φ when
    real) at distinct φ, plus a strictly upper part of size 1e-3·delta: the
    α_p of T − I are all close to delta."""
    rng = np.random.default_rng(seed)
    phase = 2 * np.pi * (np.arange(n) + 0.25) / n
    upper = rng.standard_normal((n, n))
    if real:
        diag = 1 + delta * np.cos(phase)
    else:
        diag = 1 + delta * np.exp(1j * phase)
        upper = upper + 1j * rng.standard_normal((n, n))
    return np.diag(diag) + 1e-3 * delta * np.triu(upper, 1)


@pytest.fixture
def scaling_record(monkeypatch):
    """(s, m) of every inverse scaling log_principal runs: s square roots
    and Padé degree m, read off the returned values."""
    record = []
    inner = linalg._inverse_scaling

    def recorded(t):
        r, s, m = inner(t)
        record.append((s, m))
        return r, s, m

    monkeypatch.setattr(linalg, "_inverse_scaling", recorded)
    return record


class TestInverseScalingAndSquaring:
    # delta against Al-Mohy & Higham's θ_m: 1.59e-5, 2.31e-3, 1.94e-2,
    # 6.21e-2, 1.28e-1, 2.06e-1, 2.88e-1 for m = 1..7
    CASES = [
        (1e-5, False, (0, 1)),
        (1e-3, False, (0, 2)),
        (1e-2, False, (0, 3)),
        (4e-2, False, (0, 4)),
        (1e-1, False, (0, 5)),
        (1e-1, True, (0, 5)),
        (0.18, False, (0, 6)),
        (0.27, False, (0, 7)),
        # within θ_7 of 1 (no root needed for the eigenvalues) and degree 7
        # would do, but a3/2 <= θ_5: one extra root and degree 5 instead
        (0.23, False, (1, 5)),
        # four roots to bring the eigenvalues within θ_7 of 1
        (3.0, False, (4, 6)),
    ]

    @pytest.mark.parametrize("delta, real, expected", CASES)
    def test_degree_and_roots_and_accuracy(self, scaling_record, delta, real, expected):
        t = _triangular(delta, real)
        lg = log_principal(t)
        assert scaling_record == [expected]
        assert lg.dtype == t.dtype
        for ref in (orc.log_eig(t), scipy.linalg.logm(t)):
            assert np.linalg.norm(lg - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_ladder_201_shift(self, scaling_record):
        a = np.asarray(generate_ladder(201).A)
        m = 0.5j * np.eye(201) - a
        lg = log_principal(m)
        assert len(scaling_record) == 1
        for ref in (orc.log_eig(m), scipy.linalg.logm(m)):
            assert np.linalg.norm(lg - ref) <= 1e-12 * np.linalg.norm(ref)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_gauss_legendre_rule(self, m):
        import scipy.special  # the package itself never loads it

        nodes, weights = np.array(linalg._gauss_legendre(m)).T
        assert nodes.shape == weights.shape == (m,)
        # exact for every polynomial of degree <= 2m - 1 on [0, 1]
        for degree in range(2 * m):
            assert abs(weights @ nodes**degree - 1 / (degree + 1)) <= 1e-15
        # scipy's rule mapped to [0, 1], to 4 ulps of the interval's length
        x, w = scipy.special.roots_legendre(m)
        ulp = np.finfo(float).eps
        assert np.max(np.abs(nodes - (0.5 + 0.5 * x))) <= 4 * ulp
        assert np.max(np.abs(weights - 0.5 * w)) <= 4 * ulp

    def test_first_reduction_loads_no_sparse_or_special(self):
        # scipy's logm imports scipy.sparse (for its norm estimator) and
        # scipy.special (for its quadrature); fdbt's logarithm needs neither
        code = (
            "import sys\n"
            "import fdbt\n"
            "from fdbt.harness import generate_ladder\n"
            "fdbt.fgbt_reduce(generate_ladder(5), 2, -0.5, 0.5)\n"
            "print(sorted(m for m in ('scipy.sparse', 'scipy.special') if m in sys.modules))\n"
        )
        assert python_at_threads(None, code).strip() == "[]"


class TestKernelHandles:
    """The scipy LAPACK/BLAS handles against numpy's own kernels."""

    @staticmethod
    def _operand(rng, shape, kind, layout):
        x = rng.standard_normal(shape)
        if kind == "complex":
            x = x + 1j * rng.standard_normal(shape)
        if layout == "F":
            return np.asfortranarray(x)
        if layout == "strided":
            return np.hstack([x, x])[:, ::2]
        return x

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("kinds", [("real", "real"), ("real", "complex"), ("complex", "complex")])
    @pytest.mark.parametrize("ha, hb", [(False, False), (True, False), (False, True), (True, True)])
    def test_gemm_matches_matmul(self, layout, kinds, ha, hb):
        rng = np.random.default_rng(5)
        a = self._operand(rng, (5, 3) if ha else (3, 5), kinds[0], layout)
        b = self._operand(rng, (4, 5) if hb else (5, 4), kinds[1], layout)
        got = gemm(a, b, ha=ha, hb=hb)
        want = (a.conj().T if ha else a) @ (b.conj().T if hb else b)
        assert got.shape == (3, 4)
        assert got.dtype == want.dtype
        assert np.linalg.norm(got - want) <= 1e-14 * np.linalg.norm(want)

    @pytest.mark.parametrize("layout", ["C", "F", "strided"])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    @pytest.mark.parametrize("m, p", [(1, 1), (3, 2)])
    def test_resolvent_matches_solve(self, layout, kind, m, p):
        rng = np.random.default_rng(6)
        # a real matrix with complex pole pairs has 2 x 2 blocks in its
        # real Schur form; the complex form of a complex one is triangular
        t = schur(self._operand(rng, (6, 6), kind, "C")).t
        assert kind == "complex" or np.any(np.diagonal(t, -1))
        laid_out = {"C": np.ascontiguousarray, "strided": lambda x: np.repeat(x, 2, 1)[:, ::2]}
        t = laid_out.get(layout, np.asfortranarray)(t)
        left = self._operand(rng, (p, 6), kind, layout)
        right = self._operand(rng, (6, m), kind, layout)
        d = self._operand(rng, (p, m), kind, layout)
        before = (t.copy(), left.copy(), right.copy(), d.copy())
        probe = resolvent(t, left, right, d)
        for s in (0.3 + 0.7j, -1.2j, 2.0 + 0j, 0j):
            got = probe(s)
            want = left @ np.linalg.solve(s * np.eye(6) - t, right) + d
            assert got.shape == (p, m) and got.dtype == np.complex128
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
            # a probe keeps no state between calls
            assert probe(s).tobytes() == got.tobytes()
        for x, x_before in zip((t, left, right, d), before):
            assert np.array_equal(x, x_before)

    def test_real_resolvent_at_an_eigenvalue_is_nan(self):
        # s = -1 makes T X + X S singular, so trsyl perturbs it (info 1)
        t = np.array([[-1.0, 2.0], [0.0, -3.0]])
        got = resolvent(t, np.ones((1, 2)), np.ones((2, 1)), np.ones((1, 1)))(-1.0 + 0j)
        assert got.shape == (1, 1) and np.isnan(got).all()

    def test_gemm_of_empty_operands(self):
        assert gemm(np.zeros((0, 3)), np.ones((3, 2))).shape == (0, 2)
        assert np.array_equal(gemm(np.ones((2, 0)), np.ones((0, 2))), np.zeros((2, 2)))

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_factorizations_match_numpy(self, kind):
        rng = np.random.default_rng(8)
        a = self._operand(rng, (6, 6), kind, "C")
        dtype = a.dtype
        h = a + a.conj().T
        w, v = eigh(h)
        assert w.dtype == np.float64 and v.dtype == dtype
        assert np.allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=1e-13)
        assert np.linalg.norm(h @ v - v * w) <= 1e-13 * np.linalg.norm(h)
        u, s, vh = svd(a)
        assert np.allclose(s, np.linalg.svd(a, compute_uv=False), rtol=1e-14, atol=0)
        assert np.linalg.norm((u * s) @ vh - a) <= 1e-13 * np.linalg.norm(a)
        t, z, lam, adjoint = schur(a)
        assert t.dtype == dtype and not adjoint
        assert np.linalg.norm(z @ t @ z.conj().T - a) <= 1e-13 * np.linalg.norm(a)
        assert orc.match_spectra(lam, np.linalg.eigvals(a)) <= 1e-12
        t, z, lam, _ = schur(a.astype(complex))
        assert np.array_equal(t, np.triu(t)) and t.dtype == np.complex128
        assert np.array_equal(lam, np.diagonal(t))
        x = solve(a, h[:, :2], SingularReconstruction("unused"))
        assert x.dtype == dtype
        assert np.linalg.norm(a @ x - h[:, :2]) <= 1e-12 * np.linalg.norm(h)

    def test_exactly_singular_solve_raises_the_callers_error(self):
        with pytest.raises(SingularReconstruction, match="mine"):
            solve(np.zeros((2, 2)), np.ones((2, 1)), SingularReconstruction("mine"))


class TestHermitize:
    def test_output_is_hermitian(self):
        rng = np.random.default_rng(9)
        m = _rand_complex(rng, 5)
        h = hermitize(m)
        assert np.array_equal(h, h.conj().T)

    def test_fixed_point_on_hermitian_input(self):
        rng = np.random.default_rng(10)
        m = _rand_complex(rng, 5)
        h = m + m.conj().T
        assert np.allclose(hermitize(h), h, rtol=0, atol=1e-15 * np.linalg.norm(h))


class TestBalanceGramians:
    def _gramians(self, seed, n):
        sys = random_stable(seed, n, complex_entries=True)
        wc = solve_lyapunov(sys.A, np.asarray(sys.B) @ np.asarray(sys.B).conj().T)
        wo = solve_lyapunov(
            np.asarray(sys.A).conj().T, np.asarray(sys.C).conj().T @ np.asarray(sys.C)
        )
        return wc, wo

    def test_transform_diagonalizes_both(self):
        wc, wo = self._gramians(21, 5)
        t, tinv, sigma = balance_gramians(wc, wo)
        d = np.diag(sigma)
        assert np.linalg.norm(tinv @ wc @ tinv.conj().T - d) <= 1e-9 * sigma[0]
        assert np.linalg.norm(t.conj().T @ wo @ t - d) <= 1e-9 * sigma[0]
        assert np.linalg.norm(t @ tinv - np.eye(5)) <= 1e-10

    def test_sigma_matches_eigenvalue_oracle(self):
        wc, wo = self._gramians(22, 6)
        _, _, sigma = balance_gramians(wc, wo)
        ref = orc.hankel_eig(wc, wo)
        assert np.all(np.diff(sigma) <= 1e-14)  # non-increasing
        assert np.max(np.abs(sigma - ref)) <= 1e-8 * ref[0]

    def test_indefinite_input_rejected(self):
        with pytest.raises(IndefiniteGramian, match="controllability Gramian"):
            balance_gramians(np.diag([1.0, -1.0]), np.eye(2))
        with pytest.raises(IndefiniteGramian, match="observability Gramian"):
            balance_gramians(np.eye(2), np.diag([1.0, -1.0]))

    def test_rank_deficiency_flagged(self):
        wc = np.diag([1.0, 0.0])
        sigma = balance_gramians(wc, np.eye(2))[2]
        assert np.any(sigma <= rank_cutoff(sigma))


def _identity_balanced(sys, sigma):
    """A record that declares sys balanced as given (T = I)."""
    eye = np.eye(sys.n, dtype=complex)
    return Balanced(sys, np.array(sigma, dtype=float), eye, eye, eye, eye)


def _moebius_at_a_pole():
    sys = random_stable(17, 3)
    return moebius_substitute(sys, complex(sys.poles[0]), 1.0, 1.0, 0.0)


def _gspa_singular_a22():
    # hand-balanced: a Hurwitz system balanced on its own Gramians has a
    # Hurwitz A22, so rho >= 0 never meets its spectrum from prepare_standard
    sys = StateSpace(np.diag([-1.0, 0.0, -2.0]), np.ones((3, 1)), np.ones((1, 3)), [[0.0]])
    return gspa_truncate(_identity_balanced(sys, [1.0, 0.5, 0.25]), 1, 0.0)


def _sf_stiff_pole():
    # the substitution maps a pole at -1e16 within rounding of
    # -epsilon + j varpi, where epsilon I - K loses rank
    sys = StateSpace(np.diag([-1.0, -1e16]), [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    return sf_reduce(sys, SfConfig(varpi=0.0, epsilon=1.0), 2, with_ef_bound=False)


def _interval_nonnormal_block():
    # hand-prepared (T = I): a strongly non-normal balanced A makes the band
    # factor M of the kept block singular to working precision
    sys = StateSpace([[-1.0, 1e12], [0.0, -1.0]], [[1.0], [1.0]], [[1.0, 1.0]], [[0.0]])
    ext = build_interval_extended(sys, IntervalConfig(-1.0, 1.0))
    prep = IntervalBalanced(sys, ext, _identity_balanced(ext.sys, [1.0, 0.5]))
    return interval_truncate(prep, 2, with_bounds=False)


class TestSolveGuarded:
    def test_nonsingular_solve_is_numpy_solve(self):
        rng = np.random.default_rng(30)
        m, rhs = _rand_complex(rng, 4), _rand_complex(rng, 4)[:, :2]
        got = solve(m, rhs, SingularReconstruction("unused"), guarded=True)
        assert got.tobytes() == np.linalg.solve(m, rhs).tobytes()

    @pytest.mark.parametrize(
        "reach, error, message",
        [
            (_moebius_at_a_pole, SingularSubstitution, "aI - cA is numerically singular"),
            (
                _gspa_singular_a22,
                SingularResidualization,
                "rho I - A22 is numerically singular at rho = 0.0",
            ),
            (
                _sf_stiff_pole,
                SingularReconstruction,
                "epsilon I - K is numerically singular; back-substitution undefined",
            ),
            (
                _interval_nonnormal_block,
                SingularReconstruction,
                "band factor is numerically singular",
            ),
        ],
        ids=["moebius", "gspa", "sf-back-substitution", "int-fdbt-band-factor"],
    )
    def test_each_guard_keeps_its_type_and_message(self, reach, error, message):
        with pytest.raises(error) as info:
            reach()
        assert type(info.value) is error and str(info.value) == message

    def test_zero_matrix_is_refused(self):
        with pytest.raises(SingularReconstruction):
            solve(np.zeros((3, 3)), np.ones((3, 1)), SingularReconstruction("zero"), guarded=True)


EPS = np.finfo(float).eps


@pytest.mark.parametrize(
    "sv, cutoff",
    [([4.0, 1.0], 2 * EPS * 4.0), ([0.0, 0.0, 0.0], 3 * EPS), ([], 0.0)],
    ids=["scaled", "zero", "empty"],
)
def test_rank_cutoff_scales_with_the_largest_value(sv, cutoff):
    assert rank_cutoff(np.array(sv)) == cutoff
