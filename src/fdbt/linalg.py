"""Dense matrix kernels used by every reduction method.

All routines work on square numpy arrays and are pure: inputs are never
mutated. They are dtype-generic: real (float64) input is solved in real
arithmetic and comes back real, anything complex runs in complex128.
Tolerances are relative to input norms with an absolute floor of 1e-14.

One BLAS pool. The numpy and scipy wheels each bundle their own OpenBLAS,
each with its own thread pool, and a threaded call into one library while
the other's workers still spin waiting for work runs several times slower
on a machine with few cores. Every O(n^3) kernel in fdbt therefore goes
through scipy's LAPACK and BLAS, by the routine handles below: products
(gemm), Schur forms (gees), Lyapunov solves on them (trsyl), single-point
frequency responses on them (resolvent: trsv on a complex triangular
form, trsyl on a real quasi-triangular one), Hermitian eigensolves
(syevd/heevd), singular values (gesdd), eigenvalues (gees),
linear solves (gesv, after a gesdd rank test when guarded), and the
matrix square root and logarithm, both on a Schur form fdbt computes
itself: the band factors pass sqrt_principal their form's
quasi-triangular factor, and log_principal runs fdbt's own inverse
scaling and squaring on a triangular form of its argument, the caller's
(fgbt passes the shifted form of the model's own one) or else one gees
(square roots by scipy's sqrtm, powers by gemm, Padé terms by trtrs at
Gauss-Legendre nodes fdbt computes by syevd). triangular makes a real
quasi-triangular form complex triangular by rsf2csf's rotations, built
from the eigenvalues the form holds. scipy's own
solve_continuous_lyapunov and matrix logarithm multiply with numpy's dot
internally, so neither is called. This is the only module of fdbt that
imports scipy. numpy keeps elementwise work: the diagonal steps of a
frequency sweep's vectorized back substitution (the rows above each
panel of a real or complex form are updated by one gemm, add_product)
and the p x m singular values of each response, which OpenBLAS never
threads. Nothing here sets or pins a thread count.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
import scipy.linalg
from scipy.linalg import get_blas_funcs, get_lapack_funcs

from .errors import (
    BranchCutViolation,
    ConvergenceFailure,
    DimensionMismatch,
    FdbtError,
    IndefiniteGramian,
    SingularSylvester,
)

ABS_FLOOR = 1e-14
# a shift point closer than this to an eigenvalue of A is refused
SHIFT_TOL = 1e-10


def as_matrix(x, name: str = "matrix") -> np.ndarray:
    """Validate and convert to a 2-D float64 or complex128 array.

    Complex input (by dtype) becomes complex128, anything else float64.
    Rejects non-2-D input and non-finite entries. Returns a fresh array,
    never a view of the caller's data.
    """
    dtype = np.complex128 if np.iscomplexobj(x) else np.float64
    a = np.array(x, dtype=dtype, order="C")
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {a.shape}")
    if a.size and not np.all(np.isfinite(a.view(np.float64))):
        raise DimensionMismatch(f"{name} contains non-finite entries")
    return a


def _require_square(a: np.ndarray, name: str) -> None:
    if a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {a.shape}")


def hermitize(x: np.ndarray) -> np.ndarray:
    """(X + X*)/2, used to pin Hermitian results against rounding drift."""
    return (x + x.conj().T) / 2.0


def jw(w: float):
    """The scalar j*w, as a real 0.0 at w = 0 so that real data stays real."""
    return 1j * w if w else 0.0


def _char(*arrays) -> str:
    """LAPACK type letter: 'D' (complex128) if any input is complex, else 'd'."""
    return "D" if any(x.dtype.kind == "c" for x in arrays) else "d"


@functools.cache
def _routine(name: str, char: str):
    """scipy's BLAS (gemm, trsv) or LAPACK routine name for type letter char."""
    getter = get_blas_funcs if name in ("gemm", "trsv") else get_lapack_funcs
    return getter(name, dtype=np.dtype(char))


def _no_sort(*args):
    return None


@functools.cache
def _lwork(char: str, n: int) -> int:
    """The optimal workspace of gees at order n, queried once."""
    work = _routine("gees", char)(_no_sort, np.zeros((n, n), char), lwork=-1)[-2]
    return max(1, int(np.ravel(work)[0].real))


def _checked(out: tuple, what: str):
    """A LAPACK handle's outputs without their trailing info, which must be 0."""
    if out[-1] != 0:
        raise ConvergenceFailure(f"{what} failed (LAPACK info {out[-1]})")
    return out[:-1]


def gemm(a: np.ndarray, b: np.ndarray, ha: bool = False, hb: bool = False) -> np.ndarray:
    """a·b by one BLAS gemm, with a (ha) or b (hb) conjugate-transposed first.

    Real operands multiply in real arithmetic. C-ordered operands are passed
    as their Fortran-ordered transposes, (op(a) op(b))ᵀ = op(bᵀ) op(aᵀ), so
    neither is copied and the product comes back C-ordered.
    """
    fn = _routine("gemm", _char(a, b))
    ta, tb = 2 * ha, 2 * hb  # BLAS op codes: 0 as is, 2 conjugate transpose
    if a.flags.f_contiguous and b.flags.f_contiguous:
        return fn(1.0, a, b, trans_a=ta, trans_b=tb)
    return fn(1.0, b.T, a.T, trans_a=tb, trans_b=ta).T


def add_product(c: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """c += a·b in place, by one BLAS gemm with β = 1, for C-ordered c, a
    and b of one dtype (passed as their Fortran-ordered transposes): dgemm
    on float64, zgemm on complex128."""
    _routine("gemm", _char(c))(1.0, b.T, a.T, 1.0, c.T, overwrite_c=1)


def resolvent(t: np.ndarray, left: np.ndarray, right: np.ndarray, d: np.ndarray):
    """The probe s ↦ left·(sI − T)⁻¹·right + d, a p × m complex array with
    p, m ≥ 1, for the upper (quasi-)triangular factor T of a Schur form.

    Everything that does not depend on s (layouts, the BLAS and LAPACK
    handles, the right-hand sides) is fixed here once, so a probe makes one
    solve per column of right and one product, with no dtype dispatch.
    A complex (triangular) T solves a shifted copy of itself by one BLAS
    trsv per column of right, multiplies by left (gemm) and adds d.
    A real quasi-triangular T keeps real arithmetic (Golub, Nash & Van
    Loan, IEEE TAC 1979): with s = σ + jω and (sI − T)⁻¹·right = U + jV,
    each column pair (u_j, v_j) solves the real Sylvester equation
    T X + X S = [−right_j, 0], S = [[−σ, −ω], [ω, −σ]], which is already in
    Schur canonical form: one trsyl per column of right, in place in
    adjacent columns of one work array. One gemm then adds left·X to d,
    spread over the same (u, v) columns, and comes back with each row's
    (u, v) pairs adjacent, so it is read as complex without a copy. A
    probe that trsyl could solve only by perturbing it (s within rounding
    of an eigenvalue of T) comes back NaN, as a response that overflowed
    does.
    """
    n, m = right.shape
    if t.dtype.kind == "c":
        neg = -t
        lower = 0 if neg.flags.f_contiguous else 1
        rhs = np.array(right, dtype="D", order="C")
        # gemm's operand order (see gemm), fixed by the layouts of left and x
        both_f = left.flags.f_contiguous and rhs.flags.f_contiguous
        trsv_fn, gemm_fn = _routine("trsv", "D"), _routine("gemm", "D")

        def probe(s):
            shifted = neg.copy(order="K")
            shifted.ravel("K")[:: n + 1] += s
            a = shifted.T if lower else shifted
            x = rhs.copy()
            flat = x.reshape(-1)
            for j in range(m):
                trsv_fn(a, flat, incx=m, offx=j, lower=lower, trans=lower, overwrite_x=1)
            product = gemm_fn(1.0, left, x) if both_f else gemm_fn(1.0, x.T, left.T).T
            return product + d

        return probe

    tf = np.asfortranarray(t)
    rhs = np.zeros((n, 2 * m), order="F")
    rhs[:, ::2] = -right
    left_t = np.ascontiguousarray(left).T
    # (left·X + d)ᵀ, so that each row of the product holds its (u, v) pairs
    d_t = np.zeros((2 * m, d.shape[0]), order="F")
    d_t[::2] = d.T
    nan = np.full(d.shape, np.nan, complex)
    trsyl_fn, gemm_fn = _routine("trsyl", "d"), _routine("gemm", "d")

    def probe(s):
        shift = np.array([[-s.real, -s.imag], [s.imag, -s.real]], order="F")
        x = rhs.copy(order="F")
        for j in range(0, 2 * m, 2):
            _, scale, info = trsyl_fn(tf, shift, x[:, j : j + 2], overwrite_c=1)
            if info < 0:
                raise ConvergenceFailure(f"Sylvester solve failed (LAPACK info {info})")
            if info:
                return nan.copy()
            if scale != 1.0:
                x[:, j : j + 2] /= scale
        return gemm_fn(1.0, x, left_t, 1.0, d_t, trans_a=1).T.view(np.complex128)

    return probe


def _fro_norm(x: np.ndarray) -> float:
    """Frobenius norm by elementwise sums (numpy's norm is a threaded BLAS dot)."""
    sq = x.real * x.real
    if x.dtype.kind == "c":
        sq += x.imag * x.imag
    return math.sqrt(float(np.sum(sq)))


class SchurForm(NamedTuple):
    """A = Z T Z* and the eigenvalues lam of T, from one gees (see schur).
    adjoint=True reads the same factors as the form of A* = Z T* Z*."""

    t: np.ndarray
    z: np.ndarray
    lam: np.ndarray
    adjoint: bool = False


def schur(a: np.ndarray) -> SchurForm:
    """Schur form A = Z T Z* (gees), with the eigenvalues gees returns.

    T is real quasi-triangular for real A (eigenvalues in exact conjugate
    pairs), triangular for complex A: pass A.astype(complex) for that T.
    """
    n = a.shape[0]
    char = _char(a)
    if n == 0:
        z = np.zeros((0, 0), char)
        return SchurForm(z, z, np.zeros(0, complex))
    out = _checked(
        _routine("gees", char)(_no_sort, a, lwork=_lwork(char, n)), "Schur form"
    )
    return SchurForm(out[0], out[-2], out[2] + 1j * out[3] if char == "d" else out[2])


def triangular(form: SchurForm) -> SchurForm:
    """form with a triangular T, and the same eigenvalues and adjoint.

    A real quasi-triangular T with 2×2 blocks goes complex, Z with it, as
    scipy's rsf2csf takes it: one Givens rotation per block, the lowest
    block first, that moves the block's eigenvalue λ = lam[k] to T[k, k].
    rsf2csf recomputes each block's eigenvalues (one eigvals call per
    block); here they are read off lam, and the rotations are elementwise.
    Any other T is triangular already, and form comes back as it is.
    """
    t, z, lam, adjoint = form
    if t.dtype.kind != "f" or not np.any(np.diagonal(t, -1)):
        return form
    blocks = np.flatnonzero(np.diagonal(t, -1))
    t, z = t.astype(complex), z.astype(complex)
    for k in blocks[::-1]:
        # G = [[c̄, s], [−s, c]] zeroes T[k + 1, k]: T ← G T G*, Z ← Z G*
        mu, sub = lam[k] - t[k + 1, k + 1], t[k + 1, k].real
        r = math.hypot(abs(mu), sub)
        c, s = mu / r, sub / r
        top, bottom = t[k, k:].copy(), t[k + 1, k:]
        t[k, k:] = c.conjugate() * top + s * bottom
        t[k + 1, k:] = c * bottom - s * top
        for x, rows in ((t, k + 2), (z, z.shape[0])):
            left, right = x[:rows, k].copy(), x[:rows, k + 1]
            x[:rows, k] = c * left + s * right
            x[:rows, k + 1] = c.conjugate() * right - s * left
        t[k + 1, k] = 0.0
    return SchurForm(t, z, lam, adjoint)


def eigh(a: np.ndarray):
    """Eigenvalues (ascending) and eigenvectors of a Hermitian matrix:
    syevd or heevd on the lower triangle."""
    char = _char(a)
    fn = _routine("heevd" if char == "D" else "syevd", char)
    return _checked(fn(a, compute_v=1, lower=1), "Hermitian eigensolver")


def svd(a: np.ndarray, vectors: bool = True):
    """Thin singular value decomposition (gesdd): (U, s, Vh), or s alone
    when vectors=False. s is non-increasing."""
    u, s, vh = _checked(
        _routine("gesdd", _char(a))(a, compute_uv=int(vectors), full_matrices=0), "SVD"
    )
    return (u, s, vh) if vectors else s


def solve(
    m: np.ndarray, rhs: np.ndarray, error: FdbtError, guarded: bool = False
) -> np.ndarray:
    """m^(-1) rhs by an LU solve (gesv), raising error on an exactly zero pivot.

    guarded also raises error when m is numerically singular: when its
    smallest singular value is at most rank_cutoff of them (so also when m
    is zero). The test is one singular-value solve (gesdd) before the LU.
    """
    if m.shape[0] == 0:
        return np.zeros(rhs.shape, np.result_type(m, rhs))
    if guarded:
        sv = svd(m, vectors=False)
        if sv[-1] <= rank_cutoff(sv):
            raise error
    *_, x, info = _routine("gesv", _char(m, rhs))(m, rhs)
    if info > 0:
        raise error
    if info < 0:
        raise ConvergenceFailure(f"linear solve failed (LAPACK info {info})")
    return x


def solve_lyapunov(a, q, form: SchurForm | None = None) -> np.ndarray:
    """Solve A·X + X·A* + Q = 0 for Hermitian Q.

    Bartels-Stewart (CACM 1972): with the Schur form A = U R U*, real when
    A and Q are, R Y + Y R* = -U* Q U is triangular (trsyl) and X = U Y U*.
    form, a Schur form of A in the dtype of A and Q (an adjoint one solves
    R* Y + Y R = -U* Q U), spares the factorization. The result is
    Hermitian-symmetrized. Raises SingularSylvester when the spectrum of A
    makes the equation singular (some λ_i + conj(λ_j) ≈ 0), which the
    pre-check on the form's eigenvalues detects before trsyl runs. The
    solution is accepted when its backward error ‖AX + XA* + Q‖ /
    (2‖A‖‖X‖ + ‖Q‖) (Frobenius norms) is at most 1e-10, which holds for a
    backward-stable solve of a well-posed equation however non-normal A is.
    """
    a = as_matrix(a, "A")
    q = as_matrix(q, "Q")
    # real only when both are: a real Schur form cannot carry a complex Q
    dtype = np.result_type(a, q)
    a, q = a.astype(dtype, copy=False), q.astype(dtype, copy=False)
    _require_square(a, "A")
    _require_square(q, "Q")
    if a.shape != q.shape:
        raise DimensionMismatch(f"A is {a.shape} but Q is {q.shape}")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype)

    r, u, lam, adjoint = schur(a) if form is None or form.t.dtype != dtype else form
    # pairing λ_i + conj(λ_j) = 0 makes the operator singular
    pair_sums = np.abs(lam[:, None] + lam.conj()[None, :])
    tol = max(ABS_FLOOR, 1e-12 * max(1.0, float(np.max(np.abs(lam)))))
    if float(np.min(pair_sums)) < tol:
        raise SingularSylvester(
            "spectrum of A contains a pair with lambda_i + conj(lambda_j) ~ 0"
        )

    f = -gemm(u, gemm(q, u), ha=True)
    char = _char(a)
    h = "C" if char == "D" else "T"  # conjugate transpose
    y, scale, info = _routine("trsyl", char)(r, r, f, *((h, "N") if adjoint else ("N", h)))
    if info < 0:
        raise ConvergenceFailure(f"Sylvester solve failed (LAPACK info {info})")
    if info == 1:
        raise SingularSylvester("trsyl perturbed a near-singular eigenvalue pairing")
    x = hermitize(gemm(gemm(u, y / scale), u, hb=True))
    residual = _fro_norm(gemm(a, x) + gemm(x, a, hb=True) + q)
    scale_ref = 2.0 * _fro_norm(a) * _fro_norm(x) + _fro_norm(q)
    if residual > 1e-10 * scale_ref:
        # near-singular pairings that slipped past the eigenvalue check
        rel = residual / scale_ref
        raise SingularSylvester(f"Lyapunov backward error {rel:.3e} exceeds 1e-10")
    return x


def rank_cutoff(sv: np.ndarray) -> float:
    """The numerical-rank cutoff of non-increasing singular values sv.

    A value at most len(sv)·eps·sv[0] is numerically zero; when sv is
    empty or sv[0] is zero the scale is 1, so that all of a zero matrix's
    values count as zero. The one rank rule of fdbt: a guarded solve
    applies it, and so does balance_gramians, whose directions at or below
    it Balanced.rank_deficient lists for the result tail and the eta chain.
    """
    top = float(sv[0]) if len(sv) and sv[0] > 0 else 1.0
    return len(sv) * np.finfo(float).eps * top


def check_off_branch_cut(values: np.ndarray, what: str) -> None:
    """Reject a spectrum within 1e-12 times its radius of the ray (-inf, 0].

    A conditioning guard: it also refuses an eigenvalue off the cut that
    close to it, as a stiff spectrum has, since rounding can put it there.
    """
    if values.size == 0:
        return
    # tolerance relative to the spectral radius: an all-tiny but strictly
    # right-half-plane spectrum is legitimate (band factors over narrow
    # frequency intervals produce exactly that)
    scale = max(float(np.max(np.abs(values))), ABS_FLOOR)
    # distance to the ray (-inf, 0]: |Im| when Re <= 0, else the distance
    # to the origin
    re, im = values.real, values.imag
    dist = np.where(re <= 0.0, np.abs(im), np.hypot(re, im))
    if float(np.min(dist)) < 1e-12 * scale:
        raise BranchCutViolation(
            f"{what} refused by a conditioning guard: an eigenvalue lies within "
            "1e-12 times the spectral radius of the closed negative real axis"
        )


def sqrt_principal(m, spectrum=None) -> np.ndarray:
    """Principal matrix square root: X·X = M with spectrum of X in the open RHP.

    Schur-based (the real Schur form for real input, whose root is real).
    Inside fdbt the band factors pass it the upper (quasi-)triangular
    factor of their own Schur form, so the root is taken on that form.
    Input must have no eigenvalue on (−∞, 0]; spectrum, the eigenvalues of
    M if the caller holds them, spares that check its own Schur form (gees).
    """
    m = as_matrix(m, "M")
    _require_square(m, "M")
    if m.shape[0] == 0:
        return np.zeros((0, 0), m.dtype)
    lam = schur(m).lam if spectrum is None else np.asarray(spectrum)
    check_off_branch_cut(lam, "principal square root")
    x = scipy.linalg.sqrtm(m)
    x = np.asarray(x, dtype=m.dtype)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ConvergenceFailure("sqrtm produced non-finite entries")
    return x


# Al-Mohy & Higham (SIAM J. Sci. Comput. 34(4), 2012), Table 2.1: θ_m,
# the largest α_p(T − I) at which the degree-m Padé approximant of
# log(I + X) is accurate to unit roundoff
_THETA = {1: 1.59e-5, 2: 2.31e-3, 3: 1.94e-2, 4: 6.21e-2, 5: 1.28e-1, 6: 2.06e-1, 7: 2.88e-1}


@functools.cache
def _gauss_legendre(m: int):
    """The m-point Gauss-Legendre rule on [0, 1] as (node, weight) pairs, by
    Golub & Welsch (Math. Comp. 23, 1969): the eigenvalues λ of the
    symmetric tridiagonal Jacobi matrix with off-diagonal k/√(4k² − 1),
    k = 1..m−1, give the nodes (1 + λ)/2, and the squared first components
    of its eigenvectors the weights."""
    k = np.arange(1.0, m)
    lam, v = eigh(np.diag(k / np.sqrt(4 * k * k - 1), -1))
    return tuple(zip((1 + lam) / 2, v[0] ** 2))


def _alpha(powers: list, p: int) -> float:
    """‖Xᵖ‖₁^(1/p), exactly, for X = powers[0]: powers holds X, X², …
    and is extended by gemm up to Xᵖ."""
    while len(powers) < p:
        powers.append(gemm(powers[-1], powers[0]))
    return float(np.max(np.sum(np.abs(powers[p - 1]), axis=0))) ** (1 / p)


def _unwinding(z) -> int:
    """The unwinding number of z, (z − log(exp(z)))/(2πj)."""
    return math.ceil((z.imag - math.pi) / (2 * math.pi))


def _root_minus_one(a, k: int):
    """a^(1/2^k) − 1 without the cancellation of forming the root first
    (Al-Mohy, Numer. Algorithms 59, 2012, Alg. 2)."""
    if k == 0:
        return a - 1
    if k == 1:
        return np.sqrt(a) - 1
    if np.angle(a) >= np.pi / 2:
        a, k = np.sqrt(a), k - 1
    z0 = a - 1
    a = np.sqrt(a)
    r = 1 + a
    for _ in range(1, k):
        a = np.sqrt(a)
        r = r * (1 + a)
    return z0 / r


def _power_superdiagonal(l1, l2, t12, p: float):
    """The (1, 2) entry of [[l1, t12], [0, l2]]^p (Higham & Lin, SIAM J.
    Matrix Anal. Appl. 32(3), 2011, eqs. 5.5 and 5.6)."""
    if l1 == l2:
        return t12 * p * l1 ** (p - 1)
    if abs(l2 - l1) > abs(l1 + l2) / 2:
        return t12 * ((l2**p) - (l1**p)) / (l2 - l1)
    log_l1, log_l2 = np.log(l1), np.log(l2)
    atanh = np.arctanh((l2 - l1) / (l2 + l1))
    u = _unwinding(log_l2 - log_l1)
    b = p * (atanh + np.pi * 1j * u) if u else p * atanh
    return t12 * np.exp((p / 2) * (log_l2 + log_l1)) * (2 * np.sinh(b) / (l2 - l1))


def _log_superdiagonal(l1, l2, t12):
    """The (1, 2) entry of log [[l1, t12], [0, l2]] (Higham, Functions of
    Matrices, 2008, eq. 11.28, with the unwinding number)."""
    if l1 == l2:
        return t12 / l1
    if abs(l2 - l1) > abs(l1 + l2) / 2:
        return t12 * (np.log(l2) - np.log(l1)) / (l2 - l1)
    atanh = np.arctanh((l2 - l1) / (l2 + l1))
    u = _unwinding(np.log(l2) - np.log(l1))
    if u:
        return t12 * 2 * (atanh + np.pi * 1j * u) / (l2 - l1)
    return t12 * 2 * atanh / (l2 - l1)


def _inverse_scaling(t0: np.ndarray):
    """(R, s, m): R = T0^(1/2^s) − I for the upper triangular T0, and the
    degree m of the Padé approximant that log(I + R) gets.

    Al-Mohy & Higham (2012), Alg. 4.1, lines 3-34, with the α_p taken
    from exact 1-norms of the powers of T − I (by gemm, at most five per
    root taken). The diagonal and superdiagonal of R are recomputed from
    T0's own entries, which avoids the cancellation of T − I.
    """
    n = t0.shape[0]
    eye = np.eye(n)
    # s0: the fewest roots that bring every eigenvalue within θ_7 of 1
    s0, d = 0, np.diagonal(t0)
    while np.max(np.abs(d - 1)) > _THETA[7]:
        s0, d = s0 + 1, np.sqrt(d)
    t = t0
    for _ in range(s0):
        t = scipy.linalg.sqrtm(t)
    s, extra = s0, 0
    powers = [t - eye]
    a2 = max(_alpha(powers, 2), _alpha(powers, 3))
    m = next((i for i in (1, 2) if a2 <= _THETA[i]), None)
    while m is None:
        d4 = _alpha(powers, 4)
        a3 = max(_alpha(powers, 3), d4)
        if a3 <= _THETA[7]:
            j = min(i for i in range(3, 8) if a3 <= _THETA[i])
            if j <= 6:
                m = j
                break
            # one more root instead of degree 7, at most twice
            if a3 / 2 <= _THETA[5] and extra < 2:
                t, s, extra = scipy.linalg.sqrtm(t), s + 1, extra + 1
                powers = [t - eye]
                continue
        eta = min(a3, max(d4, _alpha(powers, 5)))
        m = next((i for i in (6, 7) if eta <= _THETA[i]), None)
        if m is None:
            t, s = scipy.linalg.sqrtm(t), s + 1
            powers = [t - eye]
    r = powers[0]
    diag = np.diagonal(t0)
    for j in range(n):
        r[j, j] = _root_minus_one(diag[j], s)
    for j in range(n - 1):
        r[j, j + 1] = _power_superdiagonal(diag[j], diag[j + 1], t0[j, j + 1], 2.0**-s)
    return r, s, m


def _log_triangular(t0: np.ndarray) -> np.ndarray:
    """log T0 for an upper triangular T0 with no eigenvalue on (−∞, 0].

    Inverse scaling and squaring (Al-Mohy & Higham, 2012, Alg. 4.1): with
    R = T0^(1/2^s) − I, log T0 = 2^s·log(I + R), and log(I + R) is the
    degree-m Padé approximant, the m-point Gauss-Legendre sum of
    w_i (I + x_i R)⁻¹ R over the nodes x_i and weights w_i of
    _gauss_legendre(m), one triangular solve (trtrs) per node. The
    diagonal and superdiagonal are then recomputed from T0's entries.
    """
    r, s, m = _inverse_scaling(t0)
    n = t0.shape[0]
    eye = np.eye(n)
    trtrs = _routine("trtrs", _char(r))
    u = np.zeros_like(r)
    for node, weight in _gauss_legendre(m):
        u += _checked(trtrs(eye + node * r, weight * r), "Pade term")[0]
    u *= 2.0**s
    diag = np.diagonal(t0)
    u[np.diag_indices(n)] = np.log(diag)
    for j in range(n - 1):
        u[j, j + 1] = _log_superdiagonal(diag[j], diag[j + 1], t0[j, j + 1])
    return u


def log_principal(m, form: SchurForm | None = None) -> np.ndarray:
    """Principal matrix logarithm (eigenvalue imaginary parts in (−π, π)).

    Real input, off the branch cut, has a real logarithm and gets one.
    Computed on the Schur form M = Z T Z* (Higham, Functions of Matrices,
    2008, ch. 11): the form is made triangular (triangular),
    _log_triangular takes the logarithm U of the triangular T by inverse
    scaling and squaring, and log M = Z U Z*. form, a Schur form of M
    (real quasi-triangular or complex triangular), spares the gees; the
    branch-cut guard reads its eigenvalues. Every step is deterministic
    (exact norms, no random estimator), and every product, square root and
    solve runs on scipy's BLAS and LAPACK.
    """
    m = as_matrix(m, "M")
    _require_square(m, "M")
    if m.shape[0] == 0:
        return np.zeros((0, 0), m.dtype)
    form = schur(m) if form is None else form
    check_off_branch_cut(form.lam, "principal logarithm")
    t, z, *_ = triangular(form)
    x = gemm(gemm(z, _log_triangular(t)), z, hb=True)
    # the imaginary part of a real matrix's principal logarithm is rounding
    x = np.ascontiguousarray(x.real if m.dtype.kind == "f" else x)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ConvergenceFailure("the logarithm produced non-finite entries")
    return x


def _psd_factor(w: np.ndarray, name: str) -> np.ndarray:
    """Factor a Hermitian PSD matrix as L·L* via eigh, tolerating rank loss.

    fdbt's one indefiniteness test: an eigenvalue below -1e-8 times the
    largest in magnitude raises IndefiniteGramian, naming the Gramian
    ("controllability" or "observability"); smaller negative ones are
    rounding and are clipped to zero.
    """
    evals, vecs = eigh(hermitize(w))
    wnorm = max(float(np.max(np.abs(evals))) if evals.size else 0.0, ABS_FLOOR)
    if evals.size and float(np.min(evals)) < -1e-8 * wnorm:
        raise IndefiniteGramian(
            f"{name} Gramian is indefinite (min eigenvalue {float(np.min(evals)):.3e})"
        )
    clipped = np.clip(evals, 0.0, None)
    return vecs * np.sqrt(clipped)[None, :]


def _pinv_rows(t: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The given rows of the pseudo-inverse of t (singular values at most
    1e-15 of the largest count as zero, numpy's pinv rule)."""
    u, s, vh = svd(t)
    keep = s > 1e-15 * s[0]
    inv = np.where(keep, 1.0 / np.where(keep, s, 1.0), 0.0)
    # pinv(t) = V diag(inv) U*, and V's rows are the conjugated columns of Vh
    return gemm(vh[:, rows] * inv[:, None], u, ha=True, hb=True)


def balance_gramians(wc, wo):
    """Simultaneously diagonalize a Gramian pair.

    Returns (T, Tinv, sigma) with T⁻¹·Wc·T⁻* ≈ Σ and T*·Wo·T ≈ Σ,
    Σ = diag(sigma) non-increasing. Square-root balancing: PSD factors of
    both Gramians (_psd_factor, which raises IndefiniteGramian for a
    clearly indefinite one), then an SVD of L_o*·L_c. A direction whose
    sigma is at most rank_cutoff(sigma), the rule Balanced.rank_deficient
    reads off sigma, is regularized: its scaling is clamped at the cutoff
    and its row of T⁻¹ taken from a pseudo-inverse of T. The reported
    sigma keeps the true values.

    Two real Gramians are balanced in real arithmetic, so T is real: that
    fixes the gauge (the free phase of each balanced direction) that the
    complex factorizations leave to LAPACK.
    """
    wc = as_matrix(wc, "Wc")
    wo = as_matrix(wo, "Wo")
    _require_square(wc, "Wc")
    _require_square(wo, "Wo")
    if wc.shape != wo.shape:
        raise DimensionMismatch(f"Wc is {wc.shape} but Wo is {wo.shape}")
    n = wc.shape[0]
    if n == 0:
        z = np.zeros((0, 0), np.result_type(wc, wo))
        return z, z, np.zeros(0)

    lc = _psd_factor(wc, "controllability")
    lo = _psd_factor(wo, "observability")
    u, sigma, vh = svd(gemm(lo, lc, ha=True))

    cutoff = rank_cutoff(sigma)
    flags = sigma <= cutoff
    safe = np.maximum(sigma, max(cutoff, ABS_FLOOR))
    scale = 1.0 / np.sqrt(safe)

    t = gemm(lc, vh, hb=True) * scale[None, :]
    tinv = gemm(u * scale[None, :], lo, ha=True, hb=True)
    # a rank-deficient direction's row of T⁻¹ misses T⁻¹·T = I; patch that
    # row alone, since the pseudo-inverse's other rows lose the accuracy
    # the square-root formula gives the leading directions
    if flags.any():
        tinv[flags] = _pinv_rows(t, flags)
    return t, tinv, sigma
