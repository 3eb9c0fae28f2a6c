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
(syevd/heevd), singular values (gesdd), eigenvalues (gees or geev),
linear solves (gesv, after a gesdd rank test when guarded), and the
matrix square root and logarithm, both on a Schur form fdbt computes
itself: the band factors pass sqrt_principal their form's
quasi-triangular factor, and log_principal factors its argument by gees
first. scipy's own solve_continuous_lyapunov and logm multiply with
numpy's dot internally, so neither is called on a full matrix. This is
the only module of fdbt that imports scipy. numpy keeps elementwise
work: the diagonal steps of a frequency sweep's vectorized back
substitution (the rows above each panel of a real or complex form are
updated by one gemm, add_product) and the p x m singular values of each
response, which OpenBLAS never threads. Nothing here sets or pins a
thread count.
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
    NotPSD,
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
def _lwork(name: str, char: str, n: int) -> int:
    """The optimal workspace of gees or geev at order n, queried once."""
    if name == "gees":
        work = _routine("gees", char)(_no_sort, np.zeros((n, n), char), lwork=-1)[-2]
    else:
        work = _routine("geev_lwork", char)(n, compute_vl=0, compute_vr=0)[0]
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
    """The probe s ↦ left·(sI − T)⁻¹·right + d, a p × m complex array, for
    the upper (quasi-)triangular factor T of a Schur form.

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

    if not d.size:  # no inputs or no outputs: scipy's gemm refuses an empty c
        return lambda s: np.zeros(d.shape, complex)
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


def schur(a: np.ndarray, output: str = "real") -> SchurForm:
    """Schur form A = Z T Z* (gees), with the eigenvalues gees returns.

    T is real quasi-triangular for real A (eigenvalues in exact conjugate
    pairs) unless output="complex" asks for a triangular T (its diagonal).
    """
    n = a.shape[0]
    char = "D" if output == "complex" else _char(a)
    if n == 0:
        z = np.zeros((0, 0), char)
        return SchurForm(z, z, np.zeros(0, complex))
    out = _checked(
        _routine("gees", char)(_no_sort, a, lwork=_lwork("gees", char, n)), "Schur form"
    )
    return SchurForm(out[0], out[-2], out[2] + 1j * out[3] if char == "d" else out[2])


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix (dgeev or zgeev), as complex128."""
    n = a.shape[0]
    if n == 0:
        return np.zeros(0, complex)
    char = _char(a)
    geev = _routine("geev", char)
    out = _checked(
        geev(a, compute_vl=0, compute_vr=0, lwork=_lwork("geev", char, n)), "eigensolver"
    )
    return out[0] + 1j * out[1] if char == "d" else out[0]


def eigh(a: np.ndarray, vectors: bool = True):
    """Eigenvalues (ascending) of a Hermitian matrix, with eigenvectors
    unless vectors=False: syevd or heevd on the lower triangle."""
    char = _char(a)
    fn = _routine("heevd" if char == "D" else "syevd", char)
    w, v = _checked(fn(a, compute_v=int(vectors), lower=1), "Hermitian eigensolver")
    return (w, v) if vectors else w


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
    values count as zero. The one rank rule of fdbt: a guarded solve,
    balance_gramians and the eta chain all apply it.
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


def _pinned_probes(fn, m):
    """Run a scipy matrix function with reproducible norm-estimator probes.

    scipy's inverse-scaling decisions lean on a randomized 1-norm estimate
    that draws from the global legacy RandomState, so back-to-back calls on
    the same matrix can disagree in the last bits when the estimate sits on
    a decision boundary. Pinning the state for the call (and restoring the
    caller's stream afterwards) makes the result a pure function of m.
    """
    state = np.random.get_state()
    np.random.seed(0x5EED)
    try:
        return fn(m)
    finally:
        np.random.set_state(state)


def sqrt_principal(m, spectrum=None) -> np.ndarray:
    """Principal matrix square root: X·X = M with spectrum of X in the open RHP.

    Schur-based (the real Schur form for real input, whose root is real).
    Inside fdbt the band factors pass it the upper (quasi-)triangular
    factor of their own Schur form, so the root is taken on that form.
    Input must have no eigenvalue on (−∞, 0]; spectrum, the eigenvalues of
    M if the caller holds them, spares that check its own eigenvalue solve.
    """
    m = as_matrix(m, "M")
    _require_square(m, "M")
    if m.shape[0] == 0:
        return np.zeros((0, 0), m.dtype)
    lam = eigvals(m) if spectrum is None else np.asarray(spectrum)
    check_off_branch_cut(lam, "principal square root")
    # the Schur method draws no random probes, unlike logm's estimator
    x = scipy.linalg.sqrtm(m)
    x = np.asarray(x, dtype=m.dtype)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ConvergenceFailure("sqrtm produced non-finite entries")
    return x


def log_principal(m) -> np.ndarray:
    """Principal matrix logarithm (eigenvalue imaginary parts in (−π, π)).

    Real input, off the branch cut, has a real logarithm and gets one.
    Computed on the Schur form M = Z T Z* (Higham, Functions of Matrices,
    2008, ch. 11): a real Schur form with 2×2 blocks is made triangular by
    rsf2csf, scipy's logm takes the logarithm U of the triangular T, and
    log M = Z U Z*.
    """
    m = as_matrix(m, "M")
    _require_square(m, "M")
    if m.shape[0] == 0:
        return np.zeros((0, 0), m.dtype)
    t, z, lam, _ = schur(m)
    check_off_branch_cut(lam, "principal logarithm")
    if np.any(np.diagonal(t, -1)):
        t, z = scipy.linalg.rsf2csf(t, z)
    x = gemm(gemm(z, _pinned_probes(scipy.linalg.logm, t)), z, hb=True)
    # the imaginary part of a real matrix's principal logarithm is rounding
    x = np.ascontiguousarray(x.real if m.dtype.kind == "f" else x)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ConvergenceFailure("logm produced non-finite entries")
    return x


def _psd_factor(w: np.ndarray, name: str) -> np.ndarray:
    """Factor a Hermitian PSD matrix as L·L* via eigh, tolerating rank loss."""
    evals, vecs = eigh(hermitize(w))
    wnorm = max(float(np.max(np.abs(evals))) if evals.size else 0.0, ABS_FLOOR)
    if evals.size and float(np.min(evals)) < -1e-8 * wnorm:
        raise NotPSD(f"{name} has eigenvalue {float(np.min(evals)):.3e}, below -1e-8*norm")
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

    Returns (T, Tinv, sigma, flags) with T⁻¹·Wc·T⁻* ≈ Σ and T*·Wo·T ≈ Σ,
    Σ = diag(sigma) non-increasing. Square-root balancing: PSD factors of
    both Gramians, then an SVD of L_o*·L_c. Rank-deficient directions are
    regularized (their scaling is clamped at the rank cutoff, their rows
    of T⁻¹ taken from a pseudo-inverse of T) and flagged; the reported
    sigma keeps the true values.

    flags[i] is True when sigma[i] is at most rank_cutoff(sigma), the
    rule Balanced.rank_deficient reads off sigma. Two real Gramians are
    balanced in real arithmetic, so T is real: that fixes the gauge (the
    free phase of each balanced direction) that the complex
    factorizations leave to LAPACK.
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
        return z, z, np.zeros(0), np.zeros(0, dtype=bool)

    lc = _psd_factor(wc, "Wc")
    lo = _psd_factor(wo, "Wo")
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
    return t, tinv, sigma, flags
