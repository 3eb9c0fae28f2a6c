"""Dense matrix kernels used by every reduction method.

All routines work on square numpy arrays and are pure: inputs are never
mutated. They are dtype-generic: real (float64) input is solved in real
arithmetic and comes back real, anything complex runs in complex128.
Tolerances are relative to input norms with an absolute floor of 1e-14.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

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


def eigvals(a: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix (dgeev or zgeev), typed on non-convergence."""
    try:
        return scipy.linalg.eigvals(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigensolver failed: {exc}") from exc


def solve_lyapunov(a, q, spectrum=None) -> np.ndarray:
    """Solve A·X + X·A* + Q = 0 for Hermitian Q.

    Uses the Schur-form (Bartels-Stewart) solver, in real arithmetic when
    A and Q are real. The result is Hermitian-symmetrized. Raises
    SingularSylvester when the spectrum of A makes the equation singular
    (some λ_i + conj(λ_j) ≈ 0), which the pre-check detects before the
    factorization is attempted; spectrum, the eigenvalues of A if the
    caller holds them, spares that check its own eigenvalue solve.
    """
    a = as_matrix(a, "A")
    q = as_matrix(q, "Q")
    # real only when both are: scipy's solver mishandles a real A with a complex Q
    dtype = np.result_type(a, q)
    a, q = a.astype(dtype, copy=False), q.astype(dtype, copy=False)
    _require_square(a, "A")
    _require_square(q, "Q")
    if a.shape != q.shape:
        raise DimensionMismatch(f"A is {a.shape} but Q is {q.shape}")
    n = a.shape[0]
    if n == 0:
        return np.zeros((0, 0), dtype)

    lam = eigvals(a) if spectrum is None else np.asarray(spectrum)
    # pairing λ_i + conj(λ_j) = 0 makes the operator singular
    pair_sums = np.abs(lam[:, None] + lam.conj()[None, :])
    tol = max(ABS_FLOOR, 1e-12 * max(1.0, float(np.max(np.abs(lam)))))
    if float(np.min(pair_sums)) < tol:
        raise SingularSylvester(
            "spectrum of A contains a pair with lambda_i + conj(lambda_j) ~ 0"
        )

    x = scipy.linalg.solve_continuous_lyapunov(a, -q)
    x = hermitize(x)
    residual = a @ x + x @ a.conj().T + q
    rel = float(np.linalg.norm(residual)) / max(1.0, float(np.linalg.norm(q)))
    if rel > 1e-10:
        # near-singular pairings that slipped past the eigenvalue check
        raise SingularSylvester(f"Lyapunov residual {rel:.3e} exceeds 1e-10")
    return x


def solve_guarded(m: np.ndarray, rhs: np.ndarray, error: FdbtError) -> np.ndarray:
    """m^(-1) rhs, raising error when m is numerically singular.

    Singular means the smallest singular value of m is at most
    n·eps times the largest (or m is zero).
    """
    if m.shape[0]:
        sv = np.linalg.svd(m, compute_uv=False)
        if sv[0] == 0.0 or sv[-1] <= m.shape[0] * np.finfo(float).eps * sv[0]:
            raise error
    return np.linalg.solve(m, rhs)


def check_off_branch_cut(values: np.ndarray, what: str) -> None:
    """Reject a spectrum touching the closed negative real axis (incl. 0)."""
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
            f"{what} undefined: an eigenvalue lies on the closed negative real axis"
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


def sqrt_principal(m) -> np.ndarray:
    """Principal matrix square root: X·X = M with spectrum of X in the open RHP.

    Schur-based (the real Schur form for real input, whose root is real).
    Input must have no eigenvalue on (−∞, 0].
    """
    m = as_matrix(m, "M")
    _require_square(m, "M")
    if m.shape[0] == 0:
        return np.zeros((0, 0), m.dtype)
    check_off_branch_cut(eigvals(m), "principal square root")
    # the Schur method draws no random probes, unlike logm's estimator
    x = scipy.linalg.sqrtm(m)
    x = np.asarray(x, dtype=m.dtype)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ConvergenceFailure("sqrtm produced non-finite entries")
    return x


def log_principal(m) -> np.ndarray:
    """Principal matrix logarithm (eigenvalue imaginary parts in (−π, π)).

    Real input, off the branch cut, has a real logarithm and gets one.
    """
    m = as_matrix(m, "M")
    _require_square(m, "M")
    if m.shape[0] == 0:
        return np.zeros((0, 0), m.dtype)
    check_off_branch_cut(eigvals(m), "principal logarithm")
    x = _pinned_probes(scipy.linalg.logm, m)
    x = np.asarray(x, dtype=m.dtype)
    if not np.all(np.isfinite(x.view(np.float64))):
        raise ConvergenceFailure("logm produced non-finite entries")
    return x


def _psd_factor(w: np.ndarray, name: str) -> np.ndarray:
    """Factor a Hermitian PSD matrix as L·L* via eigh, tolerating rank loss."""
    wh = hermitize(w)
    evals, vecs = np.linalg.eigh(wh)
    wnorm = max(float(np.max(np.abs(evals))) if evals.size else 0.0, ABS_FLOOR)
    if evals.size and float(np.min(evals)) < -1e-8 * wnorm:
        raise NotPSD(f"{name} has eigenvalue {float(np.min(evals)):.3e}, below -1e-8*norm")
    clipped = np.clip(evals, 0.0, None)
    return vecs * np.sqrt(clipped)[None, :]


def balance_gramians(wc, wo):
    """Simultaneously diagonalize a Gramian pair.

    Returns (T, Tinv, sigma, flags) with T⁻¹·Wc·T⁻* ≈ Σ and T*·Wo·T ≈ Σ,
    Σ = diag(sigma) non-increasing. Square-root balancing: PSD factors of
    both Gramians, then an SVD of L_o*·L_c. Rank-deficient directions are
    regularized (their scaling is clamped at the rank cutoff, their rows
    of T⁻¹ taken from a pseudo-inverse of T) and flagged; the reported
    sigma keeps the true values.

    flags[i] is True when sigma[i] fell below the numerical-rank cutoff
    n·eps·sigma[0]. Two real Gramians are balanced in real arithmetic, so
    T is real: that fixes the gauge (the free phase of each balanced
    direction) that the complex factorizations leave to LAPACK.
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
    u, sigma, vh = np.linalg.svd(lo.conj().T @ lc)

    cutoff = n * np.finfo(float).eps * (sigma[0] if sigma[0] > 0 else 1.0)
    flags = sigma < cutoff
    safe = np.maximum(sigma, max(cutoff, ABS_FLOOR))
    scale = 1.0 / np.sqrt(safe)

    t = lc @ vh.conj().T * scale[None, :]
    tinv = (u * scale[None, :]).conj().T @ lo.conj().T
    # a rank-deficient direction's row of T⁻¹ misses T⁻¹·T = I; patch that
    # row alone, since the pseudo-inverse's other rows lose the accuracy
    # the square-root formula gives the leading directions
    if flags.any():
        tinv[flags] = np.linalg.pinv(t)[flags]
    return t, tinv, sigma, flags
