"""Band-limited balanced truncation with a computable in-band error bound.

The input realization keeps its state matrix but exchanges B, C, D for
band-weighted versions built from two factors of A over the band
[w1, w2]:

    M = principal sqrt of wd^2 (j w1 I - A)^(-1) (j w2 I - A)^(-1)
    N = (j wc I - A) (j w1 I - A)^(-1) (j w2 I - A)^(-1)

with wd and wc the half-width and center of the band. Balancing the
resulting Gramian pair and truncating preserves stability, and the
truncated tail yields a bound on the error at every frequency inside the
band: sum over dropped indices of sqrt(eta_i), where each eta_i is
assembled from dilated two-row-block matrices of the one-step truncation
chain in fixed balanced coordinates. M squares back to its argument and
commutes with N and A, so the chain's one product M^(-1) N M^(-1) is
(j wc I - A) / wd^2 and no order of the chain needs a square root.

Both factors are built on a Schur form of A: the real one for a real A
over a band centred at zero (wc = 0, w1 = -wd), where both factors are
real, M^2 = wd^2 (A^2 + wd^2 I)^(-1) and N = -A (A^2 + wd^2 I)^(-1), so
the band-weighted realization, its Gramians, the balancing transform and
the whole chain stay in real arithmetic; the complex one otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import standard_gramians
from .errors import (
    FdbtError,
    InvalidParameters,
    NotHurwitz,
    OrderOutOfRange,
    SingularReconstruction,
    SingularShift,
)
from .linalg import (
    SHIFT_TOL,
    check_off_branch_cut,
    eigvals,
    gemm,
    jw,
    schur,
    solve,
    solve_guarded,
    sqrt_principal,
)
from .reduction import Balanced, Extended, ReductionResult, balance, check_order, ef_bound
from .sysmodel import StateSpace, is_hurwitz


@dataclass(frozen=True)
class IntervalConfig:
    """Frequency band [w1, w2] with its half-width and center."""

    w1: float
    w2: float

    def __post_init__(self):
        w1, w2 = float(self.w1), float(self.w2)
        if not (math.isfinite(w1) and math.isfinite(w2) and w1 < w2):
            raise InvalidParameters("band needs finite w1 < w2")
        object.__setattr__(self, "w1", w1)
        object.__setattr__(self, "w2", w2)

    @property
    def wd(self) -> float:
        return (self.w2 - self.w1) / 2.0

    @property
    def wc(self) -> float:
        return (self.w2 + self.w1) / 2.0


@dataclass(frozen=True)
class EtaStep:
    """One truncation step of the eta chain: its index i and eta_i."""

    index: int
    eta: float


@dataclass(frozen=True, eq=False)
class EtaTerms:
    """eta_i for i = r+1..n plus per-step diagnostics."""

    eta: np.ndarray
    per_step: tuple


def _check_band_spectrum(lam: np.ndarray, cfg: IntervalConfig) -> np.ndarray:
    """Refuse a state-matrix spectrum lam for which M or N is undefined.

    SingularShift when a band edge j w lies within SHIFT_TOL of an
    eigenvalue (a resolvent is singular), BranchCutViolation when an
    eigenvalue of wd^2 (j w1 I - A)^(-1) (j w2 I - A)^(-1), the argument
    of M's square root, lies on the closed negative real axis. Returns
    those eigenvalues, the guarded spectrum of the square root's argument.
    """
    if lam.size == 0:
        return np.zeros(0, complex)
    for w in (cfg.w1, cfg.w2):
        if float(np.min(np.abs(1j * w - lam))) < SHIFT_TOL:
            raise SingularShift(
                f"band edge frequency {w} is within {SHIFT_TOL} of an eigenvalue"
            )
    values = cfg.wd**2 / ((1j * cfg.w1 - lam) * (1j * cfg.w2 - lam))
    check_off_branch_cut(values, "principal square root")
    return values


def _arithmetic(a: np.ndarray, cfg: IntervalConfig) -> str:
    """The Schur form a's band factors take: real for real a over a band
    centred at zero, where the factors are real, complex otherwise."""
    return "real" if a.dtype.kind == "f" and cfg.wc == 0.0 else "complex"


def _sandwich(a: np.ndarray, y: np.ndarray, cfg: IntervalConfig) -> np.ndarray:
    """M^(-1) N M^(-1) y for the band factors of a, without forming them.

    M, N and a commute and M^2 = wd^2 (j w1 I - a)^(-1) (j w2 I - a)^(-1),
    so M^(-1) N M^(-1) = N M^(-2) = (j wc I - a) / wd^2.
    """
    return (jw(cfg.wc) * y - gemm(a, y)) / cfg.wd**2


def _band_form(a: np.ndarray, cfg: IntervalConfig, form=None):
    """a's Schur form in the arithmetic _arithmetic picks: form, if in it."""
    arithmetic = _arithmetic(a, cfg)
    if form is None or (form.t.dtype.kind == "f") != (arithmetic == "real"):
        form = schur(a, arithmetic)
    return form


def _band_factors(a: np.ndarray, cfg: IntervalConfig, form=None):
    """(M, N) factors of a state matrix over the band, as dense matrices.

    The Schur method (Higham, Functions of Matrices, 2008, ch. 4 and 6): on
    a = Z T Z* (_band_form), with the quasi-triangular
    X = (j w1 I - T)(j w2 I - T), M = Z sqrt(wd^2 X^(-1)) Z* and
    N = Z (j wc I - T) X^(-1) Z*. The spectrum guards, and the square
    root's, read the form's eigenvalues.
    """
    t, z, lam, _ = _band_form(a, cfg, form)
    values = _check_band_spectrum(lam, cfg)
    eye = np.eye(a.shape[0])
    # expanded, so that a real T over a band centred at zero gives T^2 + wd^2 I
    x = gemm(t, t) - 2.0 * jw(cfg.wc) * t - cfg.w1 * cfg.w2 * eye
    xinv = solve(x, eye, SingularShift("a band edge frequency is an eigenvalue"))
    root = sqrt_principal(cfg.wd**2 * xinv, values)
    n = gemm(jw(cfg.wc) * eye - t, xinv)
    return gemm(gemm(z, root), z, hb=True), gemm(gemm(z, n), z, hb=True)


def build_interval_extended(sys: StateSpace, cfg: IntervalConfig) -> Extended:
    """Band-weighted realization: (A, M B, C M, D + C N B).

    It keeps sys's state matrix and shares the Schur form the band factors
    take: sys's own, or the complex one that complex factors of a real A
    take and make the realization's (it is then complex data).
    """
    form = _band_form(sys.A, cfg, sys._form)
    m, n = _band_factors(sys.A, cfg, form)
    ext = StateSpace(sys.A, gemm(m, sys.B), gemm(sys.C, m), sys.D + gemm(gemm(sys.C, n), sys.B))
    if ext.A.dtype == form.t.dtype:
        ext.__dict__["_form"] = form
    return Extended(ext, cfg)


def interval_gramians(ext: Extended) -> Balanced:
    """The band-weighted realization balanced on its band Gramians.

    The band Gramians are the standard Gramian pair of the band-weighted
    realization (state matrix unchanged, band-weighted B and C); .sys is
    that realization in their balanced coordinates.
    """
    if not is_hurwitz(ext.sys).stable:
        raise NotHurwitz("band Gramians need a Hurwitz state matrix")
    return balance(ext.sys, *standard_gramians(ext.sys))


class _EtaChain:
    """The eta chain of one balanced system, memoized by step index.

    eta_i couples the orders i-1 and i of the fixed balanced coordinates,
    so it depends on i and not on the order truncated at: steps computed
    for one order serve every higher one, bit for bit. Only steps that
    succeeded are kept, and a failing step is recomputed when asked again,
    so every order raises exactly what a fresh chain from it raises: order
    n's spectrum guards first, then order r's, then steps r+1, r+2, ...
    (order i's spectrum guards, then the sigma cutoff). A guard that passed
    passes again, so each order's is run once.

    The band-weighted input and output maps in balanced coordinates, Bx and
    Cx, are gram.sys.B and gram.sys.C (T^(-1) M B and C M T), so no order is
    factored. A real balanced system over a band centred at zero keeps
    every block, guard and product real.
    """

    def __init__(self, sys_balanced: StateSpace, gram: Balanced, cfg: IntervalConfig):
        # Bx and Cx come from gram.sys; another record's maps would give a
        # wrong bound without an error
        if not np.array_equal(gram.sys.A, sys_balanced.A):
            raise InvalidParameters(
                "gram must be interval_gramians' record of sys_balanced's band"
            )
        self.sys, self.cfg = sys_balanced, cfg
        self.io = (gram.sys.B, gram.sys.C)
        self.sigma = np.asarray(gram.sigma, dtype=float)
        top = self.sigma[0] if self.sigma.size and self.sigma[0] > 0 else 1.0
        self.cutoff = sys_balanced.n * np.finfo(float).eps * top
        m_io, p_io = sys_balanced.m, sys_balanced.p
        dtype = np.result_type(sys_balanced.A, *self.io)
        self.swap = np.zeros((m_io + p_io, p_io + m_io), dtype=dtype)
        self.swap[:m_io, p_io:] = np.eye(m_io)
        self.swap[m_io:, :p_io] = np.eye(p_io)
        self.steps = {}  # i -> EtaStep
        self.guarded = set()  # orders whose spectrum guards passed

    def _guard(self, k: int) -> None:
        """Order k's spectrum guards, the rules _band_factors applies to the
        eigenvalues of its Schur form."""
        if k in self.guarded:
            return
        try:
            _check_band_spectrum(eigvals(self.sys.A[:k, :k]), self.cfg)
        except FdbtError as exc:
            raise type(exc)(f"truncation order {k}: {exc}") from exc
        self.guarded.add(k)

    def terms(self, r: int) -> EtaTerms:
        n = self.sys.n
        r = int(r)
        if not 0 <= r <= n:
            raise OrderOutOfRange(f"order {r} outside 0..{n}")
        if r == n:
            return EtaTerms(np.zeros(0), ())
        self._guard(n)
        for i in range(r + 1, n + 1):
            if i not in self.steps:
                self._guard(i - 1)
                self._guard(i)
                self.steps[i] = self._step(i)
        steps = tuple(self.steps[i] for i in range(r + 1, n + 1))
        return EtaTerms(np.array([st.eta for st in steps]), steps)

    def _step(self, i: int) -> EtaStep:
        sigma = self.sigma
        if sigma[i - 1] <= self.cutoff:
            raise SingularReconstruction(
                f"truncation order {i}: sigma below numerical rank, eta undefined"
            )
        bx, cx = self.io
        s_i = float(sigma[i - 1])
        core = 0.0
        for k, sign in ((i - 1, 1.0), (i, -1.0)):
            bk = bx[:k, :]
            ck = cx[:, :k].conj().T
            scaled = s_i / sigma[:k, None]
            # this diagonal block's part of Cdil NN Bdil: X* M^(-1) N M^(-1) Y
            # with Y, X the right-hand sides of its rows of Bdil and Cdil*
            y = np.hstack([bk, sign * scaled * ck])
            x = np.hstack([-sign * ck, -scaled * bk])
            core = core + gemm(x, _sandwich(self.sys.A[:k, :k], y, self.cfg), ha=True)

        k_mat = -gemm(core, s_i * self.swap)
        # Hermitian part with the 0.5: He(X) = (X + X*)/2 throughout
        herm = (2.0 * s_i) ** 2 * np.eye(k_mat.shape[0]) + (k_mat + k_mat.conj().T) / 2.0
        return EtaStep(index=i, eta=float(np.linalg.svd(herm, compute_uv=False)[0]))


def interval_eta(
    sys_balanced: StateSpace, gram: Balanced, cfg: IntervalConfig, r: int
) -> EtaTerms:
    """The eta_i ingredients of the in-band bound, for i = r+1 .. n.

    sys_balanced is the input in the band-balanced coordinates and gram the
    Balanced record of interval_gramians for the same system and band, of
    which sigma and the balanced band-weighted maps gram.sys.B and
    gram.sys.C are read. A record whose state matrix differs from
    sys_balanced's raises InvalidParameters.
    Works on the one-step truncation chain A_k = A_b[:k, :k] of the fixed
    balanced coordinates. For each dropped index i the dilated matrices
    couple the order-(i-1) and order-i truncations:

        MM = diag(M_{i-1}, M_i)        NN = diag(N_{i-1}, N_i)
        SS = diag(sigma_{1..i-1}, sigma_{1..i})

        Bdil = [ MM^(-1) [Bx_{i-1}; Bx_i] ,
                 sigma_i MM^(-1) SS^(-1) [Cx_{i-1}*; -Cx_i*] ]
        Cdil = [ (MM^(-*) [-Cx_{i-1}*; Cx_i*])* ;
                 sigma_i (MM^(-*) SS^(-1) [-Bx_{i-1}; -Bx_i])* ]

    with Bx, Cx the band-weighted input/output in balanced coordinates.
    Then K = -(Cdil NN Bdil) S with S the sigma_i-scaled block swap, and
    eta_i = sigma_max of (2 sigma_i)^2 I + (K + K*)/2.

    MM, NN and the dilated matrices are never formed. Cdil NN Bdil is a sum
    of one term per diagonal block, X_k* M_k^(-1) N_k M_k^(-1) Y_k with Y_k
    and X_k the right-hand sides above, and since M_k, N_k and A_k commute
    with M_k^2 = wd^2 (j w1 I - A_k)^(-1) (j w2 I - A_k)^(-1),

        M_k^(-1) N_k M_k^(-1) = N_k M_k^(-2) = (j wc I - A_k) / wd^2,

    so each term needs one product with A_k and no factor of M_k. Bx and Cx
    are read off gram.sys, so no order is factored either: each order from r
    to n costs one eigenvalue solve of A_k for the spectrum guards (band edge
    on an eigenvalue, square-root branch cut), real for a real system over
    a band centred at zero, plus O(k^2 (m + p)) products.

    This is a fresh chain from r. eta_i does not depend on r, so a caller
    bounding several orders of one system and band should prepare it once
    (prepare_interval) and ask IntervalBalanced.eta, which walks the chain
    once for all of them and returns the same values bit for bit.
    """
    return _EtaChain(sys_balanced, gram, cfg).terms(r)


@dataclass(frozen=True, eq=False)
class IntervalBalanced:
    """The order-independent part of int-fdbt for one system and band.

    Holds the input system, its band-weighted realization, that
    realization balanced on its band Gramians (gram.sys carries the
    band-weighted input and output maps Bx, Cx in balanced coordinates),
    and the input in the same coordinates; interval_truncate does the
    per-order rest. The eta chain behind the in-band bound is shared by
    every order (eta_i depends on i, not on r), so truncating at several
    orders walks it once.
    """

    sys: StateSpace
    ext: Extended
    gram: Balanced
    balanced: StateSpace

    def __post_init__(self):
        chain = _EtaChain(self.balanced, self.gram, self.ext.config)
        object.__setattr__(self, "_chain", chain)

    def eta(self, r: int) -> EtaTerms:
        """eta_i for i = r+1 .. n, equal bit for bit to a fresh interval_eta."""
        return self._chain.terms(r)


def prepare_interval(sys: StateSpace, cfg: IntervalConfig) -> IntervalBalanced:
    """Everything int-fdbt computes before it picks an order.

    Requires a Hurwitz input: builds the band-weighted realization, its
    band Gramians and the balancing transform, once per system and band.
    The band-weighted realization keeps the input's A, so the balanced
    input shares the balanced state matrix of gram.sys.
    """
    if not is_hurwitz(sys).stable:
        raise NotHurwitz("band-limited reduction requires a Hurwitz system")
    ext = build_interval_extended(sys, cfg)
    gram = interval_gramians(ext)
    balanced = StateSpace(gram.sys.A, gemm(gram.Tinv, sys.B), gemm(sys.C, gram.T), sys.D)
    return IntervalBalanced(sys, ext, gram, balanced)


def interval_truncate(
    prep: IntervalBalanced, r: int, with_bounds: bool = True, with_ef_bound: bool = True
) -> ReductionResult:
    """Reduce a prepared system and band to order r (see interval_reduce)."""
    r = check_order(r, prep.sys.n)
    a_r = prep.balanced.A[:r, :r]
    # one Schur form of a_r, in the arithmetic its band factors take,
    # serves them and, where the reduced model keeps that arithmetic, its
    # poles
    form = _band_form(a_r, prep.ext.config)
    m_r, n_r = _band_factors(a_r, prep.ext.config, form)
    singular = SingularReconstruction("band factor is numerically singular")
    b_r = solve_guarded(m_r, prep.gram.sys.B[:r, :], singular)
    # m_r^T has m_r's singular values, which the guard has just checked
    c_r = solve(m_r.T, prep.gram.sys.C[:, :r].T, singular).T
    d_r = prep.ext.sys.D - gemm(gemm(c_r, n_r), b_r)
    reduced = StateSpace(a_r, b_r, c_r, d_r)
    if reduced.A.dtype == form.t.dtype:
        reduced.__dict__["_form"] = form

    stable = is_hurwitz(reduced).stable
    warnings = ()
    if not stable:
        # theory says this cannot happen for a Hurwitz input; keep honest
        warnings += ("reduced system is not Hurwitz",)
    if prep.gram.rank_deficient:
        warnings += (
            f"{len(prep.gram.rank_deficient)} balanced directions below numerical rank",
        )

    bounds = {}
    if with_bounds:
        bounds["interval"] = interval_bound(prep.eta(r))
        if with_ef_bound and stable:
            bounds["ef"] = interval_ef_bound(prep, reduced, r)
        elif with_ef_bound:
            warnings += ("ef bound unavailable: reduced system not Hurwitz",)
    return ReductionResult(
        reduced=reduced,
        method="int-fdbt",
        order=r,
        bounds=bounds,
        stable=stable,
        sigma=tuple(float(s) for s in prep.gram.sigma),
        warnings=warnings,
    )


def interval_reduce(
    sys: StateSpace,
    cfg: IntervalConfig,
    r: int,
    with_bounds: bool = True,
    with_ef_bound: bool = True,
) -> ReductionResult:
    """Reduce to order r by band-weighted balanced truncation.

    The reduced state matrix is the leading balanced block; the reduced
    B, C, D are reassembled through the band factors of the reduced state
    matrix itself, so that building the band-weighted realization of the
    result matches plain truncation of the balanced band-weighted one.
    Stability of the input is required and is preserved by construction.

    This is interval_truncate(prepare_interval(sys, cfg), r, ...). A caller
    reducing one system and band at several orders should prepare once and
    truncate per order: the Gramians, the balancing and the eta chain are
    then computed once.

    with_bounds=False skips the eta chain and the whole-axis sweeps (the eta
    chain costs one eigenvalue solve per order from r to n, real for a real
    system over a band centred at zero). with_ef_bound=False keeps the
    in-band bound but drops the whole-axis sweep terms: two dense H-infinity
    estimates whose cost grows with the full order rather than the reduced
    one.
    """
    check_order(r, sys.n)
    return interval_truncate(prepare_interval(sys, cfg), r, with_bounds, with_ef_bound)


def interval_bound(eta: EtaTerms) -> float:
    """In-band error bound: sum of sqrt(eta_i) over the dropped tail."""
    if eta.eta.size == 0:
        return 0.0
    return float(np.sum(np.sqrt(eta.eta)))


def interval_ef_bound(prep: IntervalBalanced, reduced: StateSpace, r: int) -> float:
    """Entire-frequency bound: twice the sigma tail plus two sweep terms.

    The sweep terms estimate the whole-axis gaps between the prepared
    system and the reduced one and their band-weighted counterparts (see
    reduction.ef_bound); both systems must be Hurwitz.
    """
    return ef_bound(
        prep.sys, prep.ext, reduced, build_interval_extended, prep.gram.sigma, r
    )
