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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .baselines import prepare_standard
from .errors import (
    InvalidParameters,
    NotHurwitz,
    OrderOutOfRange,
    SingularReconstruction,
    SingularShift,
)
from .linalg import SHIFT_TOL, gemm, jw, schur, solve, sqrt_principal
from .reduction import (
    Balanced,
    Extended,
    IntervalConfig,
    ReductionResult,
    check_order,
    tail_bound,
    truncation_result,
)
from .sysmodel import StateSpace, hinf_estimate, is_hurwitz


@dataclass(frozen=True, eq=False)
class EtaTerms:
    """eta_i for i = r+1..n, in order: eta[k] is eta_(r+1+k)."""

    eta: np.ndarray


def _check_band_spectrum(lam: np.ndarray, cfg: IntervalConfig) -> np.ndarray:
    """The spectrum of M's square-root argument, after the shift test.

    SingularShift when a band edge j w lies within SHIFT_TOL of an
    eigenvalue of the state-matrix spectrum lam (a resolvent is singular).
    Otherwise returns the eigenvalues of wd^2 (j w1 I - A)^(-1)
    (j w2 I - A)^(-1), which _band_factors hands to sqrt_principal: its
    branch-cut test (BranchCutViolation) is the only one they get.
    """
    if lam.size == 0:
        return np.zeros(0, complex)
    for w in (cfg.w1, cfg.w2):
        if float(np.min(np.abs(1j * w - lam))) < SHIFT_TOL:
            raise SingularShift(
                f"band edge frequency {w} is within {SHIFT_TOL} of an eigenvalue"
            )
    return cfg.wd**2 / ((1j * cfg.w1 - lam) * (1j * cfg.w2 - lam))


def _sandwich(a: np.ndarray, y: np.ndarray, cfg: IntervalConfig) -> np.ndarray:
    """M^(-1) N M^(-1) y for the band factors of a, without forming them.

    M, N and a commute and M^2 = wd^2 (j w1 I - a)^(-1) (j w2 I - a)^(-1),
    so M^(-1) N M^(-1) = N M^(-2) = (j wc I - a) / wd^2.
    """
    return (jw(cfg.wc) * y - gemm(a, y)) / cfg.wd**2


def _band_form(a: np.ndarray, cfg: IntervalConfig, form=None):
    """The Schur form a's band factors take, form if in it: real for a real
    a over a band centred at zero, where the factors are real, else complex."""
    real = a.dtype.kind == "f" and cfg.wc == 0.0
    if form is None or (form.t.dtype.kind == "f") != real:
        form = schur(a if real else a.astype(complex, copy=False))
    return form


def _band_factors(a: np.ndarray, cfg: IntervalConfig, form=None):
    """(M, N) factors of a state matrix over the band, as dense matrices.

    The Schur method (Higham, Functions of Matrices, 2008, ch. 4 and 6): on
    a = Z T Z* (_band_form), with the quasi-triangular
    X = (j w1 I - T)(j w2 I - T), M = Z sqrt(wd^2 X^(-1)) Z* and
    N = Z (j wc I - T) X^(-1) Z*. The shift test (_check_band_spectrum)
    and the square root's branch-cut test read the form's eigenvalues.
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


def _on_form(sys: StateSpace, form) -> StateSpace:
    """sys, holding form as its cached Schur form if form is in sys's arithmetic."""
    if sys.A.dtype == form.t.dtype:
        sys.__dict__["_form"] = form
    return sys


def build_interval_extended(sys: StateSpace, cfg: IntervalConfig) -> Extended:
    """Band-weighted realization: (A, M B, C M, D + C N B).

    It keeps sys's state matrix and shares the Schur form the band factors
    take: sys's own, or the complex one that complex factors of a real A
    take and make the realization's (it is then complex data).
    """
    form = _band_form(sys.A, cfg, sys._form)
    m, n = _band_factors(sys.A, cfg, form)
    ext = StateSpace(sys.A, gemm(m, sys.B), gemm(sys.C, m), sys.D + gemm(gemm(sys.C, n), sys.B))
    return Extended(_on_form(ext, form), cfg)


def _band_gap(sys: StateSpace, cfg: IntervalConfig, form) -> StateSpace:
    """G_ext - G for sys's band-weighted realization G_ext, on sys's A and form.

    M, N and A commute and M^2 = wd^2 X^(-1), X = (j w1 I - A)(j w2 I - A), so
    G_ext - G = C (sI - A)^(-1) (wd^2 X^(-1) - I) B + C (j wc I - A) X^(-1) B.
    """
    a = sys.A
    x = gemm(a, a) - 2.0 * jw(cfg.wc) * a - cfg.w1 * cfg.w2 * np.eye(sys.n)
    y = solve(x, sys.B, SingularShift("a band edge frequency is an eigenvalue"))
    gap = StateSpace(a, cfg.wd**2 * y - sys.B, sys.C, gemm(sys.C, jw(cfg.wc) * y - gemm(a, y)))
    return _on_form(gap, form)


def interval_gramians(ext: Extended) -> Balanced:
    """The band-weighted realization balanced on its band Gramians.

    The band Gramians are the standard Gramian pair of the band-weighted
    realization (state matrix unchanged, band-weighted B and C); .sys is
    that realization in their balanced coordinates. A state matrix that is
    not Hurwitz is refused by prepare_standard (NotHurwitz); through
    prepare_interval, which checks the input first, that cannot happen.
    """
    return prepare_standard(ext.sys)


class _EtaChain:
    """The eta chain of one interval_gramians record, memoized by step index.

    eta_i couples the orders i-1 and i of the fixed balanced coordinates,
    so it depends on i and not on the order truncated at: steps computed
    for one order serve every higher one, bit for bit. Only steps that
    succeeded are kept, so every order raises exactly what a fresh chain
    from it raises: the first of steps r+1, r+2, ... whose direction is in
    gram.rank_deficient (sigma at most linalg.rank_cutoff of sigma).

    The chain reads gram.sys alone: its state matrix is the input's in
    balanced coordinates, and its B and C are the band-weighted input and
    output maps there, Bx and Cx (T^(-1) M B and C M T), so no order is
    factored. A real balanced system over a band centred at zero keeps
    every block and product real. interval_eta's block swap S is a column
    slice of each step's core, scaled by sigma_i, not a product.

    The chain solves no eigenvalue problem. The shift and branch-cut tests
    guard the square root _band_factors takes; a step takes none, and in
    exact arithmetic every order it reads passes those rules anyway:
    - diag(sigma_1..k) solves both Lyapunov equations of each leading block
      (A_k, Bx_k, Cx_k) of the balanced gram.sys, so A_k is Hurwitz when
      sigma_k > sigma_(k+1) (Pernebo and Silverman, IEEE TAC 1982).
    - Re lambda < 0 and real w give Re(j w - lambda) > 0: no eigenvalue on
      a band edge, and arg(j w - lambda) in (-pi/2, pi/2), so
      wd^2 / ((j w1 - lambda)(j w2 - lambda)) is off the closed negative
      real axis.
    - A tie sigma_k = sigma_(k+1) may leave A_k eigenvalues on the
      imaginary axis; no sigma-gap test is run, as eta_i is a polynomial in
      A_k, Bx, Cx and sigma and both sides of the bound are continuous in
      the data, so a tie's bound is the limit of those of gapped records.
      _step still refuses a direction below numerical rank
      (gram.rank_deficient).
    The two square roots taken keep their guards: of A in prepare_interval
    and of A_r in interval_truncate.
    """

    def __init__(self, gram: Balanced, cfg: IntervalConfig):
        self.sys, self.cfg = gram.sys, cfg
        self.io = (gram.sys.B, gram.sys.C)
        self.sigma = np.asarray(gram.sigma, dtype=float)
        self.deficient = frozenset(gram.rank_deficient)
        self.steps = {}  # i -> eta_i

    def terms(self, r: int) -> EtaTerms:
        n = self.sys.n
        r = int(r)
        if not 0 <= r <= n:
            raise OrderOutOfRange(f"order {r} outside 0..{n}")
        for i in range(r + 1, n + 1):
            if i not in self.steps:
                self.steps[i] = self._step(i)
        return EtaTerms(np.array([self.steps[i] for i in range(r + 1, n + 1)], dtype=float))

    def _step(self, i: int) -> float:
        sigma = self.sigma
        if i - 1 in self.deficient:
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

        # K = -core S: S swaps core's m input and p output column blocks
        m = self.sys.m
        k_mat = -np.hstack([core[:, m:] * s_i, core[:, :m] * s_i])
        # Hermitian part with the 0.5: He(X) = (X + X*)/2 throughout
        herm = (2.0 * s_i) ** 2 * np.eye(k_mat.shape[0]) + (k_mat + k_mat.conj().T) / 2.0
        return float(np.linalg.svd(herm, compute_uv=False)[0])


def interval_eta(
    sys_balanced: StateSpace, gram: Balanced, cfg: IntervalConfig, r: int
) -> EtaTerms:
    """The eta_i ingredients of the in-band bound, for i = r+1 .. n.

    gram is the Balanced record of interval_gramians for one system and
    band, of which sigma and the balanced band-weighted realization
    gram.sys are read; sys_balanced is read for its state matrix alone,
    the balanced A that gram.sys carries (gram.sys itself will do). A
    record whose state matrix differs from sys_balanced's raises
    InvalidParameters. One that yields eta_i although gram.sys is not
    Hurwitz raises NotHurwitz: with step n's sigma above numerical rank no
    direction is regularized, so interval_gramians' gram.sys is similar to
    the Hurwitz state matrix it requires. The check reads gram.sys's cached
    Schur form; a balance check by Lyapunov residual would need a
    tolerance, and that residual reaches 1e-8 on genuine records.

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
    Then K = -(Cdil NN Bdil) S with S = sigma_i [[0, I_m], [I_p, 0]], the
    sigma_i-scaled swap of the m input and p output column blocks, and
    eta_i = sigma_max of (2 sigma_i)^2 I + (K + K*)/2.

    MM, NN and the dilated matrices are never formed. Cdil NN Bdil is a sum
    of one term per diagonal block, X_k* M_k^(-1) N_k M_k^(-1) Y_k with Y_k
    and X_k the right-hand sides above, and since M_k, N_k and A_k commute
    with M_k^2 = wd^2 (j w1 I - A_k)^(-1) (j w2 I - A_k)^(-1),

        M_k^(-1) N_k M_k^(-1) = N_k M_k^(-2) = (j wc I - A_k) / wd^2,

    so each term needs one product with A_k and no factor of M_k. Bx and Cx
    are read off gram.sys, so no order is factored and no order's spectrum
    is solved for (_EtaChain says why none needs checking): each step costs
    O(k^2 (m + p)) products, real for a real system over a band centred at
    zero.

    This is a fresh chain from r. eta_i does not depend on r, so a caller
    bounding several orders of one system and band should prepare it once
    (prepare_interval) and ask IntervalBalanced.eta, which walks the chain
    once for all of them and returns the same values bit for bit.
    """
    # Bx and Cx come from gram.sys; another record's maps would give a
    # wrong bound without an error
    if not np.array_equal(gram.sys.A, sys_balanced.A):
        raise InvalidParameters(
            "gram must be interval_gramians' record of sys_balanced's band"
        )
    terms = _EtaChain(gram, cfg).terms(r)
    if terms.eta.size and not is_hurwitz(gram.sys).stable:
        raise NotHurwitz(
            "gram.sys is not Hurwitz, so gram is not interval_gramians' record"
        )
    return terms


@dataclass(frozen=True, eq=False)
class IntervalBalanced:
    """The order-independent part of int-fdbt for one system and band.

    Holds the input system, its band-weighted realization and that
    realization balanced on its band Gramians: gram.sys carries the input's
    state matrix and the band-weighted input and output maps Bx, Cx in
    balanced coordinates. interval_truncate does the per-order rest, and
    the eta chain reads the same record. The chain behind the in-band
    bound is shared by every order (eta_i depends on i, not on r), so
    truncating at several orders walks it once, and it solves no
    eigenvalue problem (see _EtaChain). _gap, the input's ef gap, is shared too.
    """

    sys: StateSpace
    ext: Extended
    gram: Balanced

    @cached_property
    def _chain(self) -> _EtaChain:
        return _EtaChain(self.gram, self.ext.config)

    @cached_property
    def _gap(self) -> float:
        return hinf_estimate(_band_gap(self.sys, self.ext.config, self.ext.sys._form))[0]

    def eta(self, r: int) -> EtaTerms:
        """eta_i for i = r+1 .. n, equal bit for bit to a fresh interval_eta."""
        return self._chain.terms(r)


def prepare_interval(sys: StateSpace, cfg: IntervalConfig) -> IntervalBalanced:
    """Everything int-fdbt computes before it picks an order.

    Requires a Hurwitz input: builds the band-weighted realization, its
    band Gramians and the balancing transform, once per system and band.
    The band-weighted realization keeps the input's A, so gram.sys's state
    matrix is the input's in balanced coordinates.
    """
    if not is_hurwitz(sys).stable:
        raise NotHurwitz("band-limited reduction requires a Hurwitz system")
    ext = build_interval_extended(sys, cfg)
    return IntervalBalanced(sys, ext, interval_gramians(ext))


def interval_truncate(
    prep: IntervalBalanced, r: int, with_bounds: bool = True, with_ef_bound: bool = True
) -> ReductionResult:
    """Reduce a prepared system and band to order r (see interval_reduce)."""
    r = check_order(r, prep.sys.n)
    a_r = prep.gram.sys.A[:r, :r]
    # one Schur form of a_r, in its band factors' arithmetic, serves them
    # and (_on_form) the reduced model's poles and ef gap
    form = _band_form(a_r, prep.ext.config)
    m_r, n_r = _band_factors(a_r, prep.ext.config, form)
    singular = SingularReconstruction("band factor is numerically singular")
    b_r = solve(m_r, prep.gram.sys.B[:r, :], singular, guarded=True)
    # m_r^T has m_r's singular values, which the guard has just checked
    c_r = solve(m_r.T, prep.gram.sys.C[:, :r].T, singular).T
    d_r = prep.ext.sys.D - gemm(gemm(c_r, n_r), b_r)
    reduced = _on_form(StateSpace(a_r, b_r, c_r, d_r), form)

    bounds, notes = {}, ()
    if with_bounds:
        bounds["interval"] = interval_bound(prep.eta(r))
        if with_ef_bound:
            try:
                bounds["ef"] = interval_ef_bound(prep, reduced, r)
            except NotHurwitz as exc:
                notes = (f"ef bound unavailable: {exc}",)
    return truncation_result(prep.gram, "int-fdbt", reduced, bounds, notes)


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
    chain solves no eigenvalue problem: it costs O(k^2 (m + p)) products per
    order k from r + 1 to n). with_ef_bound=False keeps the in-band bound
    but drops the whole-axis sweep terms (see interval_ef_bound).
    """
    check_order(r, sys.n)
    return interval_truncate(prepare_interval(sys, cfg), r, with_bounds, with_ef_bound)


def interval_bound(eta: EtaTerms) -> float:
    """In-band error bound: sum of sqrt(eta_i) over the dropped tail."""
    return float(np.sum(np.sqrt(eta.eta)))


def interval_ef_bound(prep: IntervalBalanced, reduced: StateSpace, r: int) -> float:
    """Entire-frequency bound: twice the sigma tail plus two sweep terms.

    The sweep terms are dense-grid (lower) estimates of the whole-axis sups
    of _band_gap of the Hurwitz reduced system and of prep's, once per band.
    """
    if not is_hurwitz(reduced).stable:
        raise NotHurwitz("reduced system is not Hurwitz; whole-axis sup undefined")
    gap_red, _ = hinf_estimate(_band_gap(reduced, prep.ext.config, reduced._form))
    return tail_bound(prep.gram.sigma, r) + prep._gap + gap_red
