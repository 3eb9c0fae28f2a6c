"""Classical reduction baselines: plain balanced truncation, generalized
singular perturbation approximation, and band-limited Gramian truncation.

All three balance a Gramian pair and keep the leading states; they differ
in which Gramians they balance and how the discarded states are folded
back. Only the first two carry an error bound (twice the dropped singular
values, whole-axis; the residualization variant only at rho = 0).

Each method is a prepare step, which balances once per system (and band),
and a truncate step per order: prepare_standard serves fibt_truncate and
gspa_truncate, prepare_band serves fgbt_truncate. The *_reduce functions
are one prepare followed by one truncate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameters, NotHurwitz, SingularResidualization
from .linalg import gemm, hermitize, log_principal, solve
from .reduction import (
    Balanced,
    IntervalConfig,
    ReductionResult,
    balance,
    check_order,
    leading_block,
    partition,
    tail_bound,
    truncation_result,
)
from .sysmodel import StateSpace, is_hurwitz


def standard_gramians(sys: StateSpace):
    """Whole-axis Gramians (wc, wo): the read-only pair sys solves once and keeps."""
    if not is_hurwitz(sys).stable:
        raise NotHurwitz("standard Gramians need a Hurwitz system")
    return sys._gramians


def prepare_standard(sys: StateSpace) -> Balanced:
    """sys balanced on its standard Gramian pair, for fibt and gspa."""
    return balance(sys, *standard_gramians(sys))


def _tail_bound(prep: Balanced, r: int) -> dict:
    return {"ef": tail_bound(prep.sigma, r)}


def fibt_truncate(prep: Balanced, r: int) -> ReductionResult:
    """Plain truncation of a standard-balanced realization to order r.

    Attaches the classical whole-axis bound: twice the sum of the dropped
    singular values.
    """
    r = check_order(r, prep.sys.n)
    return truncation_result(prep, "fibt", leading_block(prep.sys, r), _tail_bound(prep, r))


def fibt_reduce(sys: StateSpace, r: int) -> ReductionResult:
    """Balanced truncation on the standard Gramian pair (see fibt_truncate)."""
    check_order(r, sys.n)
    return fibt_truncate(prepare_standard(sys), r)


def check_rho(rho: float) -> float:
    """The residualization shift as a float: finite and >= 0, or
    InvalidParameters (the rule gspa and the CLI's --rho share)."""
    rho = float(rho)
    if not (math.isfinite(rho) and rho >= 0.0):
        raise InvalidParameters("rho must be finite and >= 0")
    return rho


def gspa_truncate(prep: Balanced, r: int, rho: float = 0.0) -> ReductionResult:
    """Residualize a standard-balanced realization to order r at rho >= 0.

    The dropped balanced states are folded back through (rho I - A22)^(-1)
    instead of being discarded. rho = 0 matches the response exactly at
    zero frequency and inherits the 2*tail bound; rho -> inf recovers plain
    truncation. Intermediate rho carries no published bound, so none is
    attached there.
    """
    r = check_order(r, prep.sys.n)
    rho = check_rho(rho)
    a11, a12, a21, a22, b1, b2, c1, c2 = partition(prep.sys, r)

    shifted = rho * np.eye(a22.shape[0]) - a22
    singular = SingularResidualization(
        f"rho I - A22 is numerically singular at rho = {rho}"
    )
    fold_a = solve(shifted, a21, singular, guarded=True)
    fold_b = solve(shifted, b2, singular)
    reduced = StateSpace(
        a11 + gemm(a12, fold_a),
        b1 + gemm(a12, fold_b),
        c1 + gemm(c2, fold_a),
        prep.sys.D + gemm(c2, fold_b),
    )
    bounds = _tail_bound(prep, r) if rho == 0.0 else {}
    return truncation_result(prep, "gspa", reduced, bounds)


def gspa_reduce(sys: StateSpace, r: int, rho: float = 0.0) -> ReductionResult:
    """Balanced residualization with matching point rho (see gspa_truncate)."""
    check_order(r, sys.n)
    check_rho(rho)
    return gspa_truncate(prepare_standard(sys), r, rho)


def _log_shift(a: np.ndarray, w: float) -> np.ndarray:
    """log(j w I - A), principal branch."""
    return log_principal(1j * w * np.eye(a.shape[0], dtype=complex) - a)


def _band_primitive(a: np.ndarray, w1: float, w2: float) -> np.ndarray:
    """(1/2pi) integral over [w1, w2] of (j nu I - A)^(-1) d nu, closed form."""
    return 1j / (2.0 * math.pi) * (_log_shift(a, w1) - _log_shift(a, w2))


def band_gramians(sys: StateSpace, w1: float, w2: float):
    """Frequency-limited Gramian pair restricted to a band.

    The band is taken literally when it straddles zero, and as the union
    with its mirror image when it lies on one side (the classical
    real-system convention: energy at -w belongs with energy at +w). The
    closed form uses the principal matrix logarithm; for a band [x1, x2]
        S = (j/2pi) (log(j x1 I - A) - log(j x2 I - A))
        Wc_band = S Wc + Wc S*,   Wo_band = S* Wo + Wo S.
    For a real A, log(-j x I - A) = conj(log(j x I - A)), so a band mirrored
    about zero needs the logarithms at its positive edges only, and S is
    real: Im log(j x I - A) / pi for [-x, x], and the difference of two such
    terms for a one-sided band. The band is validated by IntervalConfig,
    the rule int-fdbt applies too. Either Gramian may come out indefinite;
    the pair is returned as computed, and balancing it (prepare_band)
    raises IndefiniteGramian, not a repair. Wc and Wo are sys's whole-axis
    pair, which the model solves once (standard_gramians).
    """
    band = IntervalConfig(w1, w2)
    w1, w2 = band.w1, band.w2
    wc, wo = standard_gramians(sys)
    a = sys.A
    mirrored = w1 == -w2 or not w1 <= 0.0 <= w2
    if mirrored and not np.iscomplexobj(a):
        lo, hi = (0.0, w2) if w1 == -w2 else sorted((abs(w1), abs(w2)))
        s = _log_shift(a, hi).imag / math.pi
        if lo > 0.0:
            s = s - _log_shift(a, lo).imag / math.pi
    else:
        if w1 <= 0.0 <= w2:
            pieces = [(w1, w2)]
        else:
            lo, hi = sorted((abs(w1), abs(w2)))
            pieces = [(-hi, -lo), (lo, hi)]
        s = sum(_band_primitive(a, x1, x2) for (x1, x2) in pieces)
    wc_band = hermitize(gemm(s, wc) + gemm(wc, s, hb=True))
    wo_band = hermitize(gemm(s, wo, ha=True) + gemm(wo, s))
    return wc_band, wo_band


def prepare_band(sys: StateSpace, w1: float, w2: float) -> Balanced:
    """sys balanced on its band-limited Gramian pair, for fgbt (see
    band_gramians); IndefiniteGramian when either is clearly indefinite."""
    return balance(sys, *band_gramians(sys, w1, w2))


def fgbt_truncate(prep: Balanced, r: int) -> ReductionResult:
    """Plain truncation of a band-balanced realization to order r.

    No error bound exists for this scheme, and neither stability of the
    reduced model nor positive semidefiniteness of the Gramians is
    guaranteed; indefinite Gramians raise IndefiniteGramian in prepare_band.
    """
    r = check_order(r, prep.sys.n)
    notes = ("no error bound available for band-limited Gramian truncation",)
    return truncation_result(prep, "fgbt", leading_block(prep.sys, r), {}, notes)


def fgbt_reduce(sys: StateSpace, r: int, w1: float, w2: float) -> ReductionResult:
    """Balanced truncation on band-limited Gramians (see fgbt_truncate).

    The band Gramians, and with them the matrix logarithms at the band
    edges, depend only on the system and the band: a caller truncating at
    several orders calls prepare_band once and fgbt_truncate per order.
    """
    check_order(r, sys.n)
    return fgbt_truncate(prepare_band(sys, w1, w2), r)
