"""Shared plumbing for balancing-based reductions: balanced realizations,
the band both band methods validate, truncation, the tail bound, and the
result record all methods return, assembled by truncation_result alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters, OrderOutOfRange
from .linalg import balance_gramians, rank_cutoff
from .sysmodel import StateSpace, is_hurwitz


@dataclass(frozen=True, eq=False)
class Balanced:
    """A realization in the balanced coordinates of one Gramian pair.

    Every method balances through this record: the baselines the input's
    standard or band-limited pair, sf-fdbt and int-fdbt the standard pair
    of their extended realization. sys is the balanced realization
    (T^-1 A T, T^-1 B, C T, D), where both Gramians of the pair (Wc, Wo)
    become diag(sigma), sigma non-increasing. Nothing here depends on the
    truncation order, so one record serves every order a caller truncates
    at.
    """

    sys: StateSpace
    sigma: np.ndarray
    Wc: np.ndarray
    Wo: np.ndarray
    T: np.ndarray
    Tinv: np.ndarray

    @property
    def rank_deficient(self) -> tuple:
        """Indices of the sigma at most linalg.rank_cutoff(sigma): the
        directions balance_gramians regularizes. The one rank record that
        the result tail and the eta chain read."""
        return tuple(int(i) for i in np.flatnonzero(self.sigma <= rank_cutoff(self.sigma)))


@dataclass(frozen=True)
class IntervalConfig:
    """Frequency band [w1, w2] with its half-width and center.

    The one band rule of fdbt: int-fdbt's band factors, fgbt's band
    Gramians (baselines.band_gramians) and the CLI's band flags all build
    this record, which refuses a band unless w1 < w2 are both finite.
    """

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


@dataclass(frozen=True, eq=False)
class Extended:
    """sf-fdbt's substituted or int-fdbt's band-weighted realization, plus
    the config that built it."""

    sys: StateSpace
    config: object


def balance(sys: StateSpace, wc: np.ndarray, wo: np.ndarray) -> Balanced:
    """Balance a Gramian pair (wc, wo) of sys and apply the transform to sys."""
    t, tinv, sigma = balance_gramians(wc, wo)
    return Balanced(sys.transformed(t, tinv), sigma, wc, wo, t, tinv)


def tail_bound(sigma: np.ndarray, r: int) -> float:
    """Twice the sum of the balanced singular values dropped at order r."""
    n = int(sigma.size)
    r = int(r)
    if not 0 <= r <= n:
        raise OrderOutOfRange(f"order {r} outside 0..{n}")
    return 2.0 * float(np.sum(sigma[r:]))


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """A reduced model plus everything needed to judge it.

    bounds maps bound names ("sf", "interval", "ef") to values; methods
    attach only the bounds their theory supplies. warnings carries
    non-fatal conditions such as lost stability or an unavailable bound.
    """

    reduced: StateSpace
    method: str
    order: int
    bounds: dict
    stable: bool
    sigma: tuple
    warnings: tuple = ()


def truncation_result(
    prep: Balanced, method: str, reduced: StateSpace, bounds: dict, notes=()
) -> ReductionResult:
    """The record every method returns for a model reduced from prep.

    Decides stability and warns in one order for all methods: "reduced
    system is not Hurwitz", then the count of prep's directions below
    numerical rank (Balanced.rank_deficient), then how many of them the
    order keeps, then the method's own notes, such as an unavailable bound.
    """
    stable = is_hurwitz(reduced).stable
    warnings = () if stable else ("reduced system is not Hurwitz",)
    deficient = prep.rank_deficient
    if deficient:
        warnings += (f"{len(deficient)} balanced directions below numerical rank",)
    kept = sum(i < reduced.n for i in deficient)
    if kept:
        warnings += (f"order {reduced.n} keeps {kept} directions below numerical rank",)
    return ReductionResult(
        reduced=reduced,
        method=method,
        order=reduced.n,
        bounds=bounds,
        stable=stable,
        sigma=tuple(float(s) for s in prep.sigma),
        warnings=warnings + notes,
    )


def check_order(r: int, n: int) -> int:
    """Validate a truncation order: 1 <= r <= n."""
    r = int(r)
    if not 1 <= r <= n:
        raise OrderOutOfRange(f"order {r} outside supported range 1..{n} (n={n})")
    return r


def leading_block(sys_b: StateSpace, r: int) -> StateSpace:
    """Keep the first r states of a (balanced) realization."""
    return StateSpace(
        sys_b.A[:r, :r], sys_b.B[:r, :], sys_b.C[:, :r], sys_b.D
    )


def partition(sys_b: StateSpace, r: int):
    """Split a realization at state index r into its four A blocks plus
    B and C halves: (A11, A12, A21, A22, B1, B2, C1, C2)."""
    a, b, c = sys_b.A, sys_b.B, sys_b.C
    return (
        a[:r, :r], a[:r, r:], a[r:, :r], a[r:, r:],
        b[:r, :], b[r:, :], c[:, :r], c[:, r:],
    )
