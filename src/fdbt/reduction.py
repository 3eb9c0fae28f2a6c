"""Shared plumbing for balancing-based reductions: Gramian pairs,
balanced coordinates, truncation, and the result record all methods return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderOutOfRange
from .linalg import balance_gramians
from .sysmodel import StateSpace


@dataclass(frozen=True, eq=False)
class GramianPair:
    """Controllability/observability Gramians with their balancing data.

    T and Tinv satisfy Tinv Wc Tinv* = T* Wo T = diag(sigma), sigma
    non-increasing. rank_deficient lists indices whose singular value fell
    below the numerical-rank cutoff during balancing.
    """

    Wc: np.ndarray
    Wo: np.ndarray
    sigma: np.ndarray
    T: np.ndarray
    Tinv: np.ndarray
    rank_deficient: tuple = ()


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


def pair_gramians(wc: np.ndarray, wo: np.ndarray) -> GramianPair:
    """Balance a Gramian pair and package the transform."""
    t, tinv, sigma, flags = balance_gramians(wc, wo)
    deficient = tuple(int(i) for i in np.flatnonzero(flags))
    return GramianPair(wc, wo, sigma, t, tinv, deficient)


def balanced_realization(sys: StateSpace, gram: GramianPair) -> StateSpace:
    """Apply the balancing transform of a Gramian pair to a system."""
    return sys.transformed(gram.T, gram.Tinv)


def check_order(r: int, n: int, allow_full: bool = True) -> int:
    """Validate a truncation order: 1 <= r <= n (or r < n)."""
    r = int(r)
    top = n if allow_full else n - 1
    if not 1 <= r <= top:
        raise OrderOutOfRange(f"order {r} outside supported range 1..{top} (n={n})")
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
