"""Shared plumbing for balancing-based reductions: balanced realizations,
truncation, and the result record all methods return.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import OrderOutOfRange
from .linalg import balance_gramians
from .sysmodel import StateSpace


@dataclass(frozen=True, eq=False)
class Balanced:
    """A realization in the balanced coordinates of one Gramian pair.

    Both Gramians of the pair become diag(sigma), sigma non-increasing.
    Nothing here depends on the truncation order, so one record serves
    every order a caller truncates at.
    """

    sys: StateSpace
    sigma: np.ndarray


def balance(sys: StateSpace, wc: np.ndarray, wo: np.ndarray) -> Balanced:
    """Balance a Gramian pair of sys and apply the transform to sys."""
    t, tinv, sigma, _ = balance_gramians(wc, wo)
    return Balanced(sys.transformed(t, tinv), sigma)


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
