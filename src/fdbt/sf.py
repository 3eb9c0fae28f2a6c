"""Balanced truncation anchored at a single frequency (the "sf" method).

The original realization is pushed through a frequency-dependent
substitution controlled by a damping scalar epsilon > 0, balanced and
truncated in that representation, then mapped back. Twice the truncated
tail of the substituted singular values bounds the error at the anchor
frequency itself; adding two whole-axis sweep terms extends it to an
entire-frequency bound. The substitution also stabilizes: for an unstable
pole there is a computable epsilon cap below which the substituted system
is Hurwitz, so unstable plants can be reduced at the anchor too.
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
    SingularReconstruction,
    SingularShift,
)
from .linalg import SHIFT_TOL, gemm, jw, solve, solve_guarded
from .reduction import (
    Balanced,
    ReductionResult,
    balance,
    check_order,
    ef_bound,
    leading_block,
    tail_bound,
)
from .sysmodel import StateSpace, is_hurwitz


@dataclass(frozen=True)
class SfConfig:
    """Anchor frequency varpi (rad/s) and damping scalar epsilon > 0."""

    varpi: float
    epsilon: float

    def __post_init__(self):
        varpi = float(self.varpi)
        epsilon = float(self.epsilon)
        if not math.isfinite(varpi):
            raise InvalidParameters("varpi must be finite")
        if not (math.isfinite(epsilon) and epsilon > 0.0):
            raise InvalidParameters("epsilon must be finite and > 0")
        object.__setattr__(self, "varpi", varpi)
        object.__setattr__(self, "epsilon", epsilon)


@dataclass(frozen=True, eq=False)
class SfExtended:
    """Substituted realization plus the config that built it."""

    sys: StateSpace
    config: SfConfig


def build_sf_extended(sys: StateSpace, cfg: SfConfig) -> SfExtended:
    """Substituted realization anchored at cfg.varpi.

    With the shift point z = epsilon + j varpi and R = zI - A:
        A' = j varpi I - epsilon R^(-1) (j varpi I - A)
        B' = epsilon R^(-1) B
        C' = epsilon C R^(-1)
        D' = D + C R^(-1) B
    Refuses (SingularShift) when z sits within 1e-10 of an eigenvalue of A,
    since every formula above runs through R^(-1).
    """
    eps, varpi = cfg.epsilon, cfg.varpi
    n = sys.n
    if n == 0:
        return SfExtended(sys, cfg)
    z = eps + jw(varpi)
    # also raised by a solve with R that meets an exactly zero pivot
    singular = SingularShift(
        f"epsilon + j*varpi = {complex(z)} is within {SHIFT_TOL} of an eigenvalue of A"
    )
    if float(np.min(np.abs(z - sys.poles))) < SHIFT_TOL:
        raise singular
    eye = np.eye(n)
    r_mat = z * eye - sys.A
    jw_minus_a = jw(varpi) * eye - sys.A
    rinv_b = solve(r_mat, sys.B, singular)
    a_new = jw(varpi) * eye - eps * solve(r_mat, jw_minus_a, singular)
    b_new = eps * rinv_b
    c_new = eps * solve(r_mat.T, sys.C.T, singular).T
    d_new = sys.D + gemm(sys.C, rinv_b)
    return SfExtended(StateSpace(a_new, b_new, c_new, d_new), cfg)


def stability_epsilon_cap(sys: StateSpace, varpi: float) -> float:
    """Largest safe epsilon for a Hurwitz substituted system.

    Hurwitz input: +inf (any epsilon works). Otherwise the minimum over
    eigenvalues with Re >= 0 of (varpi - Im)^2 / Re + Re; an eigenvalue
    sitting exactly at j*varpi can never be moved off the axis, cap 0.
    """
    varpi = float(varpi)
    if is_hurwitz(sys).stable:
        return math.inf
    caps = []
    for lam in sys.poles:
        re, im = float(lam.real), float(lam.imag)
        if re > 1e-14 * max(1.0, abs(lam)):
            caps.append((varpi - im) ** 2 / re + re)
        elif re > -1e-14 * max(1.0, abs(lam)):
            # marginal pole: pinned if it coincides with the anchor,
            # otherwise any epsilon > 0 pulls it left
            if abs(im - varpi) <= 1e-12 * max(1.0, abs(im), abs(varpi)):
                caps.append(0.0)
    return min(caps) if caps else math.inf


def sf_gramians(ext: SfExtended) -> Balanced:
    """The substituted system balanced on its standard Gramian pair.

    sigma holds the substituted singular values in non-increasing order,
    and .sys is the substituted realization in their balanced coordinates.
    """
    if not is_hurwitz(ext.sys).stable:
        raise NotHurwitz(
            "substituted system is not Hurwitz; see stability_epsilon_cap"
        )
    return balance(ext.sys, *standard_gramians(ext.sys))


def invert_sf_extension(trunc: StateSpace, cfg: SfConfig) -> StateSpace:
    """Map a (truncated) substituted realization back to an ordinary one.

    Exact inverse of build_sf_extended when no truncation happened. With
    K = j varpi I - A_t:
        A = j varpi I - epsilon K (epsilon I - K)^(-1)
        B = (1/epsilon) ((epsilon + j varpi) I - A) B_t
        C = (1/epsilon) C_t ((epsilon + j varpi) I - A)
        D = D_t - C ((epsilon + j varpi) I - A)^(-1) B
    """
    eps, varpi = cfg.epsilon, cfg.varpi
    r = trunc.n
    if r == 0:
        return trunc
    eye = np.eye(r)
    k = jw(varpi) * eye - trunc.A
    singular = SingularReconstruction(
        "epsilon I - K is numerically singular; back-substitution undefined"
    )
    # K and (eps I - K)^(-1) commute, both being rational in A_t
    a_r = jw(varpi) * eye - eps * solve_guarded(eps * eye - k, k, singular)
    shift = (eps + jw(varpi)) * eye - a_r
    b_r = gemm(shift, trunc.B) / eps
    c_r = gemm(trunc.C, shift) / eps
    # shift = eps^2 (eps I - K)^(-1), so the guard above covers it too
    d_r = trunc.D - gemm(c_r, solve(shift, b_r, singular))
    return StateSpace(a_r, b_r, c_r, d_r)


def sf_bound(gram: Balanced, r: int) -> float:
    """Error bound at the anchor frequency: 2 * sum of the dropped sigma."""
    return tail_bound(gram.sigma, r)


def sf_ef_bound(
    sys: StateSpace, ext: SfExtended, reduced: StateSpace, gram: Balanced, r: int
) -> float:
    """Entire-frequency bound: anchor tail plus two whole-axis sweep terms.

    ext is sys's substituted realization and gram its balancing; see
    reduction.ef_bound for the sweep terms.
    """
    return ef_bound(sys, ext, reduced, build_sf_extended, gram.sigma, r)


def sf_reduce(
    sys: StateSpace, cfg: SfConfig, r: int, with_ef_bound: bool = True
) -> ReductionResult:
    """Reduce to order r with the single-frequency method.

    Substitute, balance, keep the leading r states, map back. r = n is
    allowed and returns a realization response-identical to the input.
    The anchor bound is always attached; the entire-frequency bound only
    when both the original and the reduced system are Hurwitz (otherwise a
    warning notes why it is missing).
    """
    r = check_order(r, sys.n, allow_full=True)
    ext = build_sf_extended(sys, cfg)
    gram = sf_gramians(ext)
    reduced = invert_sf_extension(leading_block(gram.sys, r), cfg)

    stable = is_hurwitz(reduced).stable
    warnings = ()
    if not stable:
        # possible by design: the back-mapped model has no stability guarantee
        warnings += ("reduced system is not Hurwitz",)
    if gram.rank_deficient:
        warnings += (
            f"{len(gram.rank_deficient)} balanced directions below numerical rank",
        )

    bounds = {"sf": sf_bound(gram, r)}
    if with_ef_bound:
        if stable and is_hurwitz(sys).stable:
            bounds["ef"] = sf_ef_bound(sys, ext, reduced, gram, r)
        else:
            warnings += ("ef bound unavailable: whole-axis sup needs Hurwitz systems",)
    return ReductionResult(
        reduced=reduced,
        method="sf-fdbt",
        order=r,
        bounds=bounds,
        stable=stable,
        sigma=tuple(float(s) for s in gram.sigma),
        warnings=warnings,
    )


@dataclass(frozen=True)
class EpsilonRow:
    """One row of an epsilon sweep; bounds are None when the row failed."""

    epsilon: float
    sf_bound: float | None
    ef_bound: float | None
    note: str = ""


def epsilon_sweep(sys: StateSpace, varpi: float, r: int, epsilons) -> list:
    """Tabulate both bounds across candidate epsilon values.

    Rows are computed independently; a row that fails (bad epsilon,
    unstable substitution, ...) is recorded with its error message and the
    sweep continues.
    """
    rows = []
    for eps in epsilons:
        try:
            cfg = SfConfig(varpi=varpi, epsilon=float(eps))
            result = sf_reduce(sys, cfg, r, with_ef_bound=True)
        except FdbtError as exc:
            rows.append(EpsilonRow(float(eps), None, None, note=str(exc)))
            continue
        rows.append(
            EpsilonRow(
                float(eps),
                result.bounds.get("sf"),
                result.bounds.get("ef"),
                note="; ".join(result.warnings),
            )
        )
    return rows
