"""Balanced truncation anchored at a single frequency (the "sf" method).

The original realization is substituted through the linear-fractional
frequency map s -> j varpi + epsilon (s - j varpi)/(s - j varpi + epsilon),
damped by epsilon > 0 and fixing the anchor j varpi, balanced and truncated
there, then mapped back through the inverse map (sysmodel.moebius_realization
realizes both). Twice the truncated tail of the substituted singular values
bounds the error at the anchor frequency itself; adding two whole-axis
sweep terms extends it to an entire-frequency bound. The substitution also
stabilizes: for an unstable pole there is a computable epsilon cap below
which the substituted system is Hurwitz, so unstable plants can be reduced
at the anchor too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .baselines import prepare_standard
from .errors import (
    FdbtError,
    InvalidParameters,
    NotHurwitz,
    PoleOnGrid,
    SingularReconstruction,
    SingularShift,
)
from .linalg import SHIFT_TOL, jw
from .reduction import (
    Balanced,
    Extended,
    ReductionResult,
    check_order,
    leading_block,
    tail_bound,
    truncation_result,
)
from .sysmodel import StateSpace, error_system, hinf_estimate, is_hurwitz, moebius_realization


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


def build_sf_extended(sys: StateSpace, cfg: SfConfig) -> Extended:
    """Substituted realization anchored at cfg.varpi.

    G'(s) = G(j varpi + phi(s - j varpi)) with phi(u) = u/(u/epsilon + 1),
    which fixes the anchor; written so, ad - bc = 1 and no epsilon over- or
    underflows the realization's split of it. With z = epsilon + j varpi and
    R = zI - A, its realization (sysmodel.moebius_realization) has
    B' = epsilon R^(-1) B and C' = epsilon C R^(-1). Refuses (SingularShift)
    when z sits within SHIFT_TOL of an eigenvalue of A.
    """
    eps, varpi = cfg.epsilon, cfg.varpi
    z = eps + jw(varpi)
    # also raised by a solve with R that meets an exactly zero pivot
    singular = SingularShift(
        f"epsilon + j*varpi = {complex(z)} is within {SHIFT_TOL} of an eigenvalue of A"
    )
    if sys.n and float(np.min(np.abs(z - sys.poles))) < SHIFT_TOL:
        raise singular
    phi = (1.0, 0.0, 1.0 / eps, 1.0)
    ext = moebius_realization(sys, phi, singular, shift=jw(varpi), guarded=False)
    return Extended(ext, cfg)


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


def sf_gramians(ext: Extended) -> Balanced:
    """The substituted system balanced on its standard Gramian pair.

    sigma holds the substituted singular values in non-increasing order,
    and .sys is the substituted realization in their balanced coordinates.
    """
    if not is_hurwitz(ext.sys).stable:
        raise NotHurwitz("substituted system is not Hurwitz; see stability_epsilon_cap")
    return prepare_standard(ext.sys)


def invert_sf_extension(trunc: StateSpace, cfg: SfConfig) -> StateSpace:
    """Map a (truncated) substituted realization back to an ordinary one.

    Exact inverse of build_sf_extended when no truncation happened: the
    substitution s -> j varpi + psi(s - j varpi) with the inverse map
    psi(u) = u/(1 - u/epsilon). With K = j varpi I - A_t every solve runs
    through a multiple of epsilon I - K, refused when numerically singular.
    """
    singular = SingularReconstruction(
        "epsilon I - K is numerically singular; back-substitution undefined"
    )
    psi = (1.0, 0.0, -1.0 / cfg.epsilon, 1.0)
    return moebius_realization(trunc, psi, singular, shift=jw(cfg.varpi), guarded=True)


def sf_bound(gram: Balanced, r: int) -> float:
    """Error bound at the anchor frequency: 2 * sum of the dropped sigma."""
    return tail_bound(gram.sigma, r)


def sf_ef_bound(
    sys: StateSpace, ext: Extended, reduced: StateSpace, gram: Balanced, r: int
) -> float:
    """Entire-frequency bound: anchor tail plus two whole-axis sweep terms.

    ext is sys's substituted realization and gram its balancing; reduced is
    invert_sf_extension(trunc, ext.config), trunc = leading_block(gram.sys, r),
    as sf_reduce builds it. The bound is the triangle inequality
    ||G - reduced|| <= ||G - ext.sys|| + ||ext.sys - trunc|| + ||trunc - reduced||,
    whose middle term, trunc being ext.sys balanced and truncated, is at most
    the tail. The outer terms are dense-grid (lower) estimates of whole-axis
    sups; all four systems must be Hurwitz (NotHurwitz).
    """
    for label, g in (("original", sys), ("reduced", reduced)):
        if not is_hurwitz(g).stable:
            raise NotHurwitz(f"{label} system is not Hurwitz; whole-axis sup undefined")
    trunc = leading_block(gram.sys, r)
    for label, g in (("substituted original", ext.sys), ("substituted reduced", trunc)):
        if not is_hurwitz(g).stable:
            raise NotHurwitz(f"{label} system is not Hurwitz")
    gap_full, _ = hinf_estimate(error_system(sys, ext.sys))
    gap_red, _ = hinf_estimate(error_system(reduced, trunc))
    return tail_bound(gram.sigma, r) + gap_full + gap_red


def sf_reduce(
    sys: StateSpace, cfg: SfConfig, r: int, with_ef_bound: bool = True
) -> ReductionResult:
    """Reduce to order r with the single-frequency method.

    Substitute, balance, keep the leading r states, map back. r = n is
    allowed and returns a realization response-identical to the input.
    The anchor bound is always attached; the entire-frequency bound only
    when sf_ef_bound can compute it (otherwise a warning carries its
    refusal, and the reduction stands).
    """
    r = check_order(r, sys.n)
    ext = build_sf_extended(sys, cfg)
    gram = sf_gramians(ext)
    reduced = invert_sf_extension(leading_block(gram.sys, r), cfg)

    bounds, notes = {"sf": sf_bound(gram, r)}, ()
    if with_ef_bound:
        try:
            bounds["ef"] = sf_ef_bound(sys, ext, reduced, gram, r)
        except (NotHurwitz, PoleOnGrid) as exc:
            notes = (f"ef bound unavailable: {exc}",)
    return truncation_result(gram, "sf-fdbt", reduced, bounds, notes)


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
