"""LTI state-space values, frequency responses, and sigma_max sweeps.

The realization G(jw) = C (jwI - A)^(-1) B + D is the currency every
reduction method trades in. Realizations are immutable values; complex
matrices are first-class, and realness (all imaginary parts below 1e-14)
is tracked so methods that promise real reduced models can be checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from scipy.linalg import schur

from .errors import (
    DegenerateMap,
    DimensionMismatch,
    PoleOnGrid,
    SingularSubstitution,
)
from .linalg import as_cmatrix

REAL_TOL = 1e-14

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True, eq=False)
class StateSpace:
    """Immutable complex state-space realization (A, B, C, D).

    n = 0 is legal and means a pure feed-through: G(jw) = D everywhere.
    Matrices are validated, converted to complex128, and marked read-only
    on construction.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        a = as_cmatrix(self.A, "A")
        b = as_cmatrix(self.B, "B")
        c = as_cmatrix(self.C, "C")
        d = as_cmatrix(self.D, "D")
        if a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"A must be square, got {a.shape}")
        n = a.shape[0]
        if b.shape[0] != n:
            raise DimensionMismatch(f"B has {b.shape[0]} rows, expected {n}")
        if c.shape[1] != n:
            raise DimensionMismatch(f"C has {c.shape[1]} columns, expected {n}")
        if d.shape != (c.shape[0], b.shape[1]):
            raise DimensionMismatch(
                f"D is {d.shape}, expected {(c.shape[0], b.shape[1])}"
            )
        for x in (a, b, c, d):
            x.setflags(write=False)
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "B", b)
        object.__setattr__(self, "C", c)
        object.__setattr__(self, "D", d)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def is_real(self) -> bool:
        return all(
            float(np.max(np.abs(x.imag))) < REAL_TOL if x.size else True
            for x in (self.A, self.B, self.C, self.D)
        )

    @property
    def poles(self) -> np.ndarray:
        """Eigenvalues of A, computed once and cached.

        An error system's poles are its two parts' poles, reduced first.
        """
        cached = self.__dict__.get("_pole_cache")
        if cached is None:
            parts = self.__dict__.get("_parts")
            if parts is not None:
                cached = np.concatenate([parts[0].poles, parts[1].poles])
            elif self.n:
                cached = np.linalg.eigvals(self.A)
            else:
                cached = np.zeros(0, complex)
            cached.setflags(write=False)
            object.__setattr__(self, "_pole_cache", cached)
        return cached

    @property
    def _schur_form(self) -> tuple:
        """(T, C Z, Z* B) of the complex Schur form A = Z T Z*, cached.

        An error system assembles its factors from its two parts' factors:
        with A = diag(A_r, A_f), diag(T_r, T_f) is a Schur form of A under
        Z = diag(Z_r, Z_f), so neither part is factored twice.
        """
        cached = self.__dict__.get("_schur_cache")
        if cached is None:
            parts = self.__dict__.get("_parts")
            if parts is not None:
                (t_r, cz_r, zb_r), (t_f, cz_f, zb_f) = (x._schur_form for x in parts)
                nr = t_r.shape[0]
                t = np.zeros((self.n, self.n), dtype=complex)
                t[:nr, :nr] = t_r
                t[nr:, nr:] = t_f
                cached = (t, np.hstack([-cz_r, cz_f]), np.vstack([zb_r, zb_f]))
            else:
                t, z = schur(self.A, output="complex")
                cached = (t, self.C @ z, z.conj().T @ self.B)
            for x in cached:
                x.setflags(write=False)
            object.__setattr__(self, "_schur_cache", cached)
        return cached

    def transformed(self, t: np.ndarray, tinv: np.ndarray) -> "StateSpace":
        """Similarity transform: (T^-1 A T, T^-1 B, C T, D)."""
        t = as_cmatrix(t, "T")
        tinv = as_cmatrix(tinv, "Tinv")
        return StateSpace(tinv @ self.A @ t, tinv @ self.B, self.C @ t, self.D)


class Stability(NamedTuple):
    """is_hurwitz verdict: stable flag plus margin = -max Re(lambda)."""

    stable: bool
    margin: float


def is_hurwitz(sys: StateSpace) -> Stability:
    """Whether all poles lie strictly in the open left half-plane."""
    if sys.n == 0:
        return Stability(True, math.inf)
    worst = float(np.max(sys.poles.real))
    return Stability(worst < 0.0, -worst)


def _pole_tolerance(sys: StateSpace) -> float:
    radius = float(np.max(np.abs(sys.poles))) if sys.n else 0.0
    return 1e-12 * max(1.0, radius)


def _pole_distances(sys: StateSpace, points: np.ndarray) -> np.ndarray:
    """Distance of each complex evaluation point to the spectrum of A."""
    if sys.n == 0:
        return np.full(points.shape, math.inf)
    return np.min(np.abs(points[:, None] - sys.poles[None, :]), axis=1)


# Cap on the (p + n, block, m) back-substitution array; a 2000-point sweep
# of a several-hundred-state error system must not allocate the whole stack.
_STACK_BLOCK_BYTES = 32 * 1024 * 1024


def _response_stack(sys: StateSpace, points: np.ndarray) -> np.ndarray:
    """Responses C (sI - A)^(-1) B + D at a vector of complex points s.

    No pole screening here; callers check first. Returns shape (k, p, m).
    Works on the system's cached Schur form A = Z T Z*: each point solves
    (sI - T) x = Z* B by back substitution and returns (C Z) x + D, so a
    point costs O(n^2 m) once the system is factored. The C Z rows sit on
    top of x in one work array, so column i of [C Z; T] updates both the
    output and the unsolved rows at once. The loop runs numpy elementwise
    operations over all points of a memory-capped block, so the split into
    blocks changes no value. (One exception: a one-point block of a
    single-input single-output system can round differently, since numpy
    multiplies one-element arrays on a scalar path. Blocks depend only on
    the sizes, so identical calls still give identical bytes.)
    """
    k = points.shape[0]
    n, p, m = sys.n, sys.p, sys.m
    if n == 0:
        return np.broadcast_to(sys.D, (k, p, m)).copy()
    t, cz, zb = sys._schur_form
    cols = np.vstack([cz, t]).T[:, :, None, None]
    diag = np.diagonal(t)[:, None, None]
    block = max(1, _STACK_BLOCK_BYTES // (16 * (p + n) * m))
    out = np.empty((k, p, m), dtype=complex)
    work = np.empty((p + n, min(block, k), m), dtype=complex)
    for lo in range(0, k, block):
        pts = points[lo : lo + block]
        w = work[:, : pts.shape[0]]
        w[:p] = sys.D[:, None, :]
        w[p:] = zb[:, None, :]
        shift = pts[:, None] - diag
        for i in range(n - 1, -1, -1):
            xi = w[p + i]
            xi /= shift[i]
            w[: p + i] += cols[i, : p + i] * xi
        out[lo : lo + block] = w[:p].transpose(1, 0, 2)
    return out


def evaluate_at(sys: StateSpace, s: complex) -> np.ndarray:
    """Response matrix at an arbitrary complex point s."""
    s = complex(s)
    # points on the imaginary axis report their real frequency, like sweep
    where = s.imag if s.real == 0.0 else s
    pt = np.array([s])
    if float(_pole_distances(sys, pt)[0]) < _pole_tolerance(sys):
        raise PoleOnGrid(
            f"evaluation point {s} is within tolerance of a pole", omega=where
        )
    resp = _response_stack(sys, pt)[0]
    if resp.size and not np.all(np.isfinite(resp.view(np.float64))):
        raise PoleOnGrid(f"response overflowed at s = {s}", omega=where)
    return resp


def evaluate(sys: StateSpace, omega: float) -> np.ndarray:
    """Frequency response C (jwI - A)^(-1) B + D on the cached Schur form."""
    return evaluate_at(sys, 1j * float(omega))


def sigma_max_at(sys: StateSpace, omega: float) -> float:
    """Largest singular value of the response at one frequency."""
    resp = evaluate(sys, omega)
    if resp.size == 0:
        return 0.0
    return float(np.linalg.svd(resp, compute_uv=False)[0])


def _sigma_stack(responses: np.ndarray) -> np.ndarray:
    if responses.shape[1] == 0 or responses.shape[2] == 0:
        return np.zeros(responses.shape[0])
    return np.linalg.svd(responses, compute_uv=False)[:, 0]


def error_system(full: StateSpace, reduced: StateSpace) -> StateSpace:
    """Realization of the difference G(jw) - G_r(jw).

    Block-diagonal stacking: states of the reduced model first, then the
    full model; the reduced output enters negated. The result's poles and
    Schur form are assembled from the two models' own on first use, so
    sweeping many error systems of one full model factors it only once.
    """
    if (full.m, full.p) != (reduced.m, reduced.p):
        raise DimensionMismatch(
            f"io dimensions differ: full {(full.p, full.m)}, "
            f"reduced {(reduced.p, reduced.m)}"
        )
    nr, n = reduced.n, full.n
    a = np.zeros((nr + n, nr + n), dtype=complex)
    a[:nr, :nr] = reduced.A
    a[nr:, nr:] = full.A
    b = np.vstack([reduced.B, full.B])
    c = np.hstack([-reduced.C, full.C])
    err = StateSpace(a, b, c, full.D - reduced.D)
    object.__setattr__(err, "_parts", (reduced, full))
    return err


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing real frequencies, tagged with how they were built."""

    points: np.ndarray
    spacing: str = "explicit"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size == 0:
            raise DimensionMismatch("frequency grid must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise DimensionMismatch("frequency grid contains non-finite values")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise DimensionMismatch("frequency grid must be strictly increasing")
        if self.spacing not in ("linear", "logarithmic", "explicit"):
            raise DimensionMismatch(f"unknown spacing tag {self.spacing!r}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    @classmethod
    def linear(cls, lo: float, hi: float, count: int) -> "FrequencyGrid":
        if not (lo < hi) or count < 2:
            raise DimensionMismatch("linear grid needs lo < hi and count >= 2")
        return cls(np.linspace(lo, hi, count), "linear")

    @classmethod
    def logarithmic(cls, lo: float, hi: float, count: int) -> "FrequencyGrid":
        if not (0 < lo < hi) or count < 2:
            raise DimensionMismatch("log grid needs 0 < lo < hi and count >= 2")
        return cls(np.geomspace(lo, hi, count), "logarithmic")

    @classmethod
    def explicit(cls, values) -> "FrequencyGrid":
        pts = np.unique(np.asarray(values, dtype=float).ravel())
        return cls(pts, "explicit")


@dataclass(frozen=True, eq=False)
class SweepReport:
    """sigma_max of a system over a grid, with the peak located.

    When poles were skipped (on_pole="skip"), their sigma entries are NaN
    and the offending frequencies are listed in `skipped`; the peak is
    taken over the finite entries. With refinement the peak may lie between
    grid points, in which case peak_value exceeds max(sigma_max).
    """

    grid: FrequencyGrid
    sigma_max: np.ndarray
    peak_value: float
    peak_frequency: float
    skipped: tuple = ()


def _golden_max(
    f: Callable[[float], float], lo: float, hi: float, rel_tol: float = 1e-6
):
    """Golden-section maximization on [lo, hi]; returns the best sample."""
    best_w, best_v = lo, f(lo)
    v_hi = f(hi)
    if v_hi > best_v:
        best_w, best_v = hi, v_hi
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > rel_tol * max(1.0, abs(a), abs(b)):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
        if fc > best_v:
            best_w, best_v = c, fc
        if fd > best_v:
            best_w, best_v = d, fd
    return best_w, best_v


def sweep(
    sys: StateSpace,
    grid: FrequencyGrid,
    refine: bool = False,
    on_pole: str = "raise",
) -> SweepReport:
    """Evaluate sigma_max over a grid and locate its peak.

    Points are computed independently (one back substitution each on the
    system's Schur form, vectorized over the grid), so the result does not
    depend on evaluation order. With refine=True a golden-section search
    between the peak's grid neighbours sharpens the reported peak to
    relative width 1e-6.
    """
    if on_pole not in ("raise", "skip"):
        raise DimensionMismatch(f"on_pole must be 'raise' or 'skip', got {on_pole!r}")
    om = grid.points
    s_points = 1j * om
    bad = _pole_distances(sys, s_points) < _pole_tolerance(sys)

    values = np.full(om.size, np.nan)
    good = ~bad
    if good.any():
        responses = _response_stack(sys, s_points[good])
        sig = _sigma_stack(responses)
        overflow = ~np.isfinite(sig)
        if overflow.any():
            idx = np.flatnonzero(good)[overflow]
            bad[idx] = True
            good = ~bad
            sig = sig[~overflow]
        values[good] = sig
    if bad.any() and on_pole == "raise":
        w = float(om[np.flatnonzero(bad)[0]])
        raise PoleOnGrid(f"grid frequency {w} coincides with a pole", omega=w)

    finite = np.flatnonzero(good)
    if finite.size == 0:
        report_values = values
        report_values.setflags(write=False)
        return SweepReport(grid, report_values, math.nan, math.nan, tuple(om[bad]))

    k = int(finite[np.argmax(values[finite])])
    peak_w, peak_v = float(om[k]), float(values[k])

    if refine and om.size > 1:
        lo = float(om[finite[finite < k][-1]]) if (finite < k).any() else peak_w
        hi = float(om[finite[finite > k][0]]) if (finite > k).any() else peak_w
        if hi > lo:
            w_ref, v_ref = _golden_max(lambda w: sigma_max_at(sys, w), lo, hi)
            if v_ref > peak_v:
                peak_w, peak_v = w_ref, v_ref

    values.setflags(write=False)
    return SweepReport(grid, values, peak_v, peak_w, tuple(om[bad]))


def moebius_substitute(
    sys: StateSpace, a: complex, b: complex, c: complex, d: complex
) -> StateSpace:
    """Realize G((a s + b)/(c s + d)) as a new state-space system.

    With F = aI - cA the result is
        A^ = F^(-1) (dA - bI),   B^ = (ad - bc) F^(-1) B,
        C^ = C F^(-1),           D^ = D + c C F^(-1) B.
    The binding contract is the response identity
        evaluate(result, w) == evaluate_at(sys, (a jw + b)/(c jw + d)),
    which the tests check directly; the realization above satisfies it
    exactly whenever F is invertible and ad - bc != 0.
    """
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
    det = a * d - b * c
    scale = max(1.0, abs(a), abs(b), abs(c), abs(d)) ** 2
    if abs(det) <= 1e-14 * scale:
        raise DegenerateMap(f"ad - bc = {det} is degenerate at scale {scale:.1e}")
    n = sys.n
    if n == 0:
        return sys
    f = a * np.eye(n, dtype=complex) - c * sys.A
    sv = np.linalg.svd(f, compute_uv=False)
    if sv[0] == 0.0 or sv[-1] <= n * np.finfo(float).eps * sv[0]:
        raise SingularSubstitution("aI - cA is numerically singular")
    finv_b = np.linalg.solve(f, sys.B)
    a_new = np.linalg.solve(f, d * sys.A - b * np.eye(n, dtype=complex))
    c_new = np.linalg.solve(f.T, sys.C.T).T
    b_new = det * finv_b
    d_new = sys.D + c * (sys.C @ finv_b)
    return StateSpace(a_new, b_new, c_new, d_new)


def symmetric_log_grid(scales: np.ndarray, points: int = 2000) -> FrequencyGrid:
    """Grid covering +/- three decades around a set of magnitude scales.

    Used for whole-axis peak estimates: log-spaced positive frequencies,
    mirrored to negative ones, plus zero.
    """
    mags = np.abs(np.asarray(scales).ravel()).astype(float)
    mags = mags[mags > 0]
    if mags.size == 0:
        mags = np.array([1.0])
    hi = float(np.max(mags)) * 1e3
    lo = max(float(np.min(mags)) * 1e-3, hi * 1e-12)
    half = np.geomspace(lo, hi, max(points // 2, 2))
    return FrequencyGrid.explicit(np.concatenate([-half, [0.0], half]))


def hinf_estimate(sys: StateSpace, points: int = 2000):
    """Dense-grid estimate of sup over all real w of sigma_max(G(jw)).

    A lower estimate of the true norm: symmetric log grid spanning the
    pole magnitudes, golden-section refinement around the grid peak, and
    sigma_max(D) as the w -> +/-inf candidate (frequency reported as inf).
    Returns (value, frequency).
    """
    d_limit = (
        float(np.linalg.svd(sys.D, compute_uv=False)[0]) if sys.D.size else 0.0
    )
    if sys.n == 0:
        return d_limit, math.inf
    grid = symmetric_log_grid(sys.poles, points)
    report = sweep(sys, grid, refine=True)
    if d_limit > report.peak_value:
        return d_limit, math.inf
    return report.peak_value, report.peak_frequency
