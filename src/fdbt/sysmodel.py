"""LTI state-space values, frequency responses, and sigma_max sweeps.

The realization G(jw) = C (jwI - A)^(-1) B + D is the currency every
reduction method trades in. Realizations are immutable values; complex
matrices are first-class, and a realization whose data is exactly real is
held in float64, so every method downstream runs in real arithmetic on it.
Realness up to rounding (all imaginary parts below 1e-14) is tracked so
methods that promise real reduced models can be checked.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateMap,
    DimensionMismatch,
    PoleOnGrid,
    SingularSubstitution,
)
from .linalg import (
    SchurForm,
    add_product,
    as_matrix,
    gemm,
    resolvent,
    schur,
    solve,
    solve_guarded,
)

REAL_TOL = 1e-14

@dataclass(frozen=True, eq=False)
class StateSpace:
    """Immutable state-space realization (A, B, C, D).

    n = 0 is legal and means a pure feed-through: G(jw) = D everywhere.
    Matrices are validated and marked read-only on construction. The dtype
    is chosen once, for all four: float64 when every imaginary part is
    exactly zero, complex128 otherwise.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray

    def __post_init__(self):
        given = (self.A, self.B, self.C, self.D)
        mats = [as_matrix(x, name) for x, name in zip(given, "ABCD")]
        if any(x.dtype.kind == "c" and np.any(x.imag) for x in mats):
            mats = [x.astype(np.complex128, copy=False) for x in mats]
        else:
            mats = [np.ascontiguousarray(x.real) for x in mats]
        a, b, c, d = mats
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

    @cached_property
    def _form(self) -> SchurForm:
        """A's Schur form in A's own arithmetic (gees), computed once."""
        return schur(self.A)

    @cached_property
    def poles(self) -> np.ndarray:
        """Eigenvalues of A, read off its cached Schur form.

        An error system's poles are its two parts' poles, reduced first.
        """
        parts = self.__dict__.get("_parts", ())
        poles = np.concatenate([p.poles for p in parts]) if parts else self._form.lam
        poles.setflags(write=False)
        return poles

    @cached_property
    def _pole_radius(self) -> float:
        """Largest pole magnitude (0 for n = 0), computed once.

        An error system takes the larger of its two parts' radii.
        """
        parts = self.__dict__.get("_parts")
        if parts is not None:
            return max(parts[0]._pole_radius, parts[1]._pole_radius)
        return float(np.max(np.abs(self.poles))) if self.n else 0.0

    @cached_property
    def _schur_form(self) -> tuple:
        """(T, C Z, Z* B) of the cached Schur form A = Z T Z*, in A's own
        arithmetic: T is triangular for a complex A and real
        quasi-triangular, with 2 x 2 blocks for complex pole pairs, for a
        real A. Error systems are never factored whole: their responses
        are the differences of their two parts' responses.
        """
        t, z, *_ = self._form
        form = (t, gemm(self.C, z), gemm(z, self.B, ha=True))
        for x in form:
            x.setflags(write=False)
        return form

    @cached_property
    def _resolvent(self):
        """s -> C (sI - A)^(-1) B + D on the cached Schur form, with its
        constants and routine handles fixed once (see linalg.resolvent)."""
        return resolvent(*self._schur_form, self.D)

    def transformed(self, t: np.ndarray, tinv: np.ndarray) -> "StateSpace":
        """Similarity transform: (T^-1 A T, T^-1 B, C T, D)."""
        t = as_matrix(t, "T")
        tinv = as_matrix(tinv, "Tinv")
        return StateSpace(
            gemm(gemm(tinv, self.A), t), gemm(tinv, self.B), gemm(self.C, t), self.D
        )


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


def _pole_tolerance(*parts: StateSpace) -> float:
    """Pole screening tolerance of a system, or of the difference of parts."""
    return 1e-12 * max(1.0, *(part._pole_radius for part in parts))


def _pole_distances(sys: StateSpace, points: np.ndarray) -> np.ndarray:
    """Distance of each complex evaluation point to the spectrum of A."""
    if sys.n == 0:
        return np.full(points.shape, math.inf)
    return np.min(np.abs(points[:, None] - sys.poles[None, :]), axis=1)


# Cap on the (chunks, p + n, points, m) back-substitution array; a
# 2000-point sweep of a several-hundred-state error system must not
# allocate the whole stack.
_STACK_BLOCK_BYTES = 32 * 1024 * 1024
# Points per chunk. A sweep pads its points to whole chunks with copies of
# its last point, so every array the kernel works on has one shape per
# system, whatever the grid: a point's bytes do not depend on its grid.
_CHUNK_POINTS = 64
# Rows per panel of a real form's back substitution.
_PANEL_ROWS = 8


def _panels(n: int, pairs: set) -> list:
    """(first, last) row ranges of at most _PANEL_ROWS rows, bottom first,
    none splitting a 2 x 2 block that starts at a row of pairs."""
    panels, last = [], n
    while last > 0:
        first = max(0, last - _PANEL_ROWS)
        if first - 1 in pairs:
            first -= 1
        panels.append((first, last))
        last = first
    return panels


def _response_stack(sys: StateSpace, points: np.ndarray) -> np.ndarray:
    """Responses C (sI - A)^(-1) B + D at a vector of complex points s.

    No pole screening here; callers check first. Returns shape (k, p, m).
    Works on the system's cached Schur form A = Z T Z*: each point solves
    (sI - T) x = Z* B by back substitution and returns (C Z) x + D, so a
    point costs O(n^2 m) once the system is factored. The C Z rows sit on
    top of x in one work array, so column i of [C Z; T] updates both the
    output and the unsolved rows. A 1 x 1 diagonal block divides by
    s - T[i, i]; a 2 x 2 block of a real quasi-triangular T (a complex
    pole pair) is solved by Cramer's rule. Every operand but s is then
    real, so a real system's responses at s and conj(s) are exact
    conjugates, and its sigma_max is bitwise even in w.
    The points run in chunks of _CHUNK_POINTS, padded, and numpy's
    elementwise operations cover all chunks of a memory-capped group at
    once. A complex T updates every row above row i at its step. A real
    T is taken in panels of _PANEL_ROWS rows: a step updates the rows of
    its panel, and the rows above a panel are updated after it by one real
    gemm per chunk, on the work array read as float64 (linalg.add_product;
    the operands are real, so real and imaginary parts update alike).
    Every call of a system has one shape, so a point's value does not
    depend on which points it is evaluated with. An error system returns
    the difference of its two parts' responses, each on the part's own
    Schur form.
    """
    parts = sys.__dict__.get("_parts")
    if parts is not None:
        return _response_stack(parts[1], points) - _response_stack(parts[0], points)
    k = points.shape[0]
    n, p, m = sys.n, sys.p, sys.m
    if n == 0:
        return np.broadcast_to(sys.D, (k, p, m)).copy()
    t, cz, zb = sys._schur_form
    rows = np.vstack([cz, t])
    cols = rows.T[:, :, None, None]
    diag = np.diagonal(t)[:, None, None, None]
    # first rows of the 2 x 2 diagonal blocks of a real quasi-triangular T
    pairs = set(np.flatnonzero(np.diagonal(t, -1)).tolist())
    real = t.dtype.kind == "f"
    panels = _panels(n, pairs) if real else [(0, n)]
    # each panel's columns of [C Z; T], in the rows above the panel
    above = {
        first: np.ascontiguousarray(rows[: p + first, first:last])
        for first, last in panels
    }
    size = _CHUNK_POINTS
    chunks = -(-k // size)
    padded = np.concatenate([points, np.repeat(points[-1:], chunks * size - k)])
    padded = padded.reshape(chunks, size)
    group = max(1, _STACK_BLOCK_BYTES // (16 * (p + n) * m * size))
    out = np.empty((chunks * size, p, m), dtype=complex)
    for lo in range(0, chunks, group):
        pts = padded[lo : lo + group]
        w = np.empty((pts.shape[0], p + n, size, m), dtype=complex)
        w[:, :p] = sys.D[:, None, :]
        w[:, p:] = zb[:, None, :]
        shift = pts[:, :, None] - diag
        for first, last in panels:
            # the first row a step updates: a complex T's one panel updates
            # every row above the step, a real T's panels their own rows
            top = p + first if real else 0
            for i in range(last - 1, first - 1, -1):
                if i - 1 in pairs:
                    continue  # solved with the row above it
                x = w[:, p + i]
                if i in pairs:
                    # (sI - T) restricted to the block is [[s - a, -b], [-c, s - d]]
                    y = w[:, p + i + 1]
                    b, c = t[i, i + 1], t[i + 1, i]
                    det = shift[i] * shift[i + 1] - b * c
                    x[...], y[...] = (shift[i + 1] * x + b * y) / det, (c * x + shift[i] * y) / det
                    w[:, top : p + i] += cols[i + 1, top : p + i] * y[:, None]
                else:
                    x /= shift[i]
                w[:, top : p + i] += cols[i, top : p + i] * x[:, None]
            if top:
                for chunk in w.view(float).reshape(w.shape[0], p + n, -1):
                    add_product(chunk[:top], above[first], chunk[p + first : p + last])
        out[lo * size : (lo + group) * size] = w[:, :p].transpose(0, 2, 1, 3).reshape(-1, p, m)
    return out[:k]


def _point_response(sys: StateSpace, s: complex) -> np.ndarray:
    """The response C (sI - A)^(-1) B + D at one point s, unscreened.

    An error system returns the difference of its two parts' responses.
    Any other system calls its cached resolvent (see linalg.resolvent):
    one BLAS trsv per input column on a complex triangular T, or one real
    LAPACK trsyl per input column on a real quasi-triangular T, then one
    gemm.
    """
    parts = sys.__dict__.get("_parts")
    if parts is not None:
        return _point_response(parts[1], s) - _point_response(parts[0], s)
    if sys.n == 0:
        return sys.D.copy()
    return sys._resolvent(s)


def _split(sys: StateSpace) -> tuple:
    """The parts a probe of sys evaluates: (sys,), or (full, reduced) for an
    error system, whose response is the full part's minus the reduced's."""
    parts = sys.__dict__.get("_parts")
    return (sys,) if parts is None else (parts[1], parts[0])


def _screens(targets) -> tuple:
    """(poles, tol) for probing targets, each a tuple of parts (see _split).

    Row i of poles holds the poles of all parts of target i, padded with
    inf; tol[i] is the target's pole tolerance.
    """
    rows = [np.concatenate([part.poles for part in parts]) for parts in targets]
    poles = np.full((len(rows), max([1] + [row.size for row in rows])), np.inf, complex)
    for padded, row in zip(poles, rows):
        padded[: row.size] = row
    return poles, np.array([_pole_tolerance(*parts) for parts in targets])


def _where(s: complex):
    """What PoleOnGrid reports for a point: its real frequency on the
    imaginary axis (as sweep does), the point itself elsewhere."""
    return s.imag if s.real == 0.0 else s


def _probe(targets, points, poles, tol) -> list:
    """Screened responses of targets[i] at points[i].

    targets are tuples of parts (see _split) with one p x m shape, points
    Python complex numbers, and poles and tol the targets' rows of
    _screens. All probes are screened against the poles as one array, then
    each is evaluated by _point_response (one resolvent call per part) and
    all are checked for finiteness as one array. Raises PoleOnGrid at the
    first probe, in order, that lies within tolerance of a pole or whose
    response overflows (a real form's probe that trsyl had to perturb
    counts as overflowed); probes after a pole hit are not evaluated.
    """
    near = np.abs(np.array(points)[:, None] - poles).min(axis=1) < tol
    stop = int(np.argmax(near)) if near.any() else len(points)
    responses = []
    for parts, s in zip(targets[:stop], points[:stop]):
        resp = _point_response(parts[0], s)
        responses.append(resp if len(parts) == 1 else resp - _point_response(parts[1], s))
    if responses:
        finite = np.isfinite(np.array(responses)).all(axis=(1, 2))
        if not finite.all():
            s = points[int(np.argmin(finite))]
            raise PoleOnGrid(f"response overflowed at s = {s}", omega=_where(s))
    if stop < len(points):
        s = points[stop]
        raise PoleOnGrid(
            f"evaluation point {s} is within tolerance of a pole", omega=_where(s)
        )
    return responses


def evaluate_at(sys: StateSpace, s: complex) -> np.ndarray:
    """Response matrix at an arbitrary complex point s.

    Raises PoleOnGrid within tolerance of a pole or where the response
    overflows. A one-point _probe on the cached Schur form (of each part,
    for an error system): see _point_response.
    """
    targets = [_split(sys)]
    return _probe(targets, [complex(s)], *_screens(targets))[0]


def evaluate(sys: StateSpace, omega: float) -> np.ndarray:
    """Frequency response C (jwI - A)^(-1) B + D on the cached Schur form."""
    return evaluate_at(sys, 1j * float(omega))


def sigma_max_at(sys: StateSpace, omega: float) -> float:
    """Largest singular value of the response at one frequency, by the one
    sigma_max kernel (_sigma_stack). Refinement does not call it: a refined
    sweep probes all of its models at once (see _refined)."""
    return float(_sigma_stack(evaluate(sys, omega)[None])[0])


def _sigmas(responses: list) -> np.ndarray:
    """sigma_max of each response of a list, by one _sigma_stack call per
    dtype: a real response (of an n = 0 system) keeps the real SVD's bits."""
    sig = np.empty(len(responses))
    for dtype in {resp.dtype for resp in responses}:
        idx = [i for i, resp in enumerate(responses) if resp.dtype == dtype]
        sig[idx] = _sigma_stack(np.array([responses[i] for i in idx]))
    return sig


# Where the 1 x 1 closed form below is LAPACK's own arithmetic: zgesdd and
# dgesdd rescale a matrix whose largest entry lies below ~7e-139 or above
# ~1.5e138, which changes the last bits.
_SIGMA_CLOSED_FORM = (1e-130, 1e130)


def _sigma_stack(responses: np.ndarray) -> np.ndarray:
    """sigma_max of each response of a (k, p, m) stack; NaN where the
    response is not finite. The one sigma_max kernel of this module.

    A 1 x 1 response z takes the arithmetic of LAPACK's 1 x 1 SVD (the
    dlapy3 norm of its Householder step): with w = max(|Re z|, |Im z|),
    sigma = w sqrt((|Re z|/w)^2 + (|Im z|/w)^2), and 0 where w = 0. This
    gives the SVD's exact bits (np.abs does not, in the last bit) where
    1e-130 <= w <= 1e130; other 1 x 1 values and every larger response go
    to numpy's SVD. Non-finite responses never reach the SVD: a NaN entry
    (inf - inf in an error system) makes LAPACK fail to converge.
    """
    k, p, m = responses.shape
    if p == 0 or m == 0:
        return np.zeros(k)
    svd = np.ones(k, bool)
    sig = np.full(k, np.nan)
    if p == m == 1:
        z = responses[:, 0, 0]
        x, y = np.abs(z.real), np.abs(z.imag)
        w = np.maximum(x, y)
        lo, hi = _SIGMA_CLOSED_FORM
        closed = (w >= lo) & (w <= hi)  # false for inf and NaN
        if closed.all():
            return _svd_1x1(x, y, w)
        sig[closed] = _svd_1x1(x[closed], y[closed], w[closed])
        sig[w == 0.0] = 0.0
        svd = ~closed & (w != 0.0)
    svd &= np.isfinite(responses).all(axis=(1, 2))
    if svd.any():
        sig[svd] = np.linalg.svd(responses[svd], compute_uv=False)[:, 0]
    return sig


def _svd_1x1(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The singular value of a 1 x 1 matrix x + iy, as LAPACK computes it:
    dlapy3(x, y, 0) for x, y >= 0 and w = max(x, y) > 0."""
    return w * np.sqrt((x / w) ** 2 + (y / w) ** 2)


def _check_io(full: StateSpace, reduced: StateSpace) -> None:
    if (full.m, full.p) != (reduced.m, reduced.p):
        raise DimensionMismatch(
            f"io dimensions differ: full {(full.p, full.m)}, "
            f"reduced {(reduced.p, reduced.m)}"
        )


def error_system(full: StateSpace, reduced: StateSpace) -> StateSpace:
    """Realization of the difference G(jw) - G_r(jw).

    Block-diagonal stacking: states of the reduced model first, then the
    full model; the reduced output enters negated. The stacked realization
    is never factored: its poles are the two models' own, and every
    response is the full model's minus the reduced model's, each on its own
    cached Schur form. Many error systems of one full model factor it only
    once, and error_sweeps evaluates it only once per grid.
    """
    _check_io(full, reduced)
    nr, n = reduced.n, full.n
    a = np.zeros((nr + n, nr + n), dtype=np.result_type(reduced.A, full.A))
    a[:nr, :nr] = reduced.A
    a[nr:, nr:] = full.A
    b = np.vstack([reduced.B, full.B])
    c = np.hstack([-reduced.C, full.C])
    err = StateSpace(a, b, c, full.D - reduced.D)
    object.__setattr__(err, "_parts", (reduced, full))
    return err


@dataclass(frozen=True, eq=False)
class FrequencyGrid:
    """Strictly increasing real frequencies."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float).ravel()
        if pts.size == 0:
            raise DimensionMismatch("frequency grid must contain at least one point")
        if not np.all(np.isfinite(pts)):
            raise DimensionMismatch("frequency grid contains non-finite values")
        if pts.size > 1 and not np.all(np.diff(pts) > 0):
            raise DimensionMismatch("frequency grid must be strictly increasing")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return int(self.points.size)

    @classmethod
    def linear(cls, lo: float, hi: float, count: int) -> "FrequencyGrid":
        if not (lo < hi) or count < 2:
            raise DimensionMismatch("linear grid needs lo < hi and count >= 2")
        return cls(np.linspace(lo, hi, count))

    @classmethod
    def logarithmic(cls, lo: float, hi: float, count: int) -> "FrequencyGrid":
        if not (0 < lo < hi) or count < 2:
            raise DimensionMismatch("log grid needs 0 < lo < hi and count >= 2")
        return cls(np.geomspace(lo, hi, count))

    @classmethod
    def explicit(cls, values) -> "FrequencyGrid":
        pts = np.unique(np.asarray(values, dtype=float).ravel())
        return cls(pts)


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


# A refined peak's search stops once its bracket lies within this width,
# relative to max(1, |lo|, |hi|), of its best sample.
_REFINE_REL_TOL = 1e-6
# Brent's golden-section fallback step, as a fraction of the longer side
_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def _peak_search(a: float, fa: float, x: float, fx: float, b: float, fb: float):
    """Maximize sigma_max on [a, b] from its grid samples (a, fa), (x, fx),
    (b, fb): x the grid peak, a and b its nearest finite neighbours (x
    itself on the grid's edge). A generator: it yields one probe frequency
    per round, is sent its sigma_max, and returns the best sample (w, v),
    a grid sample where no probe beat it.

    With width = _REFINE_REL_TOL * max(1, |a|, |b|), a bracket within width
    is not probed. An edge peak (x = a or b) probes the point width inside
    the edge and stands unless that probe is higher: its bracket's interior
    is not searched, so it is as blind as the grid to a narrower bump.
    Otherwise Brent's maximization runs (Algorithms for Minimization
    without Derivatives, 1973, ch. 5), seeded by the three samples held:
    parabolic steps, golden-section ones where a parabola is refused, none
    shorter than width / 2, until every point of the bracket lies within
    width of the best sample x.
    """
    width = _REFINE_REL_TOL * max(1.0, abs(a), abs(b))
    tol = 0.5 * width
    if x == a or x == b:
        if b - a <= width:
            return x, fx
        inner = x + width if x == a else x - width
        f_inner = yield inner
        if f_inner <= fx:
            return x, fx
        v, fv = (b, fb) if x == a else (a, fa)
        w, fw, x, fx = x, fx, inner, f_inner
    else:
        (w, fw), (v, fv) = ((a, fa), (b, fb)) if fa >= fb else ((b, fb), (a, fa))
    d = e = b - a
    while True:
        m = 0.5 * (a + b)
        if abs(x - m) <= width - 0.5 * (b - a):
            return x, fx
        parabolic = False
        if abs(e) > tol:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = -p if q > 0.0 else p, abs(q)
            last, e = e, d
            # the parabola's vertex x + p / q, taken when it lies inside
            # the bracket and steps less than half the step before last
            parabolic = abs(p) < abs(0.5 * q * last) and q * (a - x) < p < q * (b - x)
        if parabolic:
            d = p / q
            if (x + d) - a < width or b - (x + d) < width:
                d = tol if x <= m else -tol
        else:
            e = a - x if x >= m else b - x
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else (tol if d >= 0.0 else -tol))
        fu = yield u
        if fu >= fx:
            a, b = (x, b) if u >= x else (a, x)
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            a, b = (u, b) if u < x else (a, u)
            if fu >= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu


def _check_on_pole(on_pole: str) -> None:
    if on_pole not in ("raise", "skip"):
        raise DimensionMismatch(f"on_pole must be 'raise' or 'skip', got {on_pole!r}")


def _grid_report(grid, bad, responses, on_pole) -> SweepReport:
    """The unrefined report over grid, given the responses at the points
    not bad.

    bad (updated in place) flags the points screened out as pole hits; any
    point whose response or sigma_max is not finite joins them. Under
    on_pole="raise" the first flagged point raises PoleOnGrid.
    """
    om = grid.points
    values = np.full(om.size, np.nan)
    good = ~bad
    if good.any():
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
    values.setflags(write=False)
    finite = np.flatnonzero(good)
    if finite.size == 0:
        return SweepReport(grid, values, math.nan, math.nan, tuple(om[bad]))
    k = int(finite[np.argmax(values[finite])])
    return SweepReport(grid, values, float(values[k]), float(om[k]), tuple(om[bad]))


def _refined(reports: list, targets: list) -> list:
    """reports, updated in place, with every peak sharpened by its own
    _peak_search, all run in lockstep.

    targets[i] is report i's swept system as a tuple of parts (see _split),
    or None to leave report i as it is. A peak moves to its search's best
    sample only where that exceeds the grid peak. Each round's probe of
    every search still running is screened by one _probe call and reduced
    by one sigma_max kernel call. A search's arithmetic is its own, so its
    result does not depend on the others; only which probe raises first
    (in _probe's order) can.
    """
    picks, searches = [], []
    for i, (rep, parts) in enumerate(zip(reports, targets)):
        if parts is None or math.isnan(rep.peak_value):
            continue
        finite = np.flatnonzero(~np.isnan(rep.sigma_max))
        j = int(np.searchsorted(rep.grid.points[finite], rep.peak_frequency))
        k = finite[[max(j - 1, 0), j, min(j + 1, finite.size - 1)]]
        if k[2] > k[0]:
            samples = np.stack([rep.grid.points[k], rep.sigma_max[k]], axis=1)
            picks.append(i)
            searches.append(_peak_search(*samples.ravel().tolist()))
    poles, tol = _screens([targets[i] for i in picks])
    sent = dict.fromkeys(range(len(picks)))
    while True:
        asked = {}
        for row, value in sent.items():
            try:
                asked[row] = searches[row].send(value)
            except StopIteration as done:
                (w, v), i = done.value, picks[row]
                if v > reports[i].peak_value:
                    reports[i] = replace(reports[i], peak_value=v, peak_frequency=w)
        if not asked:
            return reports
        rows = list(asked)
        parts = [targets[picks[row]] for row in rows]
        points = [1j * w for w in asked.values()]
        sig = _sigmas(_probe(parts, points, poles[rows], tol[rows]))
        sent = dict(zip(rows, sig.tolist()))


def sweep(
    sys: StateSpace,
    grid: FrequencyGrid,
    refine: bool = False,
    on_pole: str = "raise",
) -> SweepReport:
    """Evaluate sigma_max over a grid and locate its peak.

    Points are computed independently (one back substitution each on the
    system's one Schur form, real or complex, vectorized over the grid) and
    reduced to sigma_max by one kernel call, so the result does not depend
    on evaluation order. A real system's sigma_max is bitwise even in w, so
    on a grid mirrored exactly about 0 (symmetric_log_grid) two mirror
    peaks tie and the negative frequency is reported.
    Every sweep is an error_sweeps call: a plain system's is
    error_sweeps(sys, [None], grid, on_pole=on_pole), its peak then refined
    alone, and an error system's evaluates its full model over the grid and
    subtracts the reduced model's responses. Points within tolerance of a
    pole, or whose response overflows, raise PoleOnGrid (on_pole="raise")
    or are skipped as NaN (on_pole="skip").
    With refine=True a search between the peak's grid neighbours sharpens
    the reported peak to relative width 1e-6: one probe inside an edge
    peak, Brent's parabolic steps elsewhere (see _peak_search). Each probe
    is a single point (see _point_response).
    """
    parts = sys.__dict__.get("_parts")
    if parts is not None:
        return error_sweeps(parts[1], [parts[0]], grid, refine, on_pole)[0]
    reports = error_sweeps(sys, [None], grid, on_pole=on_pole)
    return _refined(reports, [(sys,) if refine else None])[0]


def error_sweeps(
    full: StateSpace,
    reduced_models,
    grid: FrequencyGrid,
    refine: bool = False,
    on_pole: str = "raise",
) -> list:
    """Sweep the error of each reduced model of one plant over one grid.

    Report i is sweep(error_system(full, reduced_models[i]), grid, refine,
    on_pole), but no error system is built and the plant is screened
    against its poles and evaluated over the grid once: each model then
    screens the points against its own poles too, at the error system's
    tolerance (1e-12 max(1, both pole radii)), is evaluated on the points
    left, and is subtracted from the plant's responses there. A None model
    stands for the plant itself and gets the plant's own grid report from
    the same responses, never refined.
    With refine=True the peaks of all models are refined together by one
    lockstep search (_refined): each round probes every model still
    searching, plant minus model at one point each, and reduces all of the
    probes by one sigma_max kernel call. Every model's grid report is made,
    in order, before any probe, so under on_pole="raise" the first model
    with a pole (or an overflow) on the grid raises, and a probe that hits
    a pole or overflows raises only after every grid has passed.
    """
    _check_on_pole(on_pole)
    s_points = 1j * grid.points
    plant_dist = _pole_distances(full, s_points)
    kept = ~(plant_dist < _pole_tolerance(full))
    plant = _response_stack(full, s_points[kept]) if kept.any() else None
    reports, targets = [], []
    for reduced in reduced_models:
        if reduced is None:
            reports.append(_grid_report(grid, ~kept, plant, on_pole))
            targets.append(None)
            continue
        _check_io(full, reduced)
        # a pole of either part is a pole of the error, screened at the
        # error's tolerance, so every point it keeps the plant kept too
        dist = np.minimum(plant_dist, _pole_distances(reduced, s_points))
        good = ~(dist < _pole_tolerance(full, reduced))
        responses = None
        if good.any():
            responses = plant[good[kept]] - _response_stack(reduced, s_points[good])
        reports.append(_grid_report(grid, ~good, responses, on_pole))
        targets.append((full, reduced) if refine else None)
    return _refined(reports, targets)


def moebius_substitute(
    sys: StateSpace, a: complex, b: complex, c: complex, d: complex
) -> StateSpace:
    """Realize G((a s + b)/(c s + d)) as a new state-space system.

    The binding contract is the response identity
        evaluate(result, w) == evaluate_at(sys, (a jw + b)/(c jw + d)),
    which the tests check directly. Refuses ad - bc near zero
    (DegenerateMap) and a numerically singular aI - cA (SingularSubstitution).
    """
    det = a * d - b * c
    scale = max(1.0, abs(a), abs(b), abs(c), abs(d)) ** 2
    if abs(det) <= 1e-14 * scale:
        raise DegenerateMap(f"ad - bc = {det} is degenerate at scale {scale:.1e}")
    singular = SingularSubstitution("aI - cA is numerically singular")
    return moebius_realization(sys, (a, b, c, d), singular, guarded=True)


def moebius_realization(
    sys: StateSpace, coeffs, error, *, shift: complex = 0.0, guarded: bool
) -> StateSpace:
    """G(shift + phi(s - shift)), phi(u) = (a u + b)/(c u + d), unchecked.

    With (a, b, c, d) = coeffs, A_u = A - shift I, F = aI - cA_u, g = sqrt|ad - bc|:
        A^ = shift I + F^(-1) (d A_u - b I),   B^ = g F^(-1) B,
        C^ = ((ad - bc)/g) C F^(-1),            D^ = D + c C F^(-1) B.
    Real coefficients and shift keep real data real. Solves with F raise
    error on an exact zero pivot and, if guarded, on a numerically singular F.
    """
    n = sys.n
    if n == 0:
        return sys
    a, b, c, d = coeffs
    det = a * d - b * c
    g = math.sqrt(abs(det))
    eye = np.eye(n)
    a_u = sys.A - shift * eye
    f = a * eye - c * a_u
    finv_b = (solve_guarded if guarded else solve)(f, sys.B, error)
    a_new = shift * eye + solve(f, d * a_u - b * eye, error)
    c_new = solve(f.T, sys.C.T, error).T
    d_new = sys.D + c * gemm(sys.C, finv_b)
    return StateSpace(a_new, g * finv_b, (det / g) * c_new, d_new)


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
    pole magnitudes, the peak search between the grid peak's neighbours
    (see sweep), and sigma_max(D) as the w -> +/-inf candidate (frequency
    reported as inf), all reduced by the one sigma_max kernel. Returns
    (value, frequency).
    """
    d_limit = float(_sigma_stack(sys.D[None])[0])
    if sys.n == 0:
        return d_limit, math.inf
    grid = symmetric_log_grid(sys.poles, points)
    report = sweep(sys, grid, refine=True)
    if d_limit > report.peak_value:
        return d_limit, math.inf
    return report.peak_value, report.peak_frequency
