"""Independent reference implementations used to pin expected values.

Everything in this module is deliberately naive: Kronecker vectorization
for Lyapunov solves, dense eigendecompositions for matrix functions,
adaptive quadrature for band-limited Gramians, the eta chain with its
block-diagonal matrices formed densely, plain matrix inverses and
per-point LU solves for frequency responses, and symbolic circuit
analysis for the ladder fixture. Slow and simple is the point. The package under test must agree
with these, never the other way around.

Oracles take raw arrays, with one exception: the refinement oracles at the
end search a sweep's peak one probe at a time through a sigma_max_at probe
that evaluates through fdbt's screened `evaluate`. `peak_search` is the
scalar form of fdbt's peak search, so its peaks are bitwise what a
one-probe-at-a-time refinement of the same responses gives; `golden_max`
is the golden-section search with which fdbt once refined peaks, kept
verbatim as an accuracy reference.
"""

import math
from typing import Callable

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import sqrtm

from fdbt.sysmodel import StateSpace, evaluate


def lyap_kron(a, q):
    # solves A W + W A^H + Q = 0 by vectorization; O(n^6), n <= 10 or so
    a = np.asarray(a, dtype=complex)
    q = np.asarray(q, dtype=complex)
    n = a.shape[0]
    eye = np.eye(n)
    # column-major vec: vec(A W) = (I (x) A) vec W, vec(W A^H) = (conj(A) (x) I) vec W
    m = np.kron(eye, a) + np.kron(a.conj(), eye)
    w = np.linalg.solve(m, -q.reshape(-1, order="F"))
    return w.reshape((n, n), order="F")


def sqrt_eig(m):
    # principal square root through a dense eigendecomposition (assumes
    # diagonalizable input, which every test feeding it guarantees)
    m = np.asarray(m, dtype=complex)
    lam, v = np.linalg.eig(m)
    return v @ np.diag(np.sqrt(lam.astype(complex))) @ np.linalg.inv(v)


def log_eig(m):
    m = np.asarray(m, dtype=complex)
    lam, v = np.linalg.eig(m)
    return v @ np.diag(np.log(lam.astype(complex))) @ np.linalg.inv(v)


def band_factors_dense(a, w1, w2):
    # (M, N) of the interval extension by dense solves and a dense sqrtm
    a = np.asarray(a, dtype=complex)
    k = a.shape[0]
    eye = np.eye(k, dtype=complex)
    wd, wc = (w2 - w1) / 2.0, (w2 + w1) / 2.0
    inv_r1r2 = np.linalg.solve(1j * w1 * eye - a, np.linalg.solve(1j * w2 * eye - a, eye))
    m = sqrtm(wd**2 * inv_r1r2) if k else np.zeros((0, 0), complex)
    return m, (1j * wc * eye - a) @ inv_r1r2


def _solve_guarded(m, rhs):
    # m^(-1) rhs, refusing a numerically singular m by its singular values
    if m.shape[0] == 0:
        return rhs
    sv = np.linalg.svd(m, compute_uv=False)
    assert sv[-1] > m.shape[0] * np.finfo(float).eps * sv[0], "singular band factor"
    return np.linalg.solve(m, rhs)


def eta_dense(a, b, c, sigma, w1, w2, r):
    """The eta chain of the in-band bound, assembled as dense matrices.

    a, b, c are the balanced state-space matrices and sigma their band
    Hankel values. Every step builds the (2i-1)-square block-diagonal
    MM = diag(M_{i-1}, M_i) and NN = diag(N_{i-1}, N_i) and solves with
    them directly. Returns eta_{r+1} .. eta_n.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    sigma = np.asarray(sigma, dtype=float)
    n, m_io, p_io = a.shape[0], b.shape[1], c.shape[0]
    factors = {k: band_factors_dense(a[:k, :k], w1, w2) for k in range(r, n + 1)}
    bx = factors[n][0] @ b
    cx = c @ factors[n][0]
    swap = np.zeros((m_io + p_io, p_io + m_io), dtype=complex)
    swap[:m_io, p_io:] = np.eye(m_io)
    swap[m_io:, :p_io] = np.eye(p_io)
    etas = []
    for i in range(r + 1, n + 1):
        (m_lo, n_lo), (m_hi, n_hi) = factors[i - 1], factors[i]
        dim = 2 * i - 1
        mm = np.zeros((dim, dim), dtype=complex)
        mm[: i - 1, : i - 1] = m_lo
        mm[i - 1 :, i - 1 :] = m_hi
        nn = np.zeros((dim, dim), dtype=complex)
        nn[: i - 1, : i - 1] = n_lo
        nn[i - 1 :, i - 1 :] = n_hi
        sig_e = np.concatenate([sigma[: i - 1], sigma[:i]])
        s_i = float(sigma[i - 1])
        b_stack = np.vstack([bx[: i - 1, :], bx[:i, :]])
        c_stack = np.vstack([cx[:, : i - 1].conj().T, -cx[:, :i].conj().T])
        b_dil = np.hstack(
            [_solve_guarded(mm, b_stack), s_i * _solve_guarded(mm, c_stack / sig_e[:, None])]
        )
        c2_stack = np.vstack([-cx[:, : i - 1].conj().T, cx[:, :i].conj().T])
        b2_stack = np.vstack([-bx[: i - 1, :], -bx[:i, :]])
        mstar = mm.conj().T
        c_dil = np.vstack(
            [
                _solve_guarded(mstar, c2_stack).conj().T,
                s_i * _solve_guarded(mstar, b2_stack / sig_e[:, None]).conj().T,
            ]
        )
        k_mat = -(c_dil @ nn @ b_dil @ (s_i * swap))
        herm = (2.0 * s_i) ** 2 * np.eye(p_io + m_io) + (k_mat + k_mat.conj().T) / 2.0
        etas.append(float(np.linalg.svd(herm, compute_uv=False)[0]))
    return np.array(etas)


def hankel_eig(wc, wo):
    # Hankel singular values as sqrt of eigenvalues of the Gramian product
    lam = np.linalg.eigvals(np.asarray(wc) @ np.asarray(wo))
    lam = np.clip(lam.real, 0.0, None)
    return np.sort(np.sqrt(lam))[::-1]


def sf_extension_closed_form(a, b, c, d, eps, varpi):
    # the sf substitution written out: with z = eps + j varpi, R = zI - A,
    #   A' = j varpi I - eps R^(-1) (j varpi I - A),  B' = eps R^(-1) B,
    #   C' = eps C R^(-1),                          D' = D + C R^(-1) B
    a, b, c, d = (np.asarray(x, dtype=complex) for x in (a, b, c, d))
    eye = np.eye(a.shape[0])
    jv = 1j * varpi
    rinv = np.linalg.inv((eps + jv) * eye - a)
    a_new = jv * eye - eps * rinv @ (jv * eye - a)
    return a_new, eps * rinv @ b, eps * c @ rinv, d + c @ rinv @ b


def sf_inverse_closed_form(a, b, c, d, eps, varpi):
    # its inverse on (A_t, B_t, C_t, D_t): with K = j varpi I - A_t and
    # S = (eps + j varpi) I - A for the A below,
    #   A = j varpi I - eps K (eps I - K)^(-1),  B = S B_t / eps,
    #   C = C_t S / eps,                          D = D_t - C S^(-1) B
    a, b, c, d = (np.asarray(x, dtype=complex) for x in (a, b, c, d))
    eye = np.eye(a.shape[0])
    jv = 1j * varpi
    k = jv * eye - a
    a_new = jv * eye - eps * k @ np.linalg.inv(eps * eye - k)
    s = (eps + jv) * eye - a_new
    b_new, c_new = s @ b / eps, c @ s / eps
    return a_new, b_new, c_new, d - c_new @ np.linalg.inv(s) @ b_new


def response_inv(a, b, c, d, s):
    # C (sI - A)^(-1) B + D with an explicit inverse, no solve
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 0:
        return np.asarray(d, dtype=complex)
    r = np.linalg.inv(s * np.eye(n) - a)
    return np.asarray(c) @ r @ np.asarray(b) + np.asarray(d)


def response_stack_lu(a, b, c, d, points):
    """C (sI - A)^(-1) B + D at a vector of points, one dense LU per point.

    The frequency-response kernel fdbt used before its Schur-form sweep:
    a batched np.linalg.solve on sI - A in memory-capped blocks. Returns
    shape (k, p, m).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    d = np.asarray(d, dtype=complex)
    points = np.asarray(points, dtype=complex)
    n, k = a.shape[0], points.shape[0]
    if n == 0:
        return np.broadcast_to(d, (k, c.shape[0], b.shape[1])).copy()
    eye = np.eye(n, dtype=complex)
    block = max(1, 32 * 1024 * 1024 // (16 * n * n))
    out = np.empty((k, c.shape[0], b.shape[1]), dtype=complex)
    buf = np.empty((min(block, k), n, n), dtype=complex)
    for lo in range(0, k, block):
        pts = points[lo : lo + block]
        lhs = buf[: pts.shape[0]]
        np.multiply(pts[:, None, None], eye, out=lhs)
        lhs -= a
        rhs = np.broadcast_to(b, (pts.shape[0], n, b.shape[1]))
        x = np.linalg.solve(lhs, rhs)
        out[lo : lo + block] = c[None, :, :] @ x + d
    return out


def response_lu(a, b, c, d, s):
    """C (sI - A)^(-1) B + D at one complex point s, by one dense LU."""
    return response_stack_lu(a, b, c, d, [s])[0]


def peak_on_grid(a, b, c, d, omegas):
    # max over the grid of the largest singular value of the response
    best = 0.0
    where = float(omegas[0])
    for w in omegas:
        s = float(np.linalg.svd(response_inv(a, b, c, d, 1j * w), compute_uv=False)[0])
        if s > best:
            best, where = s, float(w)
    return best, where


def band_gramians_quad(a, b, c, pieces, tol=1e-10):
    """Band-limited Gramians by adaptive quadrature over explicit pieces.

    pieces is an iterable of (w1, w2) intervals; the result sums
        Wc = (1/2pi) sum_i int_{w1_i}^{w2_i} R(w) B B^H R(w)^H dw
    and the mirror-image expression for Wo, with R(w) = (jwI - A)^(-1).
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    c = np.asarray(c, dtype=complex)
    n = a.shape[0]
    eye = np.eye(n)
    bbh = b @ b.conj().T
    chc = c.conj().T @ c

    def f_ctrl(w):
        r = np.linalg.inv(1j * w * eye - a)
        return (r @ bbh @ r.conj().T) / (2.0 * np.pi)

    def f_obs(w):
        r = np.linalg.inv(1j * w * eye - a)
        return (r.conj().T @ chc @ r) / (2.0 * np.pi)

    wc = np.zeros((n, n), dtype=complex)
    wo = np.zeros((n, n), dtype=complex)
    for (w1, w2) in pieces:
        wc += quad_vec(f_ctrl, w1, w2, epsabs=tol, epsrel=tol)[0]
        wo += quad_vec(f_obs, w1, w2, epsabs=tol, epsrel=tol)[0]
    return wc, wo


def ladder3_poles_symbolic(R=1.0, Rbar=1.0, Cval=1.0, L=1.0):
    """Poles of the 3-element RC/RL ladder by symbolic circuit analysis.

    Works from the circuit itself (source resistance R into node 1 with a
    shunt capacitor, one series inductor, load Rbar across the second
    shunt capacitor, output = load voltage), not from any state matrix:
        (U - V1)/R = s C V1 + I1
        I1 = (V1 - V2)/(s L)
        I1 = s C V2 + V2/Rbar
    Returns (poles sorted by real part then imaginary part, dc gain).
    """
    import sympy as sp

    s = sp.symbols("s")
    u, v1, v2, i1 = sp.symbols("u v1 v2 i1")
    Rs, Rl, Cs, Ls = [sp.nsimplify(x) for x in (R, Rbar, Cval, L)]
    eqs = [
        sp.Eq((u - v1) / Rs, s * Cs * v1 + i1),
        sp.Eq(i1, (v1 - v2) / (s * Ls)),
        sp.Eq(i1, s * Cs * v2 + v2 / Rl),
    ]
    sol = sp.solve(eqs, [v1, v2, i1], dict=True)[0]
    h = sp.simplify(sol[v2] / u)
    num, den = sp.fraction(sp.together(h))
    roots = sp.Poly(den, s).nroots(n=30)
    poles = np.array([complex(r) for r in roots])
    dc = complex(h.subs(s, 0))
    return poles, dc


def dc_gain_inv(a, b, c, d):
    # -C A^(-1) B + D by explicit inverse
    return (
        -np.asarray(c) @ np.linalg.inv(np.asarray(a, dtype=complex)) @ np.asarray(b)
        + np.asarray(d)
    )


def match_spectra(p, q):
    """Greedy bipartite matching distance between two spectra.

    Sorting complex eigenvalues is fuzzy when real parts tie to rounding,
    so compare as multisets: pair each element of p with its nearest
    unused element of q and report the worst pairing distance.
    """
    p = list(np.asarray(p, dtype=complex))
    q = list(np.asarray(q, dtype=complex))
    assert len(p) == len(q)
    worst = 0.0
    for x in p:
        j = int(np.argmin([abs(x - y) for y in q]))
        worst = max(worst, abs(x - q.pop(j)))
    return worst


# ---------------------------------------------------------------------------
# worked scalar values for the shift-anchored extension of G(s) = 1/(s+1)
# (A = -1, B = C = 1, D = 0) at anchor frequency 0 with shift 1.
#
# Substitution point z = 1 + 0j, R = z - A = 2:
#   A' = 0 - 1 * (0 - (-1))/2 = -1/2
#   B' = 1 * 1/2             =  1/2
#   C' = 1 * 1/2             =  1/2
#   D' = 0 + 1 * (1/2) * 1   =  1/2
# Controllability Lyapunov: 2 A' W + B'^2 = 0  =>  W = (1/4)/1 = 1/4.
SCALAR_SF = {
    "A": -0.5,
    "B": 0.5,
    "C": 0.5,
    "D": 0.5,
    "gramian": 0.25,
    "value_at_anchor": 1.0,  # G(j0) = 1/(0+1) = 1
}

# worked scalar values for the band restriction of the same G on [-1, 1]:
#   (j w1 - A) = 1 - j, (j w2 - A) = 1 + j, product = 2, width w_d = 1
#   M = sqrt(1/2), center shift N = (0 - A)/2 = 1/2
#   extended feedthrough D + C N B = 1/2
#   Lyapunov 2 A W + (M B)^2 = 0 with (MB)^2 = 1/2  =>  W = 1/4
#   first eta ratio for the scalar case = 1/2
SCALAR_INTERVAL = {
    "M": 0.5 ** 0.5,
    "N": 0.5,
    "D_ext": 0.5,
    "gramian": 0.25,
    "eta1": 0.5,
}


# ---------------------------------------------------------------------------
# refinement oracles, one sigma_max_at per probe: the scalar peak search,
# and the golden-section search kept verbatim

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def sigma_max_at(sys: StateSpace, omega: float) -> float:
    """Largest singular value of the response at one frequency."""
    resp = evaluate(sys, omega)
    if resp.size == 0:
        return 0.0
    return float(np.linalg.svd(resp, compute_uv=False)[0])


def golden_max(
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


_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0


def peak_search(f: Callable[[float], float], a, fa, x, fx, b, fb, rel_tol=1e-6):
    """Maximize f on [a, b] from the grid samples (a, fa), (x, fx), (b, fb),
    x the grid peak (x = a or x = b at the grid's edge); returns the best
    sample. One probe at a time, in the order fdbt's search makes them.

    A bracket within width = rel_tol * max(1, |a|, |b|) is not probed. An
    edge peak probes the point width inside the edge and keeps the edge's
    grid sample unless that probe is higher. Every other search is
    Brent's (Numerical Recipes' brent, maximizing, with tol1 = width / 2),
    its three points seeded by the grid samples, or by the far neighbour
    and the two probes after an edge.
    """
    width = rel_tol * max(1.0, abs(a), abs(b))
    tol1 = width / 2.0
    if x in (a, b):
        if b - a <= width:
            return x, fx
        inner = x + width if x == a else x - width
        f_inner = f(inner)
        if not f_inner > fx:
            return x, fx
        far = (b, fb) if x == a else (a, fa)
        points = [(inner, f_inner), (x, fx), far]
    else:
        points = [(x, fx)] + ([(a, fa), (b, fb)] if fa >= fb else [(b, fb), (a, fa)])
    (x, fx), (w, fw), (v, fv) = points
    d = b - a
    e = b - a
    while True:
        xm = 0.5 * (a + b)
        if abs(x - xm) <= width - 0.5 * (b - a):
            return x, fx
        golden = True
        if abs(e) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            etemp = e
            e = d
            golden = (
                abs(p) >= abs(0.5 * q * etemp) or p <= q * (a - x) or p >= q * (b - x)
            )
            if not golden:
                d = p / q
                u = x + d
                if u - a < width or b - u < width:
                    d = tol1 if xm - x >= 0.0 else -tol1
        if golden:
            e = a - x if x >= xm else b - x
            d = _CGOLD * e
        if abs(d) >= tol1:
            u = x + d
        else:
            u = x + tol1 if d >= 0.0 else x - tol1
        fu = f(u)
        if fu >= fx:
            if u >= x:
                a = x
            else:
                b = x
            v, w, x = w, x, u
            fv, fw, fx = fw, fx, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, w = w, u
                fv, fw = fw, fu
            elif fu >= fv or v == x or v == w:
                v, fv = u, fu
