"""Independent reference implementations used to pin expected values.

Everything in this module is deliberately naive: Kronecker vectorization
for Lyapunov solves, dense eigendecompositions for matrix functions,
adaptive quadrature for band-limited Gramians, the eta chain with its
block-diagonal matrices formed densely, plain matrix inverses and
per-point LU solves for frequency responses, and symbolic circuit
analysis for the ladder fixture. Slow and simple is the point. The package under test must agree
with these, never the other way around.

No function here imports from fdbt. Oracles take raw arrays.
"""

import numpy as np
from scipy.integrate import quad_vec
from scipy.linalg import sqrtm


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
    them directly. Returns (eta, norms) with norms[j] the triple
    (||Bdil||_2, ||Cdil||_2, ||NN||_2) of step r+1+j.
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
    etas, norms = [], []
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
        norms.append(
            (np.linalg.norm(b_dil, 2), np.linalg.norm(c_dil, 2), np.linalg.norm(nn, 2))
        )
    return np.array(etas), norms


def hankel_eig(wc, wo):
    # Hankel singular values as sqrt of eigenvalues of the Gramian product
    lam = np.linalg.eigvals(np.asarray(wc) @ np.asarray(wo))
    lam = np.clip(lam.real, 0.0, None)
    return np.sort(np.sqrt(lam))[::-1]


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
