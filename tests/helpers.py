"""Seeded model factories, a fresh-interpreter runner and a LAPACK call
counter shared across test modules."""

import collections
import os
import subprocess
import sys

import numpy as np

import fdbt
from fdbt import StateSpace


def python_at_threads(threads, script, *args):
    """stdout of a fresh interpreter running script with fdbt importable, at
    OPENBLAS_NUM_THREADS=threads, or at OpenBLAS's default for None."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fdbt.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if threads:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script, *args],
        env=env, check=True, capture_output=True, text=True, timeout=300,
    ).stdout


def count_lapack_calls(monkeypatch):
    """A Counter of the LAPACK and BLAS routines fdbt runs from now on, by
    name, counted through linalg's routine handles (workspace queries,
    cached per order, not counted)."""
    calls = collections.Counter()
    real = fdbt.linalg._routine

    def routine(name, char):
        fn = real(name, char)

        def counted(*args, **kwargs):
            if kwargs.get("lwork") != -1:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(fdbt.linalg, "_routine", routine)
    return calls


def random_stable(seed, n, m=1, p=1, complex_entries=False, margin=0.3):
    """A Hurwitz system with standard-normal entries, spectrum shifted left."""
    rng = np.random.default_rng(seed)

    def mat(rows, cols):
        x = rng.standard_normal((rows, cols))
        if complex_entries:
            x = x + 1j * rng.standard_normal((rows, cols))
        return x

    a = mat(n, n)
    a = a - (np.max(np.linalg.eigvals(a).real) + margin) * np.eye(n)
    return StateSpace(a, mat(n, m), mat(p, n), mat(p, m))


def damped_chain(k, damping=0.01, m=1, p=1, seed=0):
    """A chain of k unit masses between unit springs, each mass damped by
    damping: 2k states, lightly damped pole pairs -damping/2 +- j w_i with
    w_i^2 = 4 sin^2(i pi / (2(k + 1))) - damping^2/4. Seeded B and C."""
    rng = np.random.default_rng(seed)
    stiff = 2.0 * np.eye(k) - np.eye(k, k=1) - np.eye(k, k=-1)
    a = np.block([[np.zeros((k, k)), np.eye(k)], [-stiff, -damping * np.eye(k)]])
    return StateSpace(
        a, rng.standard_normal((2 * k, m)), rng.standard_normal((p, 2 * k)),
        rng.standard_normal((p, m)),
    )


def random_unstable(seed, n, m=1, p=1, lift=0.5):
    """A system whose rightmost eigenvalue sits at +lift."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n))
    a = a + (lift - np.max(np.linalg.eigvals(a).real)) * np.eye(n)
    return StateSpace(
        a, rng.standard_normal((n, m)), rng.standard_normal((p, n)),
        rng.standard_normal((p, m)),
    )


def well_conditioned_transform(seed, n, cond_cap=50.0):
    """Random invertible T with singular values spread below cond_cap."""
    rng = np.random.default_rng(seed)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    sv = np.geomspace(1.0, cond_cap, n)
    t = q1 @ np.diag(sv) @ q2
    return t, np.linalg.inv(t)


def response_gap(sys_a, sys_b, omegas):
    """sup over omegas of sigma_max(Ga(jw) - Gb(jw)), raw numpy path."""
    worst = 0.0
    for w in omegas:
        ra = _resp(sys_a, 1j * float(w))
        rb = _resp(sys_b, 1j * float(w))
        worst = max(worst, float(np.linalg.svd(ra - rb, compute_uv=False)[0]))
    return worst


def _resp(sys, s):
    if sys.n == 0:
        return np.asarray(sys.D, dtype=complex)
    r = np.linalg.solve(s * np.eye(sys.n) - sys.A, sys.B)
    return sys.C @ r + sys.D
