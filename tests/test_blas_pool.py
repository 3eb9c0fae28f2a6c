"""One BLAS pool: fdbt's dense kernels never wake numpy's OpenBLAS.

numpy and scipy each bundle an OpenBLAS with its own thread pool, and a
threaded call into one while the other's workers spin runs several times
slower, so every O(n^3) kernel goes through scipy's LAPACK and BLAS. The
tripwire below makes numpy's dense linear algebra, scipy's Lyapunov solver
(numpy products inside) and scipy's logm on a full matrix (numpy products
inside) fail loudly while every method runs on a 31-state ladder.
"""

import numpy as np
import pytest
import scipy.linalg

from fdbt import (
    IntervalConfig,
    SfConfig,
    fgbt_reduce,
    fibt_reduce,
    gspa_reduce,
    interval_reduce,
    sf_reduce,
)
from fdbt.harness import generate_ladder, verify_bound
from fdbt.sysmodel import FrequencyGrid, hinf_estimate, symmetric_log_grid

NUMPY_KERNELS = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "solve", "inv", "pinv", "norm")
# below this order OpenBLAS runs single-threaded: per-point p x m SVDs of a
# sweep and the eta step's 2(m+p) SVD stay on numpy
TRIP_ORDER = 16


@pytest.fixture
def one_pool(monkeypatch):
    def tripwire(name, original):
        def guarded(x, *args, **kwargs):
            if np.ndim(x) >= 2 and max(np.shape(x)[-2:]) >= TRIP_ORDER:
                raise AssertionError(f"numpy.linalg.{name} on shape {np.shape(x)}")
            return original(x, *args, **kwargs)

        return guarded

    for name in NUMPY_KERNELS:
        monkeypatch.setattr(np.linalg, name, tripwire(name, getattr(np.linalg, name)))

    def no_lyapunov(*args, **kwargs):
        raise AssertionError("scipy.linalg.solve_continuous_lyapunov called")

    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", no_lyapunov)
    logm = scipy.linalg.logm

    def triangular_logm(a, *args, **kwargs):
        assert np.array_equal(a, np.triu(a)), "scipy.linalg.logm of a full matrix"
        return logm(a, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg, "logm", triangular_logm)


def test_every_method_stays_in_one_pool(one_pool):
    sys = generate_ladder(31)
    band = (-0.5, 0.5)
    band_grid = FrequencyGrid.linear(*band, 101)
    results = [
        fibt_reduce(sys, 10),
        gspa_reduce(sys, 10),
        gspa_reduce(sys, 10, 2.0),
        sf_reduce(sys, SfConfig(varpi=0.0, epsilon=1.0), 10),
        interval_reduce(sys, IntervalConfig(*band), 10),
        fgbt_reduce(sys, 10, *band),
    ]
    grids = {"sf": FrequencyGrid.explicit([0.0]), "interval": band_grid}
    checked = []
    for res in results:
        for key in res.bounds:
            grid = grids.get(key, symmetric_log_grid(sys.poles, 400))
            assert verify_bound(sys, res, grid, key).passed, (res.method, key)
            checked.append((res.method, key))
    # sf-fdbt's reduced model is not Hurwitz here, so it carries no ef bound
    assert checked == [
        ("fibt", "ef"), ("gspa", "ef"), ("sf-fdbt", "sf"), ("int-fdbt", "interval"),
        ("int-fdbt", "ef"),
    ]
    # an anchor off zero takes the complex path through the Moebius kernel
    off_centre = sf_reduce(sys, SfConfig(varpi=0.5, epsilon=1.0), 10)
    assert off_centre.reduced.A.dtype == np.complex128
    assert verify_bound(sys, off_centre, FrequencyGrid.explicit([0.5]), "sf").passed
    value, _ = hinf_estimate(sys)
    assert value > 0.0


def test_tripwire_fires(one_pool):
    # the patches are live: a 16 x 16 numpy solve and a full-matrix logm fail
    with pytest.raises(AssertionError):
        np.linalg.solve(np.eye(TRIP_ORDER), np.ones(TRIP_ORDER))
    with pytest.raises(AssertionError):
        scipy.linalg.logm(np.ones((2, 2)) + np.eye(2))
    np.linalg.solve(np.eye(TRIP_ORDER - 1), np.ones(TRIP_ORDER - 1))
