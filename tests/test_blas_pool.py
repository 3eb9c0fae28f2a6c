"""One BLAS pool: fdbt's dense kernels never wake numpy's OpenBLAS.

numpy and scipy each bundle an OpenBLAS with its own thread pool, and a
threaded call into one while the other's workers spin runs several times
slower, so every O(n^3) kernel goes through scipy's LAPACK and BLAS. The
tripwire below makes numpy's dense linear algebra, scipy's Lyapunov solver
and scipy's logm (numpy products inside both) fail loudly while every
method runs on a 31-state ladder. The tripwire cannot see numpy's matrix
product, so a scan of the sources forbids it, and forbids LU solves
outside fdbt.linalg; at the paper's scale, per-thread CPU ticks show
numpy's pool idle through a logarithm.
"""

import os
import pathlib
import re

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
import fdbt
from fdbt.harness import generate_ladder, verify_bound
from helpers import python_at_threads
from fdbt.sysmodel import (
    FrequencyGrid,
    error_sweeps,
    error_system,
    hinf_estimate,
    sigma_max_at,
    symmetric_log_grid,
)

NUMPY_KERNELS = ("eig", "eigvals", "eigh", "eigvalsh", "svd", "solve", "inv", "pinv", "norm")
# numpy's matrix product: the @ operator between operands, np.dot, np.matmul
NUMPY_PRODUCT = re.compile(r"[\w)\]][ \t]*@=?[ \t]*[\w(\[]|\b(np|numpy)\.(dot|matmul)\(")
# dense solves outside linalg.py: every LU solve goes through linalg.solve
LU_SOLVE = re.compile(r"\blu_(factor|solve)\b|\bscipy\.linalg\.solve\(")
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

    def no_logm(*args, **kwargs):
        raise AssertionError("scipy.linalg.logm called")

    monkeypatch.setattr(scipy.linalg, "solve_continuous_lyapunov", no_lyapunov)
    monkeypatch.setattr(scipy.linalg, "logm", no_logm)


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
    # a single-point probe of a 41-state error system
    assert sigma_max_at(error_system(sys, results[0].reduced), 0.3) > 0.0
    # one batched sweep of the plant and all of its 41-state error systems
    reports = error_sweeps(
        sys, [None] + [res.reduced for res in results], band_grid, refine=True, on_pole="skip"
    )
    assert all(rep.peak_value > 0.0 for rep in reports)


def test_lockstep_refinement_stays_in_one_pool(one_pool):
    # six models of a 2-input, 3-output plant, each peak refined by its own
    # search: the probes' p x m SVDs stay on numpy, every solve on scipy's BLAS
    rng = np.random.default_rng(118)
    a = rng.standard_normal((20, 20))
    a -= (np.max(scipy.linalg.eigvals(a).real) + 0.3) * np.eye(20)
    plant = fdbt.StateSpace(a, rng.standard_normal((20, 2)), rng.standard_normal((3, 20)),
                            rng.standard_normal((3, 2)))
    reduced = [fibt_reduce(plant, r).reduced for r in (2, 5, 8)] + [
        gspa_reduce(plant, r).reduced for r in (2, 5, 8)
    ]
    grid = symmetric_log_grid(plant.poles, 200)
    reports = error_sweeps(plant, reduced, grid, refine=True, on_pole="skip")
    assert all(rep.peak_value >= np.nanmax(rep.sigma_max) > 0.0 for rep in reports)


def test_sources_use_no_numpy_product():
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(pathlib.Path(fdbt.__file__).parent.glob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if NUMPY_PRODUCT.search(line)
    ]
    assert found == []


def test_sources_solve_only_through_linalg():
    found = [
        f"{path.name}:{number}: {line.strip()}"
        for path in sorted(pathlib.Path(fdbt.__file__).parent.glob("*.py"))
        if path.name != "linalg.py"
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if LU_SOLVE.search(line)
    ]
    assert found == []


def test_source_scan_sees_lu_solves():
    for line in ("lu = scipy.linalg.lu_factor(x)", "x = lu_solve(lu, b)",
                 "from scipy.linalg import lu_factor, lu_solve",
                 "x = scipy.linalg.solve(a, b)"):
        assert LU_SOLVE.search(line), line
    for line in ("x = solve(a, b, error)", "x = solve(a, b, error, guarded=True)",
                 "x = scipy.linalg.solve_triangular(a, b)", "plu_factory = 1"):
        assert not LU_SOLVE.search(line), line


def test_source_scan_sees_products():
    for line in ("x = a @ b", "y = gemm(a, b) @ c.T", "x @= b", "z = np.dot(a, b)",
                 "w = numpy.matmul(a, b)", "v = (a)@[1]"):
        assert NUMPY_PRODUCT.search(line), line
    for line in ("    @property", "@dataclass(frozen=True)", "dot(a, b)", "x = a.dot"):
        assert not NUMPY_PRODUCT.search(line), line


def test_tripwire_fires(one_pool):
    # the patches are live: a 16 x 16 numpy solve and scipy's logm fail
    with pytest.raises(AssertionError):
        np.linalg.solve(np.eye(TRIP_ORDER), np.ones(TRIP_ORDER))
    with pytest.raises(AssertionError):
        scipy.linalg.logm(np.ones((2, 2)) + np.eye(2))
    np.linalg.solve(np.eye(TRIP_ORDER - 1), np.ones(TRIP_ORDER - 1))


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs Linux /proc")
def test_ladder_201_logarithm_leaves_numpy_pool_idle():
    # threads that importing numpy starts are its OpenBLAS workers; their
    # CPU ticks (utime + stime, read-only) must not move while fdbt takes
    # the logarithm that fgbt's Gramians need at the paper's scale
    script = (
        "import os\n"
        "def tids():\n"
        "    return set(os.listdir('/proc/self/task'))\n"
        "def ticks(tid):\n"
        "    with open(f'/proc/self/task/{tid}/stat') as fh:\n"
        "        fields = fh.read().rsplit(')', 1)[1].split()\n"
        "    return int(fields[11]) + int(fields[12])\n"
        "main = tids()\n"
        "import numpy as np\n"
        "workers = tids() - main\n"
        "from fdbt import log_principal\n"
        "from fdbt.harness import generate_ladder\n"
        "m = 0.5j * np.eye(201) - np.asarray(generate_ladder(201).A)\n"
        "log_principal(m)\n"
        "before = {t: ticks(t) for t in workers}\n"
        "for _ in range(3):\n"
        "    log_principal(m)\n"
        "print(sum(ticks(t) - before[t] for t in workers))\n"
    )
    assert python_at_threads(None, script).strip() == "0"
