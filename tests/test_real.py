"""Real in, real out: exactly real data is held and reduced in float64.

A realization whose four matrices have exactly zero imaginary parts is
stored as float64, and every method keeps it real where its theory does:
whole-axis balancing, residualization, a band mirrored about zero, and the
sf substitution at varpi = 0. The oracle for the real path is the same
system under a diagonal unitary similarity diag(e^(j theta)): that makes
it complex, so it takes the complex path, with the same transfer function,
Hankel values and bounds.
"""

import json

import numpy as np
import pytest
import scipy.linalg

import fdbt.baselines
import fdbt.interval
import fdbt.linalg
import fdbt.reduction
from helpers import count_lapack_calls, random_stable
from fdbt import (
    FdbtError,
    FrequencyGrid,
    IntervalConfig,
    RandomModelSpec,
    SfConfig,
    StateSpace,
    band_gramians,
    cli,
    draw_random_models,
    error_system,
    evaluate,
    fgbt_reduce,
    fibt_reduce,
    generate_ladder,
    gspa_reduce,
    interval_reduce,
    sf_reduce,
    sweep,
)
from fdbt.baselines import fgbt_truncate, prepare_band, prepare_standard
from fdbt.interval import prepare_interval

BAND = (-0.5, 0.5)

METHODS = {
    "fibt": lambda sys, r: fibt_reduce(sys, r),
    "spa": lambda sys, r: gspa_reduce(sys, r, 0.0),
    "gspa": lambda sys, r: gspa_reduce(sys, r, 0.5),
    "fgbt": lambda sys, r: fgbt_reduce(sys, r, *BAND),
    "sf-fdbt": lambda sys, r: sf_reduce(sys, SfConfig(varpi=0.0, epsilon=1.0), r),
    "int-fdbt": lambda sys, r: interval_reduce(sys, IntervalConfig(*BAND), r),
}

CLI_FLAGS = {
    "fibt": [],
    "spa": [],
    "gspa": ["--rho", "0.5"],
    "fgbt": ["--w1", str(BAND[0]), "--w2", str(BAND[1])],
    "sf-fdbt": ["--varpi", "0", "--epsilon", "1"],
    "int-fdbt": ["--w1", str(BAND[0]), "--w2", str(BAND[1])],
}


def _real_systems():
    yield "ladder31", generate_ladder(31)
    for seed in (40, 41, 42):
        yield f"seed{seed}", random_stable(seed, 6, m=2, p=2)


def _phase_rotated(sys, seed):
    """diag(e^(j theta))* sys diag(e^(j theta)): complex, same transfer function."""
    d = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, sys.n))
    return StateSpace(
        d.conj()[:, None] * sys.A * d[None, :],
        d.conj()[:, None] * sys.B,
        sys.C * d[None, :],
        sys.D,
    )


def _is_float64(sys):
    return all(x.dtype == np.float64 for x in (sys.A, sys.B, sys.C, sys.D))


class TestDtypeChoice:
    def test_exactly_real_data_is_float64(self):
        sys = StateSpace(
            np.array([[-1.0 + 0j]]), [[1.0]], np.array([[2.0 + 0j]]), [[0.0]]
        )
        assert _is_float64(sys)

    def test_one_imaginary_entry_makes_all_four_complex(self):
        sys = StateSpace([[-1.0]], [[1.0]], [[1.0]], [[1e-300j]])
        assert all(x.dtype == np.complex128 for x in (sys.A, sys.B, sys.C, sys.D))

    def test_model_file_round_trip_keeps_real_data_real(self, tmp_path):
        path = str(tmp_path / "lad.json")
        cli.write_model(path, generate_ladder(5), name="lad")
        sys, _ = cli.load_model(path)
        assert _is_float64(sys)


@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("name, sys", list(_real_systems()))
def test_reduced_model_is_real(name, sys, method):
    for r in (1, 3):
        reduced = METHODS[method](sys, r).reduced
        assert _is_float64(reduced), (method, r)


@pytest.mark.parametrize("method", sorted(METHODS))
def test_cli_reduce_writes_real_model(tmp_path, method):
    src = str(tmp_path / "lad.json")
    cli.write_model(src, generate_ladder(9), name="lad")
    out = str(tmp_path / "red.json")
    argv = ["reduce", src, "--method", method, "--order", "3", "--output", out]
    assert cli.main(argv + CLI_FLAGS[method]) == 0
    with open(out) as fh:
        doc = json.load(fh)
    assert doc["metadata"]["real"] is True
    assert all(entry[1] == 0.0 for key in "ABCD" for row in doc[key] for entry in row)


# Cases the oracle cannot hold to 1e-10 relative, for reasons of
# conditioning that both paths share: the ladder's leading standard Hankel
# values are 0.7% apart, so its order-1 truncation direction moves by
# 2e-10; at r = 10 its fgbt and sf Hankel values sit near 7e-7 and 4e-7 of
# sigma_1, so the kept direction r is known to about eps / 5e-7, and sf's
# bound is a tail sum of Hankel values whose absolute rounding error is
# 1e-14 sigma_1.
CONDITIONING_LIMITED = {
    "ladder31-fibt-r1": "order-1 cut inside a 0.7% Hankel gap: tf 2.3e-10",
    "ladder31-fgbt-r10": "sigma_10 = 6.9e-7 sigma_1: tf 4.2e-10",
    "ladder31-sf-fdbt-r10": "sigma_10 = 4.1e-7 sigma_1: tf 4.8e-9, bound 1.4e-7",
}


def _oracle_cases():
    for name, sys in _real_systems():
        for method in sorted(METHODS):
            for r in (1, 3, 10) if name == "ladder31" else (1, 3):
                case = f"{name}-{method}-r{r}"
                reason = CONDITIONING_LIMITED.get(case)
                marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
                yield pytest.param(sys, method, r, id=case, marks=marks)


@pytest.mark.parametrize("sys, method, r", _oracle_cases())
def test_real_path_matches_complex_path(sys, method, r):
    rotated = _phase_rotated(sys, 3)
    assert rotated.A.dtype == np.complex128
    real, cplx = METHODS[method](sys, r), METHODS[method](rotated, r)
    assert _is_float64(real.reduced)
    assert cplx.reduced.A.dtype == np.complex128
    sigma_r, sigma_c = np.array(real.sigma), np.array(cplx.sigma)
    assert np.max(np.abs(sigma_r - sigma_c)) <= 1e-10 * sigma_r[0]
    assert sorted(real.bounds) == sorted(cplx.bounds)
    for key, value in real.bounds.items():
        assert cplx.bounds[key] == pytest.approx(value, rel=1e-10), key
    grid = np.linspace(-3.0, 3.0, 41)
    g_r = np.array([evaluate(real.reduced, w) for w in grid])
    g_c = np.array([evaluate(cplx.reduced, w) for w in grid])
    assert np.max(np.abs(g_r - g_c)) <= 1e-10 * np.max(np.abs(g_r))


def test_rank_deficient_direction_keeps_leading_rows():
    # Model 15 of the n = 4, seed 5 experiment: over [-0.2, 0.2] its fourth
    # fgbt Hankel value is 7e-27 in real arithmetic (flagged) but 4e-18 on
    # the complex path (not flagged). Only the flagged row of T^-1 may come
    # from a pseudo-inverse; the leading rows, and so every truncation that
    # drops the flagged direction, must match the complex path.
    models, _ = draw_random_models(RandomModelSpec(n=4, seed=5, count=20))
    sys = models[15]
    grid = FrequencyGrid.linear(-0.2, 0.2, 201)
    real = prepare_band(sys, -0.2, 0.2)
    cplx = prepare_band(_phase_rotated(sys, 1), -0.2, 0.2)
    assert real.rank_deficient == (3,) and cplx.rank_deficient == ()

    def peak(prep, r):
        reduced = fgbt_truncate(prep, r).reduced
        return sweep(error_system(sys, reduced), grid).peak_value

    # the complex path's peaks: 3.65e-10 and 1.0e-15
    assert peak(real, 2) == pytest.approx(peak(cplx, 2), rel=1e-6)
    assert peak(real, 3) <= 1e-14


class TestPairedLogarithms:
    BANDS = {
        "symmetric": (-0.6, 0.6),
        "one-sided": (0.2, 0.9),
        "asymmetric": (-0.3, 0.8),
    }

    @staticmethod
    def _two_log(sys, w1, w2):
        # the band Gramians from the two-logarithm formula, log by log
        a = np.asarray(sys.A, dtype=complex)
        eye = np.eye(sys.n)

        def prim(x1, x2):
            logs = (fdbt.linalg.log_principal(1j * x * eye - a) for x in (x1, x2))
            l1, l2 = logs
            return 1j / (2.0 * np.pi) * (l1 - l2)

        if w1 <= 0.0 <= w2:
            s = prim(w1, w2)
        else:
            lo, hi = sorted((abs(w1), abs(w2)))
            s = prim(-hi, -lo) + prim(lo, hi)
        wc, wo = fdbt.baselines.standard_gramians(sys)
        return s @ wc + wc @ s.conj().T, s.conj().T @ wo + wo @ s

    @pytest.mark.parametrize(
        "kind, real_logs, complex_logs",
        [("symmetric", 1, 2), ("one-sided", 2, 4), ("asymmetric", 2, 2)],
    )
    def test_log_count_and_values(self, monkeypatch, kind, real_logs, complex_logs):
        w1, w2 = self.BANDS[kind]
        calls = []
        log = fdbt.baselines.log_principal
        monkeypatch.setattr(
            fdbt.baselines,
            "log_principal",
            lambda m, form=None: calls.append(1) or log(m, form),
        )
        sys = random_stable(60, 6, m=2, p=2)
        for data, count in ((sys, real_logs), (_phase_rotated(sys, 4), complex_logs)):
            calls.clear()
            got = band_gramians(data, w1, w2)
            assert len(calls) == count
            for g, ref in zip(got, self._two_log(data, w1, w2)):
                assert np.linalg.norm(g - ref) <= 1e-12 * np.linalg.norm(ref)
        # only a band mirrored about zero has real Gramians for real data
        real_pair = band_gramians(sys, w1, w2)
        assert np.isrealobj(real_pair[0]) == (kind != "asymmetric")

    @pytest.mark.parametrize("kind", list(BANDS))
    def test_logarithms_read_the_cached_form(self, monkeypatch, kind):
        # once the model holds its Schur form, no band edge factors
        # j w I - A again: the logarithms run on that form, made triangular
        sys = random_stable(60, 6, m=2, p=2)
        assert np.any(np.diagonal(sys._form.t, -1))  # 2x2 blocks: rotations run
        models = (sys, _phase_rotated(sys, 4))
        for data in models:
            fdbt.baselines.standard_gramians(data)  # caches the form and the pair
        calls = count_lapack_calls(monkeypatch)
        for data in models:
            calls.clear()
            prepare_band(data, *self.BANDS[kind])
            assert calls["gees"] == 0
            assert calls["trtrs"] > 0  # the logarithms did run


@pytest.mark.parametrize(
    "a",
    [[[0.0, 1.0], [-1.0, 0.0]], [[0.0, 3.0], [-3.0, 0.0]]],
    ids=["band-edge", "branch-cut"],
)
def test_real_band_factor_guards_match_schur_path(a):
    # eigenvalues +-j sit on the band edges of [-1, 1]; +-3j put the square
    # root's argument 1 / (lambda^2 + 1) = -1/8 on the branch cut
    a = np.array(a)
    cfg = IntervalConfig(-1.0, 1.0)
    with pytest.raises(FdbtError) as real:
        fdbt.interval._band_factors(a, cfg)
    with pytest.raises(FdbtError) as cplx:
        fdbt.interval._band_factors(a.astype(complex), cfg)
    assert type(real.value) is type(cplx.value)
    assert str(real.value) == str(cplx.value)


class TestTripwire:
    """The dtype decision, pinned where the benchmark's workload depends on it."""

    def test_ladder_band_balancing_is_real(self):
        prep = prepare_interval(generate_ladder(31), IntervalConfig(-0.5, 0.5))
        assert prep.gram.T.dtype == np.float64
        assert prep.gram.Tinv.dtype == np.float64
        assert _is_float64(prep.gram.sys)

    def test_chain_reads_float64_blocks_and_solves_no_eigenvalues(self, monkeypatch):
        prep = prepare_interval(generate_ladder(31), IntervalConfig(-0.5, 0.5))
        seen, solves = [], []
        sandwich = fdbt.interval._sandwich
        monkeypatch.setattr(
            fdbt.interval, "_sandwich", lambda a, *rest: seen.append(a.dtype) or sandwich(a, *rest)
        )
        routine = fdbt.linalg._routine
        monkeypatch.setattr(
            fdbt.linalg, "_routine", lambda name, char: solves.append(name) or routine(name, char)
        )
        for module in (np.linalg, scipy.linalg):
            eig = module.eigvals
            monkeypatch.setattr(
                module, "eigvals", lambda a, *rest, eig=eig: solves.append("eigvals") or eig(a, *rest)
            )
        prep.eta(20)
        # steps 21..31, two diagonal blocks each, and no eigenvalue solve
        assert len(seen) == 2 * (31 - 20)
        assert set(seen) == {np.dtype(np.float64)}
        assert not {"eigvals", "geev", "gees"} & set(solves)

    def test_one_schur_form_of_a_per_state_matrix(self, monkeypatch):
        # the poles, both standard Gramians, the band-weighted realization
        # (which keeps A), sweeps and probes read one cached gees of A, in
        # A's own arithmetic; no geev of A runs
        grid = FrequencyGrid.linear(-1.0, 1.0, 11)
        for sys in (generate_ladder(31), _phase_rotated(generate_ladder(31), 5)):
            a = np.asarray(sys.A)
            calls = {"gees": [], "geev": []}

            def of_a(m):
                arr = np.asarray(m)
                return arr.shape == a.shape and (
                    np.array_equal(arr, a) or np.array_equal(arr, a.conj().T)
                )

            routine = fdbt.linalg._routine

            def counting_routine(name, char):
                fn = routine(name, char)

                def wrapped(*args, **kwargs):
                    if of_a(args[1] if name == "gees" else args[0]):
                        calls[name].append(char)
                    return fn(*args, **kwargs)

                return wrapped if name in calls else fn

            def counting(fn, name):
                def wrapped(m, *args, **kwargs):
                    if of_a(m):
                        calls[name].append("outside fdbt's handles")
                    return fn(m, *args, **kwargs)

                return wrapped

            monkeypatch.setattr(fdbt.linalg, "_routine", counting_routine)
            for module in (np.linalg, scipy.linalg):
                monkeypatch.setattr(module, "eigvals", counting(module.eigvals, "geev"))
            monkeypatch.setattr(scipy.linalg, "schur", counting(scipy.linalg.schur, "gees"))
            char = "d" if a.dtype == np.float64 else "D"
            prepare_interval(sys, IntervalConfig(*BAND))
            assert calls == {"gees": [char], "geev": []}
            # a fresh copy through all three prepares, then sweeps
            fresh = StateSpace(sys.A, sys.B, sys.C, sys.D)
            calls = {"gees": [], "geev": []}
            prepare_standard(fresh)
            prepare_band(fresh, *BAND)
            prepare_interval(fresh, IntervalConfig(*BAND))
            assert calls == {"gees": [char], "geev": []}
            sweep(fresh, grid)
            evaluate(fresh, 0.3)
            assert calls == {"gees": [char], "geev": []}
            monkeypatch.undo()

    def test_off_centre_band_factors_a_real_a_once_in_complex(self, monkeypatch):
        # a band not centred at zero gives a real A complex band factors, so
        # _band_factors takes one complex gees of it; the band-weighted
        # realization, complex data, shares that form, and sweeps of the
        # error system read the cached real form and take none
        sys = random_stable(5, 30)
        cfg = IntervalConfig(0.3, 2.0)
        factored = []
        routine = fdbt.linalg._routine

        def counting_routine(name, char):
            fn = routine(name, char)

            def wrapped(*args, **kwargs):
                if kwargs.get("lwork") != -1:  # not a workspace query
                    a = args[1]
                    # A's values, held real or complex
                    factored.append((char, a.shape == sys.A.shape and np.array_equal(a, sys.A)))
                return fn(*args, **kwargs)

            return wrapped if name == "gees" else fn

        monkeypatch.setattr(fdbt.linalg, "_routine", counting_routine)
        prep = prepare_interval(sys, cfg)
        assert [char for char, of_a in factored if of_a] == ["d", "D"]
        result = fdbt.interval.interval_truncate(prep, 10, with_bounds=False)
        sweep(error_system(sys, result.reduced), FrequencyGrid.linear(0.3, 2.0, 41))
        assert [char for char, of_a in factored if of_a] == ["d", "D"]
        monkeypatch.undo()
        # the shared form gives the bytes the realization's own gees gives
        ext = prep.ext.sys
        assert ext.A.dtype == complex
        own = StateSpace(ext.A, ext.B, ext.C, ext.D)
        gram = fdbt.interval.interval_gramians(fdbt.reduction.Extended(own, cfg))
        for got, want in zip(
            (prep.gram.sigma, prep.gram.T, prep.gram.Tinv, prep.gram.sys.A, prep.gram.sys.B),
            (gram.sigma, gram.T, gram.Tinv, gram.sys.A, gram.sys.B),
        ):
            assert got.tobytes() == want.tobytes()
        assert ext.poles.tobytes() == own.poles.tobytes()
