"""Balancing plumbing shared by every reduction method."""

import numpy as np
import pytest

import oracles as orc
from helpers import random_stable
import fdbt.interval
import fdbt.sf
from fdbt import (
    IntervalConfig,
    OrderOutOfRange,
    SfConfig,
    balance_gramians,
    band_gramians,
    build_sf_extended,
    example_fixture,
    fgbt_reduce,
    fibt_reduce,
    generate_ladder,
    gspa_reduce,
    interval_reduce,
    leading_block,
    partition,
    sf_reduce,
    solve_lyapunov,
    standard_gramians,
)
from fdbt.linalg import rank_cutoff
from fdbt.reduction import balance, check_order


def _pair(seed, n):
    sys = random_stable(seed, n, complex_entries=True)
    wc = solve_lyapunov(sys.A, np.asarray(sys.B) @ np.asarray(sys.B).conj().T)
    wo = solve_lyapunov(
        np.asarray(sys.A).conj().T, np.asarray(sys.C).conj().T @ np.asarray(sys.C)
    )
    return sys, wc, wo


def test_balance_sigma_is_hankel():
    sys, wc, wo = _pair(31, 5)
    gram = balance(sys, wc, wo)
    ref = orc.hankel_eig(wc, wo)
    assert np.max(np.abs(gram.sigma - ref)) <= 1e-8 * ref[0]


def test_balance_has_equal_diagonal_gramians():
    gram = balance(*_pair(32, 4))
    bal = gram.sys
    wc_b = solve_lyapunov(bal.A, np.asarray(bal.B) @ np.asarray(bal.B).conj().T)
    wo_b = solve_lyapunov(
        np.asarray(bal.A).conj().T, np.asarray(bal.C).conj().T @ np.asarray(bal.C)
    )
    d = np.diag(gram.sigma)
    assert np.linalg.norm(wc_b - d) <= 1e-8 * gram.sigma[0]
    assert np.linalg.norm(wo_b - d) <= 1e-8 * gram.sigma[0]


def test_leading_block_shapes():
    sys = random_stable(33, 5, m=2, p=3)
    sub = leading_block(sys, 2)
    assert (sub.n, sub.m, sub.p) == (2, 2, 3)
    assert np.array_equal(sub.A, sys.A[:2, :2])
    assert np.array_equal(sub.D, sys.D)


def test_partition_blocks_reassemble():
    sys = random_stable(34, 6, m=2, p=2)
    a11, a12, a21, a22, b1, b2, c1, c2 = partition(sys, 2)
    assert np.array_equal(np.block([[a11, a12], [a21, a22]]), sys.A)
    assert np.array_equal(np.vstack([b1, b2]), sys.B)
    assert np.array_equal(np.hstack([c1, c2]), sys.C)


@pytest.mark.parametrize("r", [0, -3, 7])
def test_check_order_rejects_out_of_range(r):
    with pytest.raises(OrderOutOfRange):
        check_order(r, 6)


def test_check_order_accepts_full_order():
    assert check_order(6, 6) == 6


def _builds_of(monkeypatch, module, name, full):
    """Record, per call of module.name, whether it extends the full model."""
    original = getattr(module, name)
    seen = []

    def counted(sys, cfg):
        seen.append(sys is full)
        return original(sys, cfg)

    monkeypatch.setattr(module, name, counted)
    return seen


def test_ef_bound_reuses_the_full_models_extension(monkeypatch):
    # the ef bound compares each system with its extended realization: the
    # full model's is the one the reduction already built, and sf-fdbt's
    # reduced model's is the truncation it was mapped back from
    sys = example_fixture("ex2").system
    sf_builds = _builds_of(monkeypatch, fdbt.sf, "build_sf_extended", sys)
    int_builds = _builds_of(monkeypatch, fdbt.interval, "build_interval_extended", sys)
    assert "ef" in sf_reduce(sys, SfConfig(varpi=0.0, epsilon=1.0), 2).bounds
    assert "ef" in interval_reduce(sys, IntervalConfig(-0.4, 0.4), 2).bounds
    # one extension each, of the full model: int-fdbt's gaps are realizations
    # on A and A_r, and sf-fdbt's reduced gap reads leading_block(gram.sys, r)
    assert sf_builds == [True]
    assert int_builds == [True]


RANK = "balanced directions below numerical rank"
NO_FGBT_BOUND = "no error bound available for band-limited Gramian truncation"


@pytest.mark.parametrize(
    "reduce, warnings",
    [
        (lambda lad: fibt_reduce(lad, 5), ()),
        (lambda lad: gspa_reduce(lad, 5, 0.0), ()),
        (lambda lad: fgbt_reduce(lad, 5, -0.5, 0.5), (f"16 {RANK}", NO_FGBT_BOUND)),
        (lambda lad: sf_reduce(lad, SfConfig(0.0, 1.0), 5), (f"13 {RANK}",)),
        (lambda lad: interval_reduce(lad, IntervalConfig(-0.5, 0.5), 5), ()),
    ],
    ids=["fibt", "spa", "fgbt", "sf-fdbt", "int-fdbt"],
)
def test_every_method_warns_of_numerical_rank(reduce, warnings):
    # one rule for all methods: the 31-state ladder's band and sf pairs lose
    # rank, its standard and int-fdbt pairs do not
    assert reduce(generate_ladder(31)).warnings == warnings


def test_warnings_come_in_one_order():
    # lost stability, then numerical rank, then the method's own notes
    result = fgbt_reduce(generate_ladder(101), 26, -0.5, 0.5)
    assert not result.stable
    assert result.warnings == (
        "reduced system is not Hurwitz",
        f"71 {RANK}",
        NO_FGBT_BOUND,
    )


@pytest.mark.parametrize(
    "reduce, kept",
    [
        (lambda: sf_reduce(generate_ladder(11), SfConfig(0.0, 1e-8), 4), "order 4 keeps 3"),
        (lambda: fgbt_reduce(generate_ladder(31), 25, -0.5, 0.5), "order 25 keeps 10"),
        (lambda: fgbt_reduce(generate_ladder(31), 3, -0.5, 0.5), None),
        (lambda: fibt_reduce(generate_ladder(31), 25), None),
    ],
    ids=["sf-fdbt-r4", "fgbt-r25", "fgbt-r3", "fibt-r25"],
)
def test_order_warns_of_kept_directions_below_rank(reduce, kept):
    # the count of flagged directions the order keeps comes right after the
    # count of all of them, and only when it is not zero
    warnings = reduce().warnings
    per_order = [w for w in warnings if w.startswith("order ")]
    if kept is None:
        assert per_order == []
        return
    assert per_order == [f"{kept} directions below numerical rank"]
    assert warnings[warnings.index(per_order[0]) - 1].endswith(RANK)


@pytest.mark.parametrize("pair", ["band", "sf"])
def test_rank_deficient_is_the_balancing_flags(pair):
    lad = generate_ladder(31)
    if pair == "band":
        sys, (wc, wo) = lad, band_gramians(lad, -0.5, 0.5)
    else:
        sys = build_sf_extended(lad, SfConfig(0.0, 1.0)).sys
        wc, wo = standard_gramians(sys)
    sigma = balance_gramians(wc, wo)[2]
    below = np.flatnonzero(sigma <= rank_cutoff(sigma))
    assert below.size
    assert balance(sys, wc, wo).rank_deficient == tuple(below)
