import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from sgns.estimates import (
    aggregate,
    epsilon_for_p,
    gronwall_eval,
    median,
    p_range,
    uniformity_report,
)
from sgns.galerkin import GalerkinConfig, integrate_batch, integrate_ensemble
from sgns.noise import default_noise_model
from sgns.spectral import random_field


def test_p_range_values():
    assert p_range(2.0) == (2.0, math.inf)
    assert p_range(1.0) == (2.0, 3.0)
    lo, hi = p_range(0.5)
    assert lo == 2.0
    assert abs(hi - 7.0 / 3.0) < 1e-15
    with pytest.raises(ValueError):
        p_range(0.0)
    with pytest.raises(ValueError):
        p_range(2.5)


def test_epsilon_for_p_values():
    assert epsilon_for_p(2.0, 2.0) == (0.0, 1.0)
    lo, hi = epsilon_for_p(2.0, 1.0)
    assert abs(hi - 0.5) < 1e-15
    with pytest.raises(ValueError):
        epsilon_for_p(3.0, 1.0)  # upper endpoint excluded


def test_p_range_and_epsilon_consistent():
    # epsilon interval nonempty iff p admissible: both encode the same inequality
    for eta in (0.3, 0.9, 1.4, 2.0):
        lo, hi = p_range(eta)
        for p in np.linspace(2.0, (hi if hi != math.inf else 6.0) - 1e-9, 7):
            _, upper = epsilon_for_p(p, eta)
            assert upper > 0
        if hi != math.inf:
            with pytest.raises(ValueError):
                epsilon_for_p(hi, eta)


def make_config(basis, n, T=0.05, seed=0, **kw):
    rng = np.random.default_rng(99)
    u0 = random_field(basis, rng, n=4, decay=0.5)
    return GalerkinConfig(
        basis=basis, n=n, dt=1e-3, T=T, u0=u0, model=default_noise_model(2), seed=seed, **kw
    )


def make_records(basis, n, n_traj, T=0.05, seed=0, **kw):
    return integrate_ensemble(make_config(basis, n, T, seed, **kw), n_traj)


def test_aggregate_basic(basis2d_small):
    recs = make_records(basis2d_small, n=8, n_traj=6)
    stats = aggregate({8: recs}, p_list=(2.0, 2.2), eta=0.5)
    entry = stats.per_n[8]
    assert entry["count"] == 6
    assert entry["aborts"] == 0
    assert entry["sup_H_p"][2.0].mean > 0
    assert entry["int_dirichlet2"].se >= 0
    # 2.2 < 7/3 is admissible at eta = 0.5; p = 3 is not and gets flagged
    assert not stats.warnings
    stats2 = aggregate({8: recs}, p_list=(3.0,), eta=0.5)
    assert stats2.warnings


def test_aggregate_duplicated_trajectory(basis2d_small):
    # the same trajectory twice: SE = 0, mean = functional value
    ens = integrate_batch(make_config(basis2d_small, n=8), [0, 0])
    stats = aggregate({8: ens}, p_list=(2.0,))
    st = stats.per_n[8]["sup_H_p"][2.0]
    assert st.se == 0.0
    assert abs(st.mean - ens.sup_H()[0] ** 2) < 1e-15


def test_aggregate_deterministic_dissipative(basis2d_small):
    # zero noise, zero forcing: sup attained at t=0, E[sup|u|^2] = |P_n u0|^2
    rng = np.random.default_rng(1)
    u0 = random_field(basis2d_small, rng, n=8)
    cfg = GalerkinConfig(basis=basis2d_small, n=8, dt=1e-3, T=0.05, u0=u0, model=None, seed=0)
    stats = aggregate({8: integrate_batch(cfg, range(2))}, p_list=(2.0,))
    from sgns.spectral import norm, project_Pn

    expect = norm(project_Pn(u0, 8), "H") ** 2
    assert abs(stats.per_n[8]["sup_H_p"][2.0].mean - expect) <= 1e-12 * expect


def test_aggregate_stokes_analytic_integral(basis2d_small):
    # Stokes-only single mode: int ||u||^2 dt has the closed form
    # lam |u0|^2 (1 - r^(2S)) / (1 - r^2) * dt with r = 1 - lam dt (left endpoint),
    # which converges to |u0|^2 (1 - e^(-2 lam T))/2 as dt -> 0
    basis = basis2d_small
    lam = basis.mode_weights("D", 1)[0]
    T, dt = 1.0, 1e-4
    cfg = GalerkinConfig(
        basis=basis, n=4, dt=dt, T=T, u0=basis.basis_field(0), model=None, include_B=False, seed=0
    )
    got = integrate_batch(cfg, [0]).integral_dirichlet2()[0]
    exact = lam * (1 - math.exp(-2 * lam * T)) / (2 * lam)
    assert abs(got - exact) < 5e-4 * exact


class Level:
    """An ensemble with given per-path functionals, for verdicts on chosen
    level means."""

    def __init__(self, sups, intds):
        self._s, self._i = np.asarray(sups, dtype=float), np.asarray(intds, dtype=float)
        self.aborted = np.zeros(len(self._s), dtype=bool)

    def sup_H(self):
        return self._s

    def integral_weighted(self, p):
        return self._i

    def integral_dirichlet2(self):
        return self._i


def test_uniformity_pass_and_fail():
    flat = {n: Level([1.0 + 0.01 * i for i in range(5)], [2.0] * 5) for n in (4, 8, 16, 32)}
    stats = aggregate(flat, p_list=(2.0,))
    verdict = uniformity_report(stats)
    assert verdict.passed
    assert all(r <= 1.5 for r in verdict.ratios.values())

    growing = {
        n: Level([1.0 * 2**j * (1 + 0.001 * i) for i in range(5)], [2.0 * 2**j] * 5)
        for j, n in enumerate((4, 8, 16, 32))
    }
    stats2 = aggregate(growing, p_list=(2.0,))
    verdict2 = uniformity_report(stats2)
    assert not verdict2.passed


def test_uniformity_on_all_tied_means():
    # equal means give tau = p = nan, which never counts as a rising trend
    levels = {n: Level([1.0] * 3, [2.0] * 3) for n in (4, 8, 16)}
    verdict = uniformity_report(aggregate(levels, p_list=(2.0,)))
    for tau, p in verdict.kendall.values():
        assert math.isnan(tau) and math.isnan(p)
    assert verdict.passed


@pytest.mark.parametrize("levels, rate", [(3, Fraction(0)), (4, Fraction(1, 24)),
                                           (5, Fraction(1, 24))])
def test_kendall_false_alarm_rate(levels, rate):
    # under exchangeable untied means every ordering of the levels is equally
    # likely, so the rate at alpha = 0.05 is the share of orderings with p < 0.05
    ns = [2**k for k in range(2, 2 + levels)]

    def trend_p(order):
        means = {n: Level([1.0 + m] * 2, [1.0 + m] * 2) for n, m in zip(ns, order)}
        return uniformity_report(aggregate(means, p_list=(1.0,)), p=1.0).kendall["int_dirichlet2"][1]

    ps = [trend_p(order) for order in itertools.permutations(range(levels))]
    assert Fraction(sum(p < 0.05 for p in ps), len(ps)) == rate
    if levels == 3:
        assert min(ps) == 1 / 6


def test_uniformity_on_tied_means():
    # the n = 4 and n = 8 means tie, as on demos/configs/estimates.json: the
    # asymptotic p = 0.0355 < alpha, so only a rise within noise passes
    def verdict(rise, spread):
        levels = {}
        for n, base in zip((4, 8, 16, 32), (1.0, 1.0, 1.0 + rise, 1.0 + 2 * rise)):
            vals = [base + spread * i for i in (-1, 0, 1)]
            levels[n] = Level(vals, vals)
        return uniformity_report(aggregate(levels, p_list=(1.0,)), p=1.0)

    rising = verdict(0.1, 0.01)
    for tau, p in rising.kendall.values():
        assert round(tau, 3) == 0.913 and round(p, 4) == 0.0355
    assert not rising.passed
    assert verdict(0.001, 0.1).passed


def test_uniformity_needs_three_levels(basis2d_small):
    recs = make_records(basis2d_small, n=8, n_traj=3)
    stats = aggregate({8: recs}, p_list=(2.0,))
    with pytest.raises(ValueError):
        uniformity_report(stats)


def test_gronwall_constant_theta():
    grid = np.linspace(0.0, 1.0, 201)
    theta = np.full(200, 0.7)
    a = np.zeros(200)
    out = gronwall_eval(a, theta, y0=2.0, grid=grid)
    assert abs(out[-1] - 2.0 * math.exp(0.7)) < 1e-12
    out2 = gronwall_eval(np.full(200, 0.3), np.zeros(200), y0=1.0, grid=grid)
    assert abs(out2[-1] - (1.0 + 0.3)) < 1e-12


def test_gronwall_refinement_first_order():
    # piecewise inputs vs fine-grid refinement oracle
    def run(m):
        grid = np.linspace(0.0, 1.0, m + 1)
        tt = grid[:-1]
        a = 1.0 + np.sin(3 * tt) ** 2
        theta = 0.5 + 0.5 * np.cos(2 * tt) ** 2
        return gronwall_eval(a, theta, y0=1.0, grid=grid)[-1]

    fine = run(6400)
    errs = [abs(run(m) - fine) for m in (100, 200, 400)]
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert 0.8 <= order <= 1.2


def test_gronwall_dominates_forward_euler():
    rng = np.random.default_rng(3)
    grid = np.linspace(0.0, 0.5, 101)
    a = rng.uniform(0.0, 2.0, 100)
    theta = rng.uniform(0.0, 3.0, 100)
    env = gronwall_eval(a, theta, y0=1.0, grid=grid)
    y = 1.0
    dt = grid[1] - grid[0]
    for j in range(100):
        y = y + dt * (a[j] + theta[j] * y)
        assert y <= env[j + 1] * (1 + 1e-12)


def test_gronwall_rejects_negative():
    grid = np.linspace(0, 1, 11)
    with pytest.raises(ValueError):
        gronwall_eval(-np.ones(10), np.ones(10), 1.0, grid)


def assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("shape, axis", [((n,), axis) for n in (1, 7, 8) for axis in (None, 0)]
                         + [(shape, axis) for shape in ((5, 6), (6, 7), (4, 9)) for axis in (None, 0, 1)])
def test_median_matches_numpy_bitwise(shape, axis):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    # ties, signed zeros and a middle pair whose mean rounds
    a = rng.choice([-0.0, 0.0, 0.1, 0.2, 1.0 / 3.0, 1e300, -1e300, 2.0**-1074], size=shape)
    b = rng.standard_normal(shape)
    for x in (a, b, np.where(rng.random(shape) < 0.2, np.nan, b)):
        got = median(x, axis=axis)
        want = np.median(x, axis=axis)
        assert type(got) is type(want)
        assert_same_bits(got, want)


def test_median_of_nan_and_inf():
    for x in ([np.nan, 1.0], [1.0, np.inf, -np.inf, 2.0], [np.inf, np.inf], [-np.nan, 3.0, 4.0]):
        assert_same_bits(median(x), np.median(x))
    x = np.array([[1.0, np.nan, 3.0], [4.0, 5.0, 6.0]])
    for axis in (0, 1):
        assert_same_bits(median(x, axis=axis), np.median(x, axis=axis))
