import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from lag_oracle import brute_lag_maxima

from sgns import galerkin, tightness
from sgns.config import load_config
from sgns.galerkin import GalerkinConfig, integrate_batch, integrate_ensemble
from sgns.noise import default_noise_model
from sgns.spectral import Basis, SpaceScale, random_field
from sgns.tightness import (
    FunctionFamily,
    _hitting_positions,
    aldous_check,
    calibrate_aldous_eta,
    dubinsky_diagnostic,
    build_nested_space,
    increment_scaling,
    median_modulus_curve,
    modulus_lags,
    nonlinear_refinement_check,
    decomposition_increments,
)


def small_config(basis, **kw):
    rng = np.random.default_rng(11)
    return GalerkinConfig(
        basis=basis,
        n=10,
        dt=1e-3,
        T=0.128,
        u0=random_field(basis, rng, n=6, decay=0.5),
        model=default_noise_model(2),
        seed=17,
        snapshot_stride=1,
        **kw,
    )


@pytest.fixture(scope="module")
def small_ensemble(basis2d_small):
    # lag maxima recorded at every lag of the 129-snapshot grid
    return basis2d_small, integrate_ensemble(small_config(basis2d_small, modulus_lags=128), 60)


class FakeEnsemble:
    """The arrays and config entries FunctionFamily reads, for given
    snapshots (R, S, n) of `basis` dt apart, with the lag maxima of lags
    1..modulus_lags (default: every lag) of the brute-force oracle."""

    def __init__(self, snap_u, basis, dt=1e-2, norm_D=1.0, modulus_lags=None):
        R, S, n = snap_u.shape
        lags = S - 1 if modulus_lags is None else modulus_lags
        self.config = SimpleNamespace(basis=basis, n=n, dt=dt, snap_times=np.arange(S) * dt,
                                      modulus_lags=lags)
        self.snap_u = snap_u
        self.norm_H = np.ones((R, S))
        self.norm_D = np.full((R, S), norm_D)
        self.aborted = np.zeros(R, dtype=bool)
        self.lag_maxima = brute_lag_maxima(snap_u, basis.mode_weights("Udual", n), lags)

    def __len__(self):
        return len(self.snap_u)


def path_modulus(fam, deltas) -> np.ndarray:
    """The modulus table of a one-row family, per window."""
    assert fam.size == 1
    return tightness._modulus_table(fam, np.asarray(deltas, dtype=float))[0]


def test_modulus_constant_and_linear(basis2d_small):
    w = basis2d_small.mode_weights("Udual", 4)
    times = np.arange(101) * 0.01
    const = np.tile(np.array([1.0, 0.5, 0.0, 0.0]), (1, 101, 1))
    assert path_modulus(FunctionFamily(FakeEnsemble(const, basis2d_small)), [0.3]) == 0.0
    # u(t) = t e_1: omega(delta) = delta |e_1|_{U'}
    lin = np.outer(times, np.array([1.0, 0.0, 0.0, 0.0]))[None]
    got = path_modulus(FunctionFamily(FakeEnsemble(lin, basis2d_small)), [0.25])[0]
    expect = 0.25 * math.sqrt(w[0])
    assert abs(got - expect) < 1e-12


def test_modulus_monotone(small_ensemble):
    _, ens = small_ensemble
    times = ens.config.snap_times
    vals = path_modulus(FunctionFamily(ens.rows([0])), [0.004, 0.016, 0.064, times[-1]])
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]
    # omega(u, T) <= 2 sup |u|_{U'}
    assert vals[3] <= 2.0 * np.max(ens.norm_Udual[0]) + 1e-12


def test_dubinsky_constant_family_passes(basis2d_small):
    fam = FunctionFamily(FakeEnsemble(np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (2, 101, 1)), basis2d_small))
    rep = dubinsky_diagnostic(fam, deltas=[0.02, 0.08, 0.32])
    assert rep.passed
    assert np.all(rep.modulus_curve == 0.0)


def test_dubinsky_jumpy_family_fails(basis2d_small):
    signs = (-1.0) ** np.arange(101)
    fam = FunctionFamily(FakeEnsemble(np.outer(signs, np.array([1.0, 0.0, 0.0, 0.0]))[None], basis2d_small))
    rep = dubinsky_diagnostic(fam, deltas=[0.02, 0.08, 0.32])
    assert not rep.passed
    assert rep.slope < 0.4


def test_dubinsky_family_size_invariance(small_ensemble):
    basis, recs = small_ensemble
    cfg = small_config(basis, modulus_lags=64)
    one = FunctionFamily(integrate_batch(cfg, [0]))
    rep1 = dubinsky_diagnostic(one, deltas=[0.004, 0.016, 0.064])
    repeated = FunctionFamily(integrate_batch(cfg, [0] * 5))
    rep5 = dubinsky_diagnostic(repeated, deltas=[0.004, 0.016, 0.064])
    assert np.allclose(rep1.modulus_curve, rep5.modulus_curve)


def test_dubinsky_galerkin_family(small_ensemble):
    basis, recs = small_ensemble
    fam = FunctionFamily(recs)
    deltas = [0.128 * 2.0**-j for j in range(7, 1, -1)]
    rep = dubinsky_diagnostic(fam, deltas)
    assert np.isfinite(rep.sup_V_integral)
    assert rep.slope >= 0.4
    assert rep.passed


def test_family_reductions_match_per_record_loops(basis2d_small):
    cfg = GalerkinConfig(
        basis=basis2d_small, n=10, dt=1e-3, T=0.128,
        u0=random_field(basis2d_small, np.random.default_rng(5), n=6, decay=0.5),
        model=default_noise_model(2), seed=23, snapshot_stride=3,
    )
    ens = integrate_ensemble(cfg, 12)
    fam = FunctionFamily(ens)
    last = len(ens.config.snap_times) - 1
    assert fam.sup_sup_H() == max(float(np.max(norm_H)) for norm_H in ens.norm_H)
    assert fam.sup_V_integral() == max(
        float(np.sum(norm_H[:-1] ** 2 + norm_D[:-1] ** 2)) * ens.config.dt
        for norm_H, norm_D in zip(ens.norm_H, ens.norm_D)
    )
    for level in (0.0, float(np.median([np.max(norm_H) for norm_H in ens.norm_H])), np.inf):
        expect = []
        for norm_H in ens.norm_H:
            hits = np.nonzero(norm_H >= level)[0]
            expect.append(min(math.ceil(hits[0] / 3), last) if len(hits) else last)
        assert np.array_equal(_hitting_positions(fam, level), expect)


def test_aldous_constant_family(basis2d_small):
    fam = FunctionFamily(FakeEnsemble(np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (4, 101, 1)), basis2d_small,
                                      norm_D=0.0))
    rep = aldous_check(fam, thetas=[0.02, 0.08], eta=1e-6)
    assert np.all(rep.probabilities == 0.0)
    assert rep.passed
    # eta = 0: any increment (even zero) exceeds the threshold
    rep0 = aldous_check(fam, thetas=[0.02, 0.08], eta=0.0)
    assert np.all(rep0.probabilities == 1.0)


def test_aldous_galerkin_decay(small_ensemble):
    basis, ens = small_ensemble
    fam = FunctionFamily(ens)
    w = basis.mode_weights("Udual", ens.config.n)
    # calibrate eta at the 75th percentile of the largest-theta increments
    d75 = []
    for u in ens.snap_u:
        lag = int(round(0.064 / 0.001))
        diff = u[lag:] - u[:-lag]
        d75.append(np.sqrt(np.max(np.einsum("sn,n->s", diff * diff, w))))
    eta = float(np.percentile(d75, 40))
    thetas = [0.064 * 2.0**-j for j in range(5)]
    rep = aldous_check(fam, thetas, eta)
    assert rep.monotone
    assert rep.decays


def test_term_bounds_identity(small_ensemble):
    basis, ens = small_ensemble
    res = decomposition_increments(ens, tau=0.02, theta=0.04)
    assert res["identity_residual"] < 1e-10
    assert set(res["increments"]) == {"stokes", "convection", "forcing", "noise"}
    assert all(inc.shape == (60, ens.config.n) for inc in res["increments"].values())
    assert np.all(res["increments"]["forcing"] == 0.0)  # zero forcing


def test_identity_residual_needs_path_snapshots(basis2d_small):
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.012,
        u0=random_field(basis2d_small, np.random.default_rng(4), n=8),
        model=default_noise_model(2), seed=3, snapshot_stride=3, integral_snapshot_stride=2,
    )
    one = integrate_batch(cfg, [0])
    assert decomposition_increments(one, tau=0.0, theta=0.006)["identity_residual"] < 1e-12
    # step 2 is on the integral grid but has no path snapshot
    assert math.isnan(decomposition_increments(one, tau=0.002, theta=0.004)["identity_residual"])


def test_increment_scaling_exponents(small_ensemble):
    basis, recs = small_ensemble
    thetas = [0.002 * 2**j for j in range(5)]
    rep = increment_scaling(recs, tau=0.016, thetas=thetas)
    assert 0.4 <= rep.exponents["noise"] <= 0.6
    # drift integral of a bounded integrand scales ~ theta
    assert 0.8 <= rep.exponents["stokes"] <= 1.2
    assert math.isnan(rep.exponents["forcing"])  # zero forcing


def test_increment_scaling_matches_per_record_loop(small_ensemble):
    basis, ens = small_ensemble
    w = basis.mode_weights("Udual", ens.config.n)
    taus = [0.016, 0.032, 0.048]
    thetas = [0.008, 0.004, 0.016]
    rep = increment_scaling(ens, tau=taus, thetas=thetas)
    assert np.array_equal(rep.thetas, np.sort(thetas))
    for name in ("stokes", "convection", "forcing", "noise"):
        for i, theta in enumerate(rep.thetas):
            incs = [decomposition_increments(ens, tau, theta)["increments"][name] for tau in taus]
            vals = [math.sqrt(float(np.sum(w * inc[r] * inc[r]))) for r in range(len(ens)) for inc in incs]
            assert rep.median_norms[name][i] == float(np.median(vals))


def test_family_and_scaling_weigh_by_the_records_basis(basis2d_small):
    # paths of a basis with another U' scale: the family and the scaling
    # table take that basis's weights from the record, and no basis can be
    # passed beside it
    other = Basis(basis2d_small.domain, SpaceScale(d=2, s_U=6.0))
    ens = integrate_ensemble(small_config(other), 8)
    w = other.mode_weights("Udual", 10)
    assert not np.array_equal(w, basis2d_small.mode_weights("Udual", 10))
    fam = FunctionFamily(ens)
    assert fam.config is ens.config
    d = fam.coords[:, 16:] - fam.coords[:, :-16]  # 113 increments at theta = 0.016, all sampled
    want = float(np.percentile(np.sqrt(np.einsum("rsn,n->rs", d * d, w)), 60.0))
    assert calibrate_aldous_eta(fam, 0.016, 60.0) == want
    rep = increment_scaling(ens, tau=0.016, thetas=[0.008, 0.016])
    inc = decomposition_increments(ens, 0.016, 0.008)["increments"]["noise"]
    vals = [math.sqrt(float(np.sum(w * inc[r] * inc[r]))) for r in range(len(ens))]
    assert rep.median_norms["noise"][0] == float(np.median(vals))
    with pytest.raises(TypeError):
        increment_scaling(ens, basis2d_small, tau=0.016, thetas=[0.008])


def test_increment_scaling_rejects_off_grid_window(small_ensemble):
    basis, recs = small_ensemble
    with pytest.raises(ValueError, match="snapshot grid"):
        increment_scaling(recs, tau=0.016, thetas=[0.0045])
    with pytest.raises(ValueError, match="snapshot grid"):
        increment_scaling(recs, tau=0.016, thetas=[1.0])  # past the horizon


def test_modulus_is_one_path_lag_maxima(small_ensemble):
    # path 3 of the ensemble, its lag maxima from the oracle, against
    # path 3 integrated alone with its lag maxima recorded by the stepper
    basis, ens = small_ensemble
    u = ens.snap_u[3:4]
    lagmax = FunctionFamily(integrate_batch(small_config(basis, modulus_lags=16), [3])).lag_maxima(16)
    assert lagmax.shape == (1, 16)
    # a window shorter than one snapshot spacing holds no increment
    got = path_modulus(FunctionFamily(FakeEnsemble(u, basis, dt=1e-3, modulus_lags=16)), [0.0005, 0.016])
    assert got.tolist() == [0.0, np.max(lagmax)]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_lag_maxima_in_row_blocks(small_ensemble, monkeypatch, block):
    # 7 paths: no block size above divides them, so the last block is short
    basis, recs = small_ensemble
    cfg = small_config(basis, modulus_lags=20)
    monkeypatch.setattr(galerkin, "LAG_ROWS", block)
    fam = FunctionFamily(integrate_batch(cfg, range(7)))  # the stepper records them
    want = brute_lag_maxima(fam.coords, basis.mode_weights("Udual", cfg.n), 20)
    assert np.array_equal(fam.lag_maxima(20), want)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_lag_maxima_are_the_oracles_on_tightness_paths(n):
    # six paths of the demo's tightness levels, 1,025 snapshots each, and the
    # 64 lags of the verb's largest default window
    run = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs" / "tightness.json")
    cfg = replace(run.galerkin, n=n, snapshot_stride=1, records={"integral_noise"}, modulus_lags=64)
    ens = integrate_batch(cfg, range(6))
    want = brute_lag_maxima(ens.snap_u, run.basis.mode_weights("Udual", n), 64)
    assert np.array_equal(ens.lag_maxima, want)


@pytest.mark.parametrize("kind", ["walk", "white", "ties", "constant"])
def test_lag_maxima_are_the_oracles_on_adversarial_paths(kind):
    # 75 cases a kind: n 1-39, 1-6 rows, 2-199 snapshots, lags up to S - 1,
    # scales 1e-8 to 1e8; ties: a walk on an integer lattice, so that many
    # increments share the maximum; constant: every increment is zero
    rng = np.random.default_rng(["walk", "white", "ties", "constant"].index(kind))
    for case in range(75):
        n, R, S = int(rng.integers(1, 40)), int(rng.integers(1, 7)), int(rng.integers(2, 200))
        max_lag = int(rng.integers(1, S))
        scale = 10.0 ** rng.uniform(-8, 8)
        steps = rng.standard_normal((R, S, n))
        coords = {"walk": lambda: np.cumsum(steps, axis=1),
                  "white": lambda: steps,
                  "ties": lambda: np.cumsum(np.round(steps), axis=1),
                  "constant": lambda: np.repeat(steps[:, :1], S, axis=1)}[kind]() * scale
        w = 10.0 ** rng.uniform(-6, 0, n)
        want = brute_lag_maxima(coords, w, max_lag)
        assert np.array_equal(galerkin._lag_maxima(coords, w, max_lag), want), (case, n, R, S, max_lag)


def test_lag_maxima_keep_the_bounds_margin_on_collinear_paths():
    # x_r(s) = c_r + s v_r: every increment at a lag has the same norm up to
    # rounding and the triangle bound is tight, so a computed maximum can
    # exceed its bound by a few ulps, which the 1 + 1e-9 margin must cover
    rng = np.random.default_rng(17)
    s = np.arange(200.0)[None, :, None]
    for trial in range(30):
        c, v = rng.standard_normal((2, 8, 1, 6))
        coords = c + s * v
        w = 10.0 ** rng.uniform(-6, 0, 6)
        want = brute_lag_maxima(coords, w, 40)
        assert np.array_equal(galerkin._lag_maxima(coords, w, 40), want), trial


@pytest.mark.parametrize("lags", [64, 8])
def test_stored_lag_maxima_give_the_computed_tables(small_ensemble, lags):
    # maxima recorded up to `lags` are the oracle's maxima of the snapshots
    # and give the tables of the ensemble that recorded every lag; a window
    # past them is an error
    basis, recs = small_ensemble
    cfg = small_config(basis, modulus_lags=lags)
    stored = FunctionFamily(integrate_ensemble(cfg, 60))
    every = FunctionFamily(recs)
    assert stored.stored_lag_maxima.shape == (60, lags)
    assert np.array_equal(stored.coords, every.coords)
    computed = brute_lag_maxima(stored.coords, basis.mode_weights("Udual", cfg.n), lags)
    assert np.array_equal(stored.lag_maxima(lags), computed)
    assert np.array_equal(every.lag_maxima(lags), computed)
    for deltas in ([0.002, 0.004, 0.008], [0.004, 0.016, 0.064]):
        if modulus_lags(deltas, cfg.snap_times) > lags:
            with pytest.raises(ValueError, match="modulus_lags"):
                median_modulus_curve(stored, deltas)
            continue
        want = tightness._modulus_table(every, np.array(deltas))
        assert np.array_equal(tightness._modulus_table(stored, np.array(deltas)), want)
        # the median curve with its slope appended
        curves = [np.append(*median_modulus_curve(fam, deltas)) for fam in (stored, every)]
        assert np.array_equal(*curves, equal_nan=True)
        assert np.array_equal(dubinsky_diagnostic(stored, deltas).modulus_curve, np.max(want, axis=0))


def test_too_few_recorded_lags_rejected(small_ensemble):
    # 0.016 reads 16 snapshot lags; the ensemble recorded 8 (or none)
    basis, _ = small_ensemble
    for lags in (8, 0):
        fam = FunctionFamily(integrate_batch(small_config(basis, modulus_lags=lags), range(3)))
        for diagnostic in (median_modulus_curve, dubinsky_diagnostic):
            with pytest.raises(ValueError, match=f"lag 16, but the ensemble recorded {lags} .*modulus_lags"):
                diagnostic(fam, [0.004, 0.016])


def test_modulus_lags_are_the_largest_window(small_ensemble):
    _, ens = small_ensemble
    times = ens.config.snap_times
    assert tightness.modulus_lags([0.064, 0.004], times) == 64
    assert tightness.modulus_lags([0.0005], times) == 0
    assert tightness.modulus_lags([1.0], times) == len(times) - 1


def test_aldous_eta_samples_the_full_increment_table(basis2d_small):
    # 1,025 snapshots: every stride-th increment of the full (R, S - lag) table
    rng = np.random.default_rng(3)
    walks = np.stack([np.cumsum(rng.standard_normal((1025, 6)), axis=0) for _ in range(5)])
    fam = FunctionFamily(FakeEnsemble(walks, basis2d_small, dt=1e-3, modulus_lags=0))
    x, w = fam.coords, basis2d_small.mode_weights("Udual", 6)
    for theta in (0.001, 0.016, 0.3, 1.0):
        lag = max(1, round(theta / 1e-3))
        d = x[:, lag:] - x[:, :-lag]
        full = np.sqrt(np.einsum("rsn,n->rs", d * d, w))
        stride = max(1, full.shape[1] // 64)
        for q in (10.0, 60.0):
            want = float(np.percentile(full[:, ::stride].ravel(), q))
            assert calibrate_aldous_eta(fam, theta, q) == want, (theta, q)


def test_modulus_curves_are_median_and_max_of_per_path_moduli(small_ensemble):
    basis, _ = small_ensemble
    nine = integrate_batch(small_config(basis, modulus_lags=64), range(9))
    fam = FunctionFamily(nine)
    deltas = [0.0005, 0.004, 0.016, 0.064]
    # each path alone, its lag maxima taken from its snapshots
    per_path = np.array([
        path_modulus(FunctionFamily(FakeEnsemble(u[None], basis, dt=1e-3, modulus_lags=64)), deltas)
        for u in nine.snap_u
    ])
    curve, _ = median_modulus_curve(fam, deltas)
    assert np.array_equal(curve, np.median(per_path, axis=0))
    rep = dubinsky_diagnostic(fam, deltas)
    assert np.array_equal(rep.modulus_curve, np.max(per_path, axis=0))
    assert rep.modulus_curve[0] == 0.0


def test_zero_noise_kills_noise_integral(basis2d_small):
    rng = np.random.default_rng(2)
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=8,
        dt=1e-3,
        T=0.064,
        u0=random_field(basis2d_small, rng, n=8),
        model=None,
        seed=3,
        snapshot_stride=1,
    )
    res = decomposition_increments(integrate_batch(cfg, [0]), tau=0.016, theta=0.032)
    assert np.all(res["increments"]["noise"] == 0.0)


def test_refinement_check(basis2d_small):
    rng = np.random.default_rng(8)
    u0 = random_field(basis2d_small, rng, n=4, decay=0.5)
    psi = random_field(basis2d_small, rng, decay=0.5)
    records = {}
    for n in (6, 10, 14, 18):
        cfg = GalerkinConfig(
            basis=basis2d_small,
            n=n,
            dt=1e-3,
            T=0.1,
            u0=u0,
            model=default_noise_model(2),
            seed=5,
            snapshot_stride=10,
            refinement_probe=psi,
        )
        records[n] = integrate_batch(cfg, [0])
    rep = nonlinear_refinement_check(records)
    assert len(rep.successive_gaps) == 3
    assert np.all(np.isfinite(rep.integrals))
    # one path per level
    records[10] = integrate_batch(replace(cfg, n=10), [0, 1])
    with pytest.raises(ValueError, match="one trajectory per level, got 2 at n = 10"):
        nonlinear_refinement_check(records)


def test_refinement_constant_when_dynamics_low(basis2d_small):
    # data supported low and B disabled: I_n constant across n
    rng = np.random.default_rng(9)
    u0 = random_field(basis2d_small, rng, n=4)
    psi = random_field(basis2d_small, rng)
    vals = {}
    for n in (6, 10, 14):
        cfg = GalerkinConfig(
            basis=basis2d_small,
            n=n,
            dt=1e-3,
            T=0.05,
            u0=u0,
            model=None,
            include_B=False,
            seed=5,
            snapshot_stride=10,
            refinement_probe=psi,
        )
        vals[n] = integrate_batch(cfg, [0]).refinement_I[0, -1]
    assert np.allclose(list(vals.values()), 0.0)  # B disabled: integrand is zero
    # psi = 0 also gives identically zero integrals
    cfg0 = GalerkinConfig(
        basis=basis2d_small,
        n=6,
        dt=1e-3,
        T=0.05,
        u0=u0,
        model=None,
        seed=5,
        snapshot_stride=10,
        refinement_probe=basis2d_small.zero_field(),
    )
    assert np.all(integrate_batch(cfg0, [0]).refinement_I == 0.0)


def test_holly_wiciak_recursion():
    spec, cert = build_nested_space(np.ones(10), eta0=0.5, samples=200, seed=1)
    # eta_n = 1 - 2^-(n+1)
    expect = 1.0 - 2.0 ** -(np.arange(11) + 1)
    assert np.allclose(spec.etas, expect, atol=1e-15)
    assert abs(spec.radii[0] - 1.0 / 8.0) < 1e-15
    assert np.all(np.diff(spec.etas) > 0)
    assert np.all(spec.radii > 0)
    assert np.all(np.diff(spec.radii) < 0)
    assert cert.embedding_violations == 0
    assert cert.tail_violations == 0
    assert cert.max_embedding_norm <= 0.5


def test_holly_wiciak_general_norms():
    rng = np.random.default_rng(4)
    phi = rng.uniform(0.5, 3.0, size=25)
    spec, cert = build_nested_space(phi, eta0=0.3, samples=500, seed=2)
    assert cert.embedding_violations == 0
    assert cert.tail_violations == 0
    assert cert.max_embedding_norm <= 0.7
    with pytest.raises(ValueError):
        build_nested_space(phi, eta0=1.5)


def test_family_holds_views_of_the_live_rows(basis2d_small, small_ensemble):
    basis, ens = small_ensemble
    fam = FunctionFamily(ens)
    assert np.shares_memory(fam.coords, ens.snap_u) and np.shares_memory(fam.norm_H, ens.norm_H)
    # rows 1 and 3 abort: the family is the other rows, copied
    cfg = replace(small_config(basis), T=0.016, overflow_limit=1e3)
    dW = np.stack([galerkin.generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(5)], axis=1)
    dW[4, [1, 3]] = 1e6
    ens = integrate_batch(cfg, range(5), dW)
    assert ens.aborted.tolist() == [False, True, False, True, False]
    fam = FunctionFamily(ens)
    assert not np.shares_memory(fam.coords, ens.snap_u)
    assert np.array_equal(fam.coords, ens.snap_u[[0, 2, 4]])
    assert np.array_equal(fam.norm_D, ens.norm_D[[0, 2, 4]])


def test_all_aborted_ensemble_rejected(basis2d_small):
    cfg = replace(small_config(basis2d_small), T=0.016, overflow_limit=1e-3)
    ens = integrate_ensemble(cfg, 3)
    assert ens.aborted.all()
    with pytest.raises(ValueError, match="all trajectories aborted"):
        FunctionFamily(ens)
    with pytest.raises(ValueError, match="all trajectories aborted"):
        increment_scaling(ens, tau=0.004, thetas=[0.004, 0.008])
