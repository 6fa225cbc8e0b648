import math
import mmap
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from lag_oracle import brute_lag_maxima, pair_increment_norms
from noise_oracle import sample_nested_space
from path_oracle import decomposition_increments
from stepper_oracle import generate_wiener

from sgns import galerkin, tightness
from sgns.config import load_config
from sgns.galerkin import GalerkinConfig, convection_pairing, integrate_batch, integrate_ensemble
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


# the lags of the Aldous windows 0.004..0.064 of the 129-snapshot grid
ALDOUS_LAGS = (4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def small_ensemble(basis2d_small):
    # lag maxima recorded at every lag of the 129-snapshot grid
    return basis2d_small, integrate_ensemble(small_config(basis2d_small, modulus_lags=128,
                                                          increment_lags=ALDOUS_LAGS), 60)


class FakeEnsemble:
    """The arrays and config entries the modulus and Aldous tables read, for given
    states (R, S, n) of `basis` at every step, dt apart, with the lag
    maxima of lags 1..modulus_lags (default: every lag) of the brute-force
    oracle and the increment norms at `increment_lags` of the pair-gather
    oracle."""

    def __init__(self, snap_u, basis, dt=1e-2, norm_D=1.0, modulus_lags=None, increment_lags=()):
        R, S, n = snap_u.shape
        lags = S - 1 if modulus_lags is None else modulus_lags
        self.config = SimpleNamespace(basis=basis, n=n, dt=dt, times=np.arange(S) * dt,
                                      modulus_lags=lags, increment_lags=tuple(increment_lags))
        self.snap_u = snap_u
        self.norm_H = np.ones((R, S))
        self.norm_D = np.full((R, S), norm_D)
        self.aborted = np.zeros(R, dtype=bool)
        w = basis.mode_weights("Udual", n)
        self.lag_maxima = brute_lag_maxima(snap_u, w, lags)
        self.increment_norms = pair_increment_norms(snap_u, w, increment_lags)

    def __len__(self):
        return len(self.snap_u)


def path_modulus(ens, deltas) -> np.ndarray:
    """The modulus table of a one-row Ensemble, per window."""
    assert len(ens) == 1
    return tightness._modulus_table(ens, np.asarray(deltas, dtype=float))[0]


def test_modulus_constant_and_linear(basis2d_small):
    w = basis2d_small.mode_weights("Udual", 4)
    times = np.arange(101) * 0.01
    const = np.tile(np.array([1.0, 0.5, 0.0, 0.0]), (1, 101, 1))
    assert path_modulus(FakeEnsemble(const, basis2d_small), [0.3]) == 0.0
    # u(t) = t e_1: omega(delta) = delta |e_1|_{U'}
    lin = np.outer(times, np.array([1.0, 0.0, 0.0, 0.0]))[None]
    got = path_modulus(FakeEnsemble(lin, basis2d_small), [0.25])[0]
    expect = 0.25 * math.sqrt(w[0])
    assert abs(got - expect) < 1e-12


def test_modulus_monotone(small_ensemble):
    _, ens = small_ensemble
    times = ens.config.snap_times
    vals = path_modulus(ens.rows([0]), [0.004, 0.016, 0.064, times[-1]])
    assert vals[0] <= vals[1] <= vals[2] <= vals[3]
    # omega(u, T) <= 2 sup |u|_{U'}
    assert vals[3] <= 2.0 * np.max(ens.norm_Udual[0]) + 1e-12


def test_dubinsky_constant_family_passes(basis2d_small):
    ens = FakeEnsemble(np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (2, 101, 1)), basis2d_small)
    rep = dubinsky_diagnostic(ens, deltas=[0.02, 0.08, 0.32])
    assert rep.passed
    assert np.all(rep.modulus_curve == 0.0)


def test_dubinsky_jumpy_family_fails(basis2d_small):
    signs = (-1.0) ** np.arange(101)
    ens = FakeEnsemble(np.outer(signs, np.array([1.0, 0.0, 0.0, 0.0]))[None], basis2d_small)
    rep = dubinsky_diagnostic(ens, deltas=[0.02, 0.08, 0.32])
    assert not rep.passed
    assert rep.slope < 0.4


def test_dubinsky_family_size_invariance(small_ensemble):
    basis, recs = small_ensemble
    cfg = small_config(basis, modulus_lags=64)
    one = integrate_batch(cfg, [0])
    rep1 = dubinsky_diagnostic(one, deltas=[0.004, 0.016, 0.064])
    repeated = integrate_batch(cfg, [0] * 5)
    rep5 = dubinsky_diagnostic(repeated, deltas=[0.004, 0.016, 0.064])
    assert np.allclose(rep1.modulus_curve, rep5.modulus_curve)


def test_dubinsky_galerkin_family(small_ensemble):
    basis, recs = small_ensemble
    deltas = [0.128 * 2.0**-j for j in range(7, 1, -1)]
    rep = dubinsky_diagnostic(recs, deltas)
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
    last = cfg.steps
    # a window shorter than a step reads no lag maxima, which this ensemble
    # did not record
    rep = dubinsky_diagnostic(ens, [5e-4])
    assert rep.sup_sup_H == max(float(np.max(norm_H)) for norm_H in ens.norm_H)
    assert rep.sup_V_integral == max(
        float(np.sum(norm_H[:-1] ** 2 + norm_D[:-1] ** 2)) * ens.config.dt
        for norm_H, norm_D in zip(ens.norm_H, ens.norm_D)
    )
    for level in (0.0, float(np.median([np.max(norm_H) for norm_H in ens.norm_H])), np.inf):
        expect = []
        # the first step at the level, whatever the snapshots
        for norm_H in ens.norm_H:
            hits = np.nonzero(norm_H >= level)[0]
            expect.append(hits[0] if len(hits) else last)
        assert np.array_equal(_hitting_positions(ens.norm_H, level), expect)


def test_aldous_constant_family(basis2d_small):
    ens = FakeEnsemble(np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (4, 101, 1)), basis2d_small,
                       norm_D=0.0, increment_lags=(2, 8))
    rep = aldous_check(ens, thetas=[0.02, 0.08], eta=1e-6)
    assert np.all(rep.probabilities == 0.0)
    assert rep.passed
    # eta = 0: any increment (even zero) exceeds the threshold
    rep0 = aldous_check(ens, thetas=[0.02, 0.08], eta=0.0)
    assert np.all(rep0.probabilities == 1.0)


def test_aldous_galerkin_decay(small_ensemble):
    basis, ens = small_ensemble
    w = basis.mode_weights("Udual", ens.config.n)
    # calibrate eta at the 75th percentile of the largest-theta increments
    d75 = []
    for u in ens.snap_u:
        lag = int(round(0.064 / 0.001))
        diff = u[lag:] - u[:-lag]
        d75.append(np.sqrt(np.max(np.einsum("sn,n->s", diff * diff, w))))
    eta = float(np.percentile(d75, 40))
    thetas = [0.064 * 2.0**-j for j in range(5)]
    rep = aldous_check(ens, thetas, eta)
    assert rep.monotone
    assert rep.decays


def test_term_bounds_identity(small_ensemble):
    basis, ens = small_ensemble
    res = decomposition_increments(ens, tau=0.02, theta=0.04)
    assert res["identity_residual"] < 1e-10
    assert set(res["increments"]) == {"stokes", "convection", "forcing", "noise"}
    assert all(inc.shape == (60, ens.config.n) for inc in res["increments"].values())
    assert np.all(res["increments"]["forcing"] == 0.0)  # zero forcing


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
    # paths of a basis with another U' scale: the Aldous threshold and the
    # scaling table take that basis's weights from the record, and no basis
    # can be passed beside it
    other = Basis(basis2d_small.domain, SpaceScale(d=2, s_U=6.0))
    ens = integrate_ensemble(small_config(other, increment_lags=(16,)), 8)
    w = other.mode_weights("Udual", 10)
    assert not np.array_equal(w, basis2d_small.mode_weights("Udual", 10))
    d = ens.snap_u[:, 16:] - ens.snap_u[:, :-16]  # 113 increments at theta = 0.016, all sampled
    want = float(np.percentile(np.sqrt(np.einsum("rsn,n->rs", d * d, w)), 60.0))
    assert calibrate_aldous_eta(ens, 0.016, 60.0) == want
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
    got = path_modulus(FakeEnsemble(u, basis, dt=1e-3, modulus_lags=16), [0.0005, 0.016])
    assert got.tolist() == [0.0, np.max(lagmax)]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_lag_maxima_in_row_blocks(small_ensemble, monkeypatch, block):
    # 7 paths: no block size above divides them, so the last block is short
    basis, recs = small_ensemble
    cfg = small_config(basis, modulus_lags=20)
    monkeypatch.setattr(galerkin, "LAG_ROWS", block)
    ens = integrate_batch(cfg, range(7))  # the stepper records them
    want = brute_lag_maxima(ens.snap_u, basis.mode_weights("Udual", cfg.n), 20)
    assert np.array_equal(FunctionFamily(ens).lag_maxima(20), want)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_lag_maxima_are_the_oracles_on_tightness_paths(n):
    # six paths of the demo's tightness levels, 1,025 snapshots each, the 64
    # lags of the verb's largest default window and the increments at the
    # lags of its default Aldous windows, taken where the verb takes them,
    # without the states record, against the oracles on the recorded states
    run = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs" / "tightness.json")
    cfg = replace(run.galerkin, n=n, snapshot_stride=1, records={"integral_noise"}, modulus_lags=64,
                  increment_lags=(4, 8, 16, 32, 64))
    ens = integrate_batch(cfg, range(6))
    states = integrate_batch(replace(cfg, records={"integral_noise", "states"}), range(6)).snap_u
    w = run.basis.mode_weights("Udual", n)
    assert ens.snap_u.shape == (6, 0, n)
    assert np.array_equal(ens.lag_maxima, brute_lag_maxima(states, w, 64))
    assert np.array_equal(ens.increment_norms, pair_increment_norms(states, w, cfg.increment_lags))


def aborting_increments(cfg, rows: int) -> np.ndarray:
    """The Philox increments of trajectories 0..rows-1, with rows 1 and 3 (of
    those there are) blown past the overflow limit at step 40."""
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(rows)],
                  axis=1)
    dW[40, [r for r in (1, 3) if r < rows]] = 1e6
    return dW


@pytest.mark.parametrize("block", [1, 2, 3])
def test_increment_norms_are_the_pair_gathers(basis2d_small, monkeypatch, block):
    # 7 paths stepped in blocks of 1, 2 or 3 rows, rows 1 and 3 aborting at
    # step 40: every start's increment at lag 0, at lags whose ends clip to
    # the last of the 129 snapshots (from start 128 - lag on, and lag 200
    # from every start) and at the Aldous lags, the pair-gather oracle's
    # bits on the recorded states
    cfg = small_config(basis2d_small, overflow_limit=1e3, increment_lags=(0, 1, 5, 64, 128, 200))
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: block)
    ens = integrate_ensemble(cfg, 7)
    assert ens.increment_norms.shape == (7, 6, 129)
    dW = aborting_increments(cfg, 7)
    ens = integrate_batch(cfg, range(7), dW)
    assert ens.aborted.tolist() == [False, True, False, True, False, False, False]
    for lo in range(0, 7, block):
        part = integrate_batch(cfg, range(lo, min(lo + block, 7)), dW[:, lo : lo + block])
        assert np.array_equal(part.increment_norms, ens.increment_norms[lo : lo + block])
    w = basis2d_small.mode_weights("Udual", cfg.n)
    assert np.array_equal(ens.increment_norms, pair_increment_norms(ens.snap_u, w, cfg.increment_lags))
    assert np.all(ens.increment_norms[:, 0] == 0.0)
    # an aborted row reads zero from its abort on (snapshot 41), and so do
    # its increments from there
    assert ens.abort_step[1] == 41
    assert np.all(ens.increment_norms[1, :, 41:] == 0.0) and np.all(ens.increment_norms[1, 1:, 40] > 0.0)


def test_unrecorded_states_keep_the_reductions(basis2d_small, monkeypatch):
    # the lag maxima and the increment norms of paths stepped without the
    # states record, in blocks of 3 rows with two rows aborting, are the
    # bits of the run that records them; each block, with the states or
    # without, keeps its path in a private mapping of its own rows, closed
    # when the block returns
    cfg = small_config(basis2d_small, overflow_limit=1e3, modulus_lags=20, increment_lags=(4, 16, 64))
    dW = aborting_increments(cfg, 7)
    full = integrate_batch(cfg, range(7), dW)
    part_cfg = replace(cfg, records=frozenset(galerkin.RECORDS) - {"states"})
    maps, make = [], mmap.mmap

    def spy(fileno, length, **kwargs):
        maps.append((length, make(fileno, length, **kwargs)))
        return maps[-1][1]

    monkeypatch.setattr(galerkin.mmap, "mmap", spy)
    part = integrate_batch(part_cfg, range(7), dW)
    assert part.snap_u.shape == (7, 0, cfg.n)
    assert np.array_equal(part.lag_maxima, full.lag_maxima)
    assert np.array_equal(part.increment_norms, full.increment_norms)
    block = [m for length, m in maps if length == 8 * 7 * 129 * cfg.n]
    assert len(block) == 1 and block[0].closed
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: 3)
    maps.clear()
    ens = integrate_ensemble(part_cfg, 7)
    assert np.array_equal(ens.increment_norms, integrate_ensemble(cfg, 7).increment_norms)
    # blocks of 3, 3 and 1 rows, of each ensemble
    blocks = [m for length, m in maps if length in (8 * 3 * 129 * cfg.n, 8 * 129 * cfg.n)]
    assert len(blocks) == 6 and all(m.closed for m in blocks)
    # nothing reads the states: no block mapping at all
    maps.clear()
    none = integrate_batch(replace(part_cfg, modulus_lags=0, increment_lags=()), range(7), dW)
    assert none.snap_u.shape == (7, 0, cfg.n)
    assert not [m for length, m in maps if length == 8 * 7 * 129 * cfg.n]


@pytest.mark.parametrize("records", ["noise", "all"])
def test_lag_reductions_count_steps_whatever_the_snapshots(basis2d_small, monkeypatch, records):
    # 7 paths snapshotted every 8 steps, with the noise integral alone or
    # every record: one batch with rows 1 and 3 aborting at step 41, and an
    # ensemble in blocks of 3 rows on 2 workers.  The lag maxima over 20
    # steps, past the 16 spacings of the snapshots, and every step's
    # increments at lags 0, 1, 5, 64 and 200 steps are the oracles' bits on
    # the states of the same paths recorded at every step
    cfg = small_config(basis2d_small, overflow_limit=1e3, modulus_lags=20, increment_lags=(0, 1, 5, 64, 200))
    assert cfg.snapshot_stride == 1
    kept = {"noise": {"integral_noise"}, "all": galerkin.RECORDS}[records]
    sparse = replace(cfg, snapshot_stride=8, records=kept)
    dW = aborting_increments(cfg, 7)
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: 3)
    w = basis2d_small.mode_weights("Udual", cfg.n)
    runs = [(integrate_batch(cfg, range(7), dW), integrate_batch(sparse, range(7), dW)),
            (integrate_ensemble(cfg, 7, workers=2), integrate_ensemble(sparse, 7, workers=2))]
    for every, ens in runs:
        assert every.snap_u.shape == (7, 129, cfg.n) and len(ens.config.snap_idx) == 17
        assert ens.snap_u.shape == (7, 17 if records == "all" else 0, cfg.n)
        assert np.array_equal(ens.abort_step, every.abort_step)
        assert ens.lag_maxima.shape == (7, 20) and ens.increment_norms.shape == (7, 5, 129)
        assert np.array_equal(ens.lag_maxima, brute_lag_maxima(every.snap_u, w, 20))
        assert np.array_equal(ens.increment_norms, pair_increment_norms(every.snap_u, w, cfg.increment_lags))
    (_, batch), (_, ens) = runs
    assert batch.abort_step.tolist() == [-1, 41, -1, 41, -1, -1, -1] and not ens.aborted.any()
    assert np.all(batch.increment_norms[[1, 3], :, 41:] == 0.0)


def test_a_missing_increment_lag_is_named(small_ensemble):
    # the fixture recorded the lags 4, 8, 16, 32 and 64
    _, ens = small_ensemble
    fam = FunctionFamily(ens)
    assert np.array_equal(fam.increment_norms(16), ens.increment_norms[:, 2])
    message = r"increments at lag 2, but the ensemble recorded lags \[4, 8, 16, 32, 64\].*increment_lags"
    with pytest.raises(ValueError, match=message):
        fam.increment_norms(2)
    with pytest.raises(ValueError, match=message):
        calibrate_aldous_eta(ens, 0.002)
    with pytest.raises(ValueError, match=message):
        aldous_check(ens, [0.002, 0.016], 0.1)
    # a threshold window past the horizon T = 0.128 holds no increment
    with pytest.raises(ValueError, match="window 0.25 is 250 steps, more than the 128 steps up to T = 0.128"):
        calibrate_aldous_eta(ens, 0.25)
    with pytest.raises(ValueError, match="increment_lags"):
        small_config(ens.config.basis, increment_lags=(4, -1))


def test_increment_lags_are_the_aldous_and_threshold_lags():
    times = np.arange(1025) * 2.0**-10
    assert tightness.increment_lags([2.0**-8, 2.0**-6, 2.0**-4], 2.0**-8, times) == (4, 16, 64)
    # a window below half a spacing reads lag 0, and its threshold lag 1
    assert tightness.increment_lags([2.0**-12, 2.0**-4], 2.0**-12, times) == (0, 1, 64)


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
    basis, every = small_ensemble
    cfg = small_config(basis, modulus_lags=lags)
    stored = integrate_ensemble(cfg, 60)
    assert stored.lag_maxima.shape == (60, lags)
    assert np.array_equal(stored.snap_u, every.snap_u)
    computed = brute_lag_maxima(stored.snap_u, basis.mode_weights("Udual", cfg.n), lags)
    assert np.array_equal(FunctionFamily(stored).lag_maxima(lags), computed)
    assert np.array_equal(FunctionFamily(every).lag_maxima(lags), computed)
    for deltas in ([0.002, 0.004, 0.008], [0.004, 0.016, 0.064]):
        if modulus_lags(deltas, cfg.snap_times) > lags:
            with pytest.raises(ValueError, match="modulus_lags"):
                median_modulus_curve(stored, deltas)
            continue
        want = tightness._modulus_table(every, np.array(deltas))
        assert np.array_equal(tightness._modulus_table(stored, np.array(deltas)), want)
        # the median curve with its slope appended
        curves = [np.append(*median_modulus_curve(ens, deltas)) for ens in (stored, every)]
        assert np.array_equal(*curves, equal_nan=True)
        assert np.array_equal(dubinsky_diagnostic(stored, deltas).modulus_curve, np.max(want, axis=0))


def test_too_few_recorded_lags_rejected(small_ensemble):
    # 0.016 reads 16 snapshot lags; the ensemble recorded 8 (or none)
    basis, _ = small_ensemble
    for lags in (8, 0):
        ens = integrate_batch(small_config(basis, modulus_lags=lags), range(3))
        for diagnostic in (median_modulus_curve, dubinsky_diagnostic):
            with pytest.raises(ValueError, match=f"lag 16, but the ensemble recorded {lags} .*modulus_lags"):
                diagnostic(ens, [0.004, 0.016])


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
    ens = FakeEnsemble(walks, basis2d_small, dt=1e-3, modulus_lags=0, increment_lags=(1, 16, 300, 1000))
    x, w = walks, basis2d_small.mode_weights("Udual", 6)
    for theta in (0.001, 0.016, 0.3, 1.0):
        lag = max(1, round(theta / 1e-3))
        d = x[:, lag:] - x[:, :-lag]
        full = np.sqrt(np.einsum("rsn,n->rs", d * d, w))
        stride = max(1, full.shape[1] // 64)
        for q in (10.0, 60.0):
            want = float(np.percentile(full[:, ::stride].ravel(), q))
            assert calibrate_aldous_eta(ens, theta, q) == want, (theta, q)


def test_modulus_curves_are_median_and_max_of_per_path_moduli(small_ensemble):
    basis, _ = small_ensemble
    nine = integrate_batch(small_config(basis, modulus_lags=64), range(9))
    deltas = [0.0005, 0.004, 0.016, 0.064]
    # each path alone, its lag maxima taken from its snapshots
    per_path = np.array([
        path_modulus(FakeEnsemble(u[None], basis, dt=1e-3, modulus_lags=64), deltas)
        for u in nine.snap_u
    ])
    curve, _ = median_modulus_curve(nine, deltas)
    assert np.array_equal(curve, np.median(per_path, axis=0))
    rep = dubinsky_diagnostic(nine, deltas)
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
            snapshot_stride=1,
        )
        records[n] = integrate_batch(cfg, [0])
    rep = nonlinear_refinement_check(records, psi)
    assert len(rep.successive_gaps) == 3
    assert np.all(np.isfinite(rep.integrals))
    assert rep.integrals[0] == convection_pairing(records[6], psi)[0]
    # the states of every step
    records[10] = integrate_batch(replace(cfg, n=10, snapshot_stride=10), [0])
    with pytest.raises(ValueError, match="snapshot_stride must be 1"):
        nonlinear_refinement_check(records, psi)
    # one path per level
    records[10] = integrate_batch(replace(cfg, n=10), [0, 1])
    with pytest.raises(ValueError, match="one trajectory per level, got 2 at n = 10"):
        nonlinear_refinement_check(records, psi)


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
            snapshot_stride=1,
        )
        vals[n] = convection_pairing(integrate_batch(cfg, [0]), psi)[0]
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
        snapshot_stride=1,
    )
    assert convection_pairing(integrate_batch(cfg0, [0]), basis2d_small.zero_field())[0] == 0.0


def test_holly_wiciak_recursion():
    spec, exact = build_nested_space(np.ones(10), eta0=0.5)
    cert = sample_nested_space(spec, samples=200, seed=1)
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
    assert exact.passed and exact.embedding_margin > 0.0 and exact.tail_margin > 0.0
    assert cert.max_embedding_norm <= exact.max_embedding_norm * (1.0 + 1e-12) <= 0.5


def test_holly_wiciak_general_norms():
    rng = np.random.default_rng(4)
    phi = rng.uniform(0.5, 3.0, size=25)
    spec, exact = build_nested_space(phi, eta0=0.3)
    cert = sample_nested_space(spec, samples=500, seed=2)
    assert cert.embedding_violations == 0
    assert cert.tail_violations == 0
    assert cert.max_embedding_norm <= 0.7
    with pytest.raises(ValueError):
        build_nested_space(phi, eta0=1.5)
    assert exact.passed and exact.embedding_margin > 0.0 and exact.tail_margin > 0.0
    assert cert.max_embedding_norm <= exact.max_embedding_norm * (1.0 + 1e-12) <= 0.7


def _sphere_grid(N: int, points: int) -> np.ndarray:
    """A grid of the unit sphere's positive orthant in R^N, N = 1, 2 or 3,
    of about `points` points per angle: the sums of |u_i| w_i see only
    |u_i|, so their maxima over the sphere are maxima over the orthant."""
    if N == 1:
        return np.ones((1, 1))
    t = np.linspace(0.0, np.pi / 2, points)
    if N == 2:
        return np.stack([np.cos(t), np.sin(t)], axis=1)
    a, b = np.meshgrid(t, t, indexing="ij")
    return np.stack([np.cos(a), np.sin(a) * np.cos(b), np.sin(a) * np.sin(b)], axis=-1).reshape(-1, 3)


@pytest.mark.parametrize("phi, eta0", [([1.0], 0.5), ([2.5], 0.9), ([1.0, 0.3], 0.5), ([0.7, 2.0], 0.2),
                                       ([1.0, 1.0, 1.0], 0.5), ([0.6, 2.9, 1.3], 0.3)],
                         ids=["N1", "N1-eta0.9", "N2", "N2-eta0.2", "N3", "N3-eta0.3"])
def test_nested_space_sups_are_brute_force_maxima(phi, eta0):
    # oracle: the embedding sum and each tail of it, sum_{i >= m} r_i
    # |h_i|_Phi |u_i|, maximised over a fine grid of the unit sphere
    spec, cert = build_nested_space(phi, eta0)
    N = len(phi)
    u = _sphere_grid(N, 2001)
    terms = u * (spec.radii * spec.phi_norms)
    brute = np.array([np.max(np.sum(terms[:, m:], axis=1)) for m in range(N)])
    # the grid's maxima fall short by O(h^2), h = (pi/2)/2000
    assert np.all(brute <= np.array([np.linalg.norm((spec.radii * spec.phi_norms)[m:]) for m in range(N)])
                  * (1.0 + 1e-12))
    assert abs(cert.max_embedding_norm - brute[0]) <= 1e-6 * brute[0]
    assert abs(cert.embedding_margin - (cert.embedding_norm_bound - brute[0])) <= 1e-6 * brute[0]
    allowed = spec.etas[-1] - spec.etas[:-1]
    assert abs(cert.tail_margin - np.min(allowed - brute)) <= 1e-6 * brute[0]
    assert cert.embedding_norm_bound == 1.0 - eta0 and cert.passed


@pytest.mark.parametrize("phi, eta0", [(np.ones(30), 0.5),
                                       (np.random.default_rng(1).uniform(0.5, 3.0, size=25), 0.3)],
                         ids=["ones30", "demo07"])
def test_nested_space_sup_is_the_cancelled_formula(phi, eta0):
    # r_i |h_i|_Phi = (1 - eta_i)/2 = (1 - eta0) 2^-(i+1) whatever the
    # Phi-norms, so the sup is (1 - eta0)/(2 sqrt 3) sqrt(1 - 4^-N)
    spec, cert = build_nested_space(phi, eta0)
    N = len(phi)
    closed = (1.0 - eta0) / (2.0 * math.sqrt(3.0)) * math.sqrt(1.0 - 4.0**-N)
    assert abs(cert.max_embedding_norm - closed) <= 1e-12 * closed
    assert cert.embedding_margin == (1.0 - eta0) - cert.max_embedding_norm


@pytest.mark.parametrize("N, eta0, seed", [(1, 0.9, 0), (1, 0.5, 3), (2, 0.5, 1), (3, 0.3, 2), (12, 0.5, 0),
                                           (30, 0.5, 9)])
def test_nested_space_sup_is_never_below_the_sampled_maximum(N, eta0, seed):
    phi = np.random.default_rng(seed).uniform(0.5, 3.0, size=N)
    spec, cert = build_nested_space(phi, eta0)
    sampled = sample_nested_space(spec, samples=2000, seed=seed)
    # up to rounding: at N = 1 every sample reads the sup, one ulp either way
    assert sampled.max_embedding_norm <= cert.max_embedding_norm * (1.0 + 1e-12)
    assert sampled.embedding_violations == sampled.tail_violations == 0


def test_nested_space_gate_reads_its_radii(monkeypatch):
    # the sups are taken from the spec's radii, not from the formula their
    # recursion cancels to: radii four times too large quadruple the sup and
    # fail both the embedding bound and the tail bounds
    _, cert = build_nested_space(np.ones(4), 0.5)
    assert cert.passed and cert.tail_margin > 0.0
    spec = tightness.NestedSpaceSpec
    monkeypatch.setattr(tightness, "NestedSpaceSpec", lambda **kw: spec(**{**kw, "radii": 4.0 * kw["radii"]}))
    _, wide = build_nested_space(np.ones(4), 0.5)
    assert wide.max_embedding_norm == 4.0 * cert.max_embedding_norm > 0.5
    assert not wide.passed and wide.embedding_margin < 0.0 and wide.tail_margin < 0.0


def _same(a, b) -> bool:
    """Whether a and b, arrays, numbers or dicts of them, agree bitwise (NaN
    matching NaN)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b, equal_nan=True)


def _tables(ens) -> list:
    """The fields of every modulus and Aldous table on ens, at windows of
    1, 2 and 4 steps dt = 1e-3."""
    deltas, thetas = [0.001, 0.002, 0.004], [0.002, 0.004]
    eta = calibrate_aldous_eta(ens, 0.002)
    reports = [dubinsky_diagnostic(ens, deltas), aldous_check(ens, thetas, eta)]
    return [eta, *median_modulus_curve(ens, deltas), *(vars(r) for r in reports)]


def test_tables_read_views_of_the_live_rows(small_ensemble, monkeypatch):
    # each recorded lag read of the tables, with whether it is a view of the
    # ensemble's array
    basis, _ = small_ensemble
    read = []
    for name in ("lag_maxima", "increment_norms"):
        def spy(fam, lag, method=getattr(FunctionFamily, name), name=name):
            out = method(fam, lag)
            read.append(np.shares_memory(out, getattr(fam.ens, name)))
            return out
        monkeypatch.setattr(FunctionFamily, name, spy)
    cfg = replace(small_config(basis), T=0.016, overflow_limit=1e3, modulus_lags=4, increment_lags=(2, 4))
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(5)], axis=1)
    full = _tables(integrate_batch(cfg, range(5), dW))
    assert len(read) == 5 and all(read)
    # rows 1 and 3 abort: every table is that of the other rows, read as copies
    dW[4, [1, 3]] = 1e6
    ens = integrate_batch(cfg, range(5), dW)
    assert ens.aborted.tolist() == [False, True, False, True, False]
    read.clear()
    got = _tables(ens)
    assert len(read) == 5 and not any(read)
    want = _tables(ens.rows(~ens.aborted))
    assert _same(dict(enumerate(got)), dict(enumerate(want)))
    assert not _same(dict(enumerate(got)), dict(enumerate(full)))


def test_all_aborted_ensemble_rejected(basis2d_small):
    cfg = replace(small_config(basis2d_small), T=0.016, overflow_limit=1e-3)
    ens = integrate_ensemble(cfg, 3)
    assert ens.aborted.all()
    with pytest.raises(ValueError, match="all trajectories aborted"):
        FunctionFamily(ens)
    with pytest.raises(ValueError, match="all trajectories aborted"):
        dubinsky_diagnostic(ens, [0.004])
    with pytest.raises(ValueError, match="all trajectories aborted"):
        increment_scaling(ens, tau=0.004, thetas=[0.004, 0.008])
