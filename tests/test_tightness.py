import math
import mmap
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from lag_oracle import brute_modulus, pair_increment_norms, running_maxima
from noise_oracle import sample_nested_space
from path_oracle import decomposition_increments
from conftest import walk_in_chunks
from stepper_oracle import generate_wiener

from sgns import estimates, galerkin, tightness
from sgns.config import load_config
from sgns.galerkin import GalerkinConfig, convection_pairing, integrate_batch, integrate_ensemble
from sgns.noise import constant_transport_model, default_noise_model
from sgns.spectral import Basis, SpaceScale, random_field
from sgns.tightness import (
    FunctionFamily,
    _hitting,
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


def streamed_modulus(coords: np.ndarray, w: np.ndarray, max_lag: int, chunk: int) -> np.ndarray:
    """The modulus of coords (R, S, n) by the stepper's reducer
    (`galerkin._LagReducer`), handed the path as a walk in chunks of `chunk`
    steps hands it: each chunk's window of states from H steps before it."""
    R, S, _ = coords.shape
    out = np.zeros((R, max_lag))
    lags = galerkin._LagReducer(w, S - 1, out, (), np.zeros((R, 0, 0)), ())
    history = galerkin._lag_history(max_lag, (), S - 1)
    for first in range(0, S - 1, chunk):
        last = min(first + chunk, S - 1)
        h = min(history, first)
        lags.reduce(np.ascontiguousarray(coords[:, first - h : last + 1].swapaxes(0, 1)), first, last)
    return out


# the lags of the Aldous windows 0.004..0.064 of the 129-snapshot grid
ALDOUS_LAGS = (4, 8, 16, 32, 64)


@pytest.fixture(scope="module")
def small_ensemble(basis2d_small):
    # the modulus recorded at every lag of the 129-snapshot grid, the
    # increments at the Aldous lags from every step
    return basis2d_small, integrate_ensemble(small_config(basis2d_small, modulus_lags=128, increment_lags=ALDOUS_LAGS,
                                                          increment_starts=range(129)), 60)


class FakeEnsemble:
    """The arrays and config entries the modulus and Aldous tables read, for given
    states (R, S, n) of `basis` at every step, dt apart, with the
    modulus over lags 1..modulus_lags (default: every lag) of the brute-force
    oracle, the increment norms at `increment_lags` from every step of the
    pair-gather oracle, the V-integral of unit H norms and Dirichlet norms
    `norm_D` and the running-maximum record of those H norms."""

    def __init__(self, snap_u, basis, dt=1e-2, norm_D=1.0, modulus_lags=None, increment_lags=()):
        R, S, n = snap_u.shape
        lags = S - 1 if modulus_lags is None else modulus_lags
        self.config = SimpleNamespace(basis=basis, n=n, dt=dt, times=np.arange(S) * dt,
                                      modulus_lags=lags, increment_lags=tuple(increment_lags),
                                      increment_starts=tuple(range(S)),
                                      records=frozenset({"norm_reductions"}))
        self.snap_u = snap_u
        norm_H, norm_D = np.ones((R, S)), np.full((R, S), norm_D)
        self.max_H = np.ones(R)
        self.v_integral = np.sum(norm_H[:, :-1] ** 2 + norm_D[:, :-1] ** 2, axis=1) * dt
        self.aborted = np.zeros(R, dtype=bool)
        w = basis.mode_weights("Udual", n)
        self.modulus = brute_modulus(snap_u, w, lags)
        self.increment_norms = pair_increment_norms(snap_u, w, increment_lags)
        self.running_max = running_maxima(norm_H, self.increment_norms)

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
    # a window shorter than a step reads no modulus, which this ensemble
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
        assert np.array_equal(_hitting(ens.running_max, level, last)[0], expect)


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
    times = np.arange(129) * 1e-3
    ens = integrate_ensemble(small_config(other, increment_lags=(16,),
                                          increment_starts=tightness.increment_starts(0.016, times)), 8)
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
    # path 3 of the ensemble, its modulus from the oracle, against
    # path 3 integrated alone with its modulus recorded by the stepper
    basis, ens = small_ensemble
    u = ens.snap_u[3:4]
    lagmax = FunctionFamily(integrate_batch(small_config(basis, modulus_lags=16), [3])).lag_maxima(16)
    assert lagmax.shape == (1, 16)
    # a window shorter than one snapshot spacing holds no increment
    got = path_modulus(FakeEnsemble(u, basis, dt=1e-3, modulus_lags=16), [0.0005, 0.016])
    assert got.tolist() == [0.0, np.max(lagmax)]


@pytest.mark.parametrize("block", [1, 2, 3])
def test_lag_maxima_in_row_blocks(small_ensemble, monkeypatch, block):
    # 7 paths stepped, and reduced, in blocks of 1, 2 or 3 rows: no block
    # size above divides them, so the last block is short
    basis, recs = small_ensemble
    cfg = small_config(basis, modulus_lags=20)
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: block)
    ens = integrate_ensemble(cfg, 7)  # the stepper records them
    want = brute_modulus(ens.snap_u, basis.mode_weights("Udual", cfg.n), 20)
    assert np.array_equal(FunctionFamily(ens).lag_maxima(20), want)


@pytest.mark.parametrize("n", [8, 16, 32])
def test_lag_maxima_are_the_oracles_on_tightness_paths(n):
    # six paths of the demo's tightness levels, 1,025 snapshots each, the 64
    # lags of the verb's largest default window and the increments at the
    # lags of its default Aldous windows, taken where the verb takes them,
    # without the states record, against the oracles on the recorded states
    run = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs" / "tightness.json")
    cfg = replace(run.galerkin, n=n, snapshot_stride=1, records={"integral_noise"}, modulus_lags=64,
                  increment_lags=(4, 8, 16, 32, 64), increment_starts=range(run.galerkin.steps + 1))
    ens = integrate_batch(cfg, range(6))
    states = integrate_batch(replace(cfg, records={"integral_noise", "states"}), range(6)).snap_u
    w = run.basis.mode_weights("Udual", n)
    assert ens.snap_u.shape == (6, 0, n)
    assert np.array_equal(ens.modulus, brute_modulus(states, w, 64))
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
    cfg = small_config(basis2d_small, overflow_limit=1e3, increment_lags=(0, 1, 5, 64, 128, 200),
                       increment_starts=range(129))
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
    # the modulus and the increment norms of paths stepped without the
    # states record, in one batch with two rows aborting and in blocks of 3
    # rows, are the bits of the runs that record them
    cfg = small_config(basis2d_small, overflow_limit=1e3, modulus_lags=20, increment_lags=(4, 16, 64),
                       increment_starts=range(129))
    dW = aborting_increments(cfg, 7)
    full = integrate_batch(cfg, range(7), dW)
    part_cfg = replace(cfg, records=frozenset(galerkin.RECORDS) - {"states"})
    part = integrate_batch(part_cfg, range(7), dW)
    assert part.snap_u.shape == (7, 0, cfg.n)
    assert np.array_equal(part.modulus, full.modulus)
    assert np.array_equal(part.increment_norms, full.increment_norms)
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: 3)
    ens = integrate_ensemble(part_cfg, 7)
    assert np.array_equal(ens.increment_norms, integrate_ensemble(cfg, 7).increment_norms)


def block_memory(monkeypatch, cfg, rows: int) -> tuple:
    """(traced peak, private mappings, shared mappings) of one batch of
    `rows` paths of cfg, after one run that compiles the system: the peak of
    the memory tracemalloc sees and the lengths of the anonymous mappings
    made, which it does not (the Ensemble's, shared, and the convection
    scratch, private)."""
    integrate_batch(cfg, range(rows))
    maps, make = [], mmap.mmap

    def spy(fileno, length, **kwargs):
        maps.append((length, kwargs.get("flags", mmap.MAP_SHARED)))
        return make(fileno, length, **kwargs)

    monkeypatch.setattr(galerkin.mmap, "mmap", spy)
    tracemalloc.start()
    try:
        integrate_batch(cfg, range(rows))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        monkeypatch.setattr(galerkin.mmap, "mmap", make)
    private = [length for length, flags in maps if flags & mmap.MAP_PRIVATE]
    return peak, private, [length for length, flags in maps if not flags & mmap.MAP_PRIVATE]


@pytest.mark.parametrize("verb", ["ensemble", "estimates", "tightness", "states"])
def test_a_block_holds_no_path(basis2d_small, monkeypatch, verb):
    # 7 paths over 512 and 2,048 steps in chunks of 32, recorded as the
    # ensemble verb records them (the ledger), as the estimates verb does
    # (nothing), as the tightness verb does (the noise integral every 8
    # steps and the norm reductions; the modulus over 32 steps, increments
    # at lags 4, 16 and 32 from the grid rules' and the threshold's starts
    # and from the running-maximum steps), or with
    # the states and the noise integral at every step and those lags: the
    # block's private memory stays below one (7, steps + 1, n) path and
    # grows with the steps by less than 6 (7, steps) arrays, and under the
    # tightness records by less than a quarter of one (the Ensemble is one
    # shared mapping, which tracemalloc does not see), and no mapping but
    # the Ensemble's is as large as a path
    rows, peaks = 7, []
    lags = dict(modulus_lags=32, increment_lags=(4, 16, 32))
    kept = {"ensemble": dict(snapshot_stride=10, records={"ledger"}),
            "estimates": dict(snapshot_stride=10, records=()),
            "tightness": dict(snapshot_stride=8, records={"integral_noise", "norm_reductions"}, **lags),
            "states": dict(snapshot_stride=1, records={"states", "integral_noise"}, **lags)}[verb]
    for steps in (512, 2048):
        cfg = replace(small_config(basis2d_small), T=steps * 1e-3, **kept)
        if verb == "tightness":
            cfg = replace(cfg, increment_starts=tightness.increment_starts(0.004, cfg.times))
        walk_in_chunks(monkeypatch, rows, cfg.n, 32)
        peak, private, shared = block_memory(monkeypatch, cfg, rows)
        path = 8 * rows * (steps + 1) * cfg.n
        assert peak < path and all(length < path for length in private)
        # the one shared mapping is the Ensemble's arrays, a path only where
        # it records the states of every step
        ensemble = 8 * rows * sum(math.prod(shape) for shape in galerkin._row_shapes(cfg).values())
        assert shared == [ensemble]
        assert (ensemble >= path) == (verb == "states")
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 8 * rows * (0.25 if verb == "tightness" else 6) * (2048 - 512)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("verb", ["ensemble", "estimates", "tightness"])
def test_the_functionals_hold_no_array_over_the_steps(basis2d_small, monkeypatch, verb, workers):
    # 6 paths in blocks of 3, over 256 and 1,024 steps in chunks of 32,
    # recorded as the ensemble verb records them (the ledger), as the
    # estimates verb does (nothing, the weighted integrals at two powers)
    # or as the tightness verb does (the noise integral every 8 steps, the
    # norm reductions, the modulus and the increments from the grid rules'
    # and the threshold's starts), on 1 worker or on 2,
    # where the second block is stepped by a forked worker: no norm of a
    # step is recorded, so the Ensemble's one shared mapping does not grow
    # with the steps but by the noise integral's snapshots; the traced peak
    # of each block, in the verb's process or in the worker, grows by less
    # than one (3, steps) array, so no block holds its Ito or
    # Hilbert-Schmidt increments nor a norm of every step; and neither does
    # the verb's read of the functionals (the Dubinsky, threshold and Aldous
    # tables under tightness)
    records = {"ensemble": {"ledger"}, "estimates": set(),
               "tightness": {"integral_noise", "norm_reductions"}}[verb]
    powers = {"ensemble": (2.0,), "estimates": (2.0, 2.5), "tightness": ()}[verb]
    deltas, thetas = [0.002, 0.004, 0.008], [0.004, 0.008, 0.016]
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: 3)
    # a shared mapping for the blocks' peaks, which a forked worker writes
    block_peaks = np.frombuffer(mmap.mmap(-1, 16), dtype=np.float64)
    integrate, maps, make = galerkin._integrate_rows, [], mmap.mmap

    def traced(ens, dW=None, x0=None):
        tracemalloc.start()
        try:
            out = integrate(ens, dW, x0)
            block_peaks[ens.indices[0] // 3] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return out

    def spy(fileno, length, **kwargs):
        if not kwargs.get("flags", mmap.MAP_SHARED) & mmap.MAP_PRIVATE:
            maps.append(length)
        return make(fileno, length, **kwargs)

    def read(ens):
        if verb != "tightness":
            stats = estimates.aggregate({cfg.n: ens}, p_list=powers)
            return stats.per_n[cfg.n]["count"] == 6
        rep = dubinsky_diagnostic(ens, deltas)
        return aldous_check(ens, thetas, calibrate_aldous_eta(ens, min(thetas))).passed in (True, False) and (
            rep.sup_V_integral > 0.0)

    peaks, reads, shared, snaps = [], [], [], []
    integrate_ensemble(small_config(basis2d_small), 1)
    for steps in (256, 1024):
        cfg = replace(small_config(basis2d_small), T=steps * 1e-3, snapshot_stride=0, records=records,
                      integral_powers=powers)
        if verb == "tightness":
            cfg = replace(cfg, snapshot_stride=8, modulus_lags=modulus_lags(deltas, cfg.times),
                          increment_lags=tightness.increment_lags(thetas, min(thetas), cfg.times),
                          increment_starts=tightness.increment_starts(min(thetas), cfg.times))
        assert all(galerkin._row_shapes(cfg)[name] == (0,) for name in ("norm_H", "norm_D", "norm_Udual"))
        snaps.append(len(cfg.snap_idx) if "integral_noise" in records else 0)
        walk_in_chunks(monkeypatch, 3, cfg.n, 32)
        monkeypatch.setattr(galerkin, "_integrate_rows", traced)
        monkeypatch.setattr(galerkin.mmap, "mmap", spy)
        maps.clear()
        try:
            ens = integrate_ensemble(cfg, 6, workers=workers)
        finally:
            monkeypatch.setattr(galerkin, "_integrate_rows", integrate)
            monkeypatch.setattr(galerkin.mmap, "mmap", make)
        shared.append(maps[:])
        peaks.append(block_peaks.copy())
        tracemalloc.start()
        try:
            assert read(ens)
            reads.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert np.all(ens.max_H > 0.0)
    assert len(shared[0]) == len(shared[1]) == 1
    assert 0 <= shared[1][0] - shared[0][0] <= 8 * 6 * cfg.n * (snaps[1] - snaps[0])
    assert np.all(peaks[0] > 0.0) and np.all(peaks[1] - peaks[0] < 8 * 3 * (1024 - 256))
    assert reads[1] - reads[0] < 8 * 6 * (1024 - 256)


@pytest.mark.parametrize("chunk", [1, 19, 20, 21])
def test_streamed_lag_reductions_in_any_chunks(basis2d_small, monkeypatch, chunk):
    # the reductions read H = 20 steps before each chunk (the modulus over 20
    # steps, increments at lags 0, 5 and 20), walked in chunks of 1, H - 1,
    # H and H + 1 steps, and H = 12 (the modulus over 12 steps, increments
    # at lags 3, 5 and 12, none a power of two, so that the modulus at each
    # is the maximum of the norms formed for the increments, with no pruned
    # pass), walked in chunks of 1 and past H: with rows 1 and 3 aborting at
    # step 41, inside a window, and with every row aborting there, after
    # which the walk steps on, masked, the 87 steps to the horizon, in one
    # batch and in one-row blocks; each is the oracles' bits on the recorded
    # states, which read zero from the abort on
    w = basis2d_small.mode_weights("Udual", 10)
    walk_in_chunks(monkeypatch, 7, 10, chunk)
    for max_lag, increment_lags in ((20, (0, 5, 20)), (12, (3, 5, 12))):
        cfg = small_config(basis2d_small, overflow_limit=1e3, modulus_lags=max_lag, increment_lags=increment_lags,
                           increment_starts=range(129))
        some = aborting_increments(cfg, 7)
        every = some.copy()
        every[40] = 1e6
        for dW, aborted in ((some, [1, 3]), (every, list(range(7)))):
            ens = integrate_batch(cfg, range(7), dW)
            assert np.flatnonzero(ens.aborted).tolist() == aborted and np.all(ens.abort_step[aborted] == 41)
            assert np.array_equal(ens.modulus, brute_modulus(ens.snap_u, w, max_lag))
            assert np.array_equal(ens.increment_norms, pair_increment_norms(ens.snap_u, w, increment_lags))
        for r in range(7):
            row = integrate_batch(cfg, [r], every[:, r : r + 1])
            assert np.array_equal(row.modulus, ens.modulus[r : r + 1])
            assert np.array_equal(row.increment_norms, ens.increment_norms[r : r + 1])


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_streamed_lag_reductions_on_any_workers(basis2d_small, monkeypatch, workers):
    # 7 paths in blocks of 2 rows on 1, 2 or 3 workers, over 128 steps
    # (H = 64, in chunks of 30 steps) and over 12 steps, shorter than the
    # lags asked for (H = 12, every lag to the horizon and increments at 64
    # steps clipped to it): the oracles' bits on the recorded states
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: 2)
    walk_in_chunks(monkeypatch, 2, 10, 30)
    w = basis2d_small.mode_weights("Udual", 10)
    long = small_config(basis2d_small, modulus_lags=64, increment_lags=(4, 16, 64), increment_starts=range(129))
    short = replace(small_config(basis2d_small, modulus_lags=12, increment_lags=(5, 64), increment_starts=range(13)),
                    T=0.012)
    for cfg in (long, short):
        assert galerkin._lag_history(cfg.modulus_lags, cfg.increment_lags, cfg.steps) == min(64, cfg.steps)
        ens = integrate_ensemble(cfg, 7, workers=workers)
        assert np.array_equal(ens.modulus, brute_modulus(ens.snap_u, w, cfg.modulus_lags))
        assert np.array_equal(ens.increment_norms, pair_increment_norms(ens.snap_u, w, cfg.increment_lags))


@pytest.mark.parametrize("records", ["noise", "all"])
def test_lag_reductions_count_steps_whatever_the_snapshots(basis2d_small, monkeypatch, records):
    # 7 paths snapshotted every 8 steps, with the noise integral alone or
    # every record: one batch with rows 1 and 3 aborting at step 41, and an
    # ensemble in blocks of 3 rows on 2 workers.  The modulus over 20
    # steps, past the 16 spacings of the snapshots, and every step's
    # increments at lags 0, 1, 5, 64 and 200 steps are the oracles' bits on
    # the states of the same paths recorded at every step
    cfg = small_config(basis2d_small, overflow_limit=1e3, modulus_lags=20, increment_lags=(0, 1, 5, 64, 200),
                       increment_starts=range(129))
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
        assert ens.modulus.shape == (7, 20) and ens.increment_norms.shape == (7, 5, 129)
        assert np.array_equal(ens.modulus, brute_modulus(every.snap_u, w, 20))
        assert np.array_equal(ens.increment_norms, pair_increment_norms(every.snap_u, w, cfg.increment_lags))
    (_, batch), (_, ens) = runs
    assert batch.abort_step.tolist() == [-1, 41, -1, 41, -1, -1, -1] and not ens.aborted.any()
    assert np.all(batch.increment_norms[[1, 3], :, 41:] == 0.0)


def hitting_positions(norm_H: np.ndarray, level: float) -> np.ndarray:
    """The first step of each row of the per-step norms (R, S) at or above
    `level`, the last step where there is none: the reference for the
    hitting steps read off the running-maximum record."""
    hit = norm_H >= level
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), norm_H.shape[1] - 1)


def assert_running_maxima_are_the_full_records(ens) -> None:
    """ens recorded the states, the norms and the increments from every
    step: its running-maximum record is the loop's over its norms, with the
    pair-gather oracle's increments there, and at every level -- below
    |u_0|_H, at it, between it and the sups, at the median, at an entry's
    norm, at the largest sup, just past it and past every sup -- the steps
    and increments read off it (`_hitting`) are the first steps of the
    norm record at the level and the increments of the record of every
    step from there."""
    cfg, peaks = ens.config, ens.running_max
    assert cfg.increment_starts == tuple(range(cfg.steps + 1))
    w = cfg.basis.mode_weights("Udual", cfg.n)
    full = pair_increment_norms(ens.snap_u, w, cfg.increment_lags)
    assert np.array_equal(ens.increment_norms, full)
    want = running_maxima(ens.norm_H, full)
    for name in ("offsets", "step", "norm_H", "increments"):
        got, oracle = getattr(peaks, name), getattr(want, name)
        assert got.dtype == oracle.dtype and got.shape == oracle.shape and np.array_equal(got, oracle), name
    h0, sups = ens.norm_H[:, 0], np.max(ens.norm_H, axis=1)
    levels = [0.0, 0.5 * np.min(h0), h0[0], 0.5 * (np.max(h0) + np.min(sups)), float(np.median(sups)),
              peaks.norm_H[len(peaks.step) // 2], np.max(sups), np.nextafter(np.max(sups), np.inf), np.inf]
    rows = np.arange(len(ens))
    for level in levels:
        steps, entry = _hitting(peaks, level, cfg.steps)
        assert np.array_equal(steps, hitting_positions(ens.norm_H, level)), level
        for i in range(len(cfg.increment_lags)):
            got = np.where(entry >= 0, peaks.increments[entry, i], 0.0)
            assert np.array_equal(got, full[rows, i, steps]), (level, i)


def rising_config(basis, **kw):
    """small_config under multiplicative noise c u dW with c = 2, whose H
    norms set several running maxima on each path, and an overflow limit
    of 1.5 that four of the first 7 paths pass, at steps 15, 38, 38 and 59;
    the increments at lags 0, 1, 5, 64 and 200 steps (past the horizon)
    from every step."""
    cfg = small_config(basis, overflow_limit=1.5, increment_lags=(0, 1, 5, 64, 200),
                       increment_starts=range(129), **kw)
    return replace(cfg, model=constant_transport_model([[1.0, 0.0]], c_values=[2.0]))


@pytest.mark.parametrize("chunk", [1, 5])
def test_running_maxima_give_the_hitting_steps_and_increments(basis2d_small, monkeypatch, chunk):
    # 7 paths in one batch walked in chunks of 1 and 5 steps, and each path
    # alone: the record of each is the oracles' and the same bits alone
    cfg = rising_config(basis2d_small)
    walk_in_chunks(monkeypatch, 7, cfg.n, chunk)
    ens = integrate_batch(cfg, range(7))
    assert ens.abort_step.tolist() == [-1, 38, -1, 59, 38, 15, -1]
    assert np.all(np.diff(ens.running_max.offsets) > 2)
    assert_running_maxima_are_the_full_records(ens)
    walk_in_chunks(monkeypatch, 1, cfg.n, chunk)
    for r in range(7):
        alone = integrate_batch(cfg, [r]).running_max
        picked = ens.running_max.rows([r])
        for name in ("offsets", "step", "norm_H", "increments"):
            assert np.array_equal(getattr(alone, name), getattr(picked, name)), (r, name)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_running_maxima_on_any_workers(basis2d_small, monkeypatch, workers):
    # 7 paths in blocks of 2 rows on 1, 2 or 3 workers, whose records are
    # joined in row order, and the same paths recorded without the states,
    # the norms and the increments from every step, as the tightness verb
    # records them: the same record
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: 2)
    cfg = rising_config(basis2d_small)
    ens = integrate_ensemble(cfg, 7, workers=workers)
    assert ens.abort_step.tolist() == [-1, 38, -1, 59, 38, 15, -1]
    assert_running_maxima_are_the_full_records(ens)
    lean = integrate_ensemble(replace(cfg, increment_starts=(), records={"norm_reductions"}), 7, workers=workers)
    assert lean.increment_norms.shape == (7, 5, 0) and lean.norm_H.shape == (7, 0)
    for name in ("offsets", "step", "norm_H", "increments"):
        assert np.array_equal(getattr(lean.running_max, name), getattr(ens.running_max, name)), name
    # a selection of rows is their entries, in order
    picked = ens.running_max.rows(~ens.aborted)
    for k, r in enumerate(np.flatnonzero(~ens.aborted)):
        at = slice(ens.running_max.offsets[r], ens.running_max.offsets[r + 1])
        assert np.array_equal(picked.step[picked.offsets[k] : picked.offsets[k + 1]], ens.running_max.step[at])


def test_v_integral_is_the_one_sum_of_the_norms(basis2d_small, monkeypatch):
    # 7 rising paths, four aborting, in chunks of 1 and 5 steps, with and
    # without the norms: the V-integral is np.sum of |u|^2 + ||u||^2 over
    # the steps before the horizon of the zeroed norm record, times dt, to
    # the bit, which the Dubinsky table reads
    cfg = rising_config(basis2d_small)
    for chunk in (1, 5):
        walk_in_chunks(monkeypatch, 7, cfg.n, chunk)
        ens = integrate_batch(cfg, range(7))
        H, D = ens.norm_H, ens.norm_D
        want = np.sum(H[:, :-1] ** 2 + D[:, :-1] ** 2, axis=1) * cfg.dt
        assert np.array_equal(ens.v_integral, want)
        lean = integrate_batch(replace(cfg, records={"norm_reductions"}), range(7))
        assert np.array_equal(lean.v_integral, want) and lean.norm_H.shape == (7, 0)
    rep = dubinsky_diagnostic(ens, [5e-4])
    assert rep.sup_V_integral == float(np.max(want[~ens.aborted]))


def test_a_missing_increment_lag_is_named(small_ensemble):
    # the fixture recorded the lags 4, 8, 16, 32 and 64
    _, ens = small_ensemble
    fam = FunctionFamily(ens)
    assert np.array_equal(fam.increment_norms(16, range(129)), ens.increment_norms[:, 2])
    assert np.array_equal(fam.increment_norms(16, [90, 3]), ens.increment_norms[:, 2, [90, 3]])
    message = r"increments at lag 2, but the ensemble recorded lags \[4, 8, 16, 32, 64\].*increment_lags"
    with pytest.raises(ValueError, match=message):
        fam.increment_norms(2, [0])
    with pytest.raises(ValueError, match=message):
        calibrate_aldous_eta(ens, 0.002)
    with pytest.raises(ValueError, match=message):
        aldous_check(ens, [0.002, 0.016], 0.1)
    # a threshold window past the horizon T = 0.128 holds no increment
    with pytest.raises(ValueError, match="window 0.25 is 250 steps, more than the 128 steps up to T = 0.128"):
        calibrate_aldous_eta(ens, 0.25)
    with pytest.raises(ValueError, match="increment_lags"):
        small_config(ens.config.basis, increment_lags=(4, -1))
    # an ensemble that recorded the increments from the grid rules' three
    # steps alone: a read from any other step names the starts
    cfg = small_config(ens.config.basis, increment_lags=(4, 16), increment_starts=(90, 26, 58, 26))
    assert cfg.increment_starts == (26, 58, 90)
    few = integrate_batch(cfg, range(3))
    assert np.array_equal(few.increment_norms, ens.increment_norms[:3][:, [0, 2]][:, :, [26, 58, 90]])
    starts = r"increments from step\(s\) \[0, 5\], which the ensemble did not record.*increment_starts"
    with pytest.raises(ValueError, match=starts):
        FunctionFamily(few).increment_norms(16, [0, 26, 5])
    with pytest.raises(ValueError, match=r"from step\(s\) \[0, 1, 2,.*increment_starts"):
        calibrate_aldous_eta(few, 0.004)
    assert aldous_check(few, [0.004, 0.016], 0.1).passed in (True, False)
    for bad in ((0, 129), (-1,), (2.5,)):
        with pytest.raises(ValueError, match=r"increment_starts = .* must be steps in \[0, 128\]"):
            small_config(ens.config.basis, increment_starts=bad)


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
        want = brute_modulus(coords, w, max_lag)
        # chunks of 1, H - 1, H, H + 1 and all S - 1 steps
        chunk = max((1, max_lag - 1, max_lag, max_lag + 1, S - 1)[case % 5], 1)
        got = streamed_modulus(coords, w, max_lag, chunk)
        assert np.array_equal(got, want), (case, n, R, S, max_lag, chunk)


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
        want = brute_modulus(coords, w, 40)
        chunk = (1, 39, 40, 41, 199)[trial % 5]
        assert np.array_equal(streamed_modulus(coords, w, 40, chunk), want), (trial, chunk)


@pytest.mark.parametrize("lags", [64, 8])
def test_stored_lag_maxima_give_the_computed_tables(small_ensemble, lags):
    # the modulus recorded up to `lags` is the oracle's of the snapshots
    # and gives the tables of the ensemble that recorded every lag; a window
    # past them is an error
    basis, every = small_ensemble
    cfg = small_config(basis, modulus_lags=lags)
    stored = integrate_ensemble(cfg, 60)
    assert stored.modulus.shape == (60, lags)
    assert np.array_equal(stored.snap_u, every.snap_u)
    computed = brute_modulus(stored.snap_u, basis.mode_weights("Udual", cfg.n), lags)
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


def test_the_recorded_modulus_is_the_table_at_each_window_lag(small_ensemble):
    # the record never falls with the lag, and each column of the modulus
    # table is the record at its window's whole steps, 0 below one step
    _, ens = small_ensemble
    assert not ens.aborted.any() and ens.modulus.shape == (60, 128)
    assert np.all(np.diff(ens.modulus, axis=1) >= 0.0) and np.all(ens.modulus[:, 0] > 0.0)
    deltas = [0.0005, 0.001, 0.0035, 0.016, 0.064, 0.128]
    table = tightness._modulus_table(ens, np.array(deltas))
    for col, lag in enumerate([0, 1, 3, 16, 64, 128]):
        want = ens.modulus[:, lag - 1] if lag else np.zeros(60)
        assert np.array_equal(table[:, col], want), deltas[col]


def test_modulus_curves_are_median_and_max_of_per_path_moduli(small_ensemble):
    basis, _ = small_ensemble
    nine = integrate_batch(small_config(basis, modulus_lags=64), range(9))
    deltas = [0.0005, 0.004, 0.016, 0.064]
    # each path alone, its modulus taken from its snapshots
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
    # ensemble's array: the modulus is read as a view of the live rows, the
    # increments as the few columns of the starts read, which are the
    # recorded ones of the live rows
    basis, _ = small_ensemble
    read = []
    for name, field in (("lag_maxima", "modulus"), ("increment_norms", "increment_norms")):
        def spy(fam, lag, *starts, name=name, method=getattr(FunctionFamily, name), field=field):
            out = method(fam, lag, *starts)
            read.append((name, np.shares_memory(out, getattr(fam.ens, field))))
            if starts:
                cfg = fam.ens.config
                cols = [cfg.increment_starts.index(s) for s in starts[0]]
                want = fam.ens.increment_norms[~fam.ens.aborted, cfg.increment_lags.index(lag)][:, cols]
                assert np.array_equal(out, want)
            return out
        monkeypatch.setattr(FunctionFamily, name, spy)
    times = np.arange(17) * 1e-3
    cfg = replace(small_config(basis), T=0.016, overflow_limit=1e3, modulus_lags=4, increment_lags=(2, 4),
                  increment_starts=tightness.increment_starts(0.002, times))
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(5)], axis=1)
    full = _tables(integrate_batch(cfg, range(5), dW))
    reads = ["lag_maxima"] * 2 + ["increment_norms"] * 3
    assert sorted(read) == sorted(zip(reads, [True] * 2 + [False] * 3))
    # rows 1 and 3 abort: every table is that of the other rows, read as copies
    dW[4, [1, 3]] = 1e6
    ens = integrate_batch(cfg, range(5), dW)
    assert ens.aborted.tolist() == [False, True, False, True, False]
    read.clear()
    got = _tables(ens)
    assert sorted(read) == sorted(zip(reads, [False] * 5))
    want = _tables(ens.rows(~ens.aborted))
    assert _same(dict(enumerate(got)), dict(enumerate(want)))
    assert not _same(dict(enumerate(got)), dict(enumerate(full)))
    # the sups the Dubinsky and Aldous tables read are the walk's max_H, the
    # bits of each live row's largest recorded H norm
    live = ~ens.aborted
    assert np.array_equal(ens.max_H[live].view(np.uint64), np.max(ens.norm_H[live], axis=1).view(np.uint64))
    assert got[-2]["sup_sup_H"] == float(np.max(ens.norm_H[live]))


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
