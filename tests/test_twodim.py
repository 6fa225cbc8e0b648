import math
import re
import tracemalloc
import weakref

import numpy as np
import pytest
from conftest import mode_id, triplets
from noise_oracle import certify_conditions
from twin_oracle import twin_oracle

from sgns import galerkin, spectral, twodim
from sgns.galerkin import GalerkinConfig, generate_wiener, integrate_batch
from sgns.noise import default_noise_model, exact_constants
from sgns.nonlinear import TrilinearWorkspace, bilinear_B
from sgns.spectral import ROLE_COS, Basis, SpaceScale, TorusDomain, norm, random_field
from sgns.twodim import (
    ShiftedProblem,
    convection_path_bound,
    energy_inequality_check,
    l4_norm,
    ladyzhenskaya_check,
    lipschitz_gate_failure,
    pathwise_uniqueness_experiment,
    solve_shifted,
    trilinear_2d_bound,
    uniqueness_shifted,
)


@pytest.fixture(scope="module")
def ws(basis2d_small):
    return TrilinearWorkspace(basis2d_small)


def test_l4_single_mode_closed_form(basis2d_small):
    # u = a sqrt(2/vol) cos(x1) e2: |u|_L4^4 = a^4 (2/vol)^2 vol 3/8 ... check
    # against a dense quadrature oracle instead of hand algebra
    b = basis2d_small
    i = mode_id(b, (1, 0), ROLE_COS)
    u = 1.7 * b.basis_field(i)
    from sgns.spectral import eval_physical

    N = 64
    vals = eval_physical(u, N)
    oracle = (np.mean(np.sum(vals**2, axis=-1) ** 2) * b.domain.volume) ** 0.25
    assert abs(l4_norm(u) - oracle) < 1e-10 * oracle


def test_ladyzhenskaya_single_mode_closed_form(basis2d_small):
    # u = a sqrt(2/vol) cos(x1) eps: |u|_H = a, ||u|| = a, ||u||_L4^4 = 3a^4/(2 vol),
    # so the ratio is (3/(4 vol))^(1/4) for any amplitude
    b = basis2d_small
    i = mode_id(b, (1, 0), ROLE_COS)
    expect = (3.0 / (4.0 * b.domain.volume)) ** 0.25
    for a in (1.0, 2.3):
        got = ladyzhenskaya_check(a * b.basis_field(i))
        assert abs(got - expect) < 1e-10


def test_ladyzhenskaya_scaling_invariance(basis2d_small, rng):
    u = random_field(basis2d_small, rng)
    r1 = ladyzhenskaya_check(u)
    r2 = ladyzhenskaya_check(3.7 * u)
    assert abs(r1 - r2) < 1e-12
    assert r1 > 0


def test_ladyzhenskaya_stable_under_refinement(basis2d_small, rng):
    vals = []
    for _ in range(200):
        u = random_field(basis2d_small, rng)
        vals.append(ladyzhenskaya_check(u))
    base_max = max(vals)
    K = basis2d_small.domain.K
    vals2 = []
    rng2 = np.random.default_rng(20240817)
    for _ in range(200):
        u = random_field(basis2d_small, rng2)
        vals2.append(ladyzhenskaya_check(u, grid_n=2 * (4 * K + 2)))
    assert abs(max(vals2) - base_max) <= 0.02 * base_max


def test_l4_norm_needs_the_exact_grid(basis2d):
    # at K = 8 the quadrature of |u|^4 is exact from N = 4K + 1 = 33 on;
    # coarser grids alias and are refused, not returned
    u = random_field(basis2d, np.random.default_rng(0), decay=0.5)
    exact = l4_norm(u, 68)
    for N in (33, 34, 40):
        assert abs(l4_norm(u, N) - exact) <= 1e-12 * exact
    for N in (18, 24, 32):
        with pytest.raises(ValueError, match="4K\\+1 = 33"):
            l4_norm(u, N)
        with pytest.raises(ValueError, match="4K\\+1 = 33"):
            ladyzhenskaya_check(u, N)


def test_ladyzhenskaya_rejects_zero(basis2d_small):
    with pytest.raises(ValueError):
        ladyzhenskaya_check(basis2d_small.zero_field())


def test_trilinear_2d_bound(basis2d_small, ws, rng):
    vals = []
    for _ in range(100):
        u = random_field(basis2d_small, rng)
        v = random_field(basis2d_small, rng)
        w = random_field(basis2d_small, rng)
        vals.append(trilinear_2d_bound(u, v, w, ws))
    assert np.isfinite(vals).all()
    # b(u, v, v) = 0: ratio 0 with w = v
    u = random_field(basis2d_small, rng)
    v = random_field(basis2d_small, rng)
    assert trilinear_2d_bound(u, v, v, ws) <= 1e-12


def test_trilinear_2d_degenerate(basis2d_small, ws, rng):
    u = random_field(basis2d_small, rng)
    z = basis2d_small.zero_field()
    assert math.isnan(trilinear_2d_bound(u, z, u, ws))


def test_convection_path_bound(basis2d_small, ws, rng):
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=10,
        dt=1e-3,
        T=0.05,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=default_noise_model(2),
        seed=2,
        snapshot_stride=5,
    )
    ens = integrate_batch(cfg, [0])
    rep = convection_path_bound(ens, ws)
    assert rep.ratio.shape == (1,) and rep.ratio[0] <= 1.0 + 1e-9
    # the workspace must be of the record's basis
    coarse = Basis(TorusDomain(d=2, K=2), SpaceScale(d=2))
    with pytest.raises(ValueError, match="another basis"):
        convection_path_bound(ens, TrilinearWorkspace(coarse))


def test_convection_path_bound_is_the_per_snapshot_formula(basis2d_small, ws):
    # five rows, row 2 aborted mid-path (its later snapshots read zero): each
    # row's values are the quadrature of the per-snapshot norms
    cfg = GalerkinConfig(
        basis=basis2d_small, n=10, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, np.random.default_rng(4), n=8, decay=0.5),
        model=default_noise_model(2), seed=2, snapshot_stride=5, overflow_limit=1e3,
    )
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(5)], axis=1)
    dW[22, 2] = 1e6
    ens = integrate_batch(cfg, range(5), dW)
    assert ens.aborted.tolist() == [False, False, True, False, False]
    rep = convection_path_bound(ens, ws)
    dts = np.diff(cfg.snap_times)
    for r in range(5):
        us = [basis2d_small.field_from_real_coords(x) for x in ens.snap_u[r]]
        b2 = np.array([norm(bilinear_B(u, u, ws), "Vdual") ** 2 for u in us])
        v2 = np.array([norm(u, "V") ** 2 for u in us])
        sup_h = max(norm(u, "H") for u in us)
        int_b, int_v = float(np.sum(b2[:-1] * dts)), float(np.sum(v2[:-1] * dts))
        want = (math.sqrt(int_b), sup_h, math.sqrt(int_v),
                math.sqrt(int_b) / (2.0**0.5 * sup_h * math.sqrt(int_v)))
        got = (rep.b_l2_vdual[r], rep.sup_H[r], rep.l2_V[r], rep.ratio[r])
        for g, w in zip(got, want):
            assert abs(g - w) <= 1e-12 * abs(w)


def test_solve_shifted_linear_decay(basis2d_small):
    # z = 0, f = 0, B disabled: per-mode decay exp(-|kappa|^2 t) (the -A + v
    # cancellation)
    b = basis2d_small
    prob = ShiftedProblem(
        basis=b, n=4, dt=1e-2, T=1.0, u0=b.basis_field(0), include_B=False
    )
    path = solve_shifted(prob)
    lam = b.mode_weights("D", 1)[0]
    assert abs(path[-1, 0] - math.exp(-lam * 1.0)) < 1e-7


def test_solve_shifted_zero_data(basis2d_small):
    prob = ShiftedProblem(basis=basis2d_small, n=6, dt=1e-2, T=0.5, u0=basis2d_small.zero_field())
    path = solve_shifted(prob)
    assert np.all(path == 0.0)


def test_rk4_order(basis2d_small):
    b = basis2d_small
    lam = b.mode_weights("D", 1)[0]
    T = 0.5
    errs = []
    for dt in (0.05, 0.025, 0.0125):
        prob = ShiftedProblem(basis=b, n=4, dt=dt, T=T, u0=b.basis_field(0), include_B=False)
        path = solve_shifted(prob)
        errs.append(abs(path[-1, 0] - math.exp(-lam * T)))
    order = math.log(errs[0] / errs[1]) / math.log(2.0)
    assert 3.7 <= order <= 4.3


@pytest.mark.parametrize("n", [0, 10**6])
def test_shifted_problem_level_rule(basis2d_small, n):
    with pytest.raises(ValueError, match=rf"n = {n} outside \[1, "):
        ShiftedProblem(basis=basis2d_small, n=n, dt=1e-3, T=0.01, u0=basis2d_small.zero_field())


def test_energy_inequality_reduced_form(basis2d_small, rng):
    # z = 0, f = 0: inequality reads d|v|^2/dt + 0.5 ||v||^2 <= 2 |v|^2
    prob = ShiftedProblem(
        basis=basis2d_small, n=10, dt=1e-3, T=0.1,
        u0=random_field(basis2d_small, rng, n=10, decay=0.5),
    )
    path = solve_shifted(prob)
    rep = energy_inequality_check(path, prob)
    assert rep.worst_margin >= -1e-8
    # v = 0 path: inequality reads 0 <= a(t)
    prob0 = ShiftedProblem(basis=basis2d_small, n=10, dt=1e-3, T=0.05, u0=basis2d_small.zero_field())
    rep0 = energy_inequality_check(solve_shifted(prob0), prob0)
    assert rep0.worst_margin >= 0.0


def test_energy_inequality_margin_shrinks_with_dt(basis2d_small, rng):
    u0 = random_field(basis2d_small, rng, n=8, decay=0.5)
    z = random_field(basis2d_small, rng, n=8, decay=1.0)
    f = 0.3 * random_field(basis2d_small, rng, n=8, decay=1.0)
    worst = {}
    for dt in (2e-3, 1e-3, 5e-4):
        prob = ShiftedProblem(
            basis=basis2d_small, n=8, dt=dt, T=0.1, u0=u0,
            z=z, f=f,
        )
        path = solve_shifted(prob)
        worst[dt] = energy_inequality_check(path, prob).worst_margin
    # violations (if any) are discretization residuals: bounded by c*dt
    for dt, m in worst.items():
        assert m >= -10.0 * dt


def test_uniqueness_shifted_identical(basis2d_small, rng):
    u0 = random_field(basis2d_small, rng, n=8)
    prob = ShiftedProblem(basis=basis2d_small, n=8, dt=1e-3, T=0.05, u0=u0)
    rep = uniqueness_shifted(prob, u0, u0)
    assert rep.identical
    assert np.all(rep.distance_sq == 0.0)


def test_uniqueness_shifted_envelope(basis2d_small, rng):
    u0 = random_field(basis2d_small, rng, n=8, decay=0.5)
    pert = np.zeros(basis2d_small.n_modes)
    pert[2] = 1e-8
    v20 = u0 + basis2d_small.field_from_real_coords(pert)
    z = random_field(basis2d_small, rng, n=8, decay=1.0)
    prob = ShiftedProblem(
        basis=basis2d_small, n=8, dt=1e-3, T=0.1, u0=u0, z=z
    )
    rep = uniqueness_shifted(prob, u0, v20)
    assert not rep.identical
    assert rep.within_envelope
    assert np.isfinite(rep.envelope[-1])


def test_uniqueness_shifted_linear_modewise(basis2d_small):
    # B disabled: each difference mode decays like exp(-|kappa|^2 t)
    b = basis2d_small
    u0 = b.basis_field(0)
    pert = np.zeros(b.n_modes)
    pert[0] = 1e-6
    v20 = u0 + b.field_from_real_coords(pert)
    prob = ShiftedProblem(basis=b, n=4, dt=1e-3, T=0.2, u0=u0, include_B=False)
    rep = uniqueness_shifted(prob, u0, v20)
    lam = b.mode_weights("D", 1)[0]
    expect = (1e-6 * math.exp(-lam * 0.2)) ** 2
    assert abs(rep.distance_sq[-1] - expect) <= 1e-6 * expect


def test_pathwise_uniqueness_gamma_zero(basis2d_small, rng):
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=default_noise_model(2), seed=12,
    )
    rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=0.0, n_traj=5)
    assert rep.identical
    assert np.all(rep.ratios_at_T == 0.0)


def test_pathwise_uniqueness_weighted_distance(basis2d_small, rng):
    model = default_noise_model(2)
    cert = certify_conditions(model, basis2d_small, samples=200, seed=3)
    assert cert.lipschitz_L < 2.0
    assert cert.lipschitz_L <= exact_constants(model, basis2d_small).lipschitz_L * (1.0 + 1e-12) < 2.0
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.1,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=model, seed=12,
    )
    rep = pathwise_uniqueness_experiment(
        cfg, lipschitz_L=cert.lipschitz_L, gamma=1e-8, n_traj=50
    )
    assert rep.median_ratio_T <= 1.1
    assert rep.eps > 0
    assert abs(rep.C_eps - 2.0 / rep.eps) < 1e-15


def test_pathwise_uniqueness_gate(basis2d_small, rng):
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, rng, n=8),
        model=default_noise_model(2), seed=12,
    )
    # L in [sqrt 2, 2) fails too: eps = (2 - max(L, L^2)) / 2 would not be positive
    for L in (2.5, 2.0, 1.5, math.sqrt(2.0), float("nan")):
        with pytest.raises(ValueError, match=re.escape(f"gate max(L, L^2) < 2 failed at L = {L}")):
            pathwise_uniqueness_experiment(cfg, lipschitz_L=L, gamma=1e-8, n_traj=2)
    L = np.nextafter(math.sqrt(2.0), 0.0)
    assert lipschitz_gate_failure(L) is None
    rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=L, gamma=1e-8, n_traj=2)
    assert rep.eps == 0.5 * (2.0 - L**2) > 0.0 and rep.C_eps == 2.0 / rep.eps


def test_pathwise_uniqueness_keeps_the_config(basis2d_small, rng):
    # the twins run under the caller's overflow limit, so they abort as a
    # single trajectory of the same config does
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=default_noise_model(2), seed=12, overflow_limit=1e-3,
    )
    assert integrate_batch(cfg, [0]).aborted[0]
    with pytest.raises(RuntimeError, match="trajectory 0 aborted"):
        pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=2)


def test_pathwise_uniqueness_names_the_first_aborted_pair(basis2d_small, rng, monkeypatch):
    # in a block of 4 pairs, the u2 twin of pair 1 and the u1 twin of pair 2
    # abort: the message names pair 1, the lowest trajectory with an abort
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=default_noise_model(2), seed=12,
    )
    walk = twodim.step_chunks

    def aborting(config, indices, x0=None, dW=None, h_norm=True):
        for chunk in walk(config, indices, x0, dW, h_norm):
            chunk.abort_step[[2, 4 + 1]] = 1
            yield chunk

    monkeypatch.setattr(twodim, "step_chunks", aborting)
    with pytest.raises(RuntimeError, match="trajectory 1 aborted"):
        pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=4)


def counted_batches(monkeypatch):
    """Spy on the twins' batches, each one walk of `step_chunks`: the row
    count of each, and at each chunk a walk hands over how many buffers of
    the chunks handed earlier, by any walk, are still alive besides the one
    this chunk's states are in.  A walk hands every chunk in one buffer,
    which the next chunk overwrites."""
    walk, rows, refs, alive = twodim.step_chunks, [], [], []

    def counted(config, indices, x0=None, dW=None, h_norm=True):
        rows.append(len(indices))
        for chunk in walk(config, indices, x0, dW, h_norm):
            buf = chunk.states.base
            alive.append(sum(ref() is not None and ref() is not buf for ref in refs))
            refs.append(weakref.ref(buf))
            yield chunk

    monkeypatch.setattr(twodim, "step_chunks", counted)
    return rows, alive


@pytest.mark.parametrize("gamma", [0.0, 1e-8])
def test_pathwise_uniqueness_ignores_the_blocks(basis2d_small, rng, monkeypatch, gamma):
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=default_noise_model(2), seed=12,
    )
    rows, _ = counted_batches(monkeypatch)
    reps = []
    # BLOCK_CACHE = r x triplets: blocks of r rows
    for cache in (14, 2, 6):
        monkeypatch.setattr(galerkin, "BLOCK_CACHE", cache * triplets(cfg))
        reps.append(pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=gamma, n_traj=7))
    # blocks of 7 pairs; of 1 pair; of 3 + 3 + 1 pairs
    assert rows == [14] + [2] * 7 + [6, 6, 2]
    assert reps[0].identical if gamma == 0.0 else np.all(reps[0].ratios_at_T > 0.0)
    for rep in reps[1:]:
        assert rep.identical == reps[0].identical
        assert np.array_equal(rep.ratios_at_T, reps[0].ratios_at_T)
        assert np.array_equal(rep.sup_ratios, reps[0].sup_ratios)


def test_twins_are_compared_at_gamma_zero_only(basis2d_small, rng):
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=default_noise_model(2), seed=12,
    )
    twin = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=0.0, n_traj=3)
    rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=3)
    assert twin.identical is True
    # no comparison is made between twins a gamma apart
    assert rep.identical is None


def test_twin_checks_ride_in_the_perturbed_batches(basis2d_small, rng, monkeypatch):
    # check pair r is one more row, from x1, in the batch that steps pair r;
    # a check pair past n_traj runs as a batch of its own two rows
    cfg = GalerkinConfig(
        basis=basis2d_small, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis2d_small, rng, n=8, decay=0.5),
        model=default_noise_model(2), seed=12,
    )
    plain = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=5)
    rows, _ = counted_batches(monkeypatch)
    # blocks of 4 rows: 2 pairs
    monkeypatch.setattr(galerkin, "BLOCK_CACHE", 4 * triplets(cfg))
    for twins, want in ((3, [6, 5, 2]), (8, [6, 6, 3, 4, 2])):
        rows.clear()
        rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=5, twins=twins)
        assert rows == want
        assert rep.identical is True
        # the check rows change no pair's bits
        assert np.array_equal(rep.ratios_at_T, plain.ratios_at_T)
        assert np.array_equal(rep.sup_ratios, plain.sup_ratios)

    # a check row one ulp off its u1 row fails the check
    walk = twodim.step_chunks

    def nudged(config, indices, x0=None, dW=None, h_norm=True):
        for chunk in walk(config, indices, x0, dW, h_norm):
            if len(indices) == 5:
                chunk.states[-1, -1, 0] = np.nextafter(chunk.states[-1, -1, 0], np.inf)
            yield chunk

    monkeypatch.setattr(twodim, "step_chunks", nudged)
    rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=5, twins=3)
    assert rep.identical is False


def uniqueness_config(basis, T=0.5):
    """The twins of the uniqueness demo: n = 16 of K = 8, T = 0.5."""
    return GalerkinConfig(
        basis=basis, n=16, dt=1e-3, T=T,
        u0=random_field(basis, np.random.default_rng(1100), n=8, decay=0.5),
        model=default_noise_model(2), seed=2468,
    )


def test_twins_run_at_the_ensemble_block_size(basis2d, monkeypatch):
    # n = 16 has 88 convection triplets, so a block holds BLOCK_CACHE // 88
    # = 2,272 rows: the demo's 100 pairs are one batch of 200 rows
    cfg = uniqueness_config(basis2d)
    assert triplets(cfg) == 88
    rows, _ = counted_batches(monkeypatch)
    rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=100)
    assert rows == [200]
    assert np.all(rep.ratios_at_T > 0.0)
    # blocks of 100 rows: two batches of 50 pairs, the same bits
    rows.clear()
    monkeypatch.setattr(galerkin, "BLOCK_CACHE", 100 * triplets(cfg))
    split = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=100)
    assert rows == [100, 100]
    assert np.array_equal(split.ratios_at_T, rep.ratios_at_T)
    assert np.array_equal(split.sup_ratios, rep.sup_ratios)


@pytest.mark.parametrize("gamma", [0.0, 1e-8])
def test_each_twin_batch_is_freed_before_the_next(basis2d, monkeypatch, gamma):
    # 40 pairs in blocks of 20, each stepped in time chunks: every chunk of
    # a batch is handed in the buffer of its first, and each batch's
    # buffer is released before the next batch is stepped
    cfg = uniqueness_config(basis2d)
    monkeypatch.setattr(galerkin, "BLOCK_CACHE", 40 * triplets(cfg))
    rows, alive = counted_batches(monkeypatch)
    pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=gamma, n_traj=40)
    assert len(alive) > len(rows)
    assert alive == [0] * len(alive)
    assert rows == [40, 40]


def small_twins(basis, **kw):
    """Twins on n = 8 of K = 3 over 50 steps."""
    return GalerkinConfig(
        basis=basis, n=8, dt=1e-3, T=0.05,
        u0=random_field(basis, np.random.default_rng(31), n=8, decay=0.5),
        model=default_noise_model(2), seed=12, **kw,
    )


def assert_matches_oracle(rep, cfg, n_traj, twins):
    want = twin_oracle(cfg, rep.C_eps, rep.gamma, n_traj, twins)
    assert rep.identical == want["identical"]
    assert np.array_equal(rep.ratios_at_T, want["ratios_at_T"])
    assert np.array_equal(rep.sup_ratios, want["sup_ratios"])


@pytest.mark.parametrize("gamma", [0.0, 1e-8])
@pytest.mark.parametrize("chunk", [1, 7, 50, 80])
def test_twin_chunks_keep_the_bits_of_one_batch(basis2d_small, monkeypatch, gamma, chunk):
    # 4 pairs and 2 check rows: one batch of 10 rows of n = 8, stepped in
    # chunks of `chunk` of the 50 steps, from configs that snapshot the
    # endpoints only or every 7 steps: the twins read every step whatever
    # the config's grid
    rows, alive = counted_batches(monkeypatch)
    for stride in (0, 7):
        cfg = small_twins(basis2d_small, snapshot_stride=stride)
        monkeypatch.setattr(spectral, "GRID_BLOCK", chunk * 10 * cfg.n)
        rows.clear()
        alive.clear()
        rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=gamma, n_traj=4, twins=2)
        assert rows == [10] and len(alive) == math.ceil(cfg.steps / chunk)
        assert rep.identical is True
        assert_matches_oracle(rep, cfg, 4, 2)


@pytest.mark.parametrize("gamma", [0.0, 1e-8])
@pytest.mark.parametrize("twins", [0, 5, 8])
def test_twin_batches_keep_the_bits_of_one_batch(basis2d_small, monkeypatch, gamma, twins):
    # blocks of 4 rows (2 pairs) in chunks of 7 steps, with check pairs
    # none, at n_traj and past it
    cfg = small_twins(basis2d_small)
    monkeypatch.setattr(galerkin, "BLOCK_CACHE", 4 * triplets(cfg))
    monkeypatch.setattr(spectral, "GRID_BLOCK", 7 * 6 * cfg.n)
    rows, _ = counted_batches(monkeypatch)
    rep = pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=gamma, n_traj=5, twins=twins)
    assert len(rows) == 3 + (twins > 5) * 2
    assert_matches_oracle(rep, cfg, 5, twins)


def test_twins_aborting_in_different_chunks_name_the_lowest_pair(basis2d_small, monkeypatch):
    # chunks of 7 steps: the u2 twin of pair 3 aborts in the first chunk,
    # the u1 twin of pair 1 in the second; the message names pair 1, as
    # one batch over all steps would
    cfg = small_twins(basis2d_small)
    monkeypatch.setattr(spectral, "GRID_BLOCK", 7 * 8 * cfg.n)
    walk, calls = twodim.step_chunks, []

    def aborting(config, indices, x0=None, dW=None, h_norm=True):
        for chunk in walk(config, indices, x0, dW, h_norm):
            if len(calls) < 2:
                chunk.abort_step[[4 + 3, 1][len(calls)]] = 1
            calls.append(chunk.states.shape[1])
            yield chunk

    monkeypatch.setattr(twodim, "step_chunks", aborting)
    with pytest.raises(RuntimeError, match="trajectory 1 aborted"):
        pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=4)
    assert calls == [8] * math.ceil(cfg.steps / 7)


def test_twins_that_overflow_name_the_oracle_pair(basis2d_small, monkeypatch):
    # past |x| = 0.71 the twins of pair 2 abort at step 1 and those of pair
    # 1 at step 4, in chunks 0 and 1 of 2 steps: the message names pair 1,
    # as the every-step oracle does
    cfg = small_twins(basis2d_small, overflow_limit=0.71)
    assert twin_oracle(cfg, 4.0, 1e-8, 6)["aborted"] == 1
    monkeypatch.setattr(spectral, "GRID_BLOCK", 2 * 12 * cfg.n)
    with pytest.raises(RuntimeError, match="trajectory 1 aborted"):
        pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=6)


def test_twin_memory_does_not_grow_with_the_steps(basis2d):
    # the traced peak at 4T exceeds the one at T by less than one float64
    # (rows, steps + 1, n) array at T's step count: no batch holds its
    # snapshots at every step
    peaks = []
    for T in (0.4, 1.6):
        cfg = uniqueness_config(basis2d, T=T)
        pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=10, twins=3)
        tracemalloc.start()
        try:
            pathwise_uniqueness_experiment(cfg, lipschitz_L=1.0, gamma=1e-8, n_traj=10, twins=3)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    rows, steps = 2 * 10 + 3, 400
    assert peaks[1] - peaks[0] < rows * (steps + 1) * 16 * 8


def test_shifted_problem_rejects_3d(basis3d_small):
    with pytest.raises(ValueError):
        ShiftedProblem(
            basis=basis3d_small, n=4, dt=1e-3, T=0.01, u0=basis3d_small.zero_field()
        )


def test_shifted_problem_checks_the_horizon(basis2d_small):
    u0 = basis2d_small.zero_field()
    with pytest.raises(ValueError, match="whole number of steps"):
        ShiftedProblem(basis=basis2d_small, n=4, dt=3e-3, T=1.0, u0=u0)
    lam_max = float(np.max(basis2d_small.mode_weights("D", basis2d_small.n_modes)))
    with pytest.raises(ValueError, match="stability gate"):
        ShiftedProblem(basis=basis2d_small, n=basis2d_small.n_modes, dt=3.0 / lam_max,
                       T=30.0 / lam_max, u0=u0)
    assert ShiftedProblem(basis=basis2d_small, n=4, dt=2.0**-10, T=1.0, u0=u0).steps == 1024
