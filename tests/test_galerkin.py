import dataclasses
import math
import multiprocessing
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import triplets, walk_in_chunks
from lag_oracle import brute_lag_maxima
from ledger_oracle import LEDGER_STEPS, budget_report, ledger_arrays, ledger_reduction
from noise_oracle import apply_G
from path_oracle import convection_path_bound, decomposition_increments, h_tanh_sup
from stepper_oracle import convection as scattered_convection
from stepper_oracle import generate_wiener, oracle_batch
from stepper_oracle import sq_norms as broadcast_sq_norms
from tensor_oracle import whole_lattice_tensor

from sgns import galerkin, spectral
from sgns.galerkin import (
    CompiledGalerkin,
    GalerkinConfig,
    build_convection_tensor,
    energy_budget_check,
    float_map,
    integrate_batch,
    integrate_ensemble,
    level_violations,
    martingale_diagnostic,
    reconstruct_martingale,
)
from sgns.noise import constant_transport_model, default_noise_model
from sgns.nonlinear import TrilinearWorkspace, bilinear_B, trilinear_b
from sgns.spectral import Basis, SpaceScale, TorusDomain, norm, project_Pn, random_field, row_blocks, stack
from sgns.tightness import increment_scaling


# The stepper has one scheme, Euler-Maruyama.  A `scheme` parameter (this
# mark, and the column of `test_level_rule`) has that one value, unused: it
# keeps the test ids, which reports compare from one version to the next,
# stable.
EM_ONLY = pytest.mark.parametrize("scheme", ["em"])


def make_config(basis, rng=None, **kw):
    if rng is None:
        rng = np.random.default_rng(5)
    u0 = random_field(basis, rng, n=kw.pop("u0_modes", 8), decay=0.5)
    defaults = dict(
        basis=basis,
        n=12,
        dt=1e-3,
        T=0.05,
        u0=u0,
        model=default_noise_model(2),
        seed=42,
        snapshot_stride=10,
    )
    defaults.update(kw)
    return GalerkinConfig(**defaults)


def test_wiener_deterministic():
    a = generate_wiener(100, 3, 1e-2, seed=7, traj_index=5)
    b = generate_wiener(100, 3, 1e-2, seed=7, traj_index=5)
    assert np.array_equal(a, b)
    c = generate_wiener(100, 3, 1e-2, seed=7, traj_index=6)
    assert not np.array_equal(a, c)


def test_wiener_moments():
    dW = generate_wiener(100000, 1, 2e-3, seed=1)
    var = float(np.var(dW))
    se = 2e-3 * math.sqrt(2.0 / len(dW))
    assert abs(var - 2e-3) < 3 * se
    mean_se = math.sqrt(2e-3 / len(dW))
    assert abs(float(np.mean(dW))) < 4 * mean_se


def test_wiener_empty_directions():
    assert generate_wiener(50, 0, 1e-2, seed=3).shape == (50, 0)


def dense_tensor(basis, n):
    """T[i, j, k] = b(e_j, e_k, e_i), densified from the kernel's triplets."""
    I, J, K, V = build_convection_tensor(basis, n)
    T = np.zeros((n, n, n))
    np.add.at(T, (I, J, K), V)
    return T


def assert_tensor_matches_convolution(basis, n):
    T = dense_tensor(basis, n)
    ws = TrilinearWorkspace(basis)
    rng = np.random.default_rng(0)
    for _ in range(30):
        i, j, k = rng.integers(0, n, size=3)
        oracle = trilinear_b(basis.basis_field(j), basis.basis_field(k), basis.basis_field(i), ws)
        assert abs(T[i, j, k] - oracle) < 1e-12
    # every nonzero entry too, so the random draws cannot all miss them
    for i, j, k in zip(*np.nonzero(T)):
        oracle = trilinear_b(basis.basis_field(j), basis.basis_field(k), basis.basis_field(i), ws)
        assert abs(T[i, j, k] - oracle) < 1e-12


def test_tensor_matches_convolution(basis2d_small):
    assert_tensor_matches_convolution(basis2d_small, 10)


def test_tensor_matches_convolution_3d(basis3d_small):
    # both polarizations of a lattice vector carry their own entries
    assert_tensor_matches_convolution(basis3d_small, 20)


@pytest.mark.parametrize("fixture,n", [("basis2d", 64), ("basis3d_small", 20)])
def test_tensor_antisymmetry_and_energy_cancellation(fixture, n, request):
    basis = request.getfixturevalue(fixture)
    T = dense_tensor(basis, n)
    # b(u, w, v) = -b(u, v, w), hence x . B(x, x) = 0
    assert np.max(np.abs(T + T.transpose(2, 1, 0))) <= 1e-14
    sys = CompiledGalerkin(basis, n, None)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(n)
        r = np.linalg.norm(x)
        assert abs(float(np.dot(x, sys.convection(x)))) <= 1e-12 * r**3


def test_sparse_kernel_matches_dealiased_grid(basis2d):
    n = 128
    sys = CompiledGalerkin(basis2d, n, None)
    ws = TrilinearWorkspace(basis2d)
    rng = np.random.default_rng(4)
    for _ in range(3):
        x = rng.standard_normal(n)
        u = basis2d.field_from_real_coords(x)
        expect = basis2d.real_coords(bilinear_B(u, u, ws), n)
        assert np.max(np.abs(sys.convection(x) - expect)) <= 1e-12 * max(1.0, np.max(np.abs(expect)))


def test_compile_cache_keyed_by_value(basis2d_small):
    from sgns.galerkin import _compiled
    from sgns.spectral import Basis

    twin = Basis(basis2d_small.domain, basis2d_small.scale)
    model = default_noise_model(2)
    sys = _compiled(basis2d_small, 10, model, True)
    assert _compiled(twin, 10, model, True) is sys
    assert _compiled(twin, 10, model, False) is not sys


def test_horizon_must_be_whole_steps(basis2d_small):
    u0 = basis2d_small.basis_field(0)
    with pytest.raises(ValueError, match="whole number of steps"):
        GalerkinConfig(basis=basis2d_small, n=4, dt=3e-3, T=1.0, u0=u0, model=None)
    cfg = GalerkinConfig(basis=basis2d_small, n=4, dt=2.0**-10, T=1.0, u0=u0, model=None)
    assert cfg.steps == 1024


@pytest.mark.parametrize("n, scheme, match", [
    (0, "em", r"n = 0 outside \[1, "),
    (10**6, "em", r"n = 1000000 outside \[1, "),
])
def test_level_rule(basis2d_small, n, scheme, match):
    u0 = basis2d_small.basis_field(0)
    with pytest.raises(ValueError, match=match):
        GalerkinConfig(basis=basis2d_small, n=n, dt=1e-3, T=0.01, u0=u0)
    assert len(level_violations(basis2d_small, (n, 4))) == (n != 4)


def test_zero_fixed_point(basis2d_small):
    cfg = make_config(basis2d_small, u0_modes=4)
    z = basis2d_small.zero_field()
    cfg2 = GalerkinConfig(
        basis=basis2d_small, n=cfg.n, dt=cfg.dt, T=5 * cfg.dt, u0=z, model=cfg.model, seed=1
    )
    assert np.all(integrate_batch(cfg2, [0]).norm_H == 0.0)


def test_em_step_linear_stokes_factor(basis2d_small):
    # f = 0, G absent, B disabled: per-mode factor (1 - |kappa|^2 dt)
    u = basis2d_small.basis_field(0)
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=8,
        dt=1e-2,
        T=1e-2,
        u0=u,
        model=None,
        include_B=False,
        seed=0,
    )
    u1 = integrate_batch(cfg, [0]).snap_u[0, -1]
    lam = basis2d_small.mode_weights("D", 1)[0]
    expect = (1.0 - lam * cfg.dt) * basis2d_small.real_coords(u, 1)[0]
    assert abs(u1[0] - expect) < 1e-14


def test_em_step_noise_only_matches_apply_G(basis2d_small, rng):
    # single step with G only: u+ - u = P_n G(u) dW
    model = default_noise_model(2)
    n = 10
    u = project_Pn(random_field(basis2d_small, rng, n=n), n)
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=n,
        dt=1e-3,
        T=1e-3,
        u0=u,
        model=model,
        include_B=False,
        seed=0,
    )
    dW = np.array([0.37])
    forward = integrate_batch(cfg, [0], dW[None, None]).snap_u[0, -1]
    # remove the Stokes drift part to isolate the noise increment
    drift = -1.0 * cfg.dt
    sysA = basis2d_small.real_coords(u, n) * basis2d_small.mode_weights("D", n)
    inc = forward - basis2d_small.real_coords(u, n) - drift * sysA
    expect = basis2d_small.real_coords(project_Pn(apply_G(u, dW, model), n), n)
    assert np.max(np.abs(inc - expect)) < 1e-14


def test_state_stays_in_Hn(basis2d_small):
    cfg = make_config(basis2d_small, n=6, T=0.02)
    one = integrate_batch(cfg, [0])
    assert not one.aborted[0]
    # state never leaks past mode n: final snapshot has exactly n coords
    assert one.snap_u.shape[2] == 6


def test_trajectory_determinism(basis2d_small):
    cfg = make_config(basis2d_small)
    r1 = integrate_batch(cfg, [3])
    r2 = integrate_batch(cfg, [3])
    assert np.array_equal(r1.norm_H, r2.norm_H)
    assert np.array_equal(r1.snap_u, r2.snap_u)


def test_dissipation_without_noise(basis2d_small, rng):
    # zero noise, zero forcing, B enabled: |u|_H nonincreasing
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=12,
        dt=1e-3,
        T=0.1,
        u0=random_field(basis2d_small, rng, n=12),
        model=None,
        seed=0,
    )
    one = integrate_batch(cfg, [0])
    assert not one.aborted[0]
    assert np.all(np.diff(one.norm_H[0]) <= 1e-12)


def test_stokes_decay_order(basis2d_small):
    # Stokes-only run vs analytic decay exp(-|kappa|^2 t)
    i = 0
    lam = basis2d_small.mode_weights("D", 1)[0]
    T = 1.0
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = GalerkinConfig(
            basis=basis2d_small,
            n=4,
            dt=dt,
            T=T,
            u0=basis2d_small.basis_field(i),
            model=None,
            include_B=False,
            seed=0,
        )
        exact = math.exp(-lam * T)
        errs.append(abs(integrate_batch(cfg, [0]).norm_H[0, -1] - exact) / exact)
    assert errs[-1] <= 5e-3
    order = math.log(errs[0] / errs[2]) / math.log(4.0)
    assert 0.9 <= order <= 1.1


def test_cfl_gate(basis2d):
    u0 = basis2d.basis_field(0)
    with pytest.raises(ValueError, match="stability gate"):
        GalerkinConfig(basis=basis2d, n=basis2d.n_modes, dt=0.1, T=1.0, u0=u0, model=None)


def test_overflow_aborts(basis2d_small):
    # blow the state up with huge forcing and a tiny overflow limit
    f = 1e9 * basis2d_small.basis_field(0)
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=4,
        dt=1e-3,
        T=0.05,
        u0=basis2d_small.zero_field(),
        model=None,
        forcing=f,
        overflow_limit=1e3,
        seed=0,
    )
    one = integrate_batch(cfg, [0])
    assert one.aborted[0]
    assert one.abort_step[0] > 0


def test_energy_budget_deterministic_run(basis2d_small, rng):
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=10,
        dt=1e-3,
        T=0.05,
        u0=random_field(basis2d_small, rng, n=10),
        model=None,
        seed=0,
    )
    ens = integrate_batch(cfg, [0])
    rep = energy_budget_check(ens)
    assert rep.max_relative_residual <= 1e-12
    led = assert_ledger_is_the_oracle(ens)
    assert np.all(led["mart_work"] == 0.0)
    assert np.all(led["ito_step"] == 0.0)
    assert ens.ito_sum.tolist() == ens.hs_sum.tolist() == [0.0]
    assert rep.ito_zscore == 0.0


def test_energy_budget_stochastic_run(basis2d_small):
    cfg = make_config(basis2d_small, T=0.05)
    rep = energy_budget_check(integrate_batch(cfg, [0]))
    assert rep.max_relative_residual <= 1e-10


def test_energy_budget_ito_zscore(basis2d_small):
    cfg = make_config(basis2d_small, n=8, T=0.05)
    recs = integrate_ensemble(cfg, 200)
    rep = energy_budget_check(recs)
    assert abs(rep.ito_zscore) < 3.0


def test_martingale_zero_noise(basis2d_small, rng):
    cfg = GalerkinConfig(
        basis=basis2d_small,
        n=8,
        dt=1e-3,
        T=0.05,
        u0=random_field(basis2d_small, rng, n=8),
        model=None,
        seed=0,
        snapshot_stride=10,
    )
    one = integrate_batch(cfg, [0])
    for pos in range(len(cfg.snap_idx)):
        M = reconstruct_martingale(one, pos)
        assert M.shape == (1, 8) and np.max(np.abs(M)) <= 1e-10


def test_martingale_diagnostic_zscores(basis2d_small):
    basis = basis2d_small
    e1 = basis.basis_field(0)
    e3 = basis.basis_field(2)
    cfg = make_config(
        basis,
        n=8,
        T=0.1,
        snapshot_stride=20,
        probes=(e1, e3),
    )
    recs = integrate_ensemble(cfg, 300)
    rep = martingale_diagnostic(recs, 0, 0, s=0.02, t=0.08)
    assert abs(rep.mean_zscore) < 3.0
    assert abs(rep.qv_zscore) < 3.0
    assert rep.reconstruction_residual < 1e-10
    rep2 = martingale_diagnostic(recs, 0, 1, s=0.02, t=0.08, h=h_tanh_sup)
    assert abs(rep2.mean_zscore) < 3.0
    assert abs(rep2.qv_zscore) < 3.0


def test_martingale_probe_out_of_range(basis2d_small):
    basis = basis2d_small
    n = 6
    # probe supported beyond the Galerkin range: all statistics vanish
    far = basis.basis_field(n + 3)
    cfg = make_config(basis, n=n, T=0.05, snapshot_stride=10, probes=(far,))
    recs = integrate_ensemble(cfg, 20)
    rep = martingale_diagnostic(recs, 0, 0, s=0.01, t=0.04)
    assert rep.mean_zscore == 0.0
    assert rep.qv_zscore == 0.0


def test_martingale_probe_index_outside_the_probes_rejected(basis2d_small):
    # two probes, indices 0 and 1, and every pair of them has its column;
    # a negative index does not wrap around
    e1, e3 = basis2d_small.basis_field(0), basis2d_small.basis_field(2)
    cfg = make_config(basis2d_small, n=8, T=0.05, probes=(e1, e3))
    assert cfg.qv_pairs == ((0, 0), (0, 1), (1, 1))
    ens = integrate_ensemble(cfg, 4)
    reports = {(a, b): martingale_diagnostic(ens, a, b, s=0.01, t=0.04) for a in (0, 1) for b in (0, 1)}
    assert all(rep.trajectories == 4 for rep in reports.values())
    # (0, 1) and (1, 0) read the same column: the same z-scores, to the bit
    assert reports[0, 1].qv_zscore == reports[1, 0].qv_zscore
    for a, b in ((2, 2), (0, 2), (-1, 0), (0, -1)):
        with pytest.raises(ValueError, match="probe index -?[12] outside the 2 configured probes"):
            martingale_diagnostic(ens, a, b, s=0.01, t=0.04)


def test_path_shape_mismatch(basis2d_small):
    # one step too many, and two rows of increments for one trajectory
    cfg = make_config(basis2d_small)
    dW = generate_wiener(cfg.steps, cfg.M, cfg.dt, 0)
    for bad in (generate_wiener(cfg.steps + 1, cfg.M, cfg.dt, 0)[:, None], np.stack([dW, dW], axis=1)):
        with pytest.raises(ValueError, match="Wiener increments"):
            integrate_batch(cfg, [0], bad)


# -- the batched stepper ----------------------------------------------------------


def rich_config(basis, **kw):
    """Two noise directions, forcing, an active cutoff and two probes, whose
    three pairs have quadratic variations: every branch of the stepper."""
    rng = np.random.default_rng(11)
    n = kw.pop("n", 10)
    u0 = project_Pn(random_field(basis, rng, n=n, decay=0.5), n)
    model = constant_transport_model([[1.0, 0.0], [0.3, 0.7]], c_values=[0.0, 0.2])
    defaults = dict(
        basis=basis, n=n, dt=1e-3, T=0.02, u0=u0, model=model,
        forcing=0.5 * basis.basis_field(1), seed=9, snapshot_stride=5,
        # below |u0|_{U'}, so the cutoff factor moves inside (0, 1)
        cutoff_level=0.8 * norm(u0, "Udual"),
        probes=(basis.basis_field(0), basis.basis_field(2)),
    )
    defaults.update(kw)
    return GalerkinConfig(**defaults)


def assert_records_identical(a, b, equal_nan=False):
    """The same config object and every per-row array the same bits (NaN
    where the other has NaN, with equal_nan); a config is not compared with
    ==, which its SpectralFields do not support."""
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if field.name == "config":
            assert va is vb
        elif isinstance(va, dict):
            assert va.keys() == vb.keys(), field.name
            for key in va:
                assert va[key].dtype == vb[key].dtype and np.array_equal(va[key], vb[key]), (field.name, key)
        elif isinstance(va, np.ndarray):
            assert va.dtype == vb.dtype and np.array_equal(va, vb, equal_nan=equal_nan), field.name
        else:
            assert va == vb, field.name


def assert_ledger_is_the_oracle(ens, dW=None) -> dict:
    """The per-path ledger of ens (`galerkin.LEDGER`) is bitwise the
    reduction of the oracle's seven (R, steps) arrays, NaN where it has
    NaN, and its energy report is the oracle's; returns those arrays."""
    led = ledger_arrays(ens, dW)
    for name, want in zip(galerkin.LEDGER, ledger_reduction(ens, led)):
        got = getattr(ens, name)
        assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), name
    assert energy_budget_check(ens) == budget_report(ens, led)
    return led


@EM_ONLY
def test_stepper_matches_independent_oracles(basis2d_small, scheme):
    # reference loop on SpectralFields: convection on the dealiased grid,
    # noise by exact convolution, both projected onto the first n modes; the
    # quadratic variations and the convection pairing sum their pairings
    basis = basis2d_small
    cfg = rich_config(basis, snapshot_stride=1)
    n, dt, steps = cfg.n, cfg.dt, cfg.steps
    ws = TrilinearWorkspace(basis)
    lam = basis.mode_weights("D", n)
    f = basis.real_coords(cfg.forcing, n)
    probes = [basis.real_coords(p, n) for p in cfg.probes]
    psi = random_field(basis, np.random.default_rng(12), decay=0.5)
    psi_n = basis.real_coords(project_Pn(psi, n), n)
    ens = integrate_batch(cfg, [4, 5, 6])
    dW = generate_wiener(steps, cfg.M, dt, cfg.seed, 5)
    u = project_Pn(cfg.u0, n)
    ref = {name: np.zeros(steps) for name in LEDGER_STEPS}
    states = [basis.real_coords(u, n)]
    thetas = []
    qv = np.zeros((steps + 1, len(cfg.qv_pairs)))
    pairing = []  # dt <B(u, u), P_n psi> of each step
    for j in range(steps):
        x = basis.real_coords(u, n)
        theta = cfg.cutoff.theta(norm(u, "Udual"))
        bx = basis.real_coords(bilinear_B(u, u, ws), n)
        xi = basis.real_coords(project_Pn(apply_G(u, dW[j], cfg.model), n), n)
        g = [basis.real_coords(project_Pn(apply_G(u, e, cfg.model), n), n) for e in np.eye(cfg.M)]
        x_new = x + dt * (f - theta * bx) + xi - dt * lam * x
        ref["drift_work"][j] = -2.0 * dt * np.sum(lam * x * x)
        ref["b_work"][j] = -2.0 * dt * theta * np.sum(x * bx)
        ref["forcing_work"][j] = 2.0 * dt * np.sum(x * f)
        ref["mart_work"][j] = 2.0 * np.sum(x * xi)
        ref["delta_sq"][j] = np.sum((x_new - x) ** 2)
        ref["ito_step"][j] = np.sum(xi**2)
        ref["hs_step"][j] = dt * sum(np.sum(gm**2) for gm in g)
        qv[j + 1] = qv[j] + [dt * sum(np.dot(gm, probes[a]) * np.dot(gm, probes[b]) for gm in g)
                             for a, b in cfg.qv_pairs]
        pairing.append(dt * np.dot(bx, psi_n))
        thetas.append(theta)
        u = basis.field_from_real_coords(np.concatenate([x_new, np.zeros(basis.n_modes - n)]))
        states.append(x_new)
    states = np.array(states)
    assert 0.0 < min(thetas) < 1.0
    assert ens.cutoff_min[1] == pytest.approx(min(thetas), rel=1e-12)
    scale = np.max(np.abs(states))
    assert np.max(np.abs(ens.snap_u[1] - states)) <= 1e-12 * scale
    energy = np.max(np.sum(states**2, axis=1))
    led = assert_ledger_is_the_oracle(ens)
    for name, want in ref.items():
        assert np.max(np.abs(led[name][1] - want)) <= 1e-12 * energy, name
    assert cfg.qv_pairs == ((0, 0), (0, 1), (1, 1)) and np.min(qv[-1]) > 0.0
    assert np.max(np.abs(ens.qv_cum[1] - qv)) <= 1e-12 * np.max(qv)
    got = galerkin.convection_pairing(ens, psi)[1]
    assert abs(got - sum(pairing)) <= 1e-12 * sum(map(abs, pairing))


def test_records_independent_of_batch_and_partition(basis2d_small):
    cfg = rich_config(basis2d_small)
    single = [integrate_batch(cfg, [i]) for i in range(7)]
    batch = integrate_batch(cfg, range(7))
    head, tail = integrate_batch(cfg, [0, 1, 2]), integrate_batch(cfg, [3, 4, 5, 6])
    order = [6, 2, 4, 0, 5, 1, 3]
    shuffled = integrate_batch(cfg, order)
    assert np.min(batch.cutoff_min) < 1.0
    for i in range(7):
        split = head.rows([i]) if i < 3 else tail.rows([i - 3])
        for other in (batch.rows([i]), split, shuffled.rows([order.index(i)])):
            assert_records_identical(single[i], other)


def test_ensemble_worker_independence(basis2d_small, monkeypatch):
    # every field the workers write into the shared mapping, aborted rows
    # included: rows 2, 5 and 6 pass the overflow limit, the others never do
    cfg = rich_config(basis2d_small, overflow_limit=1.05)
    single = [integrate_batch(cfg, [i]) for i in range(7)]
    assert [i for i, one in enumerate(single) if one.aborted[0]] == [2, 5, 6]
    # blocks of 7; 4 + 3; 3 + 3 + 1 rows
    runs = [integrate_ensemble(cfg, 7, workers=w) for w in (1, 2, 3)]
    # one row per block, several blocks per worker
    monkeypatch.setattr(galerkin, "BLOCK_CACHE", triplets(cfg))
    runs.append(integrate_ensemble(cfg, 7, workers=2))
    for ens in runs:
        assert ens.indices.tolist() == list(range(7))
        for i, want in enumerate(single):
            assert_records_identical(want, ens.rows([i]))


def test_pool_has_no_more_workers_than_blocks(basis2d_small, monkeypatch):
    # a stand-in executor records the pool size it is asked for and the
    # blocks it is given, and runs them in this process, so no process is
    # started; every block stepped is recorded too
    sizes, mapped, stepped = [], [], []

    class Recording:
        def __init__(self, max_workers, mp_context):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, blocks):
            mapped.extend(blocks)
            return map(fn, blocks)

    def recording_chunk(block):
        stepped.append(block)
        run_chunk(block)

    cfg = make_config(basis2d_small, T=0.01)
    want = integrate_ensemble(cfg, 3)
    run_chunk = galerkin._run_chunk
    monkeypatch.setattr(galerkin, "ProcessPoolExecutor", Recording)
    monkeypatch.setattr(galerkin, "_run_chunk", recording_chunk)
    got = integrate_ensemble(cfg, 3, workers=64)  # blocks of one row each
    # the verb process is the third worker: it steps block 0, the pool 1 and 2
    assert sizes == [2]
    assert mapped == [(1, 2), (2, 3)]
    assert sorted(stepped) == [(0, 1), (1, 2), (2, 3)]
    assert [b for b in stepped if b not in mapped] == [(0, 1)]
    assert_records_identical(want, got)


@pytest.mark.parametrize("bad", [0, 1], ids=["own-block", "pool-block"])
def test_a_failing_block_propagates_and_leaves_nothing_behind(basis2d_small, monkeypatch, bad):
    # three one-row blocks at 3 workers: the verb process steps block 0, a
    # forked worker, which inherits the patched stepper, block 1
    integrate_rows = galerkin._integrate_rows

    def failing(ens, *args):
        if ens.indices[0] == bad:
            raise RuntimeError(f"block {bad} failed")
        integrate_rows(ens, *args)

    monkeypatch.setattr(galerkin, "_integrate_rows", failing)
    with pytest.raises(RuntimeError, match=f"block {bad} failed"):
        integrate_ensemble(make_config(basis2d_small, T=0.01), 3, workers=3)
    assert galerkin._ENSEMBLE == {}
    assert multiprocessing.active_children() == []


def test_stored_lag_maxima_are_those_of_the_snapshots(basis2d_small, monkeypatch):
    # row 5 passes the overflow limit at step 15; the others never do
    cfg = rich_config(basis2d_small, overflow_limit=1.12, snapshot_stride=1, modulus_lags=12)
    weights = basis2d_small.mode_weights("Udual", cfg.n)
    runs = [integrate_ensemble(cfg, 7, workers=w) for w in (1, 2, 3)]
    monkeypatch.setattr(galerkin, "BLOCK_CACHE", triplets(cfg))  # one row per block
    runs.append(integrate_ensemble(cfg, 7, workers=2))
    for ens in runs:
        assert ens.aborted.tolist() == [False] * 5 + [True, False]
        want = brute_lag_maxima(ens.snap_u, weights, cfg.modulus_lags)
        assert ens.lag_maxima.shape == (7, 12) and np.array_equal(ens.lag_maxima, want)


def test_no_lag_maxima_by_default(basis2d_small):
    assert integrate_batch(rich_config(basis2d_small), [0]).lag_maxima.shape == (1, 0)


@pytest.mark.parametrize("lags", [-1, 5])
def test_modulus_lags_must_fit_the_snapshot_grid(basis2d_small, lags):
    # the lags count steps, whatever the snapshots: T = 0.02 in snapshots
    # every 5 steps takes lags 0..20, and T = 0.004, 4 steps, lags 0..4
    assert rich_config(basis2d_small, modulus_lags=20).modulus_lags == 20
    assert rich_config(basis2d_small, T=0.004, modulus_lags=4).modulus_lags == 4
    with pytest.raises(ValueError, match=r"modulus_lags = -?\d+ outside \[0, 4\], the lags of the step grid"):
        rich_config(basis2d_small, T=0.004, modulus_lags=lags)


@pytest.mark.parametrize("stride", [-1, -8])
def test_a_negative_snapshot_stride_is_rejected(basis2d_small, stride):
    # 0 is the endpoints alone; a negative stride is not another name for it
    assert make_config(basis2d_small, snapshot_stride=0).snap_idx.tolist() == [0, 50]
    with pytest.raises(ValueError, match=rf"snapshot_stride = {stride} must be >= 0"):
        make_config(basis2d_small, snapshot_stride=stride)


def test_pool_leaves_no_process(basis2d_small):
    recs = integrate_ensemble(make_config(basis2d_small, T=0.01), 4, workers=2)
    assert len(recs) == 4
    assert multiprocessing.active_children() == []


def test_convection_rows_independent_of_batch(basis2d):
    # n = 128: every output segment is long enough for pairwise summation
    n = 128
    sys = CompiledGalerkin(basis2d, n, None)
    X = np.random.default_rng(8).standard_normal((16, n))
    whole = sys.convection(X)
    for B in (1, 2, 7):
        for r in range(B):
            assert np.array_equal(sys.convection(X[:B])[r], whole[r])
    for r in range(16):
        assert np.array_equal(sys.convection(X[r]), whole[r])


@pytest.mark.parametrize("case", ["2d-n128", "3d-small"])
@pytest.mark.parametrize("B", [1, 16])
def test_convection_bits_are_the_chained_reduce(case, B, basis2d, basis3d_small):
    # the kernel's bits are those of reducing V * x_j * x_k, scattered to
    # the output rows; n = 128 has segments long enough for pairwise summation
    basis, n = (basis2d, 128) if case == "2d-n128" else (basis3d_small, basis3d_small.n_modes)
    sys = CompiledGalerkin(basis, n, None)
    X = np.random.default_rng(B).standard_normal((B, n))
    expect = np.zeros((B, n))
    expect[:, sys._rows] = np.add.reduceat(sys._V * X[:, sys._J] * X[:, sys._K], sys._starts, axis=1)
    assert np.array_equal(sys.convection(X), expect)


def test_folded_convection_matches_full_triplets(basis2d):
    n = 128
    I, J, K, V = build_convection_tensor(basis2d, n)
    sys = CompiledGalerkin(basis2d, n, None)
    assert len(sys._V) < len(V) and np.all(sys._J <= sys._K)
    x = np.random.default_rng(2).standard_normal(n)
    full = np.bincount(I, weights=V * x[J] * x[K], minlength=n)
    assert np.max(np.abs(sys.convection(x) - full)) <= 1e-13 * np.max(np.abs(full))


# (d, K, period, n): 2D K = 3 and 8 at n = 1, 12, 128 (within K = 8) and the
# full lattice, 3D K = 1 and 2 on the full lattice, and one anisotropic box
BUILD_CASES = {
    **{f"2d-K3-n{n}": (2, 3, (), n) for n in (1, 12, None)},
    **{f"2d-K8-n{n}": (2, 8, (), n) for n in (1, 12, 128, None)},
    "3d-K1": (3, 1, (), None),
    "3d-K2": (3, 2, (), None),
    "2d-K4-aniso": (2, 4, (2.0 * math.pi, 3.0), None),
}


@pytest.mark.parametrize("case", list(BUILD_CASES))
def test_blocked_build_keeps_the_whole_lattice_bits(case, monkeypatch):
    # blocks of 1 and 3 modes put the keys of neighbouring modes on both
    # sides of a block edge; one block holds the whole lattice
    d, K, period, n = BUILD_CASES[case]
    basis = Basis(TorusDomain(d=d, K=K, period=period), SpaceScale(d=d))
    n = n or basis.n_modes
    want = whole_lattice_tensor(basis, n)
    folded = galerkin._fold_symmetric(*want, n)
    assert n < 12 or len(want[3])
    for modes in (1, 3, n):
        monkeypatch.setattr(spectral, "GRID_BLOCK", modes * 32 * n)
        assert len(spectral.row_blocks(n, 32 * n)) == -(-n // modes)
        got = build_convection_tensor(basis, n)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want], modes
        # with no triplet (n = 1) the oracle's bincount is int64
        assert [a.dtype for a in got] == [np.dtype(np.int64)] * 3 + [np.dtype(np.float64)]
        sys = CompiledGalerkin(basis, n, None)
        assert [a.tobytes() for a in (sys._J, sys._K, sys._V)] == [a.tobytes() for a in folded[1:]]
        assert sys._rows.tobytes() == np.unique(folded[0]).tobytes()


@pytest.mark.parametrize("fixture", ["basis2d", "basis3d_small"])
def test_build_memory_is_a_block_not_the_lattice(fixture, request):
    # the whole-lattice build peaked at 56.2 MB (2D K = 8) and 79.5 MB
    # (3D K = 2) of traced memory; in blocks of whole modes under 12 MB
    basis = request.getfixturevalue(fixture)
    build_convection_tensor(basis, basis.n_modes)
    tracemalloc.start()
    try:
        build_convection_tensor(basis, basis.n_modes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_convection_reuses_its_scratch(basis2d):
    # after the first call on 8 rows of the full 2D K = 8 system, a second
    # allocates less than one (rows, triplets) product and keeps the
    # scratch, a mapping that tracemalloc does not see
    n = basis2d.n_modes
    sys = CompiledGalerkin(basis2d, n, None)
    X = np.random.default_rng(6).standard_normal((8, n))
    first = sys.convection(X)
    scratch = sys._scratch
    tracemalloc.start()
    try:
        second = sys.convection(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * len(sys._V) * 8 and sys._scratch is scratch
    assert np.array_equal(first, second)


@pytest.mark.parametrize("n", [8, 128])
def test_convection_results_outlive_the_scratch(basis2d, n):
    # results held across calls at 8, 3, 16 and 1 rows keep their values,
    # share no memory with the scratch, and each row is the bits of a fresh
    # system's; n = 8 scatters the segment sums (4 of 8 coordinates have
    # one), n = 128 returns them
    sys = CompiledGalerkin(basis2d, n, None)
    assert (len(sys._rows) < n) == (n == 8)
    X = np.random.default_rng(n).standard_normal((16, n))
    held = [(x, sys.convection(x)) for x in (X[:8], X[8:11], X, X[5])]
    kept = [out.copy() for _, out in held]
    for (x, out), want in zip(held, kept):
        assert not np.shares_memory(out, sys._scratch)
        assert np.array_equal(out, want)
        fresh = CompiledGalerkin(basis2d, n, None)
        rows = x.reshape(-1, n)
        assert out.shape == x.shape
        for r in range(len(rows)):
            assert np.array_equal(out.reshape(-1, n)[r], fresh.convection(rows[r]))


def blown_up_increments(cfg, rows):
    """The Wiener increments (steps, rows, M) of trajectories 0..rows-1, with
    every direction of row 1 at step 7 set to 1e6 and of row 3 at step 12 to
    1e300."""
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(rows)], axis=1)
    dW[7, 1] = 1e6
    dW[12, 3] = 1e300
    return dW


def test_abort_inside_a_batch(basis2d_small):
    # rows 1 and 3 blow up at different steps (one past the limit, one out of
    # the finite range); the forcing keeps an aborted row's state moving
    cfg = rich_config(basis2d_small, T=0.03, overflow_limit=1e3)
    dW = blown_up_increments(cfg, 5)
    batch = integrate_batch(cfg, range(5), dW)
    assert batch.aborted.tolist() == [False, True, False, True, False]
    assert batch.abort_step[[1, 3]].tolist() == [8, 13]
    for i in range(5):
        assert_records_identical(integrate_batch(cfg, [i], dW[:, [i]]), batch.rows([i]))
    led = assert_ledger_is_the_oracle(batch, dW)
    for r in (1, 3):
        a = batch.abort_step[r]
        assert batch.norm_H[r, a] > 0.0  # the state at the abort step, non-finite entries zeroed
        assert np.all(batch.norm_H[r, a + 1 :] == 0.0) and np.all(led["drift_work"][r, a:] == 0.0)
        assert np.all(batch.snap_u[r, cfg.snap_idx >= a] == 0.0)
        assert np.all(batch.snap_integrals["noise"][r, cfg.snap_idx >= a] == 0.0)
    # the healthy rows are those of a batch without the bad rows
    assert_records_identical(batch.rows([0, 2, 4]), integrate_batch(cfg, [0, 2, 4]))


@EM_ONLY
def test_convection_pairing_is_a_running_sum_over_the_steps(basis2d_small, scheme, monkeypatch):
    # the integral a stepper would accumulate, dt <B(u, u), P_n psi> added to
    # a zeroed running sum once per step on the whole batch: the same bits,
    # and an aborted row (1 and 3) reads 0.0
    cfg = rich_config(basis2d_small, T=0.03, overflow_limit=1e3, snapshot_stride=1)
    sys = galerkin._compiled(cfg.basis, cfg.n, cfg.model, cfg.include_B)
    psi = random_field(basis2d_small, np.random.default_rng(13), decay=0.5)
    psi_n = basis2d_small.real_coords(psi, cfg.n)
    ens = integrate_batch(cfg, range(5), blown_up_increments(cfg, 5))
    run = np.zeros(5)
    for j in range(cfg.steps):
        run += cfg.dt * np.add.reduce(sys.convection(ens.snap_u[:, j]) * psi_n, axis=1)
    run[ens.aborted] = 0.0
    got = galerkin.convection_pairing(ens, psi)
    assert ens.aborted.tolist() == [False, True, False, True, False] and np.all(got[[0, 2, 4]] != 0.0)
    assert np.array_equal(got, run)
    with pytest.raises(ValueError, match=r"snapshotted every 5 \(GalerkinConfig.snapshot_stride must be 1"):
        galerkin.convection_pairing(integrate_batch(dataclasses.replace(cfg, snapshot_stride=5), [0]), psi)
    # the pairing of one row is that row's alone, in blocks of one state
    monkeypatch.setattr(galerkin, "cache_rows", lambda config: 1)
    assert np.array_equal(galerkin.convection_pairing(ens.rows([2]), psi), got[[2]])


def test_qv_columns_are_those_of_the_pair_alone(basis2d_small):
    # three probes give six columns; each is bitwise the column of a config
    # whose probes are that pair's alone
    basis = basis2d_small
    cfg = rich_config(basis, probes=tuple(basis.basis_field(i) for i in (0, 2, 5)))
    assert cfg.qv_pairs == ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
    qv = integrate_batch(cfg, range(3)).qv_cum
    for q, (a, b) in enumerate(cfg.qv_pairs):
        alone = rich_config(basis, probes=(cfg.probes[a], cfg.probes[b]))
        assert np.array_equal(qv[..., q], integrate_batch(alone, range(3)).qv_cum[..., 0 if a == b else 1])


def test_energy_budget_keeps_the_steps_before_an_overflow(basis2d_small):
    # row 3's step into its abort overflows to inf, so that step's residual
    # is inf/inf; its 12 finite steps still count, and row 1, which passes
    # the limit at a finite state, keeps its value
    cfg = rich_config(basis2d_small, T=0.03, overflow_limit=1e3)
    dW = blown_up_increments(cfg, 5)
    batch = integrate_batch(cfg, range(5), dW)
    led = assert_ledger_is_the_oracle(batch, dW)
    worst, skipped = [], []
    for r in range(5):
        upto = batch.abort_step[r] if batch.aborted[r] else cfg.steps
        h2 = batch.norm_H[r] ** 2
        rhs = (led["drift_work"][r] + led["b_work"][r] + led["forcing_work"][r] + led["mart_work"][r]
               + led["delta_sq"][r])[:upto]
        scale = np.maximum.reduce([np.ones(upto), h2[:upto], h2[1 : upto + 1], np.abs(rhs)])
        with np.errstate(invalid="ignore"):
            per_step = np.abs(np.diff(h2)[:upto] - rhs) / scale
        worst.append(float(np.max(per_step[np.isfinite(per_step)])))
        skipped.append(int(np.count_nonzero(np.isnan(per_step))))
    assert skipped == [0, 0, 0, 1, 0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = [energy_budget_check(integrate_batch(cfg, [i], dW[:, [i]])).max_relative_residual
               for i in range(5)]
        assert energy_budget_check(batch).max_relative_residual == max(worst)
    assert got == worst == batch.energy_residual.tolist()
    assert 0.0 < worst[3] < 1e-12 and 0.0 < worst[1] < 1e-12


@EM_ONLY
def test_rows_start_from_their_own_states(basis2d_small, scheme):
    # four rows from four initial fields in one batch, row 1 driven past the
    # overflow limit: each row is the trajectory of a config with its u0.
    # The coordinates of a field stack are F-ordered, and each row still has
    # the bits of its one-row run, whose start is C-ordered
    cfg = rich_config(basis2d_small, overflow_limit=1e3)
    rng = np.random.default_rng(4)
    starts = [project_Pn(random_field(basis2d_small, rng, n=cfg.n, decay=0.5), cfg.n) for _ in range(4)]
    x0 = basis2d_small.real_coords(stack(starts), cfg.n)
    assert x0.flags.f_contiguous and not x0.flags.c_contiguous
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(4)], axis=1)
    dW[7, 1] = 1e6
    batch = integrate_batch(cfg, range(4), dW, x0=x0)
    assert batch.aborted.tolist() == [False, True, False, False]
    assert np.array_equal(batch.snap_u[:, 0], x0)
    for i in range(4):
        want = integrate_batch(dataclasses.replace(cfg, u0=starts[i]), [i], dW[:, [i]])
        assert_records_identical(want, dataclasses.replace(batch.rows([i]), config=want.config))


def test_a_batch_partly_past_the_cutoff_is_its_one_row_runs(basis2d_small):
    # row 0 starts past the cutoff level and decays below it, rows 1 and 2
    # start at half its state and never reach it: the batch steps with the
    # cutoff factors while row 0 is past the level and without them after
    cfg = rich_config(basis2d_small, T=0.05, cutoff_level=0.28)
    x0 = basis2d_small.real_coords(cfg.u0, cfg.n) * np.array([[1.0], [0.5], [0.5]])
    batch = integrate_batch(cfg, range(3), x0=x0)
    past = batch.norm_Udual[:, :-1] > cfg.cutoff.level
    assert past[0].any() and not past[0].all() and not past[1:].any()
    assert batch.cutoff_min[0] < 1.0 and batch.cutoff_min[1:].tolist() == [1.0, 1.0]
    for i in range(3):
        assert_records_identical(integrate_batch(cfg, [i], x0=x0[[i]]), batch.rows([i]))


def test_an_idle_cutoff_leaves_its_minimum_at_one(basis2d_small):
    cfg = rich_config(basis2d_small, cutoff_level=1e6)
    ens = integrate_batch(cfg, range(3))
    assert np.max(ens.norm_Udual) < 1e6
    assert ens.cutoff_min.tolist() == [1.0, 1.0, 1.0]


def test_overflow_limit_at_the_largest_state(basis2d_small):
    # a limit at the largest |x| the rows reach aborts none of them; one
    # float below it aborts the row that reaches it, at the step it does
    cfg = rich_config(basis2d_small, snapshot_stride=1)
    first = integrate_batch(cfg, range(3))
    peaks = np.max(np.abs(first.snap_u[:, 1:]), axis=2)  # (rows, steps) after the start
    row, step = np.unravel_index(np.argmax(peaks), peaks.shape)
    at = integrate_batch(dataclasses.replace(cfg, overflow_limit=peaks.max()), range(3))
    assert not at.aborted.any()
    assert_records_identical(first, dataclasses.replace(at, config=first.config))
    below = integrate_batch(dataclasses.replace(cfg, overflow_limit=np.nextafter(peaks.max(), 0.0)), range(3))
    assert below.abort_step.tolist() == [step + 1 if r == row else -1 for r in range(3)]


def test_a_nan_increment_aborts_its_row_only(basis2d_small):
    cfg = rich_config(basis2d_small, T=0.03)
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(4)], axis=1)
    dW[9, 2, 0] = np.nan
    batch = integrate_batch(cfg, range(4), dW)
    assert batch.abort_step.tolist() == [-1, -1, 10, -1]
    # row 2's ledger keeps the NaN work of its step into the abort, whose
    # NaN residual counts for nothing
    led = assert_ledger_is_the_oracle(batch, dW)
    assert np.isnan(led["mart_work"][2, 9]) and np.isnan(led["mart_work"]).sum() == 1
    assert np.isfinite(batch.energy_residual).all()
    for i in range(4):
        assert_records_identical(integrate_batch(cfg, [i], dW[:, [i]]), batch.rows([i]), equal_nan=i == 2)
    assert_records_identical(batch.rows([0, 1, 3]), integrate_batch(cfg, [0, 1, 3]))


@pytest.mark.parametrize("chunk", [1, 4, 6, 13, 30, 64])
@EM_ONLY
def test_per_path_ledger_at_chunk_edges(basis2d_small, monkeypatch, scheme, chunk):
    # 30 steps walked, and the ledger folded, in chunks of 1, 4, 6, 13, 30
    # and 64 steps: a chunk longer than the run, one that divides it and
    # ones that do not.  Rows 1 and 3 abort on their steps 7 and 12: the
    # last and the first step of a chunk of 4, the second and the first of
    # a chunk of 6, and step 12 ends a chunk of 13; the forcing and the
    # cutoff are active
    cfg = rich_config(basis2d_small, T=0.03, overflow_limit=1e3)
    assert cfg.steps == 30

    def batch(config, rows, dW=None):
        walk_in_chunks(monkeypatch, len(rows), config.n, chunk)
        return integrate_batch(config, rows, dW)

    dW = blown_up_increments(cfg, 5)
    full = batch(cfg, range(5), dW)
    assert full.abort_step.tolist() == [-1, 8, -1, 13, -1] and full.cutoff_min[0] < 1.0
    assert_ledger_is_the_oracle(full, dW)
    # every row aborts, so the walk stops after step 12, mid-chunk for most
    # chunks
    assert_ledger_is_the_oracle(batch(cfg, [1, 3], dW[:, [1, 3]]), dW[:, [1, 3]])
    # a row whose first step overflows to inf: its one step taken reads NaN,
    # every step it did not take 0
    first = dW[:, [0]].copy()
    first[0] = 1e300
    one = batch(cfg, [0], first)
    assert one.abort_step.tolist() == [1] and one.energy_residual.tolist() == [0.0]
    assert_ledger_is_the_oracle(one, first)
    # a NaN increment on row 2's step 9
    nan = dW[:, :4].copy()
    nan[9, 2, 0] = np.nan
    assert_ledger_is_the_oracle(batch(cfg, range(4), nan), nan)
    # no noise, forcing and cutoff still active
    quiet = dataclasses.replace(cfg, model=None)
    ens = batch(quiet, range(2))
    assert ens.ito_sum.tolist() == ens.hs_sum.tolist() == [0.0, 0.0] and ens.cutoff_min[0] < 1.0
    assert_ledger_is_the_oracle(ens)


# -- the chunked walk against the one loop over all steps -----------------------


def aborts_in_two_chunks(cfg, rows):
    """The Wiener increments (steps, rows, M) of trajectories 0..rows-1 with
    every direction of row 1 at step 2 set to 1e6 and of row 3 at step 19
    to 1e300: aborts at steps 3 and 20, in chunks 0 and 2 of 7 steps."""
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, i) for i in range(rows)], axis=1)
    dW[2, 1] = 1e6
    dW[19, 3] = 1e300
    return dW


@pytest.mark.parametrize("chunk", [1, 7, 30, 45], ids=["1", "7", "steps", "past-steps"])
@pytest.mark.parametrize("case", ["scatter", "segments"])
def test_walk_is_the_one_loop(basis2d_small, basis2d, monkeypatch, chunk, case):
    # 30 steps in chunks of 1, 7, all 30 and 45: every record set, two
    # probes, forcing, an active cutoff, lag maxima, increments at lags 0, 2
    # and 9 steps (clipped at step 30) and snapshots every 5 steps.  n = 10
    # of K = 3 has convection
    # segments on 8 coordinates, n = 16 of K = 8 on all 16 (see
    # `CompiledGalerkin.convection`)
    basis, n = (basis2d_small, 10) if case == "scatter" else (basis2d, 16)
    for records in record_subsets():
        cfg = rich_config(basis, n=n, T=0.03, overflow_limit=1e3, modulus_lags=3, increment_lags=(0, 2, 9),
                          records=records)
        assert cfg.steps == 30
        dW = aborts_in_two_chunks(cfg, 5)
        walk_in_chunks(monkeypatch, 5, n, chunk)
        got = integrate_batch(cfg, range(5), dW)
        assert got.abort_step.tolist() == [-1, 3, -1, 20, -1]
        assert_records_identical(oracle_batch(cfg, range(5), dW), got, equal_nan=True)
        # Philox streams drawn chunk by chunk, rows out of order, from an
        # F-ordered start
        x0 = np.asfortranarray(np.random.default_rng(4).standard_normal((3, n)) * 0.3)
        walk_in_chunks(monkeypatch, 3, n, chunk)
        assert_records_identical(oracle_batch(cfg, [4, 0, 2], x0=x0), integrate_batch(cfg, [4, 0, 2], x0=x0))
        # every row aborts, so the walk ends at step 20, mid-chunk
        walk_in_chunks(monkeypatch, 2, n, chunk)
        got = integrate_batch(cfg, [1, 3], dW[:, [1, 3]])
        assert_records_identical(oracle_batch(cfg, [1, 3], dW[:, [1, 3]]), got, equal_nan=True)
    assert got.cutoff_min[0] < 1.0 and len(cfg.qv_pairs) == 3


@pytest.mark.parametrize("case", ["2d-n8", "2d-n16", "2d-n128", "3d-small"])
def test_step_kernels_keep_the_bits_of_the_broadcast_and_the_scatter(case, basis2d, basis3d_small):
    # the squared norms are those of one (B, 3, n) weighted broadcast, and
    # the convection that of scattering the segment sums into zeros, whether
    # some coordinates have no segment (n = 8: 4 of 8 have one) or all do
    basis, n = (basis3d_small, basis3d_small.n_modes) if case == "3d-small" else (basis2d, int(case[4:]))
    sys = CompiledGalerkin(basis, n, None)
    assert (len(sys._rows) < n) == (case == "2d-n8")
    for B in (1, 16, 100):
        X = np.random.default_rng(B).standard_normal((B, n))
        assert np.array_equal(np.stack(galerkin._sq_norms(sys, X)), broadcast_sq_norms(sys, X))
        h2, d2, u2 = galerkin._sq_norms(sys, X, h=False)
        assert h2 is None and np.array_equal(np.stack([d2, u2]), broadcast_sq_norms(sys, X)[1:])
        assert np.array_equal(sys.convection(X), scattered_convection(sys, X))
    assert np.array_equal(sys.convection(X[0]), scattered_convection(sys, X[:1])[0])


def test_every_chunk_carries_every_step_whatever_the_grids(basis2d_small, monkeypatch):
    # endpoint snapshots, walked in chunks of 7 of the 30 steps: each chunk
    # still hands the states, quadratic variations and running integrals of
    # every step first..last, the bits of the one loop on a grid of every
    # step
    cfg = rich_config(basis2d_small, T=0.03, snapshot_stride=0)
    every = dataclasses.replace(cfg, snapshot_stride=1)
    want = oracle_batch(every, range(3))
    walk_in_chunks(monkeypatch, 3, cfg.n, 7)
    spans = []
    for chunk in galerkin.step_chunks(cfg, [0, 1, 2]):
        steps = slice(chunk.first, chunk.last + 1)
        spans.append((chunk.first, chunk.last))
        assert len(chunk.states) == len(chunk.qv) == chunk.last - chunk.first + 1
        assert np.array_equal(chunk.states.swapaxes(0, 1), want.snap_u[:, steps])
        assert np.array_equal(chunk.qv.swapaxes(0, 1), want.qv_cum[:, steps])
        assert chunk.integrals.keys() == set(galerkin.INTEGRALS)
        for name, buf in chunk.integrals.items():
            assert len(buf) == chunk.last - chunk.first + 1
            assert np.array_equal(buf.swapaxes(0, 1), want.snap_integrals[name][:, steps]), name
    assert spans == [(0, 7), (7, 14), (14, 21), (21, 28), (28, 30)]
    assert np.any(want.qv_cum[:, -1] > 0.0) and not want.aborted.any()


def test_grid_span_slices_evenly_spaced_rows(basis2d_small, monkeypatch):
    # snapshots every 7 of 30 steps (0, 7, ..., 28, 30) in chunks of 10
    # steps: rows 0 and 7 of the first chunk, 4 of the second, and the
    # last chunk's 1, 8 and 10, which are uneven and gathered
    cfg = make_config(basis2d_small, T=0.03, snapshot_stride=7)
    walk_in_chunks(monkeypatch, 2, cfg.n, 10)
    spans = [galerkin._grid_span(cfg.snap_idx, chunk) for chunk in galerkin.step_chunks(cfg, [0, 1])]
    assert spans[0] == (slice(0, 2), slice(0, 8, 7)) and spans[1] == (slice(2, 3), slice(4, 5, 1))
    assert spans[2][0] == slice(3, 6) and spans[2][1].tolist() == [1, 8, 10]


def test_evenly_spaced_snapshots_are_written_through_a_view(basis2d, monkeypatch):
    # every step snapshotted, as `convection_pairing` reads the states, on
    # the tightness verb's grid of steps, 50 rows at n = 32, with the states
    # and the noise integral recorded: the bytes of gathering each chunk's
    # rows by index, at a traced peak lower by at least half of the chunk's
    # states that the gather copied
    cfg = make_config(basis2d, n=32, dt=2.0**-10, T=0.25, snapshot_stride=1,
                      records={"integral_noise", "states"})
    span = galerkin._grid_span

    def gather(grid, chunk):
        at, _ = span(grid, chunk)
        return at, grid[at] - chunk.first

    runs, peaks = [], []
    for grid_span in (span, gather):
        monkeypatch.setattr(galerkin, "_grid_span", grid_span)
        integrate_batch(cfg, range(50))
        tracemalloc.start()
        try:
            runs.append(integrate_batch(cfg, range(50)))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert_records_identical(*runs)
    length = spectral.block_rows(50 * cfg.n)
    assert peaks[0] < peaks[1] - length * 50 * cfg.n * 8 / 2


def test_a_trajectory_on_several_rows_is_drawn_once(basis2d_small, monkeypatch):
    # trajectory 3 on rows 0 and 2: each row is its one-row run, in chunks
    # of 7 steps
    cfg = rich_config(basis2d_small, T=0.03)
    walk_in_chunks(monkeypatch, 3, cfg.n, 7)
    batch = integrate_batch(cfg, [3, 1, 3])
    for r, i in enumerate([3, 1, 3]):
        assert_records_identical(integrate_batch(cfg, [i]).rows([0]), batch.rows([r]))


@pytest.mark.parametrize("ledger", [True, False])
def test_block_memory_grows_with_the_steps_by_the_ledger_arrays_only(basis2d_small, monkeypatch, ledger):
    # 20 rows in chunks of 25 steps over 200 and 800 steps, 5 snapshots
    # each: the traced peak of the block's private
    # memory (the Ensemble is a shared mapping, which tracemalloc does not
    # see) grows by at most the two (B, steps) arrays of Ito and
    # Hilbert-Schmidt increments under the ledger, and otherwise by less
    # than one (B, n) state, the chunk bounds (0.5 KB here)
    rows, peaks = 20, []
    records = set(galerkin.RECORDS) if ledger else set(galerkin.RECORDS) - {"ledger"}
    for steps in (200, 800):
        cfg = make_config(basis2d_small, T=steps * 1e-3, snapshot_stride=steps // 4, records=records,
                          probes=(basis2d_small.basis_field(0),))
        walk_in_chunks(monkeypatch, rows, cfg.n, 25)
        integrate_batch(cfg, range(rows))
        tracemalloc.start()
        try:
            integrate_batch(cfg, range(rows))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    growth = peaks[1] - peaks[0] - (2 * rows * 600 * 8 if ledger else 0)
    assert growth < rows * cfg.n * 8


@pytest.mark.parametrize("shape", [(3, 9), (2, 10), (10,)])
def test_initial_states_must_match_the_rows(basis2d_small, shape):
    cfg = rich_config(basis2d_small)
    with pytest.raises(ValueError, match="initial states"):
        integrate_batch(cfg, range(3), x0=np.zeros(shape))


# -- the record set: the ledger and the running integrals, recorded or not -----------


def unrecorded_arrays(ens) -> dict:
    """The arrays of ens that its config's records leave out, by name (LEDGER
    names, snap_u for the states, and the INTEGRALS term for a running
    integral)."""
    out = {}
    if "ledger" not in ens.config.records:
        out.update({name: getattr(ens, name) for name in galerkin.LEDGER})
    if "states" not in ens.config.records:
        out["snap_u"] = ens.snap_u
    out.update({name: a for name, a in ens.snap_integrals.items()
                if galerkin.integral_record(name) not in ens.config.records})
    return out


def assert_same_but_unrecorded(full, part):
    """`part` holds each output its records leave out at width 0 and every
    other array of `full` to the bit, NaN where `full` has NaN (the ledger
    of a step into an overflow)."""
    missing = unrecorded_arrays(part)
    for name, a in missing.items():
        assert a.size == 0 and a.shape[0] == len(part), name
    integrals = {name: missing.get(name, a) for name, a in full.snap_integrals.items()}
    arrays = {name: a for name, a in missing.items() if name in galerkin.LEDGER or name == "snap_u"}
    want = dataclasses.replace(full, config=part.config, snap_integrals=integrals, **arrays)
    assert_records_identical(want, part, equal_nan=True)


def record_subsets():
    """Every subset of RECORDS, the full set first."""
    names = galerkin.RECORDS
    return [frozenset(name for bit, name in enumerate(names) if mask >> bit & 1)
            for mask in range(2 ** len(names) - 1, -1, -1)]


@EM_ONLY
def test_ledger_off_keeps_every_other_array(basis2d_small, scheme):
    # each of the 16 record sets, the ledger, the drift integrals, the
    # noise integral and the states on and off; rows 1 and 3 abort as in
    # test_abort_inside_a_batch, the others run to the end
    cfg = rich_config(basis2d_small, T=0.03, overflow_limit=1e3)
    assert cfg.records == frozenset(galerkin.RECORDS)
    dW = blown_up_increments(cfg, 5)
    full = integrate_batch(cfg, range(5), dW)
    assert full.aborted.tolist() == [False, True, False, True, False]
    assert_ledger_is_the_oracle(full, dW)
    for records in record_subsets():
        part = integrate_batch(dataclasses.replace(cfg, records=records), range(5), dW)
        assert len(unrecorded_arrays(part)) == ((3 if "ledger" not in records else 0)
                                                + (3 if "integral_drift" not in records else 0)
                                                + (1 if "integral_noise" not in records else 0)
                                                + (1 if "states" not in records else 0))
        assert_same_but_unrecorded(full, part)


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_without_the_ledger(basis2d_small, workers):
    # rows 2, 5 and 6 pass the overflow limit; 2 workers run blocks of 4 + 3;
    # every record but the ledger, and the noise integral alone
    cfg = rich_config(basis2d_small, overflow_limit=1.05)
    full = integrate_ensemble(cfg, 7, workers=workers)
    assert_ledger_is_the_oracle(full)
    for records in (set(galerkin.RECORDS) - {"ledger"}, {"integral_noise"}):
        part = integrate_ensemble(dataclasses.replace(cfg, records=records), 7, workers=workers)
        assert_same_but_unrecorded(full, part)
        assert part.energy_residual.shape == (7, 0)
    assert part.snap_integrals["stokes"].shape == (7, 0, cfg.n)


def test_energy_budget_needs_the_ledger(basis2d_small):
    cfg = rich_config(basis2d_small)
    ens = integrate_batch(dataclasses.replace(cfg, records=set(galerkin.RECORDS) - {"ledger"}), range(3))
    with pytest.raises(ValueError,
                       match=r"energy_budget_check needs the ledger record.*GalerkinConfig\.records"):
        energy_budget_check(ens)


def test_each_reader_names_its_missing_record(basis2d_small):
    # each reader of a running integral, on the full set less the one record
    # it is missing
    cfg = rich_config(basis2d_small, T=0.04, snapshot_stride=4)
    t = float(cfg.snap_times[1])
    readers = {
        "integral_drift": lambda e: reconstruct_martingale(e, 1),
        "integral_noise": lambda e: martingale_diagnostic(e, 0, 1, t, 2 * t),
    }
    scaled = {"integral_drift": {"noise"}, "integral_noise": {"stokes", "convection", "forcing"}}
    for name, read in readers.items():
        ens = integrate_batch(dataclasses.replace(cfg, records=set(galerkin.RECORDS) - {name}), range(3))
        with pytest.raises(ValueError, match=rf"needs the {name} record.*GalerkinConfig\.records"):
            read(ens)
        with pytest.raises(ValueError, match=rf"decomposition_increments needs the {name} record"):
            decomposition_increments(ens, t, t)
        # the scaling table reports the terms recorded
        rep = increment_scaling(ens, [t], [t, 2 * t])
        assert set(rep.exponents) == scaled[name]
    ens = integrate_batch(dataclasses.replace(cfg, records={"ledger"}), range(3))
    with pytest.raises(ValueError, match=r"increment_scaling needs the integral_drift or integral_noise record"):
        increment_scaling(ens, [t], [t])


def test_each_reader_of_the_states_names_the_record(basis2d_small):
    # every reader of snap_u, on the full set less the states
    cfg = rich_config(basis2d_small, T=0.04, snapshot_stride=4)
    t = float(cfg.snap_times[4])
    ens = integrate_batch(dataclasses.replace(cfg, records=set(galerkin.RECORDS) - {"states"}), range(3))
    assert ens.snap_u.shape == (3, 0, cfg.n)
    readers = {
        "reconstruct_martingale": lambda: reconstruct_martingale(ens, 4),
        "martingale_diagnostic": lambda: martingale_diagnostic(ens, 0, 1, t, 2 * t),
        "decomposition_increments": lambda: decomposition_increments(ens, t, t),
        "convection_pairing": lambda: galerkin.convection_pairing(ens, basis2d_small.basis_field(0)),
        "convection_path_bound": lambda: convection_path_bound(ens, TrilinearWorkspace(basis2d_small)),
    }
    for name, read in readers.items():
        with pytest.raises(ValueError, match=rf"{name} needs the states record.*GalerkinConfig\.records"):
            read()


def test_an_unknown_record_lists_the_records(basis2d_small):
    for records in ({"ledger", "integral_stokes"}, "ledger"):
        with pytest.raises(ValueError, match=re.escape(f"RECORDS = {galerkin.RECORDS}")):
            make_config(basis2d_small, records=records)
    assert make_config(basis2d_small, records=["ledger"]).records == frozenset({"ledger"})


# -- an exact pathwise oracle -----------------------------------------------------


@EM_ONLY
@pytest.mark.parametrize("b_vectors, c_values", [
    ([[1.2, 0.3]], None),
    ([[1.2, 0.3], [-0.4, 0.9]], None),
    ([[1.2, 0.3], [-0.4, 0.9]], [0.0, 0.5]),
], ids=["one-direction", "two-directions", "with-c"])
def test_slot_moduli_are_the_exact_products(basis2d, scheme, b_vectors, c_values):
    # Without convection, constant transport noise acts on each polarization
    # slot as multiplication by i s_j + r_j, with s_j = sum_m (b_m . kappa)
    # dW_mj and r_j = sum_m c_m dW_mj, and the drift factor is real.  So on
    # every path a complete slot (both roles among the first n modes) has
    #   |c_N|^2 = |c_0|^2 prod_j ((1 - lam dt + r_j)^2 + s_j^2)
    # A lone role (its slot's other role past n) loses i s_j to P_n.
    basis, n, dt, T = basis2d, 16, 1e-3, 0.5
    cfg = GalerkinConfig(
        basis=basis, n=n, dt=dt, T=T, u0=random_field(basis, np.random.default_rng(7), n=n, decay=0.5),
        model=constant_transport_model(b_vectors, c_values), include_B=False, seed=42,
    )
    ens = integrate_batch(cfg, range(8))
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, dt, cfg.seed, i) for i in range(8)])
    b = np.array(b_vectors)
    c = np.zeros(len(b)) if c_values is None else np.array(c_values)
    r = dW @ c  # (paths, steps)
    lam = basis.mode_weights("D", n)
    slot = basis.mode_slot[:n]
    complete = [k for k in np.unique(slot) if np.count_nonzero(slot == k) == 2]
    lone = np.flatnonzero(~np.isin(slot, complete))
    assert lone.tolist() == [12, 13, 14, 15]
    assert all(np.flatnonzero(basis.mode_slot == slot[m]).max() >= n for m in lone)

    def moduli(modes, s):
        a = 1.0 - lam[modes[0]] * dt
        c0 = np.sum(ens.snap_u[:, 0, modes] ** 2, axis=1)
        assert np.all(c0 > 0.0)
        want = c0 * np.prod((a + r) ** 2 + s**2, axis=1)
        return np.sum(ens.snap_u[:, -1, modes] ** 2, axis=1), want

    for k in complete:
        got, want = moduli(np.flatnonzero(slot == k), dW @ (b @ basis.slot_kappa[k]))
        assert np.all(np.abs(got - want) <= 1e-12 * want), k
    for m in lone:
        got, want = moduli([m], dW @ (b @ basis.slot_kappa[slot[m]]))
        assert np.all(np.abs(got - want) > 1e-6 * want), m
        got, want = moduli([m], 0.0)
        assert np.all(np.abs(got - want) <= 1e-12 * want), m


@EM_ONLY
def test_strong_order_one_half(basis2d_small, scheme):
    # 64 paths at dt = T/1024 are the reference; each coarse step dt = 2^k
    # T/1024, k = 2..6, takes the sum of its 2^k fine increments, so every
    # level runs on the same Wiener paths.  The RMS H-distance at T to the
    # reference falls like dt^(1/2) for multiplicative (transport) noise
    # (Kloeden & Platen 1992, Sec. 10.2); the drift's dt^1 part lifts the
    # fitted slope a little.  Over seeds 0..399 the slope ranged over
    # [0.487, 0.663] (mean 0.568, sd 0.031): no seed fell outside the band
    # [0.4, 0.7], at least 4.3 sd from the mean.
    T, fine_steps, R = 0.25, 1024, 64
    rng = np.random.default_rng(11)
    u0 = project_Pn(random_field(basis2d_small, rng, n=10, decay=0.5), 10)
    model = constant_transport_model([[1.0, 0.0], [0.3, 0.7]], c_values=[0.0, 0.2])

    def config(steps):
        return GalerkinConfig(basis=basis2d_small, n=10, dt=T / steps, T=T, u0=u0, model=model, seed=0,
                              records={"states"})

    fine = config(fine_steps)
    dW = np.stack([generate_wiener(fine_steps, fine.M, fine.dt, 0, i) for i in range(R)], axis=1)
    ref = integrate_batch(fine, range(R), dW).snap_u[:, -1]
    dts, errs = [], []
    for k in range(2, 7):
        coarse = config(fine_steps >> k)
        x = integrate_batch(coarse, range(R), dW.reshape(coarse.steps, 2**k, R, fine.M).sum(axis=1)).snap_u[:, -1]
        dts.append(coarse.dt)
        errs.append(math.sqrt(np.mean(np.sum((x - ref) ** 2, axis=1))))
    slope = np.polyfit(np.log(dts), np.log(errs), 1)[0]
    assert 0.4 <= slope <= 0.7, slope


# -- the stacked Ensemble and its diagnostics -------------------------------------


def aborting_ensemble(basis):
    """7 paths of the rich config, rows 2, 5 and 6 past the overflow limit;
    snapshots every 5 steps."""
    cfg = rich_config(basis, overflow_limit=1.05)
    ens = integrate_ensemble(cfg, 7)
    assert ens.aborted.tolist() == [False, False, True, False, False, True, True]
    return cfg, ens


def test_ensemble_rows_and_functionals_are_the_paths(basis2d_small):
    cfg, ens = aborting_ensemble(basis2d_small)
    sup = ens.sup_H()
    assert len(ens) == 7 and ens.indices.tolist() == list(range(7))
    for r in range(7):
        one = integrate_batch(cfg, [r])
        assert_records_identical(one, ens.rows([r]))
        # the scalar formulas of one path, each to the bit
        norm_H, norm_D = ens.norm_H[r], ens.norm_D[r]
        assert sup[r] == float(np.max(norm_H)) == one.sup_H()[0]
        for p in (2, 2.2):
            assert float_map(lambda v: v**p, sup)[r] == float(np.max(norm_H)) ** p
        assert ens.integral_dirichlet2()[r] == float(np.sum(norm_D[:-1] ** 2) * cfg.dt)
        for p in (2.0, 2.2, 3.0):
            want = float(np.sum(norm_H[:-1] ** (p - 2) * norm_D[:-1] ** 2) * cfg.dt)
            assert ens.integral_weighted(p)[r] == want == one.integral_weighted(p)[0]


def test_functionals_in_row_blocks_are_the_per_path_formulas(basis2d_small):
    # 20,000 steps: row blocks of 3, so 7 rows are taken as 3 + 3 + 1; the
    # norms are random, with a NaN and an inf in row 6
    cfg = make_config(basis2d_small, T=20.0, snapshot_stride=0, records=())
    ens = galerkin._stacked(cfg, range(7))
    assert [at.indices(7) for at in row_blocks(len(ens), 2 * cfg.steps)] == [(0, 3, 1), (3, 6, 1), (6, 7, 1)]
    rng = np.random.default_rng(3)
    ens.norm_H[:] = rng.uniform(0.1, 2.0, ens.norm_H.shape)
    ens.norm_D[:] = rng.uniform(0.1, 5.0, ens.norm_D.shape)
    ens.norm_H[6, 7], ens.norm_D[6, 9] = np.nan, np.inf
    for p in (2.0, 2.2, 3.0):
        got = ens.integral_weighted(p)
        for r in range(7):
            norm_H, norm_D = ens.norm_H[r], ens.norm_D[r]
            want = np.sum(norm_H[:-1] ** (p - 2) * norm_D[:-1] ** 2) * cfg.dt
            assert np.array_equal(got[r], want, equal_nan=True)
    want = [np.sum(ens.norm_D[r, :-1] ** 2) * cfg.dt for r in range(7)]
    assert np.array_equal(ens.integral_dirichlet2(), want)


def test_rows_of_a_slice_are_views_and_of_an_index_list_or_mask_copies(basis2d_small):
    cfg, ens = aborting_ensemble(basis2d_small)
    def arrays(e):
        """Every per-row array of e that holds entries (the lag maxima and the
        increment norms have width 0)."""
        skip = ("config", "snap_integrals", "lag_maxima", "increment_norms")
        named = [(f.name, getattr(e, f.name)) for f in dataclasses.fields(e) if f.name not in skip]
        return named + list(e.snap_integrals.items())

    view = ens.rows(slice(2, 5))
    assert view.config is cfg and view.indices.tolist() == [2, 3, 4]
    assert view.aborted.tolist() == [True, False, False]
    for (name, got), (_, whole) in zip(arrays(view), arrays(ens)):
        assert np.shares_memory(got, whole), name
    for sel in ([2, 3, 4], np.isin(np.arange(7), [2, 3, 4])):
        picked = ens.rows(sel)
        assert picked.config is cfg
        for (name, got), (_, whole) in zip(arrays(picked), arrays(ens)):
            assert not np.shares_memory(got, whole), name
        assert_records_identical(picked, view)


def budget_by_rows(ens, led):
    """The energy budget as a loop over single paths, from the ledger
    arrays `led` (`ledger_oracle.ledger_arrays`)."""
    worst, diffs = 0.0, []
    for r in range(len(ens)):
        h2 = ens.norm_H[r] ** 2
        upto = ens.abort_step[r] if ens.aborted[r] else ens.config.steps
        lhs = np.diff(h2)[:upto]
        rhs = (led["drift_work"][r] + led["b_work"][r] + led["forcing_work"][r] + led["mart_work"][r]
               + led["delta_sq"][r])[:upto]
        scale = np.maximum.reduce([np.ones(upto), h2[:upto], h2[1 : upto + 1], np.abs(rhs)])
        if upto:
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
        if not ens.aborted[r]:
            diffs.append(float(np.sum(led["ito_step"][r]) - np.sum(led["hs_step"][r])))
    diffs = np.asarray(diffs)
    return worst, float(np.mean(diffs) / (np.std(diffs, ddof=1) / math.sqrt(len(diffs))))


def martingale_by_rows(ens, rows, psi_n, zeta_n, qcol, s, t, tanh_sup):
    """The martingale z-scores as a loop over single paths, rows `rows` of ens."""
    mean_terms, qv_terms, recon = [], [], 0.0
    J, cfg = ens.snap_integrals, ens.config
    ps, pt = galerkin._grid_positions(cfg.snap_times, (s, t), cfg.dt)
    for r in rows:
        Ms, Mt = (ens.snap_u[r, p] - ens.snap_u[r, 0] - J["stokes"][r, p] - J["convection"][r, p]
                  - J["forcing"][r, p] for p in (ps, pt))
        recon = max(recon, float(np.max(np.abs(Mt - J["noise"][r, pt]))))
        step = int(cfg.snap_idx[ps])
        hval = math.tanh(float(np.max(ens.norm_H[r, : step + 1]) ** 2)) if tanh_sup else 1.0
        mps, mpt = float(np.dot(Ms, psi_n)), float(np.dot(Mt, psi_n))
        mzs, mzt = float(np.dot(Ms, zeta_n)), float(np.dot(Mt, zeta_n))
        q_st = ens.qv_cum[r, pt, qcol] - ens.qv_cum[r, ps, qcol]
        mean_terms.append((mpt - mps) * hval)
        qv_terms.append((mpt * mzt - mps * mzs - q_st) * hval)

    def zscore(vals):
        vals = np.asarray(vals)
        return float(np.mean(vals) / (np.std(vals, ddof=1) / math.sqrt(len(vals))))

    return zscore(mean_terms), zscore(qv_terms), recon


def test_diagnostics_are_the_per_path_formulas(basis2d_small):
    # array arithmetic over the stacked rows gives the bits of the loops over
    # single paths, with aborted rows in the ensemble
    basis = basis2d_small
    cfg, ens = aborting_ensemble(basis)
    rep = energy_budget_check(ens)
    led = assert_ledger_is_the_oracle(ens)
    assert (rep.max_relative_residual, rep.ito_zscore) == budget_by_rows(ens, led)
    assert rep.trajectories == 7
    live = np.flatnonzero(~ens.aborted)
    # the probe coordinates are those of the fields re-encoded one at a time
    for a, b, qcol, h in ((0, 0, 0, None), (0, 1, 1, h_tanh_sup)):
        kw = {"h": h} if h is not None else {}
        got = martingale_diagnostic(ens, a, b, s=0.005, t=0.015, **kw)
        psi_n, zeta_n = (basis.real_coords(cfg.probes[i], cfg.n) for i in (a, b))
        want = martingale_by_rows(ens, live, psi_n, zeta_n, qcol, 0.005, 0.015, h is not None)
        assert (got.mean_zscore, got.qv_zscore, got.reconstruction_residual) == want


def test_martingale_diagnostic_skips_aborted_rows(basis2d_small):
    # an aborted row reads zero past its abort, so its reconstructed
    # martingale is -u0: the report is that of the live rows alone
    cfg, ens = aborting_ensemble(basis2d_small)
    rep = martingale_diagnostic(ens, 0, 0, s=0.005, t=0.015)
    alone = martingale_diagnostic(integrate_batch(cfg, [0, 1, 3, 4]), 0, 0, s=0.005, t=0.015)
    assert rep.reconstruction_residual < 1e-12
    assert rep.trajectories == alone.trajectories == 4
    assert (rep.mean_zscore, rep.qv_zscore) == (alone.mean_zscore, alone.qv_zscore)
    with pytest.raises(ValueError, match="at least 2 live"):
        martingale_diagnostic(integrate_batch(cfg, [2, 5, 0]), 0, 0, s=0.005, t=0.015)
