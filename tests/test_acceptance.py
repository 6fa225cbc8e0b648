"""Acceptance suite: every criterion at its stated tolerance, one line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The heavy ensembles are
session-shared; everything is seeded, so reruns are identical.
"""

import math

import numpy as np
import pytest
from conftest import eval_physical, partial_derivative
from noise_oracle import certify_conditions, sample_nested_space
from path_oracle import convection_path_bound, h_tanh_sup

from sgns.estimates import aggregate, uniformity_report
from sgns.galerkin import (
    GalerkinConfig,
    energy_budget_check,
    integrate_batch,
    integrate_ensemble,
    martingale_diagnostic,
)
from sgns.noise import (
    HarmonicField,
    NoiseModel,
    coercivity_constant,
    constant_transport_model,
    default_noise_model,
    exact_constants,
)
from sgns.nonlinear import TrilinearWorkspace, trilinear_b
from sgns.spectral import (
    Basis,
    SpaceScale,
    TorusDomain,
    apply_operator,
    inner,
    norm,
    project_Pn,
    random_field,
    stack,
)
from sgns.tightness import (
    aldous_check,
    calibrate_aldous_eta,
    build_nested_space,
    increment_lags,
    increment_scaling,
    median_modulus_curve,
    modulus_lags,
)
from sgns.twodim import (
    ShiftedProblem,
    energy_inequality_check,
    ladyzhenskaya_check,
    pathwise_uniqueness_experiment,
    solve_shifted,
    trilinear_2d_bound,
    uniqueness_shifted,
)

WORKERS = 2


def report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def basis():
    return Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))


@pytest.fixture(scope="module")
def shell_coupling_model():
    """Constant transport direction plus a weak harmonic direction that moves
    energy across shells (wavevector shift (2,2))."""
    b1 = HarmonicField.build(2, 2, const=[1.0, 0.0])
    b2 = HarmonicField.build(2, 2, const=None, harmonics=[((2, 2), [0.1, 0.0], None)])
    return NoiseModel(d=2, directions=((b1, None), (b2, None)))


@pytest.fixture(scope="module")
def stochastic_ensemble(basis):
    """Shared ensemble for criteria 5 and 6: n=16, T=1, dt=1e-3, 10^3 paths."""
    rng = np.random.default_rng(314)
    u0 = random_field(basis, rng, n=8, decay=0.5)
    probes = (basis.basis_field(0), basis.basis_field(2), basis.basis_field(4))
    cfg = GalerkinConfig(
        basis=basis, n=16, dt=1e-3, T=1.0, u0=u0, model=default_noise_model(2),
        seed=1234, snapshot_stride=100,
        probes=probes,
    )
    return cfg, integrate_ensemble(cfg, 1000, workers=WORKERS)


def test_criterion_01_operator_identities(basis):
    rng = np.random.default_rng(100)
    tol = 1e-12
    worst = 0.0
    for _ in range(100):
        u = random_field(basis, rng)
        v = random_field(basis, rng)
        pairs = [
            (abs(inner(apply_operator(u, "A"), v, "H") - inner(u, v, "V")),
             abs(inner(u, v, "V"))),
            (abs(inner(apply_operator(u, "L"), v, "H") - inner(u, v, "U")),
             abs(inner(u, v, "U"))),
            (norm(apply_operator(u, "A") - u - apply_operator(u, "Acal"), "H"),
             norm(u, "V")),
            (abs(inner(project_Pn(u, 37), v, "H") - inner(u, project_Pn(v, 37), "H")),
             abs(inner(u, v, "H"))),
        ]
        worst = max(worst, max(e / max(s, 1.0) for e, s in pairs))
    for i in range(basis.n_modes):
        lam = basis.mode_lambda[i]
        worst = max(worst, abs(norm(basis.basis_field(i), "U") ** 2 - lam) / lam)
    report(1, worst <= tol, f"max relative identity error {worst:.2e} <= 1e-12")


def test_criterion_02_trilinear_structure(basis):
    ws = TrilinearWorkspace(basis)
    rng = np.random.default_rng(200)
    worst_struct = 0.0
    worst_oracle = 0.0
    N = 4 * basis.domain.K + 2
    for _ in range(100):
        u = random_field(basis, rng, decay=0.5)
        w = random_field(basis, rng, decay=0.5)
        v = random_field(basis, rng, decay=0.5)
        scale = max(1.0, norm(u, "H") * norm(v, "V") ** 2)
        worst_struct = max(worst_struct, abs(trilinear_b(u, v, v, ws)) / scale)
        bval = trilinear_b(u, w, v, ws)
        worst_struct = max(
            worst_struct, abs(bval + trilinear_b(u, v, w, ws)) / max(1.0, abs(bval))
        )
        ug = eval_physical(u, N)
        vg = eval_physical(v, N)
        prod = np.zeros_like(ug)
        for j in range(2):
            prod += ug[..., j : j + 1] * eval_physical(partial_derivative(w, j), N)
        quad = float(np.mean(np.sum(prod * vg, axis=-1)) * basis.domain.volume)
        worst_oracle = max(worst_oracle, abs(bval - quad) / max(1.0, abs(quad)))
    ok = worst_struct <= 1e-12 and worst_oracle <= 1e-10
    report(2, ok, f"cancellation/antisymmetry {worst_struct:.2e} <= 1e-12, "
                  f"convolution vs quadrature {worst_oracle:.2e} <= 1e-10")


def test_criterion_03_noise_certification(basis):
    model = default_noise_model(2)
    # independent eigenvalue oracle for the coercivity margin
    bbT = np.outer([1.0, 0.0], [1.0, 0.0])
    a_oracle = 2.0 - float(np.max(np.linalg.eigvalsh(bbT)))
    rep = certify_conditions(model, basis, eps=0.5, samples=10000, seed=303)
    ok = (
        rep.a == a_oracle == 1.0
        and rep.eta == 0.5
        and abs(rep.lam0 - 1.5) < 1e-15
        and rep.empirical_violations == 0
        and rep.gstar_violations == 0
        and rep.gstar_constant <= rep.gstar_analytic
    )
    # beside the sampled check, the exact values on the Galerkin space:
    # both margins nonnegative, and no sampled quotient above its sup
    exact = exact_constants(model, basis, rep.eta, rep.lam0)
    ok = (ok and exact.coercivity_margin >= 0.0
          and rep.gstar_constant <= exact.gstar_constant <= rep.gstar_analytic
          and rep.lipschitz_L <= exact.lipschitz_L)
    report(3, ok, f"a = {rep.a} (oracle {a_oracle}), (eta, lam0) = ({rep.eta}, {rep.lam0}), "
                  f"violations {rep.empirical_violations}/{rep.gstar_violations} on {rep.samples} fields; "
                  f"exact: coercivity margin {exact.coercivity_margin:.4f} >= 0, growth sup "
                  f"{exact.gstar_constant:.4f} (sampled {rep.gstar_constant:.4f}) <= {rep.gstar_analytic}, "
                  f"L = {exact.lipschitz_L:.4f} (sampled {rep.lipschitz_L:.4f})")


def test_criterion_04_integrator_orders(basis):
    lam = basis.mode_weights("D", 1)[0]
    T = 1.0
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        cfg = GalerkinConfig(basis=basis, n=4, dt=dt, T=T, u0=basis.basis_field(0),
                             model=None, include_B=False, seed=0)
        one = integrate_batch(cfg, [0])
        errs.append(abs(one.norm_H[0, -1] ** 2 - math.exp(-2.0 * lam * T)))
    em_order = math.log(errs[0] / errs[2]) / math.log(4.0)
    rk_errs = []
    for dt in (0.05, 0.025):
        prob = ShiftedProblem(basis=basis, n=4, dt=dt, T=0.5, u0=basis.basis_field(0),
                              include_B=False)
        path = solve_shifted(prob)
        rk_errs.append(abs(path[-1, 0] - math.exp(-lam * 0.5)))
    rk_order = math.log(rk_errs[0] / rk_errs[1]) / math.log(2.0)
    ok = 0.9 <= em_order <= 1.1 and 3.7 <= rk_order <= 4.3
    report(4, ok, f"energy-decay order {em_order:.3f} in [0.9, 1.1], "
                  f"RK4 order {rk_order:.3f} in [3.7, 4.3]")


def test_criterion_05_energy_budget(stochastic_ensemble):
    _, recs = stochastic_ensemble
    budget = energy_budget_check(recs)
    ok = budget.max_relative_residual <= 1e-10 and abs(budget.ito_zscore) <= 3.0
    report(5, ok, f"worst per-step residual {budget.max_relative_residual:.2e} <= 1e-10, "
                  f"Ito z-score {budget.ito_zscore:+.2f} in [-3, 3] over {budget.trajectories} paths")


def test_criterion_06_martingale_diagnostics(stochastic_ensemble, basis):
    _, recs = stochastic_ensemble
    # indices into the config's probes (e1, e3, e5)
    cases = [
        (0, 0, 0.2, 0.8, None),
        (0, 1, 0.3, 0.7, h_tanh_sup),
        (2, 2, 0.1, 0.9, None),
    ]
    zs = []
    ok = True
    for a, b, s, t, h in cases:
        kw = {"h": h} if h is not None else {}
        rep = martingale_diagnostic(recs, a, b, s, t, **kw)
        zs.append((rep.mean_zscore, rep.qv_zscore))
        ok = ok and abs(rep.mean_zscore) <= 3.0 and abs(rep.qv_zscore) <= 3.0
        ok = ok and rep.reconstruction_residual <= 1e-9
    detail = ", ".join(f"(z_mean, z_qv) = ({a:+.2f}, {b:+.2f})" for a, b in zs)
    report(6, ok, detail + " all in [-3, 3]")


def test_criterion_07_uniform_moments(basis, shell_coupling_model):
    rng = np.random.default_rng(314)
    u0 = random_field(basis, rng, n=4, decay=0.5)
    by_n = {}
    for n in (4, 8, 16, 32):
        cfg = GalerkinConfig(basis=basis, n=n, dt=1e-3, T=1.0, u0=u0,
                             model=shell_coupling_model, seed=2024)
        by_n[n] = integrate_ensemble(cfg, 500, workers=WORKERS)
    stats = aggregate(by_n, p_list=(2.0,))
    verdict = uniformity_report(stats, ratio_bound=1.5, alpha=0.05)
    ok = verdict.passed and all(r <= 1.5 for r in verdict.ratios.values())
    report(7, ok, f"max/min ratios {verdict.ratios} <= 1.5, "
                  f"trend p-values {[f'{v[1]:.3f}' for v in verdict.kendall.values()]} (no rise beyond noise)")


def test_criterion_08_tightness(basis, shell_coupling_model):
    rng = np.random.default_rng(315)
    u0 = random_field(basis, rng, n=8, decay=0.5)
    T = 1.0
    steps = 1024
    dt = T / steps
    deltas = [T * 2.0**-j for j in range(10, 3, -1)]
    thetas, eta_theta = [T * 2.0**-j for j in range(8, 3, -1)], T * 2.0**-4
    times = np.arange(steps + 1) * dt
    slopes, aldous_ok, j5s = {}, {}, {}
    for n in (8, 16, 32):
        cfg = GalerkinConfig(basis=basis, n=n, dt=dt, T=T, u0=u0,
                             model=shell_coupling_model, seed=77,
                             snapshot_stride=8,
                             modulus_lags=modulus_lags(deltas, times),
                             increment_lags=increment_lags(thetas, eta_theta, times))
        recs = integrate_ensemble(cfg, 200, workers=WORKERS)
        _, slope = median_modulus_curve(recs, deltas)
        slopes[n] = slope
        eta = calibrate_aldous_eta(recs, eta_theta, 60.0)
        ald = aldous_check(recs, thetas, eta)
        aldous_ok[n] = ald.monotone and ald.decays
        jrep = increment_scaling(
            recs,
            tau=[T / 8.0, T / 4.0, 3.0 * T / 8.0, T / 2.0],
            thetas=[dt * 8 * 2**j for j in range(5)],
        )
        j5s[n] = jrep.exponents["noise"]
        del recs
    ok = (
        all(s >= 0.4 for s in slopes.values())
        and all(aldous_ok.values())
        and all(0.4 <= e <= 0.6 for e in j5s.values())
    )
    report(8, ok, f"median-modulus slopes {slopes} >= 0.4, Aldous decay {aldous_ok}, "
                  f"noise-increment exponents {j5s} in [0.4, 0.6]")


def test_criterion_09_nested_space():
    spec, exact = build_nested_space(np.ones(30), eta0=0.5)
    cert = sample_nested_space(spec, samples=10000, seed=9)
    ok = (
        cert.embedding_violations == 0
        and cert.tail_violations == 0
        and cert.max_embedding_norm <= 0.5
    )
    # beside the sampled check, the exact sup, which no sample exceeds, and
    # both exact margins positive
    ok = (ok and exact.passed and exact.embedding_margin > 0.0 and exact.tail_margin > 0.0
          and cert.max_embedding_norm <= exact.max_embedding_norm * (1.0 + 1e-12) <= 0.5)
    report(9, ok, f"embedding norm {cert.max_embedding_norm:.4f} <= 0.5 and tail bound: "
                  f"0 violations on {cert.samples} unit-sphere samples; "
                  f"exact: sup {exact.max_embedding_norm:.4f}, margins {exact.embedding_margin:.4f} "
                  f"(embedding) and {exact.tail_margin:.2e} (tails) > 0")


def test_criterion_10_2d_inequalities(basis):
    # the fields are drawn one at a time, in the order and from the streams
    # of a per-field loop, and each check takes them as one stack
    rng = np.random.default_rng(1000)
    K = basis.domain.K
    us = stack([random_field(basis, rng, decay=0.5) for _ in range(10000)])
    lady_base = ladyzhenskaya_check(us, grid_n=4 * K + 2)
    rng = np.random.default_rng(1000)
    us = stack([random_field(basis, rng, decay=0.5) for _ in range(10000)])
    lady_fine = ladyzhenskaya_check(us, grid_n=2 * (4 * K + 2))
    lady_stable = abs(max(lady_fine) - max(lady_base)) <= 0.02 * max(lady_base)

    ws_base = TrilinearWorkspace(basis)
    ws_fine = TrilinearWorkspace(basis, grid_points=2 * (3 * K + 2))
    rng = np.random.default_rng(1001)
    u, v, w = (stack(f) for f in zip(*([random_field(basis, rng, decay=0.5) for _ in range(3)]
                                         for _ in range(10000))))
    tri_base = trilinear_2d_bound(u, v, w, ws_base)
    tri_fine = trilinear_2d_bound(u, v, w, ws_fine)
    tri_base = [x for x in tri_base if not math.isnan(x)]
    tri_fine = [x for x in tri_fine if not math.isnan(x)]
    tri_stable = abs(max(tri_fine) - max(tri_base)) <= 0.02 * max(tri_base)

    ws = TrilinearWorkspace(basis)
    rng = np.random.default_rng(1002)
    cfg = GalerkinConfig(
        basis=basis, n=16, dt=1e-3, T=0.2,
        u0=random_field(basis, rng, n=8, decay=0.5),
        model=default_noise_model(2), seed=55, snapshot_stride=20,
    )
    recs = integrate_ensemble(cfg, 100, workers=WORKERS)
    path_ratios = convection_path_bound(recs, ws).ratio
    path_ok = max(path_ratios) <= 1.0 + 1e-9
    ok = lady_stable and tri_stable and path_ok
    report(10, ok, f"Ladyzhenskaya max ratio {max(lady_base):.4f} (stable +-2%), "
                   f"trilinear max ratio {max(tri_base):.4f} (stable +-2%), "
                   f"path-bound max ratio {max(path_ratios):.4f} <= 1 on 100 paths")


def test_criterion_11_pathwise_uniqueness(basis):
    model = default_noise_model(2)
    cert = certify_conditions(model, basis, samples=2000, seed=11)
    rng = np.random.default_rng(1100)
    cfg = GalerkinConfig(
        basis=basis, n=16, dt=1e-3, T=0.5,
        u0=random_field(basis, rng, n=8, decay=0.5),
        model=model, seed=2468,
    )
    twins = pathwise_uniqueness_experiment(cfg, cert.lipschitz_L, gamma=0.0, n_traj=3)
    rep = pathwise_uniqueness_experiment(cfg, cert.lipschitz_L, gamma=1e-8, n_traj=500)
    ok = cert.lipschitz_L < 2.0 and twins.identical and rep.median_ratio_T <= 1.1
    # beside the sampled L, the exact one, which the sample cannot exceed
    exact_L = exact_constants(model, basis).lipschitz_L
    ok = ok and cert.lipschitz_L <= exact_L < 2.0
    report(11, ok, f"L = {cert.lipschitz_L:.3f} < 2, twin runs bitwise identical: {twins.identical}, "
                   f"median weighted ratio {rep.median_ratio_T:.4f} <= 1.1 over {rep.trajectories} paths; "
                   f"exact L = {exact_L:.3f} < 2")


def test_criterion_12_shifted_energy_and_uniqueness():
    basis = Basis(TorusDomain(d=2, K=3), SpaceScale(d=2))
    rng = np.random.default_rng(1200)
    margins = {}
    for dt in (1e-3, 5e-4):
        worst = math.inf
        rng_local = np.random.default_rng(1201)
        for _ in range(5):
            u0 = random_field(basis, rng_local, n=8, decay=0.5)
            z = random_field(basis, rng_local, n=8, decay=1.0)
            f = 0.3 * random_field(basis, rng_local, n=8, decay=1.0)
            prob = ShiftedProblem(basis=basis, n=8, dt=dt, T=0.1, u0=u0,
                                  z=z, f=f)
            path = solve_shifted(prob)
            rep = energy_inequality_check(path, prob)
            worst = min(worst, rep.worst_margin)
        margins[dt] = worst
    cs = {dt: max(0.0, -m) / dt for dt, m in margins.items()}
    c_stable = cs[5e-4] <= max(2.0 * cs[1e-3], 1.0)
    energy_ok = all(m >= -50.0 * dt for dt, m in margins.items()) and c_stable

    env_ok = True
    for trial in range(20):
        u0 = random_field(basis, rng, n=8, decay=0.5)
        pert = np.zeros(basis.n_modes)
        pert[trial % 8] = 1e-8
        v20 = u0 + basis.field_from_real_coords(pert)
        z = random_field(basis, rng, n=8, decay=1.0)
        prob = ShiftedProblem(basis=basis, n=8, dt=1e-3, T=0.1, u0=u0,
                              z=z)
        rep = uniqueness_shifted(prob, u0, v20)
        env_ok = env_ok and rep.within_envelope
    ok = energy_ok and env_ok
    report(12, ok, f"energy-inequality worst margins {margins} (residual constants {cs} stable), "
                   f"Gronwall envelope held on 20 random problems: {env_ok}")


def test_parabolicity_boundary_moments():
    # Without convection, constant transport noise b acts on each complete
    # polarization slot k as multiplication by 1 - lam_k dt + i s_j per EM
    # step, s_j = sum_m (b_m . kappa_k) dW_mj (the slot identity that
    # test_galerkin.py::test_slot_moduli_are_the_exact_products pins per
    # path).  The steps are independent, so
    #   E|c_N|^2 = |c_0|^2 g_k^N,  g_k = (1 - lam_k dt)^2 + dt sum_m (b_m . kappa_k)^2,
    # and E|c_N|^4 = |c_0|^4 h_k^N with h_k the second moment of one factor.
    # With b along kappa_1, g_k - 1 = dt |kappa|^2 (2 - a - 2 + lam dt) on
    # the kappa_1-aligned slots, a = 2 - |b|^2: it rises with |kappa|^2 iff
    # a < 0, so no moment bound is uniform in n there.
    # Each sample mean over R = 1000 paths is checked by its z-score against
    # the exact variance, |z| <= 4 on each of the 6 (b, slot) pairs.  The
    # products are heavy-tailed, so the normal rate 6e-5 per pair is not
    # assumed: a sweep of the same 6 statistics over seeds 0..2999 (per-path
    # products drawn from the slot identity, both b on one path set) gave
    # max |z| 3.85, above 3.5 at 2 seeds and above 4 at none, so the
    # false-alarm rate of one run is below 0.1% (95% upper bound, 0 of 3000).
    basis = Basis(TorusDomain(d=2, K=3), SpaceScale(d=2))
    n, dt, T, R, z_bound = 28, 1e-3, 1.0, 1000, 4.0
    lam, slot = basis.mode_weights("D", n), basis.mode_slot[:n]
    aligned = [k for k in np.unique(slot)
               if basis.slot_kappa[k][1] == 0.0 and np.count_nonzero(slot == k) == 2]
    assert basis.slot_kappa[aligned][:, 0].tolist() == [1.0, 2.0, 3.0]
    coords = np.zeros(basis.n_modes)
    coords[np.flatnonzero(np.isin(basis.mode_slot, aligned))] = 1.0
    u0 = basis.field_from_real_coords(coords)
    steps = round(T / dt)
    lines, growing = [], {}
    for b in ([1.3, 0.0], [1.5, 0.0]):
        model = constant_transport_model([b])
        a = coercivity_constant(model, basis.domain)
        cfg = GalerkinConfig(basis=basis, n=n, dt=dt, T=T, u0=u0, model=model, include_B=False,
                             seed=2024, records={"states"})
        ens = integrate_batch(cfg, range(R))
        assert not ens.aborted.any()
        factors, means = [], []
        for k in aligned:
            modes = np.flatnonzero(slot == k)
            c0, cN = ens.snap_u[:, 0, modes], ens.snap_u[:, -1, modes]
            ratio = np.sum(cN**2, axis=1) / np.sum(c0**2, axis=1)
            decay = 1.0 - lam[modes[0]] * dt
            s2 = dt * float(np.dot(b, basis.slot_kappa[k])) ** 2
            g, h = decay**2 + s2, decay**4 + 2.0 * decay**2 * s2 + 3.0 * s2**2
            mean, var = g**steps, h**steps - g ** (2 * steps)
            z = (np.mean(ratio) - mean) / math.sqrt(var / R)
            assert abs(z) <= z_bound, (b, k, z)
            factors.append(g)
            means.append(np.mean(ratio))
            lines.append(f"a = {a:+.2f}, kappa = {basis.slot_kappa[k]}: mean {np.mean(ratio):.4g}, "
                         f"closed form {mean:.4g}, z = {z:+.2f}")
        # along |kappa|^2 = 1, 4, 9: the factor, and the sample means with it
        growing[a] = bool(np.all(np.diff(factors) > 0.0))
        assert np.all(np.diff(means) > 0.0) == growing[a]
        assert np.all(np.diff(factors) < 0.0) != growing[a]
    # one b on each side of a = 0, and growth on the a < 0 side only
    assert min(growing) < 0.0 < max(growing)
    assert [growing[a] for a in sorted(growing)] == [True, False]
    print("\n".join(lines))
