import math

import numpy as np
import pytest
from conftest import eval_physical, mode_id, partial_derivative, two_direction_model
from noise_oracle import apply_G, apply_G_direction, certify_conditions, continuity_constant_Gstarstar

from sgns.noise import (
    HarmonicField,
    NoiseModel,
    c1_constant,
    coercivity_constant,
    constant_transport_model,
    default_noise_model,
    direction_sups,
    exact_constants,
    noise_conditions,
    noise_matrices,
    sampled_lipschitz,
    sup_norm,
    _tables,
)
from sgns.config import load_config
from sgns.spectral import ROLE_COS, Basis, SpaceScale, TorusDomain, grid_points, inner, norm, random_field, stack


@pytest.fixture(scope="module")
def model_default():
    return default_noise_model(d=2)


def test_apply_G_zero_cases(basis2d_small, model_default, rng):
    z = basis2d_small.zero_field()
    assert norm(apply_G(z, [1.0], model_default), "H") == 0.0
    u = random_field(basis2d_small, rng)
    assert norm(apply_G(u, [0.0], model_default), "H") == 0.0


def test_apply_G_wrong_h_length(basis2d_small, model_default, rng):
    u = random_field(basis2d_small, rng)
    with pytest.raises(ValueError):
        apply_G(u, [1.0, 2.0], model_default)


def test_constant_b_is_phase_rate(basis2d_small):
    # constant b = (beta, 0): G(u)e_1 has amplitude i*beta*k_1*u per exp mode
    beta = 1.7
    model = constant_transport_model([[beta, 0.0]])
    b = basis2d_small
    i = mode_id(b, (2, 1), ROLE_COS)
    u = b.basis_field(i)
    out = apply_G(u, [1.0], model)
    ua = b.to_exp_coeffs(u)
    oa = b.to_exp_coeffs(out)
    kap1 = b.domain.kappa(b.lattice_k)[:, 0]
    expect = 1j * beta * kap1[:, None] * ua
    assert np.max(np.abs(oa - expect)) < 1e-13


def test_constant_b_checked_against_quadrature(basis2d_small, rng):
    # directional derivative via grid differentiation oracle
    model = constant_transport_model([[0.8, -0.3]])
    u = random_field(basis2d_small, rng)
    out = apply_G(u, [1.0], model)
    N = 4 * basis2d_small.domain.K + 2
    expect = 0.8 * eval_physical(partial_derivative(u, 0), N) - 0.3 * eval_physical(
        partial_derivative(u, 1), N
    )
    got = eval_physical(out, N)
    assert np.max(np.abs(got - expect)) < 1e-11


def test_constant_coefficients_stay_divergence_free(basis2d_small, rng):
    # Leray projection is the identity on the output for constant b
    model = constant_transport_model([[1.0, 0.5]])
    u = random_field(basis2d_small, rng)
    out = apply_G(u, [1.0], model)
    # recompute without projection: raw convolution of the derivative
    raw = 1.0 * basis2d_small.to_exp_coeffs(partial_derivative(u, 0)) + 0.5 * basis2d_small.to_exp_coeffs(
        partial_derivative(u, 1)
    )
    assert np.max(np.abs(basis2d_small.to_exp_coeffs(out) - raw)) < 1e-12


def test_apply_G_linear(basis2d_small, rng):
    model = NoiseModel(
        d=2,
        directions=(
            (
                HarmonicField.build(2, 2, const=[0.3, 0.0], harmonics=[((1, 0), [0.1, 0.0], [0.0, 0.2])]),
                HarmonicField.build(2, 1, const=[0.5]),
            ),
            (None, HarmonicField.build(2, 1, const=[1.0], harmonics=[((0, 1), [0.2], None)])),
        ),
    )
    u = random_field(basis2d_small, rng)
    v = random_field(basis2d_small, rng)
    h1, h2 = np.array([0.7, -0.2]), np.array([0.1, 0.9])
    lhs = apply_G(u + 2.0 * v, h1 + h2, model)
    rhs = (
        apply_G(u, h1, model)
        + apply_G(u, h2, model)
        + 2.0 * apply_G(v, h1, model)
        + 2.0 * apply_G(v, h2, model)
    )
    assert norm(lhs - rhs, "H") <= 1e-12 * max(1.0, norm(lhs, "H"))


def test_variable_coefficient_against_quadrature(basis2d_small, rng):
    # c(x) = 1 + 0.5 cos(x1): multiply u pointwise, then Leray-project
    c = HarmonicField.build(2, 1, const=[1.0], harmonics=[((1, 0), [0.5], None)])
    model = NoiseModel(d=2, directions=((None, c),))
    u = random_field(basis2d_small, rng)
    out = apply_G(u, [1.0], model)
    v = random_field(basis2d_small, rng)
    N = 4 * basis2d_small.domain.K + 2
    cg = c.values(basis2d_small.domain, grid_points(basis2d_small.domain, N))[..., 0]
    prod = cg[..., None] * eval_physical(u, N)
    # pairing with a solenoidal v sees only the Leray part of the product
    quad = float(np.mean(np.sum(prod * eval_physical(v, N), axis=-1)) * basis2d_small.domain.volume)
    assert abs(inner(out, v, "H") - quad) <= 1e-10 * max(1.0, abs(quad))


def test_hs_norm_scalar_multiplier(basis2d_small, rng):
    # G(u) = gamma u: its one noise matrix is gamma I, so |G(u)|_HS(Y,H) is
    # |gamma| |u|_H
    gamma = 0.8
    model = constant_transport_model([[0.0, 0.0]], c_values=[gamma])
    (mat,) = noise_matrices(model, basis2d_small)
    assert np.max(np.abs(mat - gamma * np.eye(basis2d_small.n_modes))) < 1e-12
    x = basis2d_small.real_coords(random_field(basis2d_small, rng))
    assert abs(np.linalg.norm(mat @ x) - abs(gamma) * np.linalg.norm(x)) < 1e-12


def test_c1_constant_values():
    from sgns.spectral import TorusDomain

    dom = TorusDomain(d=2, K=2)
    assert abs(c1_constant(direction_sups(default_noise_model(2), dom)) - 1.0) < 1e-12
    m2 = constant_transport_model([[1.0, 0.0]], c_values=[1.0])
    assert abs(c1_constant(direction_sups(m2, dom)) - 2.0) < 1e-12
    m3 = constant_transport_model([[1.0, 0.0], [1.0, 0.0]])
    assert abs(c1_constant(direction_sups(m3, dom)) - 2.0) < 1e-12


def test_certify_sweeps_each_sup_norm_once(basis2d_small, monkeypatch):
    import sgns.noise as noise_mod

    model = NoiseModel(d=2, directions=(
        (HarmonicField.build(2, 2, const=[0.3, 0.1], harmonics=[((1, 2), [0.1, 0.05], None)]),
         HarmonicField.build(2, 1, const=[0.2], harmonics=[((2, 1), [0.1], None)])),
        (None, HarmonicField.build(2, 1, const=[0.4])),
    ))
    dom = basis2d_small.domain
    # reference: every sup-norm swept on its own, summed in direction order
    c1_ref = gstar_ref = 0.0
    for b, c in model.directions:
        if b is not None:
            c1_ref += sup_norm(b, dom) ** 2
            c1_ref += sup_norm(b.divergence(dom), dom) ** 2
            gstar_ref += 2.0 * sup_norm(b, dom) ** 2
            gstar_ref += 2.0 * sup_norm(b.divergence(dom), dom) ** 2
        if c is not None:
            c1_ref += sup_norm(c, dom) ** 2
            gstar_ref += sup_norm(c, dom) ** 2
    calls = []
    polished_max = noise_mod._polished_max
    monkeypatch.setattr(noise_mod, "_polished_max", lambda *a: calls.append(a) or polished_max(*a))
    rep = noise_conditions(model, dom)
    assert rep.C1 == c1_ref
    assert rep.gstar_analytic == 2.0 * gstar_ref
    # sup|b_1|, sup|div b_1|, sup|c_1| and the coercivity minimum, once each
    assert len(calls) == 4


def test_coercivity_values():
    from sgns.spectral import TorusDomain

    dom = TorusDomain(d=2, K=2)
    assert abs(coercivity_constant(default_noise_model(2), dom) - 1.0) < 1e-12
    m0 = NoiseModel(d=2, directions=((None, HarmonicField.build(2, 1, const=[1.0])),))
    assert coercivity_constant(m0, dom) == 2.0
    m_reject = constant_transport_model([[math.sqrt(2), 0.0], [0.0, math.sqrt(2)]])
    assert abs(coercivity_constant(m_reject, dom)) < 1e-12
    rep = certify_conditions(m_reject, Basis(dom), samples=10)
    assert rep.rejected
    assert noise_conditions(m_reject, dom).rejected


def test_coercivity_matches_eigen_oracle(rng):
    from sgns.spectral import TorusDomain

    # brute-force eigenvalue oracle; grid maxima converge at second order.
    # In 2D N = 1024 pins the value to ~4e-5.  In 3D the grid error is
    # 2.2e-4 at N = 48 and below 5e-4 at every N = 40, 48, ..., 96.
    cases = [
        (2, [0.5, 0.1], [((1, 1), [0.2, 0.0], [0.0, 0.1])], 1024, 1e-4),
        (3, [0.5, 0.1, -0.2], [((1, 1, 0), [0.2, 0.0, 0.1], [0.0, 0.1, 0.0]),
                               ((0, 1, 1), [0.0, 0.15, 0.0], [0.1, 0.0, 0.05])], 48, 1e-3),
    ]
    for d, const, harmonics, N, tol in cases:
        dom = TorusDomain(d=d, K=2)
        b1 = HarmonicField.build(d, d, const=const, harmonics=harmonics)
        model = NoiseModel(d=d, directions=((b1, None),))
        a = coercivity_constant(model, dom)
        vals = b1.values(dom, grid_points(dom, N))
        mats = vals[..., :, None] * vals[..., None, :]
        lam = np.linalg.eigvalsh(mats.reshape(-1, d, d))[:, -1]
        assert abs(a - (2.0 - np.max(lam))) < tol


def test_certify_default_model(basis2d_small):
    rep = certify_conditions(default_noise_model(2), basis2d_small, eps=0.5, samples=500, seed=1)
    assert abs(rep.C1 - 1.0) < 1e-12
    assert abs(rep.a - 1.0) < 1e-12
    assert abs(rep.eta - 0.5) < 1e-12
    assert abs(rep.lam0 - 1.5) < 1e-12
    assert rep.empirical_violations == 0
    assert rep.gstar_violations == 0
    assert rep.gstar_constant <= rep.gstar_analytic * (1 + 1e-9)
    assert rep.lipschitz_L <= 1.0 + 1e-9
    # the exact values, which no sampled maximum exceeds
    exact = exact_constants(default_noise_model(2), basis2d_small, rep.eta, rep.lam0)
    assert exact.lipschitz_L == 1.0 and exact.coercivity_margin >= 0.0
    assert rep.gstar_constant <= exact.gstar_constant * (1.0 + 1e-12) <= rep.gstar_analytic
    assert rep.lipschitz_L <= exact.lipschitz_L * (1.0 + 1e-12)


def test_certify_zero_noise(basis2d_small):
    model = NoiseModel(d=2, directions=((None, None),))
    rep = certify_conditions(model, basis2d_small, samples=100)
    assert rep.eta == 2.0
    assert rep.lam0 == 0.0
    assert rep.empirical_violations == 0
    exact = exact_constants(model, basis2d_small, rep.eta, rep.lam0)
    assert (exact.lipschitz_L, exact.gstar_constant, exact.coercivity_margin) == (0.0, 0.0, 0.0)


def test_certify_eps_out_of_range(basis2d_small):
    with pytest.raises(ValueError):
        noise_conditions(default_noise_model(2), basis2d_small.domain, eps=1.5)


def test_certify_variable_model(basis2d_small):
    b = HarmonicField.build(2, 2, const=[0.6, 0.0], harmonics=[((0, 1), [0.2, 0.1], None)])
    c = HarmonicField.build(2, 1, const=[0.3], harmonics=[((1, 0), None, [0.1])])
    model = NoiseModel(d=2, directions=((b, c),))
    rep = certify_conditions(model, basis2d_small, samples=800, seed=4)
    assert not rep.rejected
    assert rep.empirical_violations == 0
    assert rep.gstar_violations == 0
    exact = exact_constants(model, basis2d_small, rep.eta, rep.lam0)
    assert exact.coercivity_margin >= 0.0
    assert rep.gstar_constant <= exact.gstar_constant * (1.0 + 1e-12) <= rep.gstar_analytic
    assert rep.lipschitz_L <= exact.lipschitz_L * (1.0 + 1e-12)


def test_noise_matrices_match_direct(basis2d_small, rng):
    model = default_noise_model(2)
    n = 12
    mats = noise_matrices(model, basis2d_small, n)
    x = rng.standard_normal(n)
    u = basis2d_small.field_from_real_coords(np.concatenate([x, np.zeros(basis2d_small.n_modes - n)]))
    direct = basis2d_small.real_coords(apply_G_direction(u, 0, model), n)
    assert np.allclose(mats[0] @ x, direct, atol=1e-12)


@pytest.mark.parametrize("model_of", [default_noise_model, two_direction_model], ids=["default", "two"])
@pytest.mark.parametrize("d, K", [(2, 3), (3, 1)])
def test_continuity_constant_is_the_exact_sup(d, K, model_of):
    # oracle: the quotient |<G(w) | psi>|_Y / (|w|_H ||psi||_V) formed from
    # apply_G_direction and the H inner product, never from noise_matrices
    basis = Basis(TorusDomain(d=d, K=K), SpaceScale(d=d))
    model = model_of(d)
    rng = np.random.default_rng(27)
    psi = random_field(basis, rng, decay=0.5)

    def pairings(w):
        return np.array([inner(apply_G_direction(w, i, model), psi, "H") for i in range(model.M)])

    def quotient(w):
        return np.linalg.norm(pairings(w), axis=0) / (norm(w, "H") * norm(psi, "V"))

    C = continuity_constant_Gstarstar(model, psi)
    assert C > 0.0
    assert np.all(quotient(stack([random_field(basis, rng) for _ in range(200)])) <= C * (1.0 + 1e-12))
    # A[i, j] = <G_i e_j, psi>_H: its top right singular vector attains C
    A = pairings(basis.field_from_real_coords(np.eye(basis.n_modes)))
    top = basis.field_from_real_coords(np.linalg.svd(A)[2][0])
    assert abs(quotient(top) - C) <= 1e-12 * C
    assert continuity_constant_Gstarstar(model, basis.zero_field()) == 0.0
    assert continuity_constant_Gstarstar(NoiseModel(d=d, directions=()), psi) == 0.0
    for a in (1e3, -0.25):
        assert abs(continuity_constant_Gstarstar(model, a * psi) - C) <= 1e-12 * C


@pytest.mark.parametrize("model_of", [default_noise_model, two_direction_model], ids=["default", "two"])
@pytest.mark.parametrize("d, K", [(2, 3), (3, 2)])
def test_exact_constants_are_the_sups(d, K, model_of):
    # oracle: the quotients formed from apply_G_direction and the norms, and
    # their matrices from the images of the basis fields, never from
    # noise_matrices
    basis = Basis(TorusDomain(d=d, K=K), SpaceScale(d=d))
    model = model_of(d)
    rep = certify_conditions(model, basis, samples=400, seed=5)
    exact = exact_constants(model, basis, rep.eta, rep.lam0)

    def hs2(u, space):
        return sum(norm(apply_G_direction(u, i, model), space) ** 2 for i in range(model.M))

    def lipschitz(u):
        return np.sqrt(hs2(u, "H")) / norm(u, "D")

    def coercivity(u):
        D2 = norm(u, "D") ** 2
        return ((2.0 - rep.eta) * D2 - hs2(u, "H") + rep.lam0 * norm(u, "H") ** 2) / norm(u, "H") ** 2

    # no sampled quotient exceeds its exact value, nor any oracle quotient
    assert rep.lipschitz_L <= exact.lipschitz_L * (1.0 + 1e-12)
    assert rep.gstar_constant <= exact.gstar_constant * (1.0 + 1e-12)
    assert rep.gstar_constant <= rep.gstar_analytic and exact.gstar_constant <= rep.gstar_analytic
    assert rep.empirical_violations == 0 and exact.coercivity_margin > 0.0
    rng = np.random.default_rng(31)
    u = stack([random_field(basis, rng, decay=rng.uniform(0.0, 1.0)) for _ in range(200)])
    assert np.all(lipschitz(u) <= exact.lipschitz_L * (1.0 + 1e-12))
    assert np.all(hs2(u, "Vdual") / (1.0 + norm(u, "H") ** 2) <= exact.gstar_constant * (1.0 + 1e-12))
    assert np.all(coercivity(u) >= exact.coercivity_margin * (1.0 - 1e-12))
    # each is attained at the top (bottom) eigenvector of its own matrix
    images = [basis.real_coords(apply_G_direction(basis.field_from_real_coords(np.eye(basis.n_modes)), i, model)).T
              for i in range(model.M)]
    wD, wVdual = basis.mode_weights("D"), basis.mode_weights("Vdual")
    S = sum(A.T @ A for A in images)
    top = np.linalg.eigh(S / np.sqrt(np.outer(wD, wD)))[1][:, -1] / np.sqrt(wD)
    assert abs(lipschitz(basis.field_from_real_coords(top)) - exact.lipschitz_L) <= 1e-12 * exact.lipschitz_L
    top = basis.field_from_real_coords(np.linalg.eigh(sum(A.T @ (wVdual[:, None] * A) for A in images))[1][:, -1])
    assert abs(hs2(top, "Vdual") - exact.gstar_constant) <= 1e-12 * exact.gstar_constant
    # the growth ratio's sup is approached along that direction
    assert 1.0 - 1e-6 < hs2(1e3 * top, "Vdual") / (1.0 + 1e6) / exact.gstar_constant <= 1.0
    bottom = np.linalg.eigh(np.diag((2.0 - rep.eta) * wD + rep.lam0) - S)[1][:, 0]
    assert abs(coercivity(basis.field_from_real_coords(bottom)) - exact.coercivity_margin) \
        <= 1e-12 * exact.coercivity_margin
    # only L unless the coercivity pair is given
    assert exact_constants(model, basis) == type(exact)(exact.lipschitz_L)


@pytest.mark.parametrize("d, K", [(2, 3), (3, 2)])
def test_exact_lipschitz_closed_forms(d, K):
    # b = e_1 moves mode kappa at rate kappa_1 <= |kappa|, with equality on
    # the e_1 mode, so L = 1; a constant c adds c u, and the quotient
    # (kappa_1^2 + c^2) / |kappa|^2 is largest at kappa = e_1: L = sqrt(1 + c^2)
    basis = Basis(TorusDomain(d=d, K=K), SpaceScale(d=d))
    e1 = np.eye(d)[0]
    assert abs(exact_constants(default_noise_model(d), basis).lipschitz_L - 1.0) <= 1e-12
    for c in (0.5, 1.2, 2.5):
        L = exact_constants(constant_transport_model([e1], [c]), basis).lipschitz_L
        assert abs(L - math.sqrt(1.0 + c * c)) <= 1e-12 * L


def test_sampled_lipschitz_is_a_witness_of_the_level(basis2d_small):
    # drawn on the first n modes, it stays below the exact L of those
    # modes' matrices, which stays below the full basis' L
    model = two_direction_model(2)
    full = exact_constants(model, basis2d_small).lipschitz_L
    for n in (4, 12, basis2d_small.n_modes):
        mats, wD = noise_matrices(model, basis2d_small, n), basis2d_small.mode_weights("D", n)
        S = sum(m.T @ m for m in mats) / np.sqrt(np.outer(wD, wD))
        level = math.sqrt(np.linalg.eigvalsh(S)[-1])
        witness = sampled_lipschitz(mats, wD, 300, seed=n)
        assert 0.0 < witness <= level * (1.0 + 1e-12) and level <= full * (1.0 + 1e-12)
    assert witness == sampled_lipschitz(mats, wD, 300, seed=n)


def test_model_from_spec_roundtrip():
    model = load_config({"noise": {"directions": [
        {"b": {"const": [1.0, 0.0]}, "c": None},
        {"b": None, "c": {"const": [0.5], "harmonics": [{"k": [1, 0], "cos": [0.1], "sin": [0.0]}]}},
    ]}}).galerkin.model
    assert model == NoiseModel(d=2, directions=(
        (HarmonicField.build(2, 2, const=[1.0, 0.0]), None),
        (None, HarmonicField.build(2, 1, const=[0.5], harmonics=[((1, 0), [0.1], [0.0])])),
    ))
    assert model.M == 2
    assert model.directions[0][0].is_constant
    assert not model.directions[1][1].is_constant


def test_sup_norm_refinement():
    from sgns.spectral import TorusDomain

    dom = TorusDomain(d=2, K=2)
    f = HarmonicField.build(2, 1, const=[0.0], harmonics=[((1, 0), [1.0], None), ((2, 0), [0.5], None)])
    # max of cos(x) + 0.5 cos(2x) is at x = 0
    assert abs(sup_norm(f, dom) - 1.5) < 1e-8


def test_noise_tables_shared_by_equal_bases(rng):
    model = default_noise_model(d=2)
    b1 = Basis(TorusDomain(d=2, K=3), SpaceScale(d=2))
    b2 = Basis(TorusDomain(d=2, K=3), SpaceScale(d=2))
    assert b1 is not b2
    assert _tables(model, b1) is _tables(model, b2)
    assert not hasattr(b1, "_noise_tables")
    u = random_field(b1, rng)
    v = b2.field_from_real_coords(b1.real_coords(u, b1.n_modes))
    assert np.array_equal(apply_G_direction(u, 0, model).coeffs, apply_G_direction(v, 0, model).coeffs)
