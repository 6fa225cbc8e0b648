import itertools
import math

import numpy as np
import pytest
from conftest import eval_physical, mode_id, partial_derivative, two_direction_model
from noise_oracle import (
    apply_G, apply_G_direction, certify_conditions, continuity_constant_Gstarstar, polished_max,
)

from sgns.noise import (
    SUP_REL_WIDTH,
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
    calls = record_sweeps(monkeypatch)
    rep = noise_conditions(model, dom)
    assert rep.C1 == c1_ref
    assert rep.gstar_analytic == 2.0 * gstar_ref
    # sup|b_1|, sup|div b_1|, sup|c_1|, the constant sup|c_2| (one node) and
    # the coercivity minimum, once each, each the upper end of its bracket
    assert [degree for _, degree, _ in calls] == [2, 2, 2, 0, 4]
    (b, c), (_, c2) = model.directions
    assert [hi for _, _, (_, hi) in calls[:4]] == [sup_norm(f, dom) for f in (b, b.divergence(dom), c, c2)]
    assert calls[3][2] == (0.4, 0.4) and rep.a == 2.0 - calls[4][2][1]


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
    # 2.2e-4 at N = 48 and below 5e-4 at every N = 40, 48, ..., 96.  The
    # certified 2 - a lies above the sup and within SUP_REL_WIDTH of it, for
    # the one harmonic direction and with a constant second one, whose Gram
    # matrix is 2 x 2
    cases = [
        (2, [0.5, 0.1], [((1, 1), [0.2, 0.0], [0.0, 0.1])], 1024, 1e-4),
        (3, [0.5, 0.1, -0.2], [((1, 1, 0), [0.2, 0.0, 0.1], [0.0, 0.1, 0.0]),
                               ((0, 1, 1), [0.0, 0.15, 0.0], [0.1, 0.0, 0.05])], 48, 1e-3),
    ]
    for (d, const, harmonics, N, tol), M in itertools.product(cases, (1, 2)):
        dom = TorusDomain(d=d, K=2)
        bs = [HarmonicField.build(d, d, const=const, harmonics=harmonics),
              HarmonicField.build(d, d, const=0.3 * np.eye(d)[-1])]
        a = coercivity_constant(NoiseModel(d=d, directions=tuple((b, None) for b in bs[:M])), dom)
        mats = sum(v[..., :, None] * v[..., None, :] for v in (b.values(dom, grid_points(dom, N)) for b in bs[:M]))
        lam = np.max(np.linalg.eigvalsh(mats.reshape(-1, d, d))[:, -1])
        assert lam <= 2.0 - a <= (1.0 + SUP_REL_WIDTH) * (lam + tol)


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
    assert model.directions[0][0].max_k == 0 and model.directions[1][1].max_k == 1


def test_sup_norm_refinement(monkeypatch):
    from sgns.spectral import TorusDomain

    dom = TorusDomain(d=2, K=2)
    # max of cos(x) + 0.5 cos(2x) is 1.5, at the node x = 0
    f = HarmonicField.build(2, 1, const=[0.0], harmonics=[((1, 0), [1.0], None), ((2, 0), [0.5], None)])
    assert 1.5 <= sup_norm(f, dom) <= 1.5 * (1.0 + SUP_REL_WIDTH)
    # cos(x - phi) + cos(y - phi) peaks at 2 half-way between the 32 nodes
    # per axis of its degree in both axes, where the largest node value is
    # 2 cos(pi / 32): only the secant factor lifts the bound to the sup
    phi = math.pi / 32
    amp = ([math.cos(phi)], [math.sin(phi)])
    g = HarmonicField.build(2, 1, harmonics=[((1, 0), *amp), ((0, 1), *amp)])
    calls = record_sweeps(monkeypatch)
    assert 2.0 <= sup_norm(g, dom) <= 2.0 * (1.0 + SUP_REL_WIDTH)
    assert calls[0][2][0] == pytest.approx(2.0 * math.cos(phi), rel=1e-14)


@pytest.mark.parametrize("d", [2, 3])
def test_a_sweep_holds_one_slab_of_nodes(d):
    # a max_k = 2 field on an anisotropic torus, swept at its degree 2 (N =
    # 78 nodes per axis in 3D): the bracket is that of the same nodes taken
    # from the whole grid, in the same order, to the bit, and the sweep's
    # traced peak stays below the size of that grid
    import tracemalloc

    import sgns.noise as noise_mod

    e = np.eye(d, dtype=int)
    f = HarmonicField.build(d, d, const=0.3 * e[0], harmonics=[(2 * e[0] + e[1], 0.2 * e[1], 0.1 * e[0]),
                                                               (e[-1] - e[0], None, 0.4 * e[-1])])
    dom = TorusDomain(d=d, K=2, period=(2.0 * math.pi, 3.0, 5.0)[:d])
    assert f.max_k == 2

    def scalar_at(pts):
        return np.linalg.norm(f.values(dom, pts), axis=-1)

    tracemalloc.start()
    try:
        lo, hi = noise_mod._certified_max(scalar_at, dom, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    N = math.ceil(math.pi * 2 / math.acos((1.0 + SUP_REL_WIDTH) ** (-1.0 / d)))
    assert hi == lo / math.cos(math.pi * 2 / N) ** d
    whole = grid_points(dom, N)
    assert lo == max(float(np.max(scalar_at(slab))) for slab in whole.reshape(-1, N * N, d))
    if d == 3:
        assert N == 78 and peak < whole.nbytes


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


def record_sweeps(monkeypatch) -> list:
    """The (domain, degree, (lo, hi)) of every certified sweep of sgns.noise
    from here on, in call order."""
    import sgns.noise as noise_mod

    calls = []
    sweep = noise_mod._certified_max

    def spy(scalar_at, domain, degree):
        calls.append((domain, degree, sweep(scalar_at, domain, degree)))
        return calls[-1][2]

    monkeypatch.setattr(noise_mod, "_certified_max", spy)
    return calls


def random_harmonic(rng, d: int, ncomp: int, max_k: int) -> HarmonicField:
    """A constant plus one to three harmonics of wavevector entries in
    [-max_k, max_k], every amplitude standard normal over 4."""
    harmonics = []
    while len(harmonics) < rng.integers(1, 4):
        k = tuple(int(v) for v in rng.integers(-max_k, max_k + 1, size=d))
        if any(k):
            harmonics.append((k, rng.standard_normal(ncomp) / 4, rng.standard_normal(ncomp) / 4))
    return HarmonicField.build(d, ncomp, const=rng.standard_normal(ncomp) / 4, harmonics=harmonics)


@pytest.mark.parametrize("d, max_k, M, dense", [(2, 2, 2, 256), (3, 1, 1, 32)])
def test_certified_brackets_contain_the_polished_and_dense_maxima(d, max_k, M, dense, monkeypatch):
    # 20 random models of M directions, each a harmonic b and c: every
    # bracket of sup|b_i|, sup|div b_i|, sup|c_i| and lambda_max holds the
    # larger of the polished maximum and the largest value on a dense grid,
    # and its upper end lies above both (a dense grid that misses the
    # sweep's nodes can read below its lower end).  Both are formed from the
    # coefficient values and, for lambda_max, the d x d eigenvalues (|b|^2
    # for one direction, b b^T's one nonzero eigenvalue), never from the
    # sweep's scalar.  The 3D Gram matrix of two directions is checked in
    # `test_coercivity_matches_eigen_oracle` and on the threed demo
    dom = TorusDomain(d=d, K=2)
    pts = grid_points(dom, dense).reshape(-1, d)
    rng = np.random.default_rng(4700 + d)
    for _ in range(20):
        directions = [tuple(random_harmonic(rng, d, ncomp, max_k) for ncomp in (d, 1)) for _ in range(M)]
        model = NoiseModel(d=d, directions=tuple(directions))
        calls = record_sweeps(monkeypatch)
        noise_conditions(model, dom)
        scalars = [(lambda x, f=f: np.linalg.norm(f.values(dom, x), axis=-1), f.max_k)
                   for b, c in model.directions for f in (b, b.divergence(dom), c)]

        def lam(x):
            vals = [b.values(dom, x) for b, _ in model.directions]
            if M == 1:
                return np.sum(vals[0] ** 2, axis=-1)
            return np.linalg.eigvalsh(sum(v[..., :, None] * v[..., None, :] for v in vals))[..., -1]

        scalars.append((lam, max(b.max_k for b, _ in model.directions)))
        assert len(calls) == len(scalars)
        for (scalar_at, max_k), (_, _, (lo, hi)) in zip(scalars, calls):
            found = (polished_max(scalar_at, dom, max_k), float(np.max(scalar_at(pts))))
            assert lo * (1.0 - 1e-12) <= max(found) and max(found) <= hi <= lo * (1.0 + SUP_REL_WIDTH)


@pytest.mark.parametrize("name", ["default", "estimates", "spaces", "threed", "tightness", "uniqueness"])
def test_every_demo_bracket_is_within_the_width(name, monkeypatch):
    from pathlib import Path

    run = load_config(Path(__file__).resolve().parents[1] / "demos" / "configs" / f"{name}.json")
    calls = record_sweeps(monkeypatch)
    noise_conditions(run.galerkin.model, run.basis.domain, eps=run.noise_eps)
    assert calls and all(hi <= lo * (1.0 + SUP_REL_WIDTH) for _, _, (lo, hi) in calls)
