import math

import numpy as np
import pytest

from sgns.noise import (
    HarmonicField,
    NoiseModel,
    apply_G,
    apply_G_direction,
    c1_constant,
    certify_conditions,
    coercivity_constant,
    constant_transport_model,
    continuity_constant_Gstarstar,
    default_noise_model,
    direction_sups,
    hs_norm_G,
    noise_matrices,
    sup_norm,
    _tables,
)
from sgns.config import load_config
from sgns.spectral import (
    Basis, SpaceScale, TorusDomain, eval_physical, inner, norm, partial_derivative, random_field, stack,
)


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
    i = next(m.mode_id for m in b.modes if m.k == (2, 1) and m.role == 0)
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
    cg = c.sample(basis2d_small.domain, N)[..., 0]
    prod = cg[..., None] * eval_physical(u, N)
    # pairing with a solenoidal v sees only the Leray part of the product
    quad = float(np.mean(np.sum(prod * eval_physical(v, N), axis=-1)) * basis2d_small.domain.volume)
    assert abs(inner(out, v, "H") - quad) <= 1e-10 * max(1.0, abs(quad))


def test_hs_norm_scalar_multiplier(basis2d_small, rng):
    gamma = 0.8
    model = constant_transport_model([[0.0, 0.0]], c_values=[gamma])
    u = random_field(basis2d_small, rng)
    assert abs(hs_norm_G(u, model, "H") - abs(gamma) * norm(u, "H")) < 1e-12
    z = basis2d_small.zero_field()
    assert hs_norm_G(z, model, "H") == 0.0


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
    rep = certify_conditions(model, basis2d_small, samples=50)
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
    rep = certify_conditions(m_reject, None if False else __import__("sgns.spectral", fromlist=["Basis"]).Basis(dom), samples=10)
    assert rep.rejected


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
        vals = b1.sample(dom, N)
        mats = vals[..., :, None] * vals[..., None, :]
        lam = np.linalg.eigvalsh(mats.reshape(-1, d, d))[:, -1]
        assert abs(a - (2.0 - np.max(lam))) < tol


def test_certify_default_model(basis2d_small):
    rep = certify_conditions(default_noise_model(2), basis2d_small, eps=0.5, samples=500, seed=1)
    assert abs(rep.C1 - 1.0) < 1e-12
    assert abs(rep.a - 1.0) < 1e-12
    assert abs(rep.eta - 0.5) < 1e-12
    assert abs(rep.lam0 - 1.5) < 1e-12
    assert rep.rho == 0.0
    assert rep.empirical_violations == 0
    assert rep.gstar_violations == 0
    assert rep.gstar_constant <= rep.gstar_analytic * (1 + 1e-9)
    assert rep.lipschitz_L <= 1.0 + 1e-9


def test_certify_zero_noise(basis2d_small):
    model = NoiseModel(d=2, directions=((None, None),))
    rep = certify_conditions(model, basis2d_small, samples=100)
    assert rep.eta == 2.0
    assert rep.lam0 == 0.0
    assert rep.empirical_violations == 0


def test_certify_eps_out_of_range(basis2d_small):
    with pytest.raises(ValueError):
        certify_conditions(default_noise_model(2), basis2d_small, eps=1.5, samples=10)


def test_certify_variable_model(basis2d_small):
    b = HarmonicField.build(2, 2, const=[0.6, 0.0], harmonics=[((0, 1), [0.2, 0.1], None)])
    c = HarmonicField.build(2, 1, const=[0.3], harmonics=[((1, 0), None, [0.1])])
    model = NoiseModel(d=2, directions=((b, c),))
    rep = certify_conditions(model, basis2d_small, samples=800, seed=4)
    assert not rep.rejected
    assert rep.empirical_violations == 0
    assert rep.gstar_violations == 0


def test_noise_matrices_match_direct(basis2d_small, rng):
    model = default_noise_model(2)
    n = 12
    mats = noise_matrices(model, basis2d_small, n)
    x = rng.standard_normal(n)
    u = basis2d_small.field_from_real_coords(np.concatenate([x, np.zeros(basis2d_small.n_modes - n)]))
    direct = basis2d_small.real_coords(apply_G_direction(u, 0, model), n)
    assert np.allclose(mats[0] @ x, direct, atol=1e-12)


def two_direction_model(d: int) -> NoiseModel:
    """A harmonic b with a harmonic c, and a constant b along the last axis."""
    e = np.eye(d, dtype=int)
    b = HarmonicField.build(d, d, const=0.4 * e[0], harmonics=[(e[0] + e[1], 0.1 * e[1], 0.05 * e[0])])
    c = HarmonicField.build(d, 1, const=[0.2], harmonics=[(e[0], [0.1], None)])
    return NoiseModel(d=d, directions=((b, c), (HarmonicField.build(d, d, const=0.3 * e[-1]), None)))


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
