import numpy as np
import pytest

from sgns.nonlinear import (
    CutoffSpec,
    TrilinearWorkspace,
    bilinear_B,
    local_lipschitz_B,
    trilinear_b,
    truncated_Bn,
)
from sgns.spectral import (
    Basis,
    SpaceScale,
    TorusDomain,
    eval_physical,
    inner,
    norm,
    partial_derivative,
    project_Pn,
    random_field,
)


@pytest.fixture(scope="module")
def ws(basis2d_small):
    return TrilinearWorkspace(basis2d_small)


def quadrature_b(u, w, v, N=None):
    """Independent grid-quadrature oracle for the convection integral."""
    basis = u.basis
    if N is None:
        N = 4 * basis.domain.K + 2
    ug = eval_physical(u, N)
    vg = eval_physical(v, N)
    prod = np.zeros_like(ug)
    for j in range(basis.domain.d):
        prod += ug[..., j : j + 1] * eval_physical(partial_derivative(w, j), N)
    return float(np.mean(np.sum(prod * vg, axis=-1)) * basis.domain.volume)


def test_b_vanishes_on_diagonal(ws, basis2d_small, rng):
    for _ in range(30):
        u = random_field(basis2d_small, rng)
        v = random_field(basis2d_small, rng)
        val = trilinear_b(u, v, v, ws)
        assert abs(val) <= 1e-12 * max(1.0, norm(u, "H") * norm(v, "V") ** 2)


def test_b_antisymmetry(ws, basis2d_small, rng):
    for _ in range(30):
        u = random_field(basis2d_small, rng)
        w = random_field(basis2d_small, rng)
        v = random_field(basis2d_small, rng)
        lhs = trilinear_b(u, w, v, ws)
        rhs = -trilinear_b(u, v, w, ws)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


def test_single_mode_triple_against_quadrature(ws, basis2d_small):
    b = basis2d_small
    picks = [(0, 3, 5), (2, 7, 4), (1, 1, 8)]
    for i, j, k in picks:
        u, w, v = b.basis_field(i), b.basis_field(j), b.basis_field(k)
        spectral = trilinear_b(u, w, v, ws)
        quad = quadrature_b(u, w, v)
        assert abs(spectral - quad) <= 1e-10 * max(1.0, abs(quad))


def test_random_triples_against_quadrature(ws, basis2d_small, rng):
    for _ in range(5):
        u = random_field(basis2d_small, rng)
        w = random_field(basis2d_small, rng)
        v = random_field(basis2d_small, rng)
        spectral = trilinear_b(u, w, v, ws)
        quad = quadrature_b(u, w, v)
        assert abs(spectral - quad) <= 1e-10 * max(1.0, abs(quad))


def test_b_3d(basis3d_small, rng):
    ws3 = TrilinearWorkspace(basis3d_small)
    for _ in range(3):
        u = random_field(basis3d_small, rng)
        w = random_field(basis3d_small, rng)
        v = random_field(basis3d_small, rng)
        assert abs(trilinear_b(u, v, v, ws3)) <= 1e-12 * max(1.0, norm(u, "H") * norm(v, "V") ** 2)
        spectral = trilinear_b(u, w, v, ws3)
        quad = quadrature_b(u, w, v)
        assert abs(spectral - quad) <= 1e-10 * max(1.0, abs(quad))


def test_bilinear_B_pairing(ws, basis2d_small, rng):
    for _ in range(30):
        u = random_field(basis2d_small, rng)
        w = random_field(basis2d_small, rng)
        v = random_field(basis2d_small, rng)
        Buw = bilinear_B(u, w, ws)
        lhs = inner(Buw, v, "H")
        rhs = trilinear_b(u, w, v, ws)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_bilinear_B_zero(ws, basis2d_small, rng):
    z = basis2d_small.zero_field()
    u = random_field(basis2d_small, rng)
    assert norm(bilinear_B(z, u, ws), "H") == 0.0
    assert norm(bilinear_B(u, z, ws), "H") == 0.0


def test_bilinear_B_rejects_fields_of_another_basis():
    # a field of the period-1 torus read through the 2 pi workspace of the
    # same K would be scaled by the wrong wavevectors; every form built on
    # the product raises instead
    own = Basis(TorusDomain(d=2, K=5, period=(1.0, 1.0)), SpaceScale(d=2))
    other = TrilinearWorkspace(Basis(TorusDomain(d=2, K=5), SpaceScale(d=2)))
    u = random_field(own, np.random.default_rng(0), decay=0.5)
    assert np.isfinite(norm(bilinear_B(u, u, TrilinearWorkspace(own)), "H"))
    for call in (lambda: bilinear_B(u, u, other), lambda: trilinear_b(u, u, u, other),
                 lambda: truncated_Bn(u, 4, CutoffSpec(1.0), other)):
        with pytest.raises(ValueError, match="different bases"):
            call()


def test_B_ext_bound_recorded(ws, basis2d_small, rng):
    # |B(u,u)|_{Vs'} <= c |u|_H^2 with one finite c across samples
    cs = []
    for _ in range(100):
        u = random_field(basis2d_small, rng)
        h2 = norm(u, "H") ** 2
        if h2 == 0:
            continue
        cs.append(norm(bilinear_B(u, u, ws), "Vsdual") / h2)
    c = max(cs)
    assert np.isfinite(c)
    assert c > 0


def test_cutoff_profile():
    cut = CutoffSpec(level=3.0)
    assert cut.theta(2.0) == 1.0
    assert cut.theta(3.0) == 1.0
    assert cut.theta(4.0) == 0.0
    assert cut.theta(5.0) == 0.0
    rs = np.linspace(3.0, 4.0, 101)
    vals = [cut.theta(r) for r in rs]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    # C^1 at the endpoints: derivative vanishes there
    h = 1e-6
    assert abs((cut.theta(3.0 + h) - cut.theta(3.0)) / h) < 1e-4
    assert abs((cut.theta(4.0) - cut.theta(4.0 - h)) / h) < 1e-4


def test_truncated_Bn_branches(ws, basis2d_small, rng):
    b = basis2d_small
    n = 8
    u = random_field(b, rng, n=n)
    level = norm(u, "Udual") + 1.0
    full = truncated_Bn(u, n, CutoffSpec(level), ws)
    plain = project_Pn(bilinear_B(u, u, ws), n)
    assert np.allclose(full.coeffs, plain.coeffs, atol=1e-14)
    tiny = CutoffSpec(level=max(norm(u, "Udual") - 1.0, 1e-6))
    if norm(u, "Udual") >= tiny.level + 1.0:
        assert norm(truncated_Bn(u, n, tiny, ws), "H") == 0.0


def test_truncated_Bn_cancellation(ws, basis2d_small, rng):
    n = 10
    cut = CutoffSpec(level=2.0)
    for _ in range(20):
        u = project_Pn(random_field(basis2d_small, rng), n)
        val = inner(truncated_Bn(u, n, cut, ws), u, "H")
        assert abs(val) <= 1e-12 * max(1.0, norm(u, "H") * norm(u, "V") ** 2)


def test_truncated_Bn_lipschitz_recorded(ws, basis2d_small, rng):
    n = 8
    cut = CutoffSpec(level=2.0)
    worst = 0.0
    for _ in range(100):
        u = project_Pn(random_field(basis2d_small, rng), n)
        v = project_Pn(random_field(basis2d_small, rng), n)
        dn = norm(u - v, "H")
        if dn == 0:
            continue
        gap = norm(truncated_Bn(u, n, cut, ws) - truncated_Bn(v, n, cut, ws), "H")
        worst = max(worst, gap / dn)
    assert np.isfinite(worst)


def test_local_lipschitz_certified(ws):
    rep = local_lipschitz_B(ws, r=2.0, samples=50, seed=7)
    assert rep.pairs_used == 50
    assert rep.violations == 0
    assert rep.max_ratio <= rep.certified_bound * (1 + 1e-12)


def test_local_lipschitz_bound_scales(ws):
    rep1 = local_lipschitz_B(ws, r=1.5, samples=20, seed=3)
    rep2 = local_lipschitz_B(ws, r=3.0, samples=20, seed=3)
    assert abs(rep2.certified_bound - 2.0 * rep1.certified_bound) <= 1e-10 * rep1.certified_bound


def test_local_lipschitz_rejects_bad_args(ws):
    with pytest.raises(ValueError):
        local_lipschitz_B(ws, r=1.0, samples=0)
    with pytest.raises(ValueError):
        local_lipschitz_B(ws, r=-1.0, samples=5)
