import math

import numpy as np
import pytest
from conftest import eval_physical, mode_id, partial_derivative

from sgns.spectral import (
    ROLE_COS,
    Basis,
    SpaceScale,
    TorusDomain,
    apply_operator,
    grid_points,
    inner,
    norm,
    project_Pn,
    random_field,
)


def test_mode_count_2d():
    # max-norm box [-1,1]^2 minus the origin: 8 lattice vectors
    modes = Basis(TorusDomain(d=2, K=1), SpaceScale(d=2)).mode_k.tolist()
    assert len(modes) == 8
    ks = {tuple(k) for k in modes}
    assert {(-1, 0), (0, -1), (0, 1), (1, 0)} <= ks
    # axis modes (|k|^2 = 1) precede the corners (|k|^2 = 2)
    assert [tuple(k) for k in modes[:4]] == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_mode_count_3d():
    modes = Basis(TorusDomain(d=3, K=1), SpaceScale(d=3)).mode_k
    assert len(modes) == 26 * 2  # 3^3 - 1 lattice vectors x 2 polarizations


def test_mode_ordering_tiebreak():
    basis = Basis(TorusDomain(d=2, K=2), SpaceScale(d=2, s_U=4.0))
    assert tuple(basis.mode_k[0].tolist()) == (-1, 0)
    assert tuple(basis.mode_k[1].tolist()) == (0, -1)
    lams = basis.mode_lambda.tolist()
    assert all(a <= b for a, b in zip(lams, lams[1:]))


def test_modes_deterministic():
    a = Basis(TorusDomain(d=2, K=3), SpaceScale(d=2))
    b = Basis(TorusDomain(d=2, K=3), SpaceScale(d=2))
    for name in ("mode_k", "mode_p", "mode_role"):
        assert np.array_equal(getattr(a, name), getattr(b, name))


def test_polarizations_orthogonal():
    basis = Basis(TorusDomain(d=3, K=2), SpaceScale(d=3))
    for k, slot in zip(basis.mode_k, basis.mode_slot):
        kap = basis.domain.kappa(k)
        assert abs(np.dot(kap, basis.slot_eps[slot])) < 1e-13
    # polarizations for a fixed k are orthonormal
    for slot in range(0, basis.n_slots, 2):
        e1, e2 = basis.slot_eps[slot], basis.slot_eps[slot + 1]
        assert abs(np.dot(e1, e2)) < 1e-13
        assert abs(np.dot(e1, e1) - 1) < 1e-13


def loop_polarizations(kappa: np.ndarray) -> np.ndarray:
    """The polarizations of one wavevector kappa at a time, each normed by
    np.linalg.norm: the reference for the batched `_polarizations`."""
    if len(kappa) == 2:
        e = np.array([-kappa[1], kappa[0]])
        return (e / np.linalg.norm(e))[None, :]
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(kappa)))] = 1.0
    e1 = np.cross(kappa, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(kappa, e1)
    e2 /= np.linalg.norm(e2)
    return np.stack([e1, e2])


@pytest.mark.parametrize("d, K, period", [(2, 8, None), (2, 3, (1.0, 2.5)), (3, 2, None), (3, 4, None),
                                          (3, 8, None), (3, 2, (1.0, 2.0, 3.5))])
def test_polarizations_are_those_of_a_loop_bitwise(d, K, period):
    domain = TorusDomain(d=d, K=K) if period is None else TorusDomain(d=d, K=K, period=period)
    basis = Basis(domain, SpaceScale(d=d))
    canon = basis.slot_k[:: basis.npol]
    want = np.concatenate([loop_polarizations(domain.kappa(k)) for k in canon])
    assert np.array_equal(basis.slot_eps.view(np.int64), want.view(np.int64))


def test_basis_fields_orthonormal(basis2d_small):
    b = basis2d_small
    n = min(12, b.n_modes)
    for i in range(n):
        for j in range(n):
            val = inner(b.basis_field(i), b.basis_field(j), "H")
            assert abs(val - (1.0 if i == j else 0.0)) < 1e-14


def test_ei_ej_U_eigen_identity(basis2d_small):
    # (e_i | e_j)_U = lambda_i delta_ij
    b = basis2d_small
    for i in range(0, b.n_modes, 5):
        for j in range(0, b.n_modes, 7):
            val = inner(b.basis_field(i), b.basis_field(j), "U")
            expect = b.mode_lambda[i] if i == j else 0.0
            assert abs(val - expect) <= 1e-12 * max(1.0, b.mode_lambda[i])


def test_lambda_is_U_norm_squared(basis2d_small):
    b = basis2d_small
    for i in range(b.n_modes):
        assert abs(norm(b.basis_field(i), "U") ** 2 - b.mode_lambda[i]) <= 1e-12 * b.mode_lambda[i]


def test_zero_field_norms(basis2d_small):
    z = basis2d_small.zero_field()
    for sp in ("H", "D", "V", "Vs", "U", "Udual"):
        assert norm(z, sp) == 0.0


def test_single_mode_norms(basis2d_small):
    # |k|^2 = 1 mode: H-norm 1 -> D-seminorm 1, V-norm sqrt(2)
    b = basis2d_small
    i = mode_id(b, (-1, 0))  # the first |k|^2 = 1 mode
    e = b.basis_field(i)
    assert abs(norm(e, "H") - 1.0) < 1e-14
    assert abs(norm(e, "D") - 1.0) < 1e-14
    assert abs(norm(e, "V") - math.sqrt(2.0)) < 1e-14


def test_V_norm_pythagoras(basis2d, rng):
    for _ in range(20):
        u = random_field(basis2d, rng)
        lhs = norm(u, "V") ** 2
        rhs = norm(u, "H") ** 2 + norm(u, "D") ** 2
        assert abs(lhs - rhs) <= 1e-12 * max(lhs, 1.0)


def test_inner_V_additivity(basis2d, rng):
    for _ in range(20):
        u = random_field(basis2d, rng)
        v = random_field(basis2d, rng)
        gap = inner(u, v, "V") - inner(u, v, "H") - inner(u, v, "D")
        scale = max(1.0, abs(inner(u, v, "V")))
        assert abs(gap) <= 1e-12 * scale


def test_norm_tower_nested(basis2d, rng):
    for _ in range(10):
        u = random_field(basis2d, rng)
        seq = [norm(u, sp) for sp in ("Udual", "H", "V", "Vs", "U")]
        assert all(a <= b * (1 + 1e-13) for a, b in zip(seq, seq[1:]))


def conjugate_amplitudes(b, raw: dict) -> np.ndarray:
    """Lattice amplitudes (rows, d) with raw[k] at k and its conjugate at -k."""
    amp = np.zeros((len(b.lattice_k), b.domain.d), dtype=complex)
    for k, v in raw.items():
        amp[b.lattice_rows(k)] = v
        amp[b.lattice_rows(tuple(-x for x in k))] = np.conj(v)
    return amp


def test_leray_kills_gradients(basis2d_small):
    # from_exp_coeffs is the Leray projection
    b = basis2d_small
    # k-parallel amplitude at k=(1,0) projects to zero
    u = b.from_exp_coeffs(conjugate_amplitudes(b, {(1, 0): np.array([1.0 + 0.5j, 0.0])}))
    assert norm(u, "H") < 1e-14
    # already-solenoidal amplitude at k=(1,0) is unchanged
    v = b.from_exp_coeffs(conjugate_amplitudes(b, {(1, 0): np.array([0.0, 2.0 + 1.0j])}))
    amp = b.to_exp_coeffs(v)
    row = b.lattice_rows((1, 0))
    assert np.allclose(amp[row], [0.0, 2.0 + 1.0j], atol=1e-13)


@pytest.mark.parametrize("fixture", ["basis2d_small", "basis3d_small"])
def test_lattice_rows(fixture, request):
    b = request.getfixturevalue(fixture)
    K, d = b.domain.K, b.domain.d
    assert np.array_equal(b.lattice_rows(b.lattice_k), np.arange(len(b.lattice_k)))
    # the zero vector, off the lattice inside the box, outside the box
    e = np.eye(d, dtype=int)[0]
    assert np.array_equal(b.lattice_rows([0 * e, (K + 1) * e, (2 * K + 1) * e, -5 * K * e]), [-1] * 4)


def test_leray_idempotent(basis2d_small, rng):
    b = basis2d_small
    raw = {}
    for k in b.lattice_k:
        if tuple(k) > tuple(-k):
            raw[tuple(int(v) for v in k)] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    once = b.from_exp_coeffs(conjugate_amplitudes(b, raw))
    twice = b.from_exp_coeffs(b.to_exp_coeffs(once))
    assert np.allclose(once.coeffs, twice.coeffs, atol=1e-13)


def test_operator_multipliers(basis2d_small):
    b = basis2d_small
    i = mode_id(b, (1, 1))
    e = b.basis_field(i)
    assert abs(inner(apply_operator(e, "A"), e, "H") - 3.0) < 1e-13


def test_A_minus_I_is_Acal(basis2d, rng):
    for _ in range(20):
        u = random_field(basis2d, rng)
        gap = apply_operator(u, "A") - u - apply_operator(u, "Acal")
        assert norm(gap, "H") <= 1e-12 * max(1.0, norm(u, "V"))


def test_L_factorization(basis2d):
    from sgns.spectral import operator_multiplier

    mL = operator_multiplier(basis2d, "L")
    prod = (
        operator_multiplier(basis2d, "A")
        * operator_multiplier(basis2d, "As")
        * operator_multiplier(basis2d, "Ls")
    )
    assert np.allclose(mL, prod, rtol=1e-12)


def test_duality_identities(basis2d, rng):
    for _ in range(20):
        u = random_field(basis2d, rng)
        v = random_field(basis2d, rng)
        lhs = inner(apply_operator(u, "A"), v, "H")
        rhs = inner(u, v, "V")
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
        lhs = inner(apply_operator(u, "L"), v, "H")
        rhs = inner(u, v, "U")
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_Acal_dual_norm_bound(basis2d, rng):
    # |Acal u|_{V'} <= ||u||_D
    for _ in range(50):
        u = random_field(basis2d, rng)
        assert norm(apply_operator(u, "Acal"), "Vdual") <= norm(u, "D") * (1 + 1e-13)


def test_projection_basics(basis2d_small, rng):
    b = basis2d_small
    n = b.n_modes // 2
    for i in range(b.n_modes):
        e = b.basis_field(i)
        p = project_Pn(e, n)
        expect = 1.0 if i < n else 0.0
        assert abs(norm(p, "H") - expect) < 1e-14
    for _ in range(10):
        u = random_field(b, rng)
        p = project_Pn(u, n)
        assert norm(p, "H") <= norm(u, "H") * (1 + 1e-13)
        assert norm(p, "U") <= norm(u, "U") * (1 + 1e-13)


def test_projection_duality(basis2d, rng):
    # (P_n u* | v)_H = <u*, P_n v> with dual functionals realized spectrally
    n = 37
    for _ in range(20):
        ustar = random_field(basis2d, rng)
        v = random_field(basis2d, rng)
        lhs = inner(project_Pn(ustar, n), v, "H")
        rhs = inner(ustar, project_Pn(v, n), "H")
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_projection_converges_in_U(basis2d_small, rng):
    b = basis2d_small
    u = random_field(b, rng)
    errs = [norm(project_Pn(u, n) - u, "U") for n in range(1, b.n_modes + 1)]
    assert all(a >= b_ - 1e-13 for a, b_ in zip(errs, errs[1:]))
    assert errs[-1] < 1e-13


def test_out_of_range_projection(basis2d_small, rng):
    u = random_field(basis2d_small, rng)
    with pytest.raises(ValueError):
        project_Pn(u, 0)
    with pytest.raises(ValueError):
        project_Pn(u, basis2d_small.n_modes + 1)


def test_eval_physical_single_mode(basis2d_small):
    b = basis2d_small
    i = mode_id(b, (1, 0), ROLE_COS)
    e = b.basis_field(i)
    N = 16
    samples = eval_physical(e, N)
    pts = grid_points(b.domain, N)
    vol = b.domain.volume
    expect = math.sqrt(2.0 / vol) * np.cos(pts[..., 0])[..., None] * np.array([0.0, 1.0])
    assert np.max(np.abs(samples - expect)) < 1e-12


def test_eval_physical_parseval(basis2d, rng):
    N = 2 * basis2d.domain.K + 2
    vol = basis2d.domain.volume
    for _ in range(5):
        u = random_field(basis2d, rng)
        samples = eval_physical(u, N)
        quad = np.mean(np.sum(samples**2, axis=-1)) * vol
        assert abs(quad - norm(u, "H") ** 2) <= 1e-10 * max(1.0, quad)


def test_partial_derivative_matches_grid(basis2d_small, rng):
    b = basis2d_small
    u = random_field(b, rng)
    N = 4 * b.domain.K + 2
    du = eval_physical(partial_derivative(u, 0), N)
    samples = eval_physical(u, N)
    spec = np.fft.fftn(samples, axes=(0, 1))
    kx = np.fft.fftfreq(N, d=b.domain.period[0] / N) * 2 * math.pi
    dspec = 1j * kx[:, None, None] * spec
    expected = np.fft.ifftn(dspec, axes=(0, 1)).real
    assert np.max(np.abs(du - expected)) < 1e-10


def test_reality_of_samples(basis3d_small, rng):
    u = random_field(basis3d_small, rng)
    N = 2 * basis3d_small.domain.K + 2
    amp = basis3d_small.to_exp_coeffs(u)
    spec = np.zeros((N, N, N, 3), dtype=complex)
    idx = tuple(np.mod(basis3d_small.lattice_k[:, j], N) for j in range(3))
    spec[idx] = amp
    raw = np.fft.ifftn(spec, axes=(0, 1, 2)) * N**3
    assert np.max(np.abs(raw.imag)) < 1e-12


def test_coords_roundtrip(basis2d_small, rng):
    b = basis2d_small
    x = rng.standard_normal(b.n_modes)
    u = b.field_from_real_coords(x)
    assert np.allclose(b.real_coords(u), x, atol=1e-14)


def test_divergence_free_on_grid(basis2d_small, rng):
    b = basis2d_small
    u = random_field(b, rng)
    div = eval_physical(partial_derivative(u, 0), 16)[..., 0] + eval_physical(
        partial_derivative(u, 1), 16
    )[..., 1]
    assert np.max(np.abs(div)) < 1e-11


def test_invalid_domain():
    with pytest.raises(ValueError):
        TorusDomain(d=4, K=2)
    with pytest.raises(ValueError):
        TorusDomain(d=2, K=0)
    with pytest.raises(ValueError):
        SpaceScale(d=2, s=1.5)
    with pytest.raises(ValueError):
        SpaceScale(d=2, s=2.5, s_U=2.0)
