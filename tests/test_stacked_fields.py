"""Stacked fields: row r of a call on a stack of fields is bitwise the call on
field r alone, for every function that takes a stack and for any split of
the stack into grid blocks."""

import numpy as np
import pytest
from conftest import eval_physical, two_direction_model
from noise_oracle import apply_G_direction
from path_oracle import convection_path_bound

from sgns import spectral
from sgns.galerkin import GalerkinConfig, integrate_batch
from sgns.noise import NoiseModel, constant_transport_model, default_noise_model, noise_matrices
from sgns.nonlinear import TrilinearWorkspace, bilinear_B, trilinear_b
from sgns.spectral import Basis, SpaceScale, SpectralField, TorusDomain, inner, norm, random_field, stack
from sgns.twodim import l4_norm, ladyzhenskaya_check, trilinear_2d_bound

ROWS = 7


def fields(basis, seed):
    rng = np.random.default_rng(seed)
    return [random_field(basis, rng, decay=0.5) for _ in range(ROWS)]


def assert_rows_bitwise(stacked, singles):
    """Each row of the stacked result is the single-field result, bit for bit."""
    stacked = np.asarray(stacked)
    assert stacked.shape[0] == len(singles)
    for r, one in enumerate(singles):
        assert np.asarray(one).shape == stacked[r].shape
        assert np.asarray(one).tobytes() == stacked[r].tobytes(), f"row {r}"


# one field per block, a few fields per block at N = 68, and the default
@pytest.fixture(params=[1, 3 * 6 * 68**2, None], ids=["block1", "block3", "default"])
def grid_block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(spectral, "GRID_BLOCK", request.param)


def test_one_field_gives_floats(basis2d):
    u, v, w = (f[0] for f in (fields(basis2d, 1), fields(basis2d, 2), fields(basis2d, 3)))
    ws = TrilinearWorkspace(basis2d)
    for value in (norm(u, "V"), inner(u, v, "H"), trilinear_b(u, v, w, ws), l4_norm(u),
                  ladyzhenskaya_check(u), trilinear_2d_bound(u, v, w, ws)):
        assert type(value) is float


def test_spectral_maps_row_by_row(basis2d, basis3d_small):
    for basis in (basis2d, basis3d_small):
        us, vs = fields(basis, 1), fields(basis, 2)
        u, v = stack(us), stack(vs)
        assert_rows_bitwise(basis.to_exp_coeffs(u), [basis.to_exp_coeffs(f) for f in us])
        amp = basis.to_exp_coeffs(u)
        assert_rows_bitwise(basis.from_exp_coeffs(amp).coeffs,
                            [basis.from_exp_coeffs(a).coeffs for a in amp])
        x = basis.real_coords(u)
        assert_rows_bitwise(x, [basis.real_coords(f) for f in us])
        assert_rows_bitwise(basis.field_from_real_coords(x[:, :20]).coeffs,
                            [basis.field_from_real_coords(row[:20]).coeffs for row in x])
        for space in ("H", "V", "Udual"):
            assert_rows_bitwise(norm(u, space), [norm(f, space) for f in us])
            assert_rows_bitwise(inner(u, v, space), [inner(a, b, space) for a, b in zip(us, vs)])
        N = 4 * basis.domain.K + 2
        assert_rows_bitwise(eval_physical(u, N), [eval_physical(f, N) for f in us])


@pytest.mark.parametrize("N", [26, 34, 52, 68])
def test_grid_forms_row_by_row(basis2d, grid_block, N):
    us, vs, ws_ = fields(basis2d, 1), fields(basis2d, 2), fields(basis2d, 3)
    u, v, w = stack(us), stack(vs), stack(ws_)
    ws = TrilinearWorkspace(basis2d, grid_points=N)
    assert_rows_bitwise(trilinear_b(u, v, w, ws), [trilinear_b(*f, ws) for f in zip(us, vs, ws_)])
    assert_rows_bitwise(bilinear_B(u, w, ws).coeffs, [bilinear_B(a, b, ws).coeffs for a, b in zip(us, ws_)])
    assert_rows_bitwise(trilinear_2d_bound(u, v, w, ws),
                        [trilinear_2d_bound(*f, ws) for f in zip(us, vs, ws_)])
    if N >= 4 * basis2d.domain.K + 1:
        assert_rows_bitwise(l4_norm(u, N), [l4_norm(f, N) for f in us])
        assert_rows_bitwise(ladyzhenskaya_check(u, N), [ladyzhenskaya_check(f, N) for f in us])


def test_grid_forms_row_by_row_3d(basis3d_small, grid_block):
    us, vs, ws_ = fields(basis3d_small, 1), fields(basis3d_small, 2), fields(basis3d_small, 3)
    ws = TrilinearWorkspace(basis3d_small)
    assert_rows_bitwise(trilinear_b(stack(us), stack(vs), stack(ws_), ws),
                        [trilinear_b(*f, ws) for f in zip(us, vs, ws_)])
    assert_rows_bitwise(bilinear_B(stack(us), stack(ws_), ws).coeffs,
                        [bilinear_B(a, b, ws).coeffs for a, b in zip(us, ws_)])


def test_empty_stack_gives_empty_results(basis2d_small):
    empty = SpectralField(basis2d_small, np.zeros((0, basis2d_small.n_slots), dtype=complex))
    ws = TrilinearWorkspace(basis2d_small)
    assert bilinear_B(empty, empty, ws).coeffs.shape == (0, basis2d_small.n_slots)
    for value in (norm(empty, "H"), trilinear_b(empty, empty, empty, ws), l4_norm(empty),
                  ladyzhenskaya_check(empty), trilinear_2d_bound(empty, empty, empty, ws)):
        assert value.shape == (0,)


def test_two_stack_axes_keep_their_shape(basis2d):
    us = fields(basis2d, 1)
    u = SpectralField(basis2d, stack(us).coeffs[:6].reshape(2, 3, -1))
    ws = TrilinearWorkspace(basis2d)
    flat = trilinear_b(stack(us[:6]), stack(us[:6]), stack(us[:6]), ws)
    assert trilinear_b(u, u, u, ws).tobytes() == flat.reshape(2, 3).tobytes()
    assert ladyzhenskaya_check(u).shape == (2, 3)


def test_noise_direction_row_by_row(basis2d, basis3d_small):
    for basis in (basis2d, basis3d_small):
        d = basis.domain.d
        model = constant_transport_model([np.eye(d)[0], 0.5 * np.eye(d)[1]], [0.0, 0.3], d=d)
        us = fields(basis, 4)
        for i in range(model.M):
            assert_rows_bitwise(apply_G_direction(stack(us), i, model).coeffs,
                                [apply_G_direction(f, i, model).coeffs for f in us])


def c_only_model(d: int) -> NoiseModel:
    return constant_transport_model([np.zeros(d)], [0.7], d=d)


# (d, K, period, n): n = None is the full basis
LEVELS = {"2d_n12": (2, 3, (), 12), "2d_full": (2, 3, (), None), "3d_full": (3, 1, (), None),
          "2d_aniso": (2, 3, (1.0, 2.5), None), "2d_K8_n40": (2, 8, (), 40)}
MODELS = {"default": default_noise_model, "two": two_direction_model, "c_only": c_only_model}


def test_noise_matrices_are_the_single_field_columns(basis2d, grid_block):
    model = default_noise_model(2)
    n = 40
    (mat,) = noise_matrices(model, basis2d, n)
    assert mat.flags.c_contiguous
    for j in range(n):
        col = basis2d.real_coords(apply_G_direction(basis2d.basis_field(j), 0, model), n)
        assert col.tobytes() == np.ascontiguousarray(mat[:, j]).tobytes()


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("model_of", MODELS)
def test_noise_matrices_are_the_single_field_columns_per_model(model_of, level):
    # the oracle: the image of each basis field alone under apply_G_direction
    d, K, period, n = LEVELS[level]
    basis = Basis(TorusDomain(d=d, K=K, period=period), SpaceScale(d=d))
    model = MODELS[model_of](d)
    n = basis.n_modes if n is None else n
    mats = noise_matrices(model, basis, n)
    assert len(mats) == model.M
    for i, mat in enumerate(mats):
        assert mat.shape == (n, n) and mat.flags.c_contiguous
        for j in range(n):
            col = basis.real_coords(apply_G_direction(basis.basis_field(j), i, model), n)
            assert col.tobytes() == np.ascontiguousarray(mat[:, j]).tobytes(), f"direction {i}, column {j}"


def test_path_bound_row_by_row(basis2d_small, grid_block):
    rng = np.random.default_rng(5)
    cfg = GalerkinConfig(basis=basis2d_small, n=10, dt=1e-3, T=0.04,
                         u0=random_field(basis2d_small, rng, n=8, decay=0.5),
                         model=default_noise_model(2), seed=3, snapshot_stride=5)
    ens = integrate_batch(cfg, range(4))
    ws = TrilinearWorkspace(basis2d_small)
    rep = convection_path_bound(ens, ws)
    for r in range(4):
        one = convection_path_bound(ens.rows([r]), ws)
        for field in ("ratio", "b_l2_vdual", "sup_H", "l2_V"):
            assert getattr(one, field).tobytes() == getattr(rep, field)[r : r + 1].tobytes()
