import numpy as np
import pytest

from sgns import galerkin, spectral
from sgns.noise import HarmonicField, NoiseModel
from sgns.spectral import Basis, SpaceScale, SpectralField, TorusDomain


def mode_id(basis, k, role=None) -> int:
    """Id of the first real mode, in mode order, of wavevector k (and of the
    given role, ROLE_COS or ROLE_SIN), read off the basis' mode table."""
    hit = np.all(basis.mode_k == k, axis=1)
    if role is not None:
        hit &= basis.mode_role == role
    return int(np.flatnonzero(hit)[0])


def triplets(config) -> int:
    """Convection triplets of config's compiled system: BLOCK_CACHE = r
    x triplets gives blocks of r rows (`galerkin.cache_rows`)."""
    return len(galerkin._compiled(config.basis, config.n, config.model, config.include_B)._V)


def walk_in_chunks(monkeypatch, rows: int, n: int, chunk: int) -> None:
    """Set GRID_BLOCK so that `galerkin.step_chunks` walks a batch of `rows`
    rows of n coordinates in chunks of `chunk` steps (row_blocks over the
    steps at rows x n values per step)."""
    monkeypatch.setattr(spectral, "GRID_BLOCK", chunk * rows * n)


def partial_derivative(u: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis as the per-slot multiplier i*kappa_axis (stays solenoidal)."""
    return SpectralField(u.basis, 1j * u.basis.slot_kappa[:, axis] * u.coeffs)


def eval_physical(u: SpectralField, grid_points_per_axis: int) -> np.ndarray:
    """Sample the real field(s) on the uniform N^d grid, (..., N, ..., N, d);
    exact for N >= 2K+2."""
    basis = u.basis
    return np.moveaxis(basis.grid_values(basis.to_exp_coeffs(u), int(grid_points_per_axis)), 0, -1)


def two_direction_model(d: int) -> NoiseModel:
    """A harmonic b with a harmonic c, and a constant b along the last axis."""
    e = np.eye(d, dtype=int)
    b = HarmonicField.build(d, d, const=0.4 * e[0], harmonics=[(e[0] + e[1], 0.1 * e[1], 0.05 * e[0])])
    c = HarmonicField.build(d, 1, const=[0.2], harmonics=[(e[0], [0.1], None)])
    return NoiseModel(d=d, directions=((b, c), (HarmonicField.build(d, d, const=0.3 * e[-1]), None)))


@pytest.fixture(scope="session")
def basis2d():
    """Default verification basis: d=2, K=8, s=2.5, s_U=4.5."""
    return Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))


@pytest.fixture(scope="session")
def basis2d_small():
    return Basis(TorusDomain(d=2, K=3), SpaceScale(d=2))


@pytest.fixture(scope="session")
def basis3d_small():
    return Basis(TorusDomain(d=3, K=2), SpaceScale(d=3))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
