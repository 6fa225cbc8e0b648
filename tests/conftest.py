import numpy as np
import pytest

from sgns import galerkin
from sgns.spectral import Basis, SpaceScale, TorusDomain


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
