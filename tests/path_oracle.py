"""Path diagnostics that only the tests read: the per-row J-term increments
of the path decomposition with its identity residual, the 2D path-level
convection bound, and a bounded path functional to weigh the martingale
z-scores by.  Each reads one `galerkin.Ensemble` that recorded what it
needs, and raises ValueError naming a missing record as the library's
readers do."""

import math
from dataclasses import dataclass

import numpy as np

from sgns.galerkin import INTEGRALS, Ensemble, _grid_positions, float_map, require_records
from sgns.nonlinear import TrilinearWorkspace, bilinear_B
from sgns.spectral import norm, row_blocks
from sgns.twodim import _require_2d


def h_tanh_sup(ens: Ensemble, step: int) -> np.ndarray:
    """Bounded functional of each path up to the conditioning time."""
    return float_map(lambda sup: math.tanh(sup**2), np.max(ens.norm_H[:, : step + 1], axis=1))


def decomposition_increments(ens: Ensemble, tau: float, theta: float) -> dict:
    """Increments (R, n) of each row's drift/forcing/noise integrals over
    [tau, tau + theta], both on the snapshot grid, plus the worst
    decomposition-identity residual over the rows against the increments of
    the paths themselves.  The ensemble must have recorded the drift and
    noise integrals and the states (`GalerkinConfig.records`)."""
    cfg = ens.config
    require_records(cfg, "decomposition_increments", "integral_drift", "integral_noise", "states")
    a, b = _grid_positions(cfg.snap_times, (tau, tau + theta), cfg.dt)
    out = {name: ens.snap_integrals[name][:, b] - ens.snap_integrals[name][:, a] for name in INTEGRALS}
    residual = float(np.max(np.abs(ens.snap_u[:, b] - ens.snap_u[:, a] - sum(out.values()))))
    return {"increments": out, "identity_residual": residual}


@dataclass
class PathBoundReport:
    """Per-row (R,) values of the path-level bound."""

    ratio: np.ndarray
    b_l2_vdual: np.ndarray
    sup_H: np.ndarray
    l2_V: np.ndarray


def convection_path_bound(ens: Ensemble, ws: TrilinearWorkspace) -> PathBoundReport:
    """Path-level bound ||B(u)||_{L2(0,T;V')} <= sqrt(2) |u|_{Linf H} ||u||_{L2 V}
    evaluated on the snapshot grid of each row of an Ensemble, in its
    config's basis, which the workspace must be of (ratio 0 where the bound
    is 0).  The snapshot fields are taken as stacks, in row blocks, from an
    ensemble that recorded the states."""
    basis = ens.config.basis
    _require_2d(basis)
    require_records(ens.config, "convection_path_bound", "states")
    if ws.basis is not basis:
        raise ValueError("the workspace is of another basis than the ensemble's config")
    times = ens.config.snap_times
    if len(times) < 2:
        raise ValueError("record carries too few snapshots")
    norms = np.zeros((3, len(ens), len(times)))
    for rows in row_blocks(len(ens), len(times) * ws.field_values):
        u = basis.field_from_real_coords(ens.snap_u[rows])
        norms[:, rows] = norm(bilinear_B(u, u, ws), "Vdual") ** 2, norm(u, "V") ** 2, norm(u, "H")
    b2, v2, h = norms
    supH = np.max(h, axis=1)
    dts = np.diff(times)
    int_b = np.sum(b2[:, :-1] * dts, axis=1)
    int_v = np.sum(v2[:, :-1] * dts, axis=1)
    denom = 2.0**0.5 * supH * np.sqrt(int_v)
    ratio = np.divide(np.sqrt(int_b), denom, out=np.zeros(len(ens)), where=denom > 0)
    return PathBoundReport(ratio=ratio, b_l2_vdual=np.sqrt(int_b), sup_H=supH, l2_V=np.sqrt(int_v))
