"""The uniqueness twins stepped as whole batches that snapshot every step,
reduced from their (rows, steps + 1, n) snapshots: the independent
reference for `twodim._twin_block`, which steps them in time chunks and
reduces each chunk as it goes."""

from dataclasses import replace

import numpy as np
from stepper_oracle import generate_wiener

from sgns.galerkin import integrate_batch
from sgns.spectral import project_Pn


def twin_block(cfg, block: list, x1, x2, C_eps: float, gamma: float, checks: int = 0) -> tuple:
    """Twin pairs `block` (k of them) as one batch of 2k + checks rows on k
    Wiener paths, over all steps at once: u1 rows (from x1), u2 rows (from
    x2), then a second u1 for each of the first `checks` pairs.  Returns
    whether the compared rows coincide bitwise (None when none is
    compared), the lowest pair with an aborted row (None when none
    aborted), and the pairs' terminal and running ratios (zero at
    gamma = 0)."""
    k = len(block)
    dW = np.stack([generate_wiener(cfg.steps, cfg.M, cfg.dt, cfg.seed, r) for r in block], axis=1)
    ens = integrate_batch(cfg, block + block + block[:checks],
                          np.concatenate([dW, dW, dW[:, :checks]], axis=1),
                          x0=np.repeat(np.stack([x1, x2, x1]), [k, k, checks], axis=0))
    bad = np.flatnonzero(ens.aborted)
    aborted = block[int(np.min(bad % k))] if len(bad) else None
    u1, u2 = ens.snap_u[:k], ens.snap_u[k : 2 * k]
    compared = [(ens.snap_u[2 * k :], u1[:checks])] if checks else []
    if gamma == 0.0:
        compared.append((u1, u2))
    same = all(np.array_equal(a, b) for a, b in compared) if compared else None
    if gamma == 0.0:
        return same, aborted, np.zeros(k), np.zeros(k)
    U2 = np.add.reduce((u1 - u2) ** 2, axis=2)
    r_t = np.cumsum(ens.norm_D[k : 2 * k, :-1] ** 2, axis=1) * cfg.dt
    r_t = C_eps * np.concatenate([np.zeros((k, 1)), r_t], axis=1)
    weighted = np.exp(-r_t) * U2
    return same, aborted, weighted[:, -1] / weighted[:, 0], np.max(weighted, axis=1) / weighted[:, 0]


def twin_oracle(config, C_eps: float, gamma: float, n_traj: int, twins: int = 0) -> dict:
    """The twin experiment's `ratios_at_T`, `sup_ratios` and `identical`,
    and the lowest pair with an aborted row (`aborted`, None when none),
    from one every-step batch of all n_traj pairs and their check rows and
    one of the check pairs past n_traj, run a shift 0 apart."""
    basis = config.basis
    cfg = replace(config, snapshot_stride=1, records={"states"})
    pert = np.zeros(basis.n_modes)
    pert[0] = gamma
    x1 = basis.real_coords(project_Pn(config.u0, cfg.n), cfg.n)
    x2 = basis.real_coords(project_Pn(config.u0 + basis.field_from_real_coords(pert), cfg.n), cfg.n)
    same, aborted, ratios_T, sup_ratios = twin_block(
        cfg, list(range(n_traj)), x1, x2, C_eps, gamma, min(twins, n_traj))
    verdicts = [same]
    if twins > n_traj:
        late, late_aborted, _, _ = twin_block(cfg, list(range(n_traj, twins)), x1, x1, C_eps, 0.0)
        verdicts.append(late)
        aborted = late_aborted if aborted is None else aborted
    verdicts = [v for v in verdicts if v is not None]
    return dict(ratios_at_T=ratios_T, sup_ratios=sup_ratios, identical=all(verdicts) if verdicts else None,
                aborted=aborted)
