"""The per-step energy ledger as seven (paths, steps) arrays, replayed one
path and one step at a time, and the reduction of those arrays to each
path's worst relative residual and Ito and Hilbert-Schmidt sums: the
independent reference for the per-path ledger that `galerkin._integrate_rows`
reduces while it steps."""

import numpy as np

from sgns import galerkin

# each step's drift, taming, forcing and martingale work, |du|^2, and the
# Ito and Hilbert-Schmidt increments
LEDGER_STEPS = ("drift_work", "b_work", "forcing_work", "mart_work", "delta_sq", "ito_step", "hs_step")


def ledger_arrays(ens, dW=None) -> dict:
    """The seven (R, steps) ledger arrays of the paths of `ens`, by name.

    Each path is replayed alone from its recorded start `snap_u[:, 0]`,
    driven by its Philox stream or by its column of `dW` (steps, R, M), with
    the stepper's step `galerkin._step`, until its state passes the overflow
    limit or leaves the finite range; its entries from that step on are 0."""
    cfg = ens.config
    sys = galerkin._compiled(cfg.basis, cfg.n, cfg.model, cfg.include_B)
    steps, dt = cfg.steps, cfg.dt
    if dW is None:
        dW = np.stack([galerkin.generate_wiener(steps, cfg.M, dt, cfg.seed, i) for i in ens.indices.tolist()],
                      axis=1)
    forced = cfg.forcing is not None
    f = cfg.basis.real_coords(cfg.forcing, cfg.n) if forced else np.zeros(cfg.n)
    limit = min(cfg.overflow_limit, np.finfo(np.float64).max)
    led = {name: np.zeros((len(ens), steps)) for name in LEDGER_STEPS}
    with np.errstate(over="ignore", invalid="ignore"):
        for r in range(len(ens)):
            x = ens.snap_u[r : r + 1, 0].copy()
            for j in range(steps):
                _, d2, u2 = galerkin._sq_norms(sys, x)
                x_new, theta, _, bx, g, xi = galerkin._step(sys, cfg, cfg.cutoff, x, np.sqrt(u2), f, dW[j, [r]])
                b_factor = -2.0 * dt if theta is None else -2.0 * dt * theta
                led["b_work"][r, j] = (b_factor * np.add.reduce(x * bx, axis=1))[0]
                led["mart_work"][r, j] = 2.0 * np.add.reduce(x * xi, axis=1)[0]
                led["ito_step"][r, j] = np.add.reduce(xi * xi, axis=1)[0]
                if forced:
                    led["forcing_work"][r, j] = 2.0 * dt * np.add.reduce(x * f, axis=1)[0]
                if g is not None:
                    led["hs_step"][r, j] = np.add.reduce((g * g).reshape(1, -1), axis=1)[0] * dt
                led["drift_work"][r, j] = -2.0 * dt * d2[0]
                led["delta_sq"][r, j] = np.add.reduce((x_new - x) ** 2, axis=1)[0]
                x = x_new
                if not np.max(np.abs(x)) <= limit:
                    break
    return led


def ledger_reduction(ens, led) -> tuple:
    """(worst, ito_sum, hs_sum), each (R,): every path's worst relative
    residual of the energy identity over the steps before its abort, from
    the ledger arrays `led` and the norms of `ens`, NaN residuals skipped
    and masked steps reading 0; and the per-path sums of its Ito and
    Hilbert-Schmidt increments."""
    steps = ens.config.steps
    upto = np.where(ens.aborted, ens.abort_step, steps)
    h2 = ens.norm_H**2
    rhs = led["drift_work"] + led["b_work"] + led["forcing_work"] + led["mart_work"] + led["delta_sq"]
    with np.errstate(invalid="ignore"):
        err = np.abs(np.diff(h2, axis=1) - rhs)
        err /= np.maximum(np.maximum(np.maximum(np.abs(rhs), h2[:, 1:]), h2[:, :-1]), 1.0)
    err[np.arange(steps) >= upto[:, None]] = 0.0
    return np.fmax.reduce(err, axis=1), np.sum(led["ito_step"], axis=1), np.sum(led["hs_step"], axis=1)


def budget_report(ens, led) -> galerkin.EnergyBudgetReport:
    """The energy budget of `ens` from the ledger arrays `led`: the worst
    residual over all paths (0 with none), and the z-score of the paths'
    Ito sum less Hilbert-Schmidt sum over the paths that did not abort."""
    worst, ito, hs = ledger_reduction(ens, led)
    live = ~ens.aborted
    return galerkin.EnergyBudgetReport(max_relative_residual=float(np.fmax.reduce(worst, initial=0.0)),
                                       ito_zscore=galerkin._zscore(ito[live] - hs[live]),
                                       trajectories=len(ens))
