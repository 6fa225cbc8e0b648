"""The stepper as one loop over every step of a block: the independent
reference for `galerkin.step_chunks` and its Ensemble writer
`galerkin._integrate_rows`, which walk the steps in time chunks.

The loop draws each row's increments for all steps at once
(`generate_wiener`), keeps every step's norms and state, writes the states,
running integrals and quadratic variations at each snapshot step, and
folds the energy ledger every `LEDGER_CHUNK` steps.  After the loop it
zeroes what an aborted row steps on to, and reduces the whole arrays: the
per-path maxima, sums and lag reductions are `np.max` and `np.sum` of the
(B, steps + 1) norm and (B, steps) ledger arrays, the brute-force lag
oracles of the path and the running-maximum loop over its norms.  Its
squared norms are the weighted
sums of one (B, 3, n) broadcast and its convection scatters the segment
sums into zeros, as the stepper's did before it was chunked; every other
operation is the stepper's, so a walk in any chunks must give this loop's
bits."""

import math

import numpy as np
from lag_oracle import brute_modulus, pair_increment_norms, running_maxima

from sgns.galerkin import INTEGRALS, _compiled, _stacked, integral_record
from sgns.spectral import project_Pn

# steps whose ledger terms the loop buffers before folding them
LEDGER_CHUNK = 64


def generate_wiener(steps: int, M: int, dt: float, seed: int, traj_index: int = 0) -> np.ndarray:
    """Increments (steps, M) of the truncated cylindrical Wiener process of
    trajectory `traj_index`, N(0, dt) each, drawn at once from the Philox
    stream keyed by (seed, traj_index).  The key is built here, not taken
    from the stepper, so a walk that draws its own stream in chunks is
    checked on its keying as well as its draws."""
    rng = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), traj_index]))
    return rng.normal(0.0, math.sqrt(dt), size=(steps, M))


def convection(sys, x: np.ndarray) -> np.ndarray:
    """Coordinates of P_n B(u, u) of each row of x (B, n): the segment sums
    of the triplet products, scattered into zeros."""
    out = np.zeros(x.shape)
    if not sys.include_B or not len(sys._V):
        return out
    prod = np.take(x, sys._J, axis=1, mode="wrap")
    prod *= sys._V
    prod *= np.take(x, sys._K, axis=1, mode="wrap")
    out[:, sys._rows] = np.add.reduceat(prod, sys._starts, axis=1)
    return out


def sq_norms(sys, x: np.ndarray) -> np.ndarray:
    """Squared H, Dirichlet and U' norms of each row of x (B, n), as (3, B),
    from one (B, 3, n) array of weighted squares."""
    weights = np.stack([np.ones(sys.n), sys.lamD, sys.wUdual])
    return np.add.reduce(weights * (x * x)[:, None, :], axis=2).T


def step(sys, config, cutoff, x, ud, f, dw):
    """One Euler-Maruyama step of the rows of x: (x_new, theta, tbx, bx, g, xi)."""
    dt = config.dt
    bx = convection(sys, x)
    theta, tbx = None, bx
    if sys.include_B and not ud.max() <= cutoff.level:
        theta = cutoff.theta(ud)
        tbx = theta[:, None] * bx
    if sys.M:
        g = np.matmul(sys.G, x[:, None, :, None])[..., 0]
        xi = np.matmul(dw[:, None, :], g)[:, 0]
    else:
        g, xi = None, np.zeros_like(x)
    return x + dt * (f - sys.lamD * x - tbx) + xi, theta, tbx, bx, g, xi


def fold_residuals(worst, terms, norm_H, upto, first) -> None:
    """Fold the ledger terms (5, L, B) of steps first..first+L-1 into each
    row's worst relative residual, with norm_H (B, L + 1)."""
    h2 = norm_H.T ** 2
    drift, taming, forcing, mart, delta_sq = terms
    rhs = drift + taming + forcing + mart + delta_sq
    err = np.diff(h2, axis=0) - rhs
    np.abs(err, out=err)
    scale = np.abs(rhs, out=rhs)
    np.maximum(np.maximum(scale, h2[1:], out=scale), h2[:-1], out=scale)
    err /= np.maximum(scale, 1.0, out=scale)
    err[first + np.arange(len(err))[:, None] >= upto] = 0.0
    np.fmax(worst, np.fmax.reduce(err, axis=0), out=worst)


def oracle_batch(config, indices, dW=None, x0=None):
    """The Ensemble of trajectories `indices` of config, stepped as one loop
    over all steps, each row driven by its Philox stream or by its column of
    `dW` (steps, B, M), from P_n config.u0 or from its row of `x0`."""
    ens = _stacked(config, indices)
    sys = _compiled(config.basis, config.n, config.model, config.include_B)
    steps, n, dt = config.steps, config.n, config.dt
    B = len(ens)
    if dW is None:
        dW = np.stack([generate_wiener(steps, config.M, dt, config.seed, i) for i in ens.indices.tolist()],
                      axis=1)
    if x0 is None:
        x = np.repeat(config.basis.real_coords(project_Pn(config.u0, n), n)[None], B, axis=0)
    else:
        x = np.array(x0, dtype=np.float64, order="C")
    # every step's norms, whether or not the Ensemble records them
    norm_H, norm_D, norm_Ud = (np.zeros((B, steps + 1)) for _ in range(3))
    ledger = "ledger" in config.records
    if ledger:
        chunk = min(LEDGER_CHUNK, steps)
        terms = np.zeros((5, chunk, B))
        drift_work, b_work, forcing_work, mart_work, delta_sq = terms
        ito_step, hs_step = np.zeros((B, steps)), np.zeros((B, steps))
        worst = np.full(B, np.nan)

    snap_idx = config.snap_idx
    snap_at = np.full(steps + 1, -1)
    snap_at[snap_idx] = np.arange(len(snap_idx))
    states = "states" in config.records
    snap_u, snap_integrals = ens.snap_u, ens.snap_integrals
    # every step's state, which the lag reductions read
    path = np.zeros((B, steps + 1, n))
    drift, noise = "integral_drift" in config.records, "integral_noise" in config.records
    integrals = {name: np.zeros((B, n)) for name in INTEGRALS if integral_record(name) in config.records}

    probes_n = config.probe_coords
    qv_pairs = config.qv_pairs
    qv_cum = ens.qv_cum
    qv_run = np.zeros((B, len(qv_pairs)))

    cutoff = config.cutoff
    forced = config.forcing is not None
    f = config.basis.real_coords(config.forcing, n) if forced else np.zeros(n)
    cutoff_min, abort_step = ens.cutoff_min, ens.abort_step
    cutoff_min[:] = 1.0
    abort_step[:] = -1
    alive = np.ones(B, dtype=bool)
    limit = min(config.overflow_limit, np.finfo(np.float64).max)

    h2, d2, u2 = sq_norms(sys, x)
    norm_H[:, 0], norm_D[:, 0], norm_Ud[:, 0] = np.sqrt(h2), np.sqrt(d2), np.sqrt(u2)
    path[:, 0] = x
    if states:
        snap_u[:, 0] = x
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            x_new, theta, tbx, bx, g, xi = step(sys, config, cutoff, x, norm_Ud[:, j], f, dW[j])
            if theta is not None:
                np.minimum(cutoff_min, np.where(alive, theta, 1.0), out=cutoff_min)
            if drift:
                integrals["convection"] -= dt * tbx
                if forced:
                    integrals["forcing"] += dt * f
                integrals["stokes"] -= dt * (sys.lamD * x)
            if noise:
                integrals["noise"] += xi
            if qv_pairs and g is not None:
                gp = g @ probes_n.T
                for q, (a, b) in enumerate(qv_pairs):
                    qv_run[:, q] += dt * np.add.reduce(gp[:, :, a] * gp[:, :, b], axis=1)
            if ledger:
                k = j % chunk
                b_factor = -2.0 * dt if theta is None else -2.0 * dt * theta
                b_work[k] = b_factor * np.add.reduce(x * bx, axis=1)
                mart_work[k] = 2.0 * np.add.reduce(x * xi, axis=1)
                ito_step[:, j] = np.add.reduce(xi * xi, axis=1)
                if forced:
                    forcing_work[k] = 2.0 * dt * np.add.reduce(x * f, axis=1)
                if g is not None:
                    hs_step[:, j] = np.add.reduce((g * g).reshape(B, -1), axis=1) * dt
                drift_work[k] = -2.0 * dt * d2
                delta_sq[k] = np.add.reduce((x_new - x) ** 2, axis=1)

            x = x_new
            h2, d2, u2 = sq_norms(sys, x)
            if not np.abs(x).max() <= limit:
                bad = alive & ~(np.maximum.reduce(np.abs(x), axis=1) <= limit)
                if np.logical_or.reduce(bad):
                    abort_step[bad] = j + 1
                    alive &= ~bad
                    x = np.where(np.isfinite(x), x, 0.0)
                    h2, d2, u2 = sq_norms(sys, x)
            norm_H[:, j + 1], norm_D[:, j + 1], norm_Ud[:, j + 1] = np.sqrt(h2), np.sqrt(d2), np.sqrt(u2)
            if ledger and (k == chunk - 1 or j == steps - 1):
                upto = np.where(abort_step >= 0, abort_step, steps)
                fold_residuals(worst, terms[:, : k + 1], norm_H[:, j - k : j + 2], upto, j - k)
            path[:, j + 1] = x
            pos = snap_at[j + 1]
            if pos >= 0:
                if states:
                    snap_u[:, pos] = x
                if qv_pairs:
                    qv_cum[:, pos] = qv_run
                for name, run in integrals.items():
                    snap_integrals[name][:, pos] = run

    for r in np.flatnonzero(abort_step >= 0):
        a = abort_step[r]
        if ledger:
            ito_step[r, a:] = hs_step[r, a:] = 0.0
        for arr in (norm_H, norm_D, norm_Ud):
            arr[r, a + 1 :] = 0.0
        late = snap_idx >= a
        qv_cum[r, late] = path[r, a:] = 0.0
        if states:
            snap_u[r, late] = 0.0
        for name in integrals:
            snap_integrals[name][r, late] = 0.0
    if "norms" in config.records:
        ens.norm_H[:], ens.norm_D[:], ens.norm_Udual[:] = norm_H, norm_D, norm_Ud
    ens.max_H[:] = np.max(norm_H, axis=1)
    for i, p in enumerate(config.integral_powers):
        d2 = norm_D[:, :-1] ** 2
        if p != 2.0:
            d2 *= norm_H[:, :-1] ** (p - 2)
        ens.weighted_integrals[:, i] = np.sum(d2, axis=1) * dt
    if ledger:
        ens.energy_residual[:] = worst
        ens.ito_sum[:] = np.sum(ito_step, axis=1)
        ens.hs_sum[:] = np.sum(hs_step, axis=1)
    reductions = "norm_reductions" in config.records
    if reductions:
        ens.v_integral[:] = np.sum(norm_H[:, :-1] ** 2 + norm_D[:, :-1] ** 2, axis=1) * dt
    if config.modulus_lags:
        ens.modulus[:] = brute_modulus(path, sys.wUdual, config.modulus_lags)
    increments = pair_increment_norms(path, sys.wUdual, config.increment_lags)
    ens.increment_norms[:] = increments[:, :, list(config.increment_starts)]
    if reductions:
        ens.running_max = running_maxima(norm_H, increments)
    return ens
