"""Two-dimensional structure: the interpolation inequality for the L4 norm,
the sharpened trilinear bounds, the shifted deterministic equation with its
energy inequality and Gronwall uniqueness, and the pathwise-uniqueness
experiment for twin stochastic runs driven by one Wiener path.

The L4-based constants are stated for Dirichlet domains; on the torus the
sharp constants may differ, so every check records the realized ratio and a
refinement-stability verdict instead of hard-asserting the literature value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .estimates import gronwall_eval, median
from .galerkin import GalerkinConfig, _compiled, cache_rows, horizon_violations, level_violations, step_chunks
from .nonlinear import TrilinearWorkspace, trilinear_b
from .spectral import Basis, SpectralField, blockwise, norm, per_field, project_Pn

# Young-chain constant in the shifted energy inequality: bounding the doubled
# convection term by (1/2)||v||^2 + C (|v|^2 + 1) ||z||_L4^4 via two Young
# splits at ratio 1/2 and the quadratic L4 interpolation costs C = 128.
YOUNG_CHAIN_C = 128.0


def _require_2d(basis: Basis):
    if basis.domain.d != 2:
        raise ValueError("this diagnostic is specific to d = 2")


def l4_norm(u: SpectralField, grid_n: int | None = None):
    """L4 norm by grid quadrature on N >= 4K+1 points per axis, where it is exact."""
    basis = u.basis
    K, d = basis.domain.K, basis.domain.d
    N = grid_n if grid_n is not None else 4 * K + 2
    if N < 4 * K + 1:
        raise ValueError(f"L4 quadrature needs at least 4K+1 = {4 * K + 1} points per axis")

    def mean_fourth(u):
        vals = basis.grid_values(basis.to_exp_coeffs(u), N)
        sq = np.add.reduce(vals * vals, axis=0)
        return np.mean(sq * sq, axis=tuple(range(1, sq.ndim)))

    return per_field(np.sqrt(np.sqrt(blockwise(mean_fourth, (u,), d * N**d) * basis.domain.volume)))


def ladyzhenskaya_check(u: SpectralField, grid_n: int | None = None):
    """||u||_L4 / (2^(1/4) |u|_H^(1/2) ||u||^(1/2)); expected <= 1 on domains,
    recorded (not asserted) on the torus."""
    _require_2d(u.basis)
    h, d = norm(u, "H"), norm(u, "D")
    if np.any(np.asarray(h) == 0.0) or np.any(np.asarray(d) == 0.0):
        raise ValueError("Ladyzhenskaya ratio needs a nonzero field")
    return per_field(l4_norm(u, grid_n) / (2.0**0.25 * np.sqrt(h) * np.sqrt(d)))


def trilinear_2d_bound(u: SpectralField, v: SpectralField, w: SpectralField, ws: TrilinearWorkspace):
    """|b(u,v,w)| over the 2D interpolation bound; nan when degenerate."""
    _require_2d(u.basis)
    denom = (2.0**0.5 * np.sqrt(norm(u, "H") * norm(u, "D")) * norm(v, "D")
             * np.sqrt(norm(w, "H") * norm(w, "D")))
    b = np.abs(trilinear_b(u, v, w, ws))
    return per_field(np.divide(b, denom, out=np.full(np.shape(b), math.nan), where=denom != 0.0))


# -- shifted deterministic equation ------------------------------------------


@dataclass
class ShiftedProblem:
    """dv/dt = -Av + v + z - B(v + z) + f on the first n modes, v(0) = P_n u0,
    with z and f fields constant in time (None reads as zero)."""

    basis: Basis
    n: int
    dt: float
    T: float
    u0: SpectralField
    z: SpectralField | None = None
    f: SpectralField | None = None
    include_B: bool = True

    def __post_init__(self):
        _require_2d(self.basis)
        violations = (level_violations(self.basis, (self.n,))
                      or horizon_violations(self.basis, (self.n,), self.dt, self.T, "rk4"))
        if violations:
            raise ValueError("; ".join(violations))

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))


def _encoded(sys, field: SpectralField | None) -> np.ndarray:
    """Coordinates of z or f on the first n modes; zeros when absent."""
    return np.zeros(sys.n) if field is None else field.basis.real_coords(field, sys.n)


def solve_shifted(problem: ShiftedProblem) -> np.ndarray:
    """Classical RK4 integration; returns the coords path (steps+1, n)."""
    sys = _compiled(problem.basis, problem.n, None, problem.include_B)
    z, f = _encoded(sys, problem.z), _encoded(sys, problem.f)

    def rhs(x):
        out = -sys.lamD * x + z + f
        if problem.include_B:
            out = out - sys.convection(x + z)
        return out

    x = problem.basis.real_coords(project_Pn(problem.u0, problem.n), problem.n)
    steps = problem.steps
    path = np.zeros((steps + 1, problem.n))
    path[0] = x
    dt = problem.dt
    for j in range(steps):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise RuntimeError(f"shifted solve left the finite range at step {j + 1}")
        path[j + 1] = x
    return path


@dataclass
class EnergyInequalityReport:
    worst_margin: float
    margins: np.ndarray
    C: float


def energy_inequality_check(
    v_path: np.ndarray, problem: ShiftedProblem, C: float = YOUNG_CHAIN_C
) -> EnergyInequalityReport:
    """Discrete form of d|v|^2/dt + (1/2)||v||^2 <= a + theta |v|^2 with
    a = |z|_H^2 + |f|_{V'}^2 + C ||z||_L4^4 and theta = 2 + C ||z||_L4^4,
    where z stands for P_n z.

    Margins are RHS - LHS per step; the worst one is expected >= -O(dt)."""
    sys = _compiled(problem.basis, problem.n, None, problem.include_B)
    z, f = _encoded(sys, problem.z), _encoded(sys, problem.f)
    wVdual = problem.basis.mode_weights("Vdual", problem.n)
    z_l4 = l4_norm(project_Pn(problem.z, problem.n)) if np.any(z != 0.0) else 0.0
    a = float(np.sum(z * z)) + float(np.sum(f * f * wVdual)) + C * z_l4**4
    theta = 2.0 + C * z_l4**4
    x, x_next = v_path[: problem.steps], v_path[1 : problem.steps + 1]
    h2 = np.sum(x * x, axis=1)
    d2 = np.sum(sys.lamD * x * x, axis=1)
    lhs = (np.sum(x_next**2, axis=1) - h2) / problem.dt + 0.5 * d2
    margins = a + theta * h2 - lhs
    return EnergyInequalityReport(worst_margin=float(np.min(margins)), margins=margins, C=C)


@dataclass
class ShiftedUniquenessReport:
    distance_sq: np.ndarray
    envelope: np.ndarray
    within_envelope: bool
    identical: bool


def uniqueness_shifted(
    problem: ShiftedProblem,
    v10: SpectralField,
    v20: SpectralField,
    rel_tol: float = 1e-6,
) -> ShiftedUniquenessReport:
    """Distance of two shifted solutions against the Gronwall envelope
    y' <= theta(t) y with theta = 2 ||v2 + z||^2 (Dirichlet)."""
    sys = _compiled(problem.basis, problem.n, None, problem.include_B)
    path1 = solve_shifted(replace(problem, u0=v10))
    path2 = solve_shifted(replace(problem, u0=v20))
    identical = bool(np.array_equal(path1, path2))
    w = path1 - path2
    dist2 = np.sum(w * w, axis=1)
    steps = problem.steps
    w2 = path2[:steps] + _encoded(sys, problem.z)
    theta = 2.0 * np.sum(sys.lamD * w2 * w2, axis=1)
    grid = np.arange(steps + 1) * problem.dt
    env = gronwall_eval(np.zeros(steps), theta, dist2[0], grid)
    scale = max(dist2[0], 1e-300)
    within = bool(np.all(dist2 <= env * (1.0 + rel_tol) + 1e-14 * scale))
    return ShiftedUniquenessReport(
        distance_sq=dist2, envelope=env, within_envelope=within, identical=identical
    )


# -- pathwise uniqueness of the stochastic system --------------------------------


@dataclass
class PathwiseUniquenessReport:
    gamma: float
    eps: float
    C_eps: float
    lipschitz_L: float
    ratios_at_T: np.ndarray
    sup_ratios: np.ndarray
    median_ratio_T: float
    # whether every compared pair coincides bitwise; None when none was
    # compared (gamma > 0 and no check pairs)
    identical: bool | None
    trajectories: int


def _twin_block(cfg: GalerkinConfig, block: list, x1, x2, C_eps: float, gamma: float,
                checks: int = 0) -> tuple:
    """Twin pairs `block` (k of them) as one batch of 2k + checks rows on k
    Wiener paths: the rows of u1 (from x1) first, then those of u2 (from x2)
    in the same order, then one check row for each of the first `checks`
    pairs, a second u1 from x1 on that pair's path.  Returns whether the
    compared rows coincide bitwise (u1 with u2 at gamma = 0, each check row
    with its u1; None when none is compared) and the pairs' terminal and
    running ratios (zero at gamma = 0).

    The batch is one walk of `step_chunks`, which draws each pair's
    increments once for its two or three rows, and this is its reducer:
    each chunk's states and Dirichlet norms are compared and reduced to
    the pairs' |u1 - u2|_H^2 and the u2 rows' ||u2||^2 as they are handed
    over, so no (rows, steps + 1, n) array is held.  The running integral
    r(t) is carried as one sequential sum, so every bit is that of one
    batch over all steps.  Once a row has aborted the experiment fails and
    nothing more is reduced; the walk goes on, and the lowest pair with an
    aborted row is named once it ends."""
    k = len(block)
    x = np.repeat(np.stack([x1, x2, x1]), [k, k, checks], axis=0)
    same = True if checks or gamma == 0.0 else None
    # sum of ||u2||^2 over the steps so far, r(t) = C_eps dt times it, and
    # the weighted distance at t = 0, its running maximum and its last value
    integral = np.zeros(k)
    first, peak, last = None, np.full(k, -np.inf), None
    for chunk in step_chunks(cfg, block + block + block[:checks], x, h_norm=False):
        if np.logical_or.reduce(chunk.abort_step >= 0):
            continue
        u1, u2 = chunk.states[:, :k], chunk.states[:, k : 2 * k]
        if checks:
            same &= np.array_equal(chunk.states[:, 2 * k :], u1[:, :checks])
        if gamma == 0.0:
            same &= np.array_equal(u1, u2)
        else:
            # squaring in place keeps one (chunk, k, n) temporary
            d = u1 - u2
            d *= d
            U2 = np.add.reduce(d, axis=2)
            sums = np.cumsum(np.concatenate([integral[None], chunk.norms["D"][:-1, k : 2 * k] ** 2]), axis=0)
            integral = sums[-1]
            weighted = np.exp(-(C_eps * (sums * cfg.dt))) * U2
            if first is None:
                first = weighted[0]
            peak = np.maximum(peak, np.max(weighted, axis=0))
            last = weighted[-1]
    bad = np.flatnonzero(chunk.abort_step >= 0)
    if len(bad):
        r = block[int(np.min(bad % k))]
        raise RuntimeError(f"trajectory {r} aborted during the uniqueness experiment")
    if gamma == 0.0:
        return same, 0.0, 0.0
    return same, last / first, peak / first


def lipschitz_gate_failure(lipschitz_L: float) -> str | None:
    """Why the certified Lipschitz quotient L of the noise fails the
    pathwise-uniqueness gate max(L, L^2) < 2, which leaves the Young split
    eps = (2 - max(L, L^2)) / 2 positive; None when it passes (a NaN L
    fails)."""
    if max(lipschitz_L, lipschitz_L**2) < 2.0:
        return None
    return f"noise Lipschitz gate max(L, L^2) < 2 failed at L = {lipschitz_L}"


def pathwise_uniqueness_experiment(
    config: GalerkinConfig,
    lipschitz_L: float,
    gamma: float,
    n_traj: int = 100,
    twins: int = 0,
) -> PathwiseUniquenessReport:
    """Twin stochastic runs on one Wiener path, u2 starting gamma off u1 on
    the first mode.

    Requires the certified Lipschitz quotient L of the noise to pass the
    gate max(L, L^2) < 2 (`lipschitz_gate_failure`; ValueError naming it
    otherwise).  The weighted distance exp(-r(t)) |u1 - u2|_H^2, with
    r' = C_eps ||u2||^2 and C_eps = 2/eps, eps = (2 - max(L, L^2)) / 2, from
    the Young split of the convection difference, has nonincreasing
    expectation up to the martingale term; the report carries
    the per-trajectory terminal and running ratios against the initial value.
    With gamma = 0 the runs must coincide bitwise, which `identical` reports.
    The `twins` check pairs 0..twins-1 test that at any gamma: each runs u1
    a second time from the same start on the same Wiener path, as one more
    row of the batch that steps pair r (a batch of its own two rows for
    r >= n_traj), and must coincide with it bitwise.  `identical` is None
    when nothing is compared: gamma > 0 and no check pairs.
    """
    _require_2d(config.basis)
    failure = lipschitz_gate_failure(lipschitz_L)
    if failure is not None:
        raise ValueError(failure)
    eps = 0.5 * (2.0 - max(lipschitz_L, lipschitz_L**2))
    C_eps = 2.0 / eps

    basis = config.basis
    pert = np.zeros(basis.n_modes)
    pert[0] = gamma
    # only the states and the Dirichlet norms are read, at every step, so no
    # ledger, no running integral and no probe
    cfg = replace(config, records=(), probes=())
    x1 = basis.real_coords(project_Pn(config.u0, cfg.n), cfg.n)
    x2 = basis.real_coords(project_Pn(config.u0 + basis.field_from_real_coords(pert), cfg.n), cfg.n)
    ratios_T = np.zeros(n_traj)
    sup_ratios = np.zeros(n_traj)
    # each block of k pairs is one batch of 2k rows, as many as a block of
    # an ensemble holds, and the check rows of its pairs
    pairs = max(1, cache_rows(cfg) // 2)
    verdicts = []
    for start in range(0, n_traj, pairs):
        stop = min(start + pairs, n_traj)
        checks = min(max(twins - start, 0), stop - start)
        same, ratios_T[start:stop], sup_ratios[start:stop] = _twin_block(
            cfg, list(range(start, stop)), x1, x2, C_eps, gamma, checks)
        verdicts.append(same)
    # check pairs past the n_traj pairs run as twins a shift 0 apart
    for start in range(n_traj, twins, pairs):
        block = list(range(start, min(start + pairs, twins)))
        verdicts.append(_twin_block(cfg, block, x1, x1, C_eps, 0.0)[0])
    verdicts = [v for v in verdicts if v is not None]
    identical = all(verdicts) if verdicts else None
    return PathwiseUniquenessReport(
        gamma=gamma,
        eps=eps,
        C_eps=C_eps,
        lipschitz_L=lipschitz_L,
        ratios_at_T=ratios_T,
        sup_ratios=sup_ratios,
        median_ratio_T=float(median(ratios_T)),
        identical=identical,
        trajectories=n_traj,
    )
