"""Euler-Maruyama integration of the spectral Galerkin system

    du = -[ P_n Acal u + B_n(u) - P_n f ] dt + P_n G(u) dW,   u(0) = P_n u0.

The active n-dimensional subspace is compiled once per (domain, scale, n,
noise model) and kept in one module-level cache: the Stokes multiplier is
diagonal, the tamed nonlinearity a sparse contraction over the nonzero
triplets of the convection form and each noise direction a dense matrix, all
derived from the exact spectral operators.  Every trajectory is a pure
function of (config, seed, index) -- one Philox stream per trajectory -- so
ensembles are reproducible bitwise for any worker count.

Each step writes an energy ledger (drift work, forcing work, martingale
increment, quadratic remainder) that closes the discrete energy identity to
roundoff, and cumulative drift/noise integrals are snapshotted so the
martingale part of the path can be reconstructed and tested for zero mean and
prescribed quadratic variation.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .noise import NoiseModel, noise_matrices
from .nonlinear import CutoffSpec
from .spectral import Basis, ROLE_COS, SpectralField


# -- Wiener increments -------------------------------------------------------


@dataclass
class WienerPath:
    """Increments of the truncated cylindrical Wiener process, N(0, dt) each."""

    dW: np.ndarray  # (steps, M)
    dt: float
    seed: int
    traj_index: int = 0


def generate_wiener(steps: int, M: int, dt: float, seed: int, traj_index: int = 0) -> WienerPath:
    """Philox-keyed increments; identical for identical (seed, traj_index)."""
    if steps < 1 or M < 0:
        raise ValueError("need steps >= 1 and M >= 0")
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), traj_index]))
    dW = gen.normal(0.0, math.sqrt(dt), size=(steps, M))
    return WienerPath(dW=dW, dt=dt, seed=seed, traj_index=traj_index)


# -- compiled subspace -------------------------------------------------------


def build_convection_tensor(basis: Basis, n: int) -> tuple:
    """Nonzero triplets (I, J, K, V) of T[i, j, k] = b(e_j, e_k, e_i) on the
    first n real eigenfields, sorted by (i, j, k).

    Each real mode is a pair of exponentials: amplitude A at its canonical
    lattice row and conj(A) at the negated row.  Every pair of exponentials
    (of e_j and e_k) whose wavevectors sum to a lattice row is paired with
    each exponential of e_i at that row, and coinciding (i, j, k) are summed
    in a fixed order.  Agrees with the convolution workspace to roundoff
    (tested); never cached here, so every call is a real build."""
    dom = basis.domain
    K, d = dom.K, dom.d
    slot = basis.mode_slot[:n]
    phase = np.where(basis.mode_role[:n] == ROLE_COS, 1.0, 1.0j)
    amp = basis._exp_alpha * phase[:, None] * basis.slot_eps[slot]
    mode = np.concatenate([np.arange(n), np.arange(n)])
    row = np.concatenate([basis._slot_row[slot], basis._slot_row_neg[slot]])
    amp = np.concatenate([amp, amp.conj()])
    kap = dom.kappa(basis.lattice_k[row])

    # lattice box over [-2K, 2K]^d; the flat index is affine in k, so the
    # index of a wavevector sum is a sum of flat indices
    ks = basis.lattice_k
    width = 4 * K + 1
    stride = width ** np.arange(d - 1, -1, -1)
    box = np.full(width**d, -1)
    box[(ks + 2 * K) @ stride] = np.arange(len(ks))
    flat = ks[row] @ stride
    out = box[flat[:, None] + flat[None, :] + 2 * K * int(stride.sum())]
    p, q = np.nonzero(out >= 0)
    o = out[p, q]

    # exponentials of the first n modes at each lattice row, grouped by row
    by_row = np.argsort(row, kind="stable")
    count = np.bincount(row, minlength=len(ks))
    first = np.cumsum(count) - count
    c = count[o]
    p, q = np.repeat(p, c), np.repeat(q, c)
    pos = np.arange(len(p)) - np.repeat(np.cumsum(c) - c, c)
    r = by_row[np.repeat(first[o], c) + pos]

    s = 1j * np.einsum("pd,pd->p", amp[p], kap[q])
    val = dom.volume * (s * np.einsum("pd,pd->p", amp[q], amp[r].conj())).real
    key = (mode[r] * n + mode[p]) * n + mode[q]
    uniq, inv = np.unique(key, return_inverse=True)
    V = np.bincount(inv, weights=val, minlength=len(uniq))
    keep = V != 0.0
    uniq, V = uniq[keep], V[keep]
    return uniq // (n * n), uniq // n % n, uniq % n, V


class CompiledGalerkin:
    """Realization of the Galerkin right-hand side on the first n modes:
    diagonal Stokes weights, sparse convection triplets, noise matrices."""

    def __init__(self, basis: Basis, n: int, model: NoiseModel | None, include_B: bool = True):
        self.n = n
        self.lamD = basis.mode_weights("D", n)
        self.wUdual = basis.mode_weights("Udual", n)
        self.include_B = include_B
        self._IJKV = build_convection_tensor(basis, n) if include_B else None
        if model is not None and model.M > 0:
            self.G = np.stack(noise_matrices(model, basis, n))  # (M, n, n)
            self.M = model.M
        else:
            self.G = None
            self.M = 0

    def convection(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of P_n B(u, u) (untamed).  A fixed-order reduce per
        row, so the result does not depend on anything but x."""
        if self._IJKV is None:
            return np.zeros_like(x)
        I, J, K, V = self._IJKV
        return np.bincount(I, weights=V * x[J] * x[K], minlength=self.n)

    def encode(self, u: SpectralField) -> np.ndarray:
        return u.basis.real_coords(u, self.n)

    def decode(self, basis: Basis, x: np.ndarray) -> SpectralField:
        full = np.zeros(basis.n_modes)
        full[: self.n] = x
        return basis.field_from_real_coords(full)

    def udual_norm(self, x: np.ndarray) -> float:
        return math.sqrt(float(np.sum(self.wUdual * x * x)))


# compiled systems, keyed by value: everything in one depends only on the
# domain, the norm scale, n, the noise model and whether B is included
_COMPILED: dict = {}


def _compiled(basis: Basis, n: int, model, include_B: bool) -> CompiledGalerkin:
    key = (basis.domain, basis.scale, n, model, include_B)
    sys = _COMPILED.get(key)
    if sys is None:
        sys = _COMPILED[key] = CompiledGalerkin(basis, n, model, include_B)
    return sys


# -- configuration ------------------------------------------------------------


@dataclass
class GalerkinConfig:
    basis: Basis
    n: int
    dt: float
    T: float
    u0: SpectralField
    model: NoiseModel | None = None
    forcing: SpectralField | None = None
    cutoff_level: float | None = None
    seed: int = 0
    snapshot_stride: int = 0  # 0: endpoints only
    integral_snapshot_stride: int | None = None  # default: same as snapshot_stride
    scheme: str = "em"  # plain Euler-Maruyama, or "exponential" (exact Stokes factor)
    include_B: bool = True
    probes: tuple = ()  # SpectralFields; per-probe martingale pairings are accumulated
    qv_pairs: tuple = ()  # (a, b) probe index pairs for quadratic-variation integrals
    refinement_probe: SpectralField | None = None
    overflow_limit: float = 1e12

    def __post_init__(self):
        if self.dt <= 0 or self.T < self.dt:
            raise ValueError("need dt > 0 and T >= dt")
        ratio = self.T / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * ratio:
            raise ValueError(
                f"horizon T = {self.T} is not a whole number of steps dt = {self.dt} "
                f"(T/dt = {ratio:.12g})"
            )
        if not 1 <= self.n <= self.basis.n_modes:
            raise ValueError(f"n must lie in [1, {self.basis.n_modes}]")
        if self.scheme not in ("em", "exponential"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        lam_max = float(np.max(self.basis.mode_weights("D", self.n)))
        if self.scheme == "em" and self.dt * lam_max >= 1.0:
            raise ValueError(
                f"explicit-scheme stability gate failed: dt * lambda_D,max = "
                f"{self.dt * lam_max:.3g} >= 1 (largest active Dirichlet multiplier {lam_max:.3g})"
            )
        if self.model is not None and self.model.d != self.basis.domain.d:
            raise ValueError("noise model dimension disagrees with the domain")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def M(self) -> int:
        return self.model.M if self.model is not None else 0

    @property
    def cutoff(self) -> CutoffSpec:
        return CutoffSpec(self.cutoff_level if self.cutoff_level is not None else float(self.n))

    def fingerprint(self) -> str:
        """Hash of everything a trajectory depends on besides (seed, index)."""
        import hashlib

        h = hashlib.sha256()
        dom = self.basis.domain
        h.update(repr((dom.d, dom.K, dom.period, self.basis.scale.s, self.basis.scale.s_U,
                       self.n, self.dt, self.T, self.cutoff_level, self.scheme,
                       self.include_B, self.snapshot_stride, self.integral_snapshot_stride,
                       self.overflow_limit)).encode())
        h.update(np.ascontiguousarray(self.u0.coeffs).tobytes())
        if isinstance(self.forcing, SpectralField):
            h.update(np.ascontiguousarray(self.forcing.coeffs).tobytes())
        elif self.forcing is not None:
            h.update(b"callable-forcing")
        if self.model is not None:
            h.update(repr(self.model).encode())
        for p in self.probes:
            h.update(np.ascontiguousarray(p.coeffs).tobytes())
        h.update(repr(tuple(self.qv_pairs)).encode())
        if self.refinement_probe is not None:
            h.update(np.ascontiguousarray(self.refinement_probe.coeffs).tobytes())
        return h.hexdigest()


# -- trajectory record ---------------------------------------------------------


@dataclass
class TrajectoryRecord:
    """One simulated path: per-step norms, energy ledger, snapshots."""

    n: int
    dt: float
    steps: int
    seed: int
    traj_index: int
    config_hash: str
    scheme: str
    norm_H: np.ndarray
    norm_D: np.ndarray
    norm_Udual: np.ndarray
    drift_work: np.ndarray
    b_work: np.ndarray
    forcing_work: np.ndarray
    mart_work: np.ndarray
    delta_sq: np.ndarray
    ito_step: np.ndarray
    hs_step: np.ndarray
    snap_idx: np.ndarray
    snap_u: np.ndarray
    integral_snap_idx: np.ndarray
    snap_integrals: dict  # {"stokes","convection","forcing","noise"} -> (len(integral_snap_idx), n)
    u0_coords: np.ndarray
    probes_n: np.ndarray
    qv_pairs: tuple
    qv_cum: np.ndarray  # (len(snap_idx), len(qv_pairs))
    refinement_I: np.ndarray | None
    cutoff_min: float
    aborted: bool = False
    abort_step: int = -1

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    @property
    def snap_times(self) -> np.ndarray:
        return self.snap_idx * self.dt

    def sup_H(self) -> float:
        return float(np.max(self.norm_H))

    def integral_dirichlet2(self) -> float:
        """Left-endpoint quadrature of the Dirichlet energy integral."""
        return float(np.sum(self.norm_D[:-1] ** 2) * self.dt)

    def integral_weighted(self, p: float) -> float:
        """Left-endpoint quadrature of the |u|^(p-2) ||u||^2 integral."""
        return float(np.sum(self.norm_H[:-1] ** (p - 2) * self.norm_D[:-1] ** 2) * self.dt)

    def snapshot_field(self, basis: Basis, pos: int) -> SpectralField:
        full = np.zeros(basis.n_modes)
        full[: self.n] = self.snap_u[pos]
        return basis.field_from_real_coords(full)


def _snapshot_indices(steps: int, stride: int) -> np.ndarray:
    if stride <= 0:
        return np.array([0, steps], dtype=int)
    idx = list(range(0, steps + 1, stride))
    if idx[-1] != steps:
        idx.append(steps)
    return np.array(idx, dtype=int)


# -- stepping -------------------------------------------------------------------


def em_step(u: SpectralField, t: float, dW_row, config: GalerkinConfig) -> SpectralField:
    """One step of the scheme on a SpectralField (reference entry point)."""
    sys = _compiled(config.basis, config.n, config.model, config.include_B)
    x = sys.encode(u)
    f_t = _forcing_coords(config, sys, t)
    x_new, _ = _step_coords(sys, config, x, f_t, np.asarray(dW_row, dtype=float))
    return sys.decode(config.basis, x_new)


def _forcing_coords(config: GalerkinConfig, sys: CompiledGalerkin, t: float) -> np.ndarray:
    f = config.forcing
    if f is None:
        return np.zeros(sys.n)
    if callable(f):
        f = f(t)
    return sys.encode(f)


def _step_coords(sys, config, x, f_t, dW_row):
    """Advance coordinates one step; returns (x_new, ledger tuple)."""
    theta = 1.0
    bx = np.zeros_like(x)
    if sys.include_B:
        bx = sys.convection(x)
        theta = config.cutoff.theta(sys.udual_norm(x))
    drift = -sys.lamD * x - theta * bx + f_t
    if sys.M:
        g = sys.G @ x  # (M, n)
        noise_inc = g.T @ dW_row
        hs = float(np.sum(g * g)) * config.dt
    else:
        g = None
        noise_inc = np.zeros_like(x)
        hs = 0.0
    if config.scheme == "em":
        x_new = x + config.dt * drift + noise_inc
    else:
        decay = np.exp(-sys.lamD * config.dt)
        x_new = decay * (x + config.dt * (-theta * bx + f_t) + noise_inc)
    ledger = (
        -2.0 * config.dt * float(np.sum(sys.lamD * x * x)),
        -2.0 * config.dt * theta * float(np.dot(x, bx)),
        2.0 * config.dt * float(np.dot(x, f_t)),
        2.0 * float(np.dot(x, noise_inc)),
        float(np.sum((x_new - x) ** 2)),
        float(np.sum(noise_inc**2)),
        hs,
        theta,
        bx,
        g,
        noise_inc,
    )
    return x_new, ledger


def integrate_trajectory(
    config: GalerkinConfig,
    path: WienerPath | None = None,
    traj_index: int = 0,
) -> TrajectoryRecord:
    """Integrate one trajectory, filling norms, ledger and snapshots.

    The energy identity and the drift/noise decomposition recorded in the
    ledger are exact for the "em" scheme; the exponential option integrates
    correctly but its steps do not split into these ledger terms.
    """
    basis = config.basis
    sys = _compiled(basis, config.n, config.model, config.include_B)
    steps = config.steps
    if path is None:
        path = generate_wiener(steps, config.M, config.dt, config.seed, traj_index)
    if path.dW.shape != (steps, config.M):
        raise ValueError(
            f"Wiener path shape {path.dW.shape} does not match (steps, M) = ({steps}, {config.M})"
        )

    from .spectral import project_Pn

    x = sys.encode(project_Pn(config.u0, config.n))
    u0_coords = x.copy()

    norm_H = np.zeros(steps + 1)
    norm_D = np.zeros(steps + 1)
    norm_Ud = np.zeros(steps + 1)
    led = {k: np.zeros(steps) for k in
           ("drift_work", "b_work", "forcing_work", "mart_work", "delta_sq", "ito_step", "hs_step")}

    snap_idx = _snapshot_indices(steps, config.snapshot_stride)
    istride = (
        config.integral_snapshot_stride
        if config.integral_snapshot_stride is not None
        else config.snapshot_stride
    )
    integral_snap_idx = _snapshot_indices(steps, istride)
    snap_u = np.zeros((len(snap_idx), config.n))
    snap_integrals = {name: np.zeros((len(integral_snap_idx), config.n)) for name in ("stokes", "convection", "forcing", "noise")}
    int_stokes = np.zeros(config.n)
    int_convection = np.zeros(config.n)
    int_forcing = np.zeros(config.n)
    int_noise = np.zeros(config.n)

    probes_n = (
        np.stack([sys.encode(p) for p in config.probes]) if config.probes else np.zeros((0, config.n))
    )
    qv_cum = np.zeros((len(snap_idx), len(config.qv_pairs)))
    qv_run = np.zeros(len(config.qv_pairs))
    refinement = config.refinement_probe is not None
    ref_coords = sys.encode(config.refinement_probe) if refinement else None
    ref_I = np.zeros(len(snap_idx)) if refinement else None
    ref_run = 0.0

    snap_pos = {int(s): i for i, s in enumerate(snap_idx)}
    integral_snap_pos = {int(s): i for i, s in enumerate(integral_snap_idx)}
    cutoff_min = 1.0
    aborted = False
    abort_step = -1

    def write_norms(j, xv):
        norm_H[j] = math.sqrt(float(np.sum(xv * xv)))
        norm_D[j] = math.sqrt(float(np.sum(sys.lamD * xv * xv)))
        norm_Ud[j] = sys.udual_norm(xv)

    write_norms(0, x)
    snap_u[0] = x
    for j in range(steps):
        t = j * config.dt
        f_t = _forcing_coords(config, sys, t)
        x_new, ledger = _step_coords(sys, config, x, f_t, path.dW[j])
        (dw, bw, fw, mw, dsq, ito, hs, theta, bx, g, noise_inc) = ledger
        led["drift_work"][j] = dw
        led["b_work"][j] = bw
        led["forcing_work"][j] = fw
        led["mart_work"][j] = mw
        led["delta_sq"][j] = dsq
        led["ito_step"][j] = ito
        led["hs_step"][j] = hs
        cutoff_min = min(cutoff_min, theta)

        int_stokes -= config.dt * (sys.lamD * x)
        int_convection -= config.dt * (theta * bx)
        int_forcing += config.dt * f_t
        int_noise += noise_inc
        if refinement:
            ref_run += config.dt * float(np.dot(bx, ref_coords))
        if g is not None and len(config.qv_pairs):
            gp = g @ probes_n.T  # (M, P)
            for q, (a, b) in enumerate(config.qv_pairs):
                qv_run[q] += config.dt * float(np.dot(gp[:, a], gp[:, b]))

        x = x_new
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > config.overflow_limit:
            aborted = True
            abort_step = j + 1
            x = np.where(np.isfinite(x), x, 0.0)
            write_norms(j + 1, x)
            break
        write_norms(j + 1, x)
        pos = snap_pos.get(j + 1)
        if pos is not None:
            snap_u[pos] = x
            qv_cum[pos] = qv_run
            if refinement:
                ref_I[pos] = ref_run
        jpos = integral_snap_pos.get(j + 1)
        if jpos is not None:
            snap_integrals["stokes"][jpos] = int_stokes
            snap_integrals["convection"][jpos] = int_convection
            snap_integrals["forcing"][jpos] = int_forcing
            snap_integrals["noise"][jpos] = int_noise

    return TrajectoryRecord(
        n=config.n,
        dt=config.dt,
        steps=steps,
        seed=config.seed,
        traj_index=traj_index,
        config_hash=config.fingerprint(),
        scheme=config.scheme,
        norm_H=norm_H,
        norm_D=norm_D,
        norm_Udual=norm_Ud,
        drift_work=led["drift_work"],
        b_work=led["b_work"],
        forcing_work=led["forcing_work"],
        mart_work=led["mart_work"],
        delta_sq=led["delta_sq"],
        ito_step=led["ito_step"],
        hs_step=led["hs_step"],
        snap_idx=snap_idx,
        snap_u=snap_u,
        integral_snap_idx=integral_snap_idx,
        snap_integrals=snap_integrals,
        u0_coords=u0_coords,
        probes_n=probes_n,
        qv_pairs=tuple(config.qv_pairs),
        qv_cum=qv_cum,
        refinement_I=ref_I,
        cutoff_min=cutoff_min,
        aborted=aborted,
        abort_step=abort_step,
    )


def _run_chunk(args):
    config, indices = args
    return [integrate_trajectory(config, traj_index=i) for i in indices]


def integrate_ensemble(config: GalerkinConfig, n_traj: int, workers: int = 1) -> list:
    """Independent trajectories indexed 0..n_traj-1; output order is fixed and
    independent of the worker count."""
    indices = list(range(n_traj))
    if workers <= 1 or n_traj == 1:
        return [integrate_trajectory(config, traj_index=i) for i in indices]
    # compiled before the pool starts, so forked workers inherit it
    _compiled(config.basis, config.n, config.model, config.include_B)
    chunk = max(1, math.ceil(n_traj / (workers * 4)))
    batches = [(config, indices[i : i + chunk]) for i in range(0, n_traj, chunk)]
    out: list = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_run_chunk, batches):
            out.extend(part)
    return out


# -- diagnostics ----------------------------------------------------------------


@dataclass
class EnergyBudgetReport:
    max_relative_residual: float
    ito_zscore: float
    trajectories: int


def energy_budget_check(records) -> EnergyBudgetReport:
    """Closure of the per-step energy identity plus the Ito-isometry z-score.

    The identity |u+|^2 - |u|^2 = (drift + taming + forcing + martingale work)
    + |du|^2 is exact in exact arithmetic for the EM scheme; the worst relative
    residual over all steps is returned.  The comparison of the realized
    quadratic noise increments against the integrated Hilbert-Schmidt norms is
    statistical and is reported as a z-score over the ensemble.
    """
    if isinstance(records, TrajectoryRecord):
        records = [records]
    worst = 0.0
    diffs = []
    for rec in records:
        h2 = rec.norm_H**2
        upto = rec.abort_step if rec.aborted else rec.steps
        lhs = np.diff(h2)[:upto]
        rhs = (rec.drift_work + rec.b_work + rec.forcing_work + rec.mart_work + rec.delta_sq)[:upto]
        scale = np.maximum.reduce(
            [np.ones(upto), h2[:upto], h2[1 : upto + 1], np.abs(rhs)]
        )
        if upto:
            worst = max(worst, float(np.max(np.abs(lhs - rhs) / scale)))
        if not rec.aborted:
            diffs.append(float(np.sum(rec.ito_step) - np.sum(rec.hs_step)))
    diffs = np.asarray(diffs)
    if len(diffs) >= 2 and np.std(diffs) > 0:
        z = float(np.mean(diffs) / (np.std(diffs, ddof=1) / math.sqrt(len(diffs))))
    else:
        z = 0.0
    return EnergyBudgetReport(
        max_relative_residual=worst, ito_zscore=z, trajectories=len(records)
    )


def reconstruct_martingale(rec: TrajectoryRecord, pos: int) -> np.ndarray:
    """Martingale part at snapshot position `pos`, rebuilt from the ledger:
    u(t) - u(0) - (Stokes + convection - forcing integrals)."""
    step = int(rec.snap_idx[pos])
    jpos = int(np.nonzero(rec.integral_snap_idx == step)[0][0])
    return (
        rec.snap_u[pos]
        - rec.u0_coords
        - rec.snap_integrals["stokes"][jpos]
        - rec.snap_integrals["convection"][jpos]
        - rec.snap_integrals["forcing"][jpos]
    )


@dataclass
class MartingaleReport:
    mean_zscore: float
    qv_zscore: float
    reconstruction_residual: float
    trajectories: int


def h_one(rec: TrajectoryRecord, step: int) -> float:
    return 1.0


def h_tanh_sup(rec: TrajectoryRecord, step: int) -> float:
    """Bounded functional of the path up to the conditioning time."""
    return math.tanh(float(np.max(rec.norm_H[: step + 1]) ** 2))


def martingale_diagnostic(records, psi, zeta, s: float, t: float, h=h_one) -> MartingaleReport:
    """Zero-mean and quadratic-variation z-scores of the reconstructed
    martingale part, paired against probe fields psi and zeta.

    psi and zeta must be among the probes configured for the run (their
    quadratic-variation integral is accumulated online during integration);
    s and t must lie on the snapshot grid.
    """
    if not records:
        raise ValueError("empty ensemble")
    rec0 = records[0]
    if len(records) < 2:
        raise ValueError("need at least 2 trajectories for z-scores")
    basis = psi.basis
    n = rec0.n
    psi_n = basis.real_coords(psi, n)
    zeta_n = basis.real_coords(zeta, n)

    def probe_index(coords):
        for i in range(len(rec0.probes_n)):
            if np.allclose(rec0.probes_n[i], coords, atol=1e-12):
                return i
        raise ValueError("field is not among the configured probes")

    a, b = probe_index(psi_n), probe_index(zeta_n)
    try:
        qcol = rec0.qv_pairs.index((a, b))
    except ValueError:
        try:
            qcol = rec0.qv_pairs.index((b, a))
        except ValueError:
            raise ValueError(f"probe pair {(a, b)} has no accumulated quadratic variation")

    def snap_pos(rec, time):
        hits = np.nonzero(np.abs(rec.snap_times - time) <= rec.dt / 2)[0]
        if not len(hits):
            raise ValueError(f"time {time} is not on the snapshot grid")
        return int(hits[0])

    mean_terms = []
    qv_terms = []
    recon = 0.0
    for rec in records:
        ps, pt = snap_pos(rec, s), snap_pos(rec, t)
        Ms = reconstruct_martingale(rec, ps)
        Mt = reconstruct_martingale(rec, pt)
        jt = int(np.nonzero(rec.integral_snap_idx == rec.snap_idx[pt])[0][0])
        recon = max(recon, float(np.max(np.abs(Mt - rec.snap_integrals["noise"][jt]))))
        hval = h(rec, int(rec.snap_idx[ps]))
        mps, mpt = float(np.dot(Ms, psi_n[: rec.n])), float(np.dot(Mt, psi_n[: rec.n]))
        mzs, mzt = float(np.dot(Ms, zeta_n[: rec.n])), float(np.dot(Mt, zeta_n[: rec.n]))
        q_st = rec.qv_cum[pt, qcol] - rec.qv_cum[ps, qcol]
        mean_terms.append((mpt - mps) * hval)
        qv_terms.append((mpt * mzt - mps * mzs - q_st) * hval)

    def zscore(vals):
        vals = np.asarray(vals)
        sd = np.std(vals, ddof=1)
        if sd == 0:
            return 0.0
        return float(np.mean(vals) / (sd / math.sqrt(len(vals))))

    return MartingaleReport(
        mean_zscore=zscore(mean_terms),
        qv_zscore=zscore(qv_terms),
        reconstruction_residual=recon,
        trajectories=len(records),
    )
