"""Euler-Maruyama integration of the spectral Galerkin system

    du = -[ P_n Acal u + B_n(u) - P_n f ] dt + P_n G(u) dW,   u(0) = P_n u0.

The active n-dimensional subspace is compiled once per (domain, scale, n,
noise model) and kept in one module-level cache: the Stokes multiplier is
diagonal, the tamed nonlinearity a sparse contraction over the nonzero
triplets of the convection form and each noise direction a dense matrix, all
derived from the exact spectral operators.  One stepper advances a block of
trajectories as the rows of a (B, n) state, with row-independent operations
only, and returns them as one record, an `Ensemble` of stacked (R, ...)
arrays that holds the config it was integrated from, which alone fixes the
grid, the probes and the basis every diagnostic reads; a single trajectory
is an Ensemble of one row, and `Ensemble.rows` selects rows.  Every trajectory is
a pure function of (config, seed, index) -- one Philox stream per
trajectory -- so ensembles are reproducible bitwise for any worker count and
any blocks.

Besides states, norms and snapshots, the stepper records what the config's
record set (`GalerkinConfig.records`, names of `RECORDS`) asks for: the
energy ledger (drift work, forcing work, martingale increment, quadratic
remainder), which closes the discrete energy identity to roundoff, the
running Stokes, convection and forcing integrals (one record, the drift)
and the running noise integral, snapshotted so the martingale part of the
path can be reconstructed and tested for zero mean and prescribed quadratic
variation.  An unrecorded output costs no step work and no memory, and a
reader that needs it raises ValueError naming it; every recorded array has
the same bits whatever else is recorded.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields

import numpy as np

from .noise import NoiseModel, noise_matrices
from .nonlinear import CutoffSpec
from .spectral import Basis, ROLE_COS, SpectralField, project_Pn, stack


# -- Wiener increments -------------------------------------------------------


def generate_wiener(steps: int, M: int, dt: float, seed: int, traj_index: int = 0) -> np.ndarray:
    """Increments (steps, M) of the truncated cylindrical Wiener process,
    N(0, dt) each, Philox-keyed: identical for identical (seed, traj_index)."""
    if steps < 1 or M < 0:
        raise ValueError("need steps >= 1 and M >= 0")
    gen = np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), traj_index]))
    return gen.normal(0.0, math.sqrt(dt), size=(steps, M))


# -- compiled subspace -------------------------------------------------------


def build_convection_tensor(basis: Basis, n: int) -> tuple:
    """Nonzero triplets (I, J, K, V) of T[i, j, k] = b(e_j, e_k, e_i) on the
    first n real eigenfields, sorted by (i, j, k).

    Each real mode is a pair of exponentials: amplitude A at its canonical
    lattice row and conj(A) at the negated row.  Every pair of exponentials
    (of e_j and e_k) whose wavevectors sum to a lattice row is paired with
    each exponential of e_i at that row, and coinciding (i, j, k) are summed
    in a fixed order.  Agrees with the dealiased-grid oracle of
    `sgns.nonlinear` to roundoff (tested); never cached here, so every call
    is a real build."""
    dom = basis.domain
    slot = basis.mode_slot[:n]
    phase = np.where(basis.mode_role[:n] == ROLE_COS, 1.0, 1.0j)
    amp = basis._exp_alpha * phase[:, None] * basis.slot_eps[slot]
    mode = np.concatenate([np.arange(n), np.arange(n)])
    row = np.concatenate([basis._slot_row[slot], basis._slot_row_neg[slot]])
    amp = np.concatenate([amp, amp.conj()])
    kap = dom.kappa(basis.lattice_k[row])

    # lattice row of every wavevector sum, from the affine index of the box
    flat = basis.lattice_k[row] @ basis.box_stride
    out = basis.box_rows[flat[:, None] + flat[None, :] + basis.box_origin]
    p, q = np.nonzero(out >= 0)
    o = out[p, q]

    # exponentials of the first n modes at each lattice row, grouped by row
    by_row = np.argsort(row, kind="stable")
    count = np.bincount(row, minlength=len(basis.lattice_k))
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


def _fold_symmetric(I, J, K, V, n: int) -> tuple:
    """Merge T[i, j, k] and T[i, k, j] into one triplet with j <= k, which
    gives the same quadratic form x_j x_k; sorted by (i, j, k)."""
    key = (I * n + np.minimum(J, K)) * n + np.maximum(J, K)
    uniq, inv = np.unique(key, return_inverse=True)
    W = np.bincount(inv, weights=V, minlength=len(uniq))
    keep = W != 0.0
    uniq, W = uniq[keep], W[keep]
    return uniq // (n * n), uniq // n % n, uniq % n, W


class CompiledGalerkin:
    """Realization of the Galerkin right-hand side on the first n modes:
    diagonal Stokes weights, sparse convection triplets, noise matrices."""

    def __init__(self, basis: Basis, n: int, model: NoiseModel | None, include_B: bool = True):
        self.n = n
        self.lamD = basis.mode_weights("D", n)
        self.wUdual = basis.mode_weights("Udual", n)
        # weights of the squared H, Dirichlet and U' norms
        self.norm_weights = np.stack([np.ones(n), self.lamD, self.wUdual])
        self.include_B = include_B
        if include_B:
            I, self._J, self._K, self._V = _fold_symmetric(*build_convection_tensor(basis, n), n)
            # each output coordinate is one segment of the i-sorted triplets
            self._starts = np.flatnonzero(np.diff(I, prepend=-1))
            self._rows = I[self._starts]
        if model is not None and model.M > 0:
            self.G = np.stack(noise_matrices(model, basis, n))  # (M, n, n)
            self.M = model.M
        else:
            self.G = None
            self.M = 0

    def convection(self, x: np.ndarray) -> np.ndarray:
        """Coordinates of P_n B(u, u) (untamed) for x of shape (n,) or for
        each row of x (B, n).  A gather and a segmented reduce along each
        row, so a row's result depends on that row alone, not on B.

        The products V x_j x_k are formed in one (B, triplets) array:
        `np.take` gathers x_j, and V and the x_k gather multiply it in
        place.  Each entry is (V x_j) x_k, the order of V * x[:, J] *
        x[:, K], so the array the reduce reads is bitwise that product's.
        J and K lie in [0, n) by construction; mode="wrap" skips the
        bounds check of the default mode, which made the gather slower
        than fancy indexing at n = 16."""
        out = np.zeros(x.shape)
        if not self.include_B or not len(self._V):
            return out
        X = x.reshape(-1, self.n)
        prod = np.take(X, self._J, axis=1, mode="wrap")
        prod *= self._V
        prod *= np.take(X, self._K, axis=1, mode="wrap")
        out.reshape(-1, self.n)[:, self._rows] = np.add.reduceat(prod, self._starts, axis=1)
        return out

    def encode(self, u: SpectralField) -> np.ndarray:
        return u.basis.real_coords(u, self.n)


# compiled systems, keyed by value: everything in one depends only on the
# domain, the norm scale, n, the noise model and whether B is included
_COMPILED: dict = {}


def _compiled(basis: Basis, n: int, model, include_B: bool) -> CompiledGalerkin:
    key = (basis.domain, basis.scale, n, model, include_B)
    sys = _COMPILED.get(key)
    if sys is None:
        sys = _COMPILED[key] = CompiledGalerkin(basis, n, model, include_B)
    return sys


def any_noise(config) -> bool:
    """Whether any noise reaches the Galerkin level of `config`: a noise
    direction whose compiled matrix of P_n G is not all zero.  Compiles the
    system if it is not cached."""
    sys = _compiled(config.basis, config.n, config.model, config.include_B)
    return sys.G is not None and bool(np.any(sys.G))


# -- configuration ------------------------------------------------------------

# bound on dt * lambda_D,max for each explicit scheme: Euler-Maruyama keeps its
# Stokes factor 1 - dt lambda positive, classical RK4 stays inside its real
# stability interval [-2.785, 0].  The exponential scheme takes the Stokes
# part exactly and has no gate.
STABILITY_LIMITS = {"em": 1.0, "rk4": 2.78}
SCHEMES = ("em", "exponential")  # the schemes of the stochastic stepper

LEDGER = ("drift_work", "b_work", "forcing_work", "mart_work", "delta_sq", "ito_step", "hs_step")
INTEGRALS = ("stokes", "convection", "forcing", "noise")
# the optional outputs of the stepper: the energy ledger (the LEDGER arrays,
# read by `energy_budget_check`), the Stokes, convection and forcing
# integrals, which every reader reads together, and the noise integral
RECORDS = ("ledger", "integral_drift", "integral_noise")


def integral_record(term: str) -> str:
    """The record of RECORDS that holds the running integral `term` of
    INTEGRALS."""
    return "integral_noise" if term == "noise" else "integral_drift"


def level_violations(basis: Basis, levels) -> list:
    """Galerkin levels outside [1, n_modes]."""
    return [f"n = {n} outside [1, {basis.n_modes}]" for n in levels if not 1 <= n <= basis.n_modes]


def horizon_violations(basis: Basis, levels, dt: float, T: float, scheme: str) -> list:
    """Every way a step dt and horizon T fail a run on the given Galerkin
    levels: dt > 0 and T >= dt, T a whole number of steps, and the stability
    gate of an explicit scheme at the largest active Dirichlet multiplier."""
    if not dt > 0 or T < dt:
        return ["need dt > 0 and T >= dt"]
    out = []
    ratio = T / dt
    if abs(ratio - round(ratio)) > 1e-9 * ratio:
        out.append(f"horizon T = {T} is not a whole number of steps dt = {dt} (T/dt = {ratio:.12g})")
    limit = STABILITY_LIMITS.get(scheme)
    if limit is not None and len(levels):
        lam_max = max(float(np.max(basis.mode_weights("D", n))) for n in levels)
        if dt * lam_max >= limit:
            out.append(
                f"dt = {dt} fails the {scheme} stability gate: "
                f"dt * lambda_D,max = {dt * lam_max:.6g} >= {limit}"
            )
    return out


@dataclass
class GalerkinConfig:
    basis: Basis
    n: int
    dt: float
    T: float
    u0: SpectralField
    model: NoiseModel | None = None
    forcing: SpectralField | None = None  # constant in time
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
    # snapshot-spacing lags 1..modulus_lags whose per-path U' increment maxima
    # the stepper records (`lag_maxima`) for the modulus of continuity
    modulus_lags: int = 0
    # the outputs of RECORDS the stepper records; an unrecorded one has
    # width 0 and costs no step work
    records: frozenset = frozenset(RECORDS)

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ValueError(f"scheme must be 'em' or 'exponential', got {self.scheme!r}")
        violations = (level_violations(self.basis, (self.n,))
                      or horizon_violations(self.basis, (self.n,), self.dt, self.T, self.scheme))
        if violations:
            raise ValueError("; ".join(violations))
        if self.model is not None and self.model.d != self.basis.domain.d:
            raise ValueError("noise model dimension disagrees with the domain")
        lags = len(self.snap_times) - 1
        if not 0 <= self.modulus_lags <= lags:
            raise ValueError(f"modulus_lags = {self.modulus_lags} outside [0, {lags}], "
                             "the lags of the snapshot grid")
        unknown = set(self.records) - set(RECORDS)
        if unknown:
            raise ValueError(f"unknown records {sorted(unknown)}; GalerkinConfig.records takes "
                             f"names of RECORDS = {RECORDS}")
        self.records = frozenset(self.records)
        for pair in self.qv_pairs:
            if not all(0 <= i < len(self.probes) for i in pair):
                raise ValueError(f"qv_pairs entry {tuple(pair)} has a probe index outside "
                                 f"[0, {len(self.probes)}), the configured probes")

    @property
    def steps(self) -> int:
        return int(round(self.T / self.dt))

    @property
    def M(self) -> int:
        return self.model.M if self.model is not None else 0

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.steps + 1) * self.dt

    @property
    def snap_idx(self) -> np.ndarray:
        return _snapshot_indices(self.steps, self.snapshot_stride)

    @property
    def integral_snap_idx(self) -> np.ndarray:
        return _snapshot_indices(self.steps, self.integral_stride)

    @property
    def snap_times(self) -> np.ndarray:
        return self.snap_idx * self.dt

    @property
    def integral_stride(self) -> int:
        if self.integral_snapshot_stride is None:
            return self.snapshot_stride
        return self.integral_snapshot_stride

    @property
    def cutoff(self) -> CutoffSpec:
        return CutoffSpec(self.cutoff_level if self.cutoff_level is not None else float(self.n))

    @property
    def probe_coords(self) -> np.ndarray:
        """Coordinates (probes, n) of the probes on the first n modes."""
        return self.basis.real_coords(stack(self.probes), self.n) if self.probes else np.zeros((0, self.n))


def require_records(config: GalerkinConfig, reader: str, *names) -> None:
    """ValueError unless config records every output `names` that `reader`
    reads, naming the missing ones."""
    missing = [name for name in names if name not in config.records]
    if missing:
        raise ValueError(f"{reader} needs the {', '.join(missing)} record(s), which this ensemble "
                         f"was recorded without (GalerkinConfig.records = "
                         f"{[name for name in RECORDS if name in config.records]})")


# -- trajectory records ----------------------------------------------------------


@dataclass(eq=False)
class Ensemble:
    """Trajectories `indices` of `config` as the rows of stacked arrays
    [R, ...] over the config's grid; one trajectory is an Ensemble of one
    row.  Every field but `config` holds one entry per row along its first
    axis (refinement_I is None without a refinement probe), and `rows`
    selects them.  An aborted row reads zero after its abort step.  The
    functionals reduce the step axis: one value per row."""

    config: GalerkinConfig
    indices: np.ndarray  # (R,) trajectory indices
    norm_H: np.ndarray  # (R, steps + 1), likewise norm_D and norm_Udual
    norm_D: np.ndarray
    norm_Udual: np.ndarray
    drift_work: np.ndarray  # (R, steps), likewise the rest of the LEDGER; (R, 0) unrecorded
    b_work: np.ndarray
    forcing_work: np.ndarray
    mart_work: np.ndarray
    delta_sq: np.ndarray
    ito_step: np.ndarray
    hs_step: np.ndarray
    snap_u: np.ndarray  # (R, S, n) at config.snap_idx
    # INTEGRALS term -> (R, S_J, n) at config.integral_snap_idx; (R, 0, n) unrecorded
    snap_integrals: dict
    u0_coords: np.ndarray  # (R, n)
    qv_cum: np.ndarray  # (R, S, len(config.qv_pairs))
    refinement_I: np.ndarray | None  # (R, S)
    lag_maxima: np.ndarray  # (R, modulus_lags): max over s of |u(s + l) - u(s)|_{U'}
    cutoff_min: np.ndarray  # (R,)
    abort_step: np.ndarray  # (R,), -1 on a row that ran to the end

    def __len__(self) -> int:
        return len(self.indices)

    def rows(self, sel) -> Ensemble:
        """The Ensemble of rows `sel` (a slice, index list or boolean mask)
        of the same config: views of these arrays for a slice, copies
        otherwise."""
        def pick(v):
            if isinstance(v, dict):
                return {key: a[sel] for key, a in v.items()}
            return None if v is None else v[sel]

        return Ensemble(config=self.config, **{f.name: pick(getattr(self, f.name))
                                                for f in fields(self) if f.name != "config"})

    @property
    def aborted(self) -> np.ndarray:
        return self.abort_step >= 0

    def sup_H(self):
        return np.max(self.norm_H, axis=1)

    def integral_dirichlet2(self):
        """Left-endpoint quadrature of the Dirichlet energy integral."""
        return self.integral_weighted(2.0)

    def integral_weighted(self, p: float):
        """Left-endpoint quadrature of the |u|^(p-2) ||u||^2 integral (at
        p = 2, of ||u||^2), taken on `_row_blocks`."""
        out = np.empty(len(self))
        for at in _row_blocks(self):
            d2 = self.norm_D[at, :-1] ** 2
            if p != 2.0:
                d2 *= self.norm_H[at, :-1] ** (p - 2)
            out[at] = np.sum(d2, axis=1)
        return out * self.config.dt


def _row_blocks(ens: Ensemble) -> list:
    """Row slices of ens whose (rows, steps) arrays hold at most 2^16
    entries: a reader that reduces per row on them gets the bits of the
    whole array and holds one block's temporaries at a time."""
    rows = max(1, 2**16 // ens.config.steps)
    return [slice(lo, lo + rows) for lo in range(0, len(ens), rows)]


def float_map(fn, x) -> np.ndarray:
    """fn of each entry of x as a Python float, as a float64 array: the C
    library's pow and math.tanh, whose bits numpy's own loops do not give
    (an array's x ** 2.2 differs in about 5% of entries, x ** 2 in some)."""
    return np.frompyfunc(fn, 1, 1)(x).astype(np.float64)


def _grid_positions(grid: np.ndarray, times, dt: float) -> np.ndarray:
    """Position on a snapshot time grid of each of `times` (same shape), which
    must lie within dt/2 of a grid point."""
    times = np.asarray(times, dtype=float)
    pos = np.argmin(np.abs(grid[:, None] - times.ravel()), axis=0)
    off = np.abs(grid[pos] - times.ravel()) > dt / 2
    if np.any(off):
        raise ValueError(f"time {times.ravel()[off][0]} is not on the snapshot grid")
    return pos.reshape(times.shape)


def _snapshot_indices(steps: int, stride: int) -> np.ndarray:
    if stride <= 0:
        return np.array([0, steps], dtype=int)
    idx = list(range(0, steps + 1, stride))
    if idx[-1] != steps:
        idx.append(steps)
    return np.array(idx, dtype=int)


# -- increments ---------------------------------------------------------------


def _norms_of(diff: np.ndarray, w: np.ndarray) -> np.ndarray:
    """|diff|_{U'} along the last axis, with w the U'-weights; squares diff
    in place."""
    diff *= diff
    return np.sqrt(np.einsum("...n,n->...", diff, w))


def _increment_norms(coords: np.ndarray, lag: int, w: np.ndarray) -> np.ndarray:
    """|x(s + lag) - x(s)|_{U'} along the second-last axis of coords (..., S, n),
    with w the U'-weights: shape (..., S - lag)."""
    return _norms_of(coords[..., lag:, :] - coords[..., :-lag, :], w)


# paths whose lag maxima are formed together.  A block holds about ten
# (rows, S) arrays, 1.3 MB at 1,025 snapshots, besides one path's (S, n)
# difference.  64 lags on 50 tightness paths of 1,025 snapshots, one Xeon
# core: n = 8/16/32 took 30/35/42 ms in blocks of 16 and 25/30/35 ms in one
# block of 50, which raised each n = 32 tightness worker's peak RSS over
# the brute force by 5.5 MB (2.8 MB in blocks of 16).
LAG_ROWS = 16


def _lag_maxima(coords: np.ndarray, w: np.ndarray, max_lag: int) -> np.ndarray:
    """m[r, l-1] = max_s |x_r(s + l) - x_r(s)|_{U'} for lags 1..max_lag, from
    coords (R, S, n): the bits of the maximum of every increment's norm by
    `_increment_norms`, the same in any row block.

    Every increment's norm is formed only at the power-of-two lags 1, 2,
    4, ....  At another lag l the increment from s is the sum of the
    increments along l's binary digits, so by the triangle inequality its
    norm is at most the sum of theirs.  That sum times 1 + 1e-9 also
    bounds the computed norm: a computed norm lies within (n + 3) 2^-53 of
    the exact one, relative to it, and the sum of at most 7 terms adds
    7 2^-53, so the margin holds for n up to about 10^6.  A lower bound of
    the maximum comes from three exact probes, the increments at and one
    before the previous lag's argmax and at the bound's argmax; the exact
    norm is formed only where the bound reaches it.  Every increment whose
    norm is the maximum is among those, so the maximum is exact; on
    tightness paths about 2% of the increments are."""
    R, S, n = coords.shape
    out = np.zeros((R, max_lag))
    for lo in range(0, R, LAG_ROWS):
        block = coords[lo : lo + LAG_ROWS]
        B = len(block)
        flat, base = block.reshape(-1, n), np.arange(B) * S
        pow2 = {1 << bit: np.stack([_increment_norms(path, 1 << bit, w) for path in block])
                for bit in range(max_lag.bit_length())}  # (B, S - 2^bit), one path at a time
        for lag in range(1, max_lag + 1):
            if lag in pow2:
                arg = np.argmax(pow2[lag], axis=1)
                out[lo : lo + B, lag - 1] = np.max(pow2[lag], axis=1)
                continue
            count = S - lag
            bound, at = np.zeros((B, count)), 0
            for digit in (1 << bit for bit in range(lag.bit_length()) if lag >> bit & 1):
                bound += pow2[digit][:, at : at + count]
                at += digit
            probes = np.empty((B, 3), dtype=np.intp)
            probes[:, :2] = np.clip(arg[:, None] - (0, 1), 0, count - 1)
            probes[:, 2] = np.argmax(bound, axis=1)
            start = base[:, None] + probes
            probe_norms = _norms_of(flat[start + lag] - flat[start], w)
            best = np.max(probe_norms, axis=1)
            # candidates k = r * count + s, where bound (1 + 1e-9) >= best;
            # a NaN bound is one
            k = np.flatnonzero(~(bound < (best / (1.0 + 1e-9))[:, None]))
            r = k // count
            start = k + r * lag
            vals = _norms_of(flat[start + lag] - flat[start], w)
            np.maximum.at(best, r, vals)
            out[lo : lo + B, lag - 1] = best
            # an argmax of this lag, for the next lag's probes
            arg = probes[np.arange(B), np.argmax(probe_norms, axis=1)]
            hit = vals == best[r]
            arg[r[hit]] = k[hit] - r[hit] * count
    return out


# -- stepping -------------------------------------------------------------------

# rows x convection triplets one block may hold; fewer than 2,000 triplets
# count as 2,000.  Past it a step's (rows, triplets) product array leaves the
# cache: per row-step of `integrate_batch` on the default 2D config, one
# x86-64 core with 2 MB of L2, over repeated runs on a shared host, n = 128
# (8,704 triplets) cost 33-55 us at 22 and at 32 rows and 83-112 us at 48;
# n = 32 (440 triplets) cost 8-9 us at 100, 200 and 400 rows alike, so the
# cap binds only at large n.
BLOCK_CACHE = 2 * 10**5


def cache_rows(config: GalerkinConfig) -> int:
    """Rows one block of the stepper may hold: rows x max(triplets, 2000) <=
    BLOCK_CACHE, at least 1.  Compiles the system if it is not cached."""
    sys = _compiled(config.basis, config.n, config.model, config.include_B)
    triplets = len(sys._V) if sys.include_B else 0
    return max(1, BLOCK_CACHE // max(triplets, 2000))


def _row_shapes(config: GalerkinConfig) -> dict:
    """Shape after the row axis of every per-row array of an Ensemble, by
    field name: norms, ledger, snapshots with their quadratic-variation and
    refinement entries (the latter only with a refinement probe), integral
    snapshots (keyed by term), u0, the lag maxima, the cutoff minimum and
    the abort step.  An output config.records leaves out has width 0 along
    its step or snapshot axis.  Every entry is 8 bytes."""
    steps, n, records = config.steps, config.n, config.records
    snaps, isnaps = len(config.snap_idx), len(config.integral_snap_idx)
    shapes = {name: (steps + 1,) for name in ("norm_H", "norm_D", "norm_Udual")}
    shapes.update({name: (steps if "ledger" in records else 0,) for name in LEDGER})
    shapes.update(snap_u=(snaps, n), qv_cum=(snaps, len(config.qv_pairs)))
    if config.refinement_probe is not None:
        shapes.update(refinement_I=(snaps,))
    shapes.update({name: (isnaps if integral_record(name) in records else 0, n) for name in INTEGRALS})
    shapes.update(u0_coords=(n,), lag_maxima=(config.modulus_lags,), cutoff_min=(), abort_step=())
    return shapes


def _stacked(config: GalerkinConfig, indices) -> Ensemble:
    """The zeroed Ensemble of trajectories `indices`, its arrays of
    `_row_shapes` carved from one anonymous shared mapping, so that pool
    workers forked after it is made write into the same pages.  abort_step
    is int64, the rest float64."""
    indices = np.array(indices, dtype=int)
    shapes = _row_shapes(config)
    sizes = [len(indices) * math.prod(shape) for shape in shapes.values()]
    total = sum(sizes)
    flat = np.frombuffer(mmap.mmap(-1, max(8 * total, 1)), dtype=np.float64, count=total)
    arrays, at = {"refinement_I": None}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        arrays[name] = flat[at : at + size].reshape((len(indices), *shape))
        at += size
    arrays["abort_step"] = arrays["abort_step"].view(np.int64)
    integrals = {name: arrays.pop(name) for name in INTEGRALS}
    return Ensemble(config=config, indices=indices, snap_integrals=integrals, **arrays)


def _sq_norms(sys: CompiledGalerkin, x: np.ndarray) -> np.ndarray:
    """Squared H, Dirichlet and U' norms of each row of x (B, n), as (3, B)."""
    return np.add.reduce(sys.norm_weights * (x * x)[:, None, :], axis=2).T


def _step(sys, config, cutoff, x, ud, f, dw):
    """One step of the scheme on the rows of x (B, n), whose U' norms are
    ud, under forcing coordinates f (n,) and Wiener increments dw (B, M).

    Returns (x_new, y, theta, tbx, bx, g, xi): the cutoff factors, the tamed
    and untamed convection, the noise directions applied to each row
    (B, M, n), the noise increment, and y, the new state before the Stokes
    factor of the exponential scheme (None under EM).  Only elementwise
    operations, per-row reductions and one matrix-vector product per row and
    direction, so each row's result depends on that row alone.

    theta is None when the cutoff is idle, every U' norm at or below its
    level (a NaN norm is not): then every factor is 1.0, and since 1.0 v
    is v, tbx is bx itself, the same bits as theta * bx."""
    dt = config.dt
    bx = sys.convection(x)
    theta, tbx = None, bx
    if sys.include_B and not ud.max() <= cutoff.level:
        theta = cutoff.theta(ud)
        tbx = theta[:, None] * bx
    if sys.M:
        g = np.matmul(sys.G, x[:, None, :, None])[..., 0]
        xi = np.matmul(dw[:, None, :], g)[:, 0]
    else:
        g, xi = None, np.zeros_like(x)
    if config.scheme == "em":
        return x + dt * (f - sys.lamD * x - tbx) + xi, None, theta, tbx, bx, g, xi
    y = x + dt * (f - tbx) + xi
    return np.exp(-sys.lamD * dt) * y, y, theta, tbx, bx, g, xi


def _integrate_rows(ens: Ensemble, dW=None, x0=None) -> None:
    """Integrate the B trajectories `ens.indices` of `ens.config` together
    as the rows of one (B, n) state, each driven by its own Philox stream
    (or by its column of the increments `dW` (steps, B, M) when given),
    writing norms, ledger and snapshots into the zeroed arrays of `ens` in
    place.  Every row starts from the coordinates of P_n config.u0, or from
    its row of `x0` (B, n) when given; `u0_coords` records each row's start.

    Each row is bitwise the same whatever the other rows, their number or
    their order.  The energy ledger closes the discrete energy identity for
    both schemes; under the exponential scheme the drift work and the Stokes
    integral are taken across the Stokes factor.  The ledger's seven
    reductions and each running integral's update run only when
    config.records names them, and an unrecorded output's arrays have width
    0; every recorded array is the same bits whatever else is recorded.  A
    row whose state leaves the finite range or passes `overflow_limit` is
    aborted: its norms are written once more with the non-finite entries
    zeroed, and everything after that step reads zero.  Last, each row's U' increment maxima over lags
    1..modulus_lags of the snapshot grid are taken from its snapshots
    (`_lag_maxima`).

    Two checks skip per-step work that would change no bit.  While the
    cutoff is idle (`_step` returns theta None) the cutoff minimum is not
    updated, since every factor is 1.0, and the taming work's factor is
    -2 dt.  One maximum of |x| over the whole block, at or below the limit,
    clears every row of the overflow check; only otherwise is each row's
    peak taken, and only after a row aborts is it asked whether any row is
    left.
    """
    config = ens.config
    sys = _compiled(config.basis, config.n, config.model, config.include_B)
    steps, n, dt = config.steps, config.n, config.dt
    B = len(ens)
    if dW is None:
        dW = np.stack([generate_wiener(steps, config.M, dt, config.seed, i) for i in ens.indices.tolist()],
                      axis=1)
    elif dW.shape != (steps, B, config.M):
        raise ValueError(f"Wiener increments of shape {dW.shape} do not match "
                         f"(steps, B, M) = ({steps}, {B}, {config.M})")

    if x0 is None:
        x = np.repeat(sys.encode(project_Pn(config.u0, n))[None], B, axis=0)
    else:
        x = np.array(x0, dtype=np.float64)
        if x.shape != (B, n):
            raise ValueError(f"initial states of shape {x.shape} do not match (B, n) = ({B}, {n})")
    ens.u0_coords[:] = x
    norm_H, norm_D, norm_Ud = ens.norm_H, ens.norm_D, ens.norm_Udual
    ledger = "ledger" in config.records
    led = {name: getattr(ens, name) for name in LEDGER}

    snap_idx, integral_snap_idx = config.snap_idx, config.integral_snap_idx
    snap_at = np.full(steps + 1, -1)
    snap_at[snap_idx] = np.arange(len(snap_idx))
    integral_snap_at = np.full(steps + 1, -1)
    integral_snap_at[integral_snap_idx] = np.arange(len(integral_snap_idx))
    snap_u, snap_integrals = ens.snap_u, ens.snap_integrals
    drift, noise = "integral_drift" in config.records, "integral_noise" in config.records
    # the running integrals config.records names, by term
    integrals = {name: np.zeros((B, n)) for name in INTEGRALS if integral_record(name) in config.records}

    probes_n = config.probe_coords
    qv_pairs = tuple(config.qv_pairs)
    qv_cum = ens.qv_cum
    qv_run = np.zeros((B, len(qv_pairs)))
    refinement = config.refinement_probe is not None
    ref_coords = sys.encode(config.refinement_probe) if refinement else None
    ref_I = ens.refinement_I
    ref_run = np.zeros(B)

    cutoff = config.cutoff
    forced = config.forcing is not None
    f = sys.encode(config.forcing) if forced else np.zeros(n)
    cutoff_min, abort_step = ens.cutoff_min, ens.abort_step
    cutoff_min[:] = 1.0
    abort_step[:] = -1
    alive = np.ones(B, dtype=bool)
    # the overflow limit as a finite bound, which an inf or NaN state fails
    limit = min(config.overflow_limit, np.finfo(np.float64).max)

    h2, d2, u2 = _sq_norms(sys, x)
    norm_H[:, 0], norm_D[:, 0], norm_Ud[:, 0] = np.sqrt(h2), np.sqrt(d2), np.sqrt(u2)
    snap_u[:, 0] = x
    # aborted rows keep stepping, masked below, and may overflow on the way
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(steps):
            x_new, y, theta, tbx, bx, g, xi = _step(sys, config, cutoff, x, norm_Ud[:, j], f, dW[j])
            if theta is not None:
                np.minimum(cutoff_min, np.where(alive, theta, 1.0), out=cutoff_min)
            if drift:
                integrals["convection"] -= dt * tbx
                if forced:
                    integrals["forcing"] += dt * f
                if y is None:
                    integrals["stokes"] -= dt * (sys.lamD * x)
                else:
                    integrals["stokes"] += x_new - y
            if noise:
                integrals["noise"] += xi
            if qv_pairs and g is not None:
                gp = g @ probes_n.T  # (B, M, P)
                for q, (a, b) in enumerate(qv_pairs):
                    qv_run[:, q] += dt * np.add.reduce(gp[:, :, a] * gp[:, :, b], axis=1)
            if refinement:
                ref_run += dt * np.add.reduce(bx * ref_coords, axis=1)
            if ledger:
                # an idle cutoff's factor (-2 dt) 1.0 is -2 dt
                b_factor = -2.0 * dt if theta is None else -2.0 * dt * theta
                led["b_work"][:, j] = b_factor * np.add.reduce(x * bx, axis=1)
                led["mart_work"][:, j] = 2.0 * np.add.reduce(x * xi, axis=1)
                led["ito_step"][:, j] = np.add.reduce(xi * xi, axis=1)
                if forced:
                    led["forcing_work"][:, j] = 2.0 * dt * np.add.reduce(x * f, axis=1)
                if g is not None:
                    led["hs_step"][:, j] = np.add.reduce((g * g).reshape(B, -1), axis=1) * dt
                if y is None:
                    led["drift_work"][:, j] = -2.0 * dt * d2
                    led["delta_sq"][:, j] = np.add.reduce((x_new - x) ** 2, axis=1)
                else:
                    led["delta_sq"][:, j] = np.add.reduce((y - x) ** 2, axis=1)

            x = x_new
            h2, d2, u2 = _sq_norms(sys, x)
            if ledger and y is not None:
                led["drift_work"][:, j] = h2 - np.add.reduce(y * y, axis=1)
            # one block-wide maximum clears every row; only past it does
            # each row's peak decide
            ended = False
            if not np.abs(x).max() <= limit:
                bad = alive & ~(np.maximum.reduce(np.abs(x), axis=1) <= limit)
                if np.logical_or.reduce(bad):
                    abort_step[bad] = j + 1
                    alive &= ~bad
                    ended = not np.logical_or.reduce(alive)
                    x = np.where(np.isfinite(x), x, 0.0)
                    h2, d2, u2 = _sq_norms(sys, x)
            norm_H[:, j + 1], norm_D[:, j + 1], norm_Ud[:, j + 1] = np.sqrt(h2), np.sqrt(d2), np.sqrt(u2)
            if ended:
                break
            pos = snap_at[j + 1]
            if pos >= 0:
                snap_u[:, pos] = x
                if qv_pairs:
                    qv_cum[:, pos] = qv_run
                if refinement:
                    ref_I[:, pos] = ref_run
            pos = integral_snap_at[j + 1]
            if pos >= 0:
                for name, run in integrals.items():
                    snap_integrals[name][:, pos] = run

    # an aborted row keeps what it had at its abort step and zeros after it
    for r in np.flatnonzero(abort_step >= 0):
        a = abort_step[r]
        if ledger:
            for arr in led.values():
                arr[r, a:] = 0.0
        for arr in (norm_H, norm_D, norm_Ud):
            arr[r, a + 1 :] = 0.0
        late = snap_idx >= a
        snap_u[r, late] = qv_cum[r, late] = 0.0
        if refinement:
            ref_I[r, late] = 0.0
        for name in integrals:
            snap_integrals[name][r, integral_snap_idx >= a] = 0.0
    if config.modulus_lags:
        ens.lag_maxima[:] = _lag_maxima(snap_u, sys.wUdual, config.modulus_lags)


def integrate_batch(config: GalerkinConfig, indices, dW=None, x0=None) -> Ensemble:
    """Integrate trajectories `indices` together as the rows of one (B, n)
    state (see `_integrate_rows`), each from P_n config.u0 or from its row
    of `x0` (B, n), and driven by its own Philox stream or by its column of
    `dW` (steps, B, M); row r of the Ensemble is trajectory indices[r].
    One trajectory is `integrate_batch(config, [i])`."""
    ens = _stacked(config, indices)
    _integrate_rows(ens, dW, x0)
    return ens


# the ensemble being integrated; pool workers inherit it at fork, so a block
# is only its rows [lo, hi), which it writes in place
_ENSEMBLE: dict = {}


def _run_chunk(block) -> None:
    lo, hi = block
    _integrate_rows(_ENSEMBLE["ens"].rows(slice(lo, hi)))


def integrate_ensemble(config: GalerkinConfig, n_traj: int, workers: int = 1) -> Ensemble:
    """Independent trajectories 0..n_traj-1, the rows of one Ensemble in order.

    The stacked (n_traj, ...) arrays are allocated once, in one anonymous
    shared mapping, and each block writes its rows in place, so no row is
    pickled.  A block is an equal share of the rows per worker, capped by
    `cache_rows`, which also compiles the system that forked workers
    inherit.  With k = min(workers, blocks) > 1 the calling process is one
    of the k workers: it steps every k-th block, from the first, while a
    pool of k - 1 forked processes steps the others.  Every row is
    independent of the worker count, of the blocks and of the process that
    steps it."""
    share = math.ceil(n_traj / max(1, workers))
    rows = max(1, min(share, cache_rows(config)))
    blocks = [(lo, min(lo + rows, n_traj)) for lo in range(0, n_traj, rows)]
    k = min(workers, len(blocks))
    ens = _ENSEMBLE["ens"] = _stacked(config, range(n_traj))
    try:
        if k > 1:
            # fork explicitly: workers must inherit the shared mapping and the
            # compiled system built above, which spawned or forkserver
            # workers, starting from a fresh import, would not see
            ctx = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(max_workers=k - 1, mp_context=ctx) as pool:
                theirs = pool.map(_run_chunk, [b for i, b in enumerate(blocks) if i % k])
                for block in blocks[::k]:
                    _run_chunk(block)
                list(theirs)
        else:
            for block in blocks:
                _run_chunk(block)
    finally:
        _ENSEMBLE.clear()
    return ens


# -- diagnostics ----------------------------------------------------------------


@dataclass
class EnergyBudgetReport:
    max_relative_residual: float
    ito_zscore: float
    trajectories: int


def energy_budget_check(ens: Ensemble) -> EnergyBudgetReport:
    """Closure of the per-step energy identity plus the Ito-isometry z-score.

    The identity |u+|^2 - |u|^2 = (drift + taming + forcing + martingale work)
    + |du|^2 is exact in exact arithmetic for both schemes (for the
    exponential one the drift work is taken across the Stokes factor); the
    worst relative residual over the steps each path took is returned.  The
    step into an overflow may read inf/inf: a NaN residual counts for
    nothing, and the path's other steps still count.  The comparison of the
    realized quadratic noise increments against the integrated
    Hilbert-Schmidt norms is statistical and is reported as a z-score over
    the paths that did not abort.  The ensemble must have recorded the
    ledger (`GalerkinConfig.records`).
    """
    steps = ens.config.steps
    require_records(ens.config, "energy_budget_check", "ledger")
    upto = np.where(ens.aborted, ens.abort_step, steps)
    worst = np.zeros(len(ens))
    # in place where it can be, on row blocks; every reduction is per row,
    # so no bit depends on the blocks
    with np.errstate(invalid="ignore"):
        for at in _row_blocks(ens):
            h2 = ens.norm_H[at] ** 2
            rhs = (ens.drift_work[at] + ens.b_work[at] + ens.forcing_work[at] + ens.mart_work[at]
                   + ens.delta_sq[at])
            err = np.diff(h2, axis=1) - rhs
            np.abs(err, out=err)
            scale = np.abs(rhs, out=rhs)
            np.maximum(np.maximum(scale, h2[:, 1:], out=scale), h2[:, :-1], out=scale)
            err /= np.maximum(scale, 1.0, out=scale)
            err[np.arange(steps) >= upto[at, None]] = 0.0
            worst[at] = np.fmax.reduce(err, axis=1)
    live = ~ens.aborted
    diffs = np.sum(ens.ito_step, axis=1)[live] - np.sum(ens.hs_step, axis=1)[live]
    return EnergyBudgetReport(max_relative_residual=float(np.fmax.reduce(worst, initial=0.0)),
                              ito_zscore=_zscore(diffs), trajectories=len(ens))


def _zscore(vals: np.ndarray) -> float:
    """Mean over standard error; 0 for fewer than 2 values or no spread."""
    sd = np.std(vals, ddof=1) if len(vals) >= 2 else 0.0
    return float(np.mean(vals) / (sd / math.sqrt(len(vals)))) if sd > 0 else 0.0


def reconstruct_martingale(ens: Ensemble, pos: int) -> np.ndarray:
    """Martingale part at snapshot position `pos` of each row (R, n), rebuilt
    from the running integrals: u(t) - u(0) - (Stokes + convection - forcing
    integrals), which the ensemble must have recorded.  The snapshot must
    also be on the integral grid (ValueError naming its time)."""
    cfg = ens.config
    require_records(cfg, "reconstruct_martingale", "integral_drift")
    jpos = int(_grid_positions(cfg.integral_snap_idx * cfg.dt, cfg.snap_times[pos], cfg.dt))
    return (
        ens.snap_u[:, pos]
        - ens.u0_coords
        - ens.snap_integrals["stokes"][:, jpos]
        - ens.snap_integrals["convection"][:, jpos]
        - ens.snap_integrals["forcing"][:, jpos]
    )


@dataclass
class MartingaleReport:
    mean_zscore: float
    qv_zscore: float
    reconstruction_residual: float
    trajectories: int  # the paths that did not abort, which the report is over


def h_one(ens: Ensemble, step: int) -> np.ndarray:
    return np.ones(len(ens))


def h_tanh_sup(ens: Ensemble, step: int) -> np.ndarray:
    """Bounded functional of each path up to the conditioning time."""
    return float_map(lambda sup: math.tanh(sup**2), np.max(ens.norm_H[:, : step + 1], axis=1))


def martingale_diagnostic(ens: Ensemble, a: int, b: int, s: float, t: float, h=h_one) -> MartingaleReport:
    """Zero-mean and quadratic-variation z-scores of the reconstructed
    martingale part, paired against the probes psi = config.probes[a] and
    zeta = config.probes[b], over the paths that did not abort (an aborted
    path reads zero past its abort).

    The pair (a, b) or (b, a) must be among config.qv_pairs (its
    quadratic-variation integral is accumulated online during integration);
    s and t must lie on the snapshot grid and on the integral grid, and the
    ensemble must have recorded the drift and noise integrals.
    h(ens, step) weighs each path by a functional of it up to `step`.
    """
    require_records(ens.config, "martingale_diagnostic", "integral_drift", "integral_noise")
    live = ~ens.aborted
    count = int(np.count_nonzero(live))
    if count < 2:
        raise ValueError(f"need at least 2 live trajectories for z-scores, got {count}")
    cfg = ens.config
    for i in (a, b):
        if not 0 <= i < len(cfg.probes):
            raise ValueError(f"probe index {i} outside the {len(cfg.probes)} configured probes")
    psi_n, zeta_n = cfg.probe_coords[[a, b]]
    # (a, b) and (b, a) accumulate the same products, so either column serves
    cols = [q for q, pair in enumerate(cfg.qv_pairs) if pair in ((a, b), (b, a))]
    if not cols:
        raise ValueError(f"probe pair {(a, b)} has no accumulated quadratic variation")
    qcol = cols[0]

    ps, pt = _grid_positions(cfg.snap_times, (s, t), cfg.dt)
    Ms = reconstruct_martingale(ens, ps)[live]
    Mt = reconstruct_martingale(ens, pt)[live]
    jt = int(_grid_positions(cfg.integral_snap_idx * cfg.dt, cfg.snap_times[pt], cfg.dt))
    recon = float(np.max(np.abs(Mt - ens.snap_integrals["noise"][live, jt])))
    hval = h(ens, int(cfg.snap_idx[ps]))[live]
    # np.vecdot is the per-row np.dot to the bit; M @ psi_n is not
    mps, mpt = np.vecdot(Ms, psi_n), np.vecdot(Mt, psi_n)
    mzs, mzt = np.vecdot(Ms, zeta_n), np.vecdot(Mt, zeta_n)
    q_st = ens.qv_cum[live, pt, qcol] - ens.qv_cum[live, ps, qcol]
    return MartingaleReport(
        mean_zscore=_zscore((mpt - mps) * hval),
        qv_zscore=_zscore((mpt * mzt - mps * mzs - q_st) * hval),
        reconstruction_residual=recon,
        trajectories=count,
    )
