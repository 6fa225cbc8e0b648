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
any blocks.  The stepper, `step_chunks`, walks every step to the horizon in
time chunks and hands each chunk, every step of it, to one consumer: the
Ensemble writer, which alone reads the config's snapshot grid, or a reducer
of the caller's own, such as the uniqueness twins of `sgns.twodim`.

Every path's functionals are reduced as the steps are taken: its largest H
norm and its left-endpoint integrals of ||u||^2 |u|^(p-2) at the config's
`integral_powers`, summed in the order of numpy's pairwise sum over the
whole row (`_PairwiseSum`).  Besides them, the stepper records what the
config's record set (`GalerkinConfig.records`, names of `RECORDS`) asks
for: the norms of every step; the states; the reductions of the norms
that the tightness diagnostics read, the V-integral, the sum of
|u|^2 + ||u||^2 over the steps, in the same pairwise sum, and the
running-maximum record, the steps where |u|_H sets a new running maximum,
among them the first step at any level, with the increments from there;
the energy ledger, each step's drift, taming, forcing and martingale work
and quadratic remainder, which close the discrete energy identity to
roundoff, reduced per path as the steps are taken to the identity's worst
relative residual and the sums of the Ito and Hilbert-Schmidt increments;
the running Stokes, convection and forcing integrals (one record, the
drift) and the running noise integral, so the martingale part of the path
can be reconstructed and tested for zero mean and prescribed quadratic
variation.
Every stored state, quadratic variation and running integral is on one
grid, the snapshot steps (`GalerkinConfig.snapshot_stride`), so a state
and the integrals at the same instant share a position.  An unrecorded
output costs no step work and no shared memory, and a reader that needs it
raises ValueError naming it; every recorded array has the same bits
whatever else is recorded.  Two per-row reductions of the path on the step
grid are taken by the process that stepped the row, chunk by chunk as the
walk hands it over: the U' modulus of continuity, the largest increment
over lags 1..l steps for each l up to `modulus_lags`, and the U'
increments at the `increment_lags` from the `increment_starts` and from
the running-maximum steps, which the tightness diagnostics read in place
of the states; each lag's increments are formed once for both.  For them
the stepper keeps the states of the largest lag's steps before each chunk,
and no block holds its whole path, whatever the snapshot grid.  The
probes alone fix the pairings: the stepper accumulates the quadratic
variation of every probe pair (`GalerkinConfig.qv_pairs`), and the
refinement integral int <B(u, u), P_n psi> dt is read from the path
afterwards, for any psi, by `convection_pairing` on an ensemble that
recorded the states of every step.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .noise import NoiseModel, noise_matrices
from .nonlinear import CutoffSpec
from .spectral import Basis, ROLE_COS, SpectralField, block_rows, project_Pn, row_blocks, stack


# -- Wiener increments -------------------------------------------------------


def _wiener_stream(seed: int, traj_index: int) -> np.random.Generator:
    """The Philox generator of trajectory `traj_index` under `seed`: drawn
    in consecutive blocks of steps, it gives the bits of one draw."""
    return np.random.Generator(np.random.Philox(key=[seed & (2**64 - 1), traj_index]))


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
    is a real build.

    The exponentials of e_j are walked in blocks of whole modes,
    `row_blocks` over the modes at 32 n values each, so that a block's
    pairs (its 2 b exponentials by all 2 n) number at most GRID_BLOCK / 8.
    A block lists its modes' + exponentials, then their - partners, and
    every term of a key (i, j, k) has the e_j exponential j or j + n, so
    one block holds all of a key's terms, in the order of the whole-lattice
    table.  A key has at most two terms (the pairs at k_j + k_k and at
    -k_j - k_k, or at k_j - k_k and its negative: both kinds would make a
    wavevector zero), so summing them from the first term, by a stable sort
    and `np.add.reduceat`, gives the bits of `np.bincount`'s sum from 0.0
    whenever the total is nonzero; zero totals are dropped."""
    dom = basis.domain
    slot = basis.mode_slot[:n]
    phase = np.where(basis.mode_role[:n] == ROLE_COS, 1.0, 1.0j)
    amp = basis._exp_alpha * phase[:, None] * basis.slot_eps[slot]
    mode = np.concatenate([np.arange(n), np.arange(n)])
    row = np.concatenate([basis._slot_row[slot], basis._slot_row_neg[slot]])
    amp = np.concatenate([amp, amp.conj()])
    kap = dom.kappa(basis.lattice_k[row])
    # the affine index of each exponential's wavevector in the lattice box
    flat = basis.lattice_k[row] @ basis.box_stride

    # exponentials of the first n modes at each lattice row, grouped by row
    by_row = np.argsort(row, kind="stable")
    count = np.bincount(row, minlength=len(basis.lattice_k))
    first = np.cumsum(count) - count

    keys, sums = [], []
    for block in row_blocks(n, 32 * n):
        modes = np.arange(n)[block]
        exps = np.concatenate([modes, modes + n])
        # lattice row of every wavevector sum of a block exponential
        out = basis.box_rows[flat[exps, None] + flat[None, :] + basis.box_origin]
        p, q = np.nonzero(out >= 0)
        o = out[p, q]
        c = count[o]
        p, q = np.repeat(exps[p], c), np.repeat(q, c)
        pos = np.arange(len(p)) - np.repeat(np.cumsum(c) - c, c)
        r = by_row[np.repeat(first[o], c) + pos]

        s = 1j * np.einsum("pd,pd->p", amp[p], kap[q])
        val = dom.volume * (s * np.einsum("pd,pd->p", amp[q], amp[r].conj())).real
        key = (mode[r] * n + mode[p]) * n + mode[q]
        order = np.argsort(key, kind="stable")
        key, val = key[order], val[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        V = np.add.reduceat(val, starts)
        keep = V != 0.0
        keys.append(key[starts][keep])
        sums.append(V[keep])
    key, V = np.concatenate(keys), np.concatenate(sums)
    order = np.argsort(key, kind="stable")
    key, V = key[order], V[order]
    return key // (n * n), key // n % n, key % n, V


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
        self.include_B = include_B
        if include_B:
            I, self._J, self._K, self._V = _fold_symmetric(*build_convection_tensor(basis, n), n)
            # each output coordinate is one segment of the i-sorted triplets
            self._starts = np.flatnonzero(np.diff(I, prepend=-1))
            self._rows = I[self._starts]
            # the (2, rows, triplets) product scratch of `convection`, grown
            # to the most rows asked for
            self._scratch = np.empty(0)
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

        The products V x_j x_k are formed in a (B, triplets) array of the
        system's scratch: `np.take` gathers x_j into it, V multiplies it in
        place, and the x_k gather, taken into the scratch's second array,
        multiplies it.  Each entry is (V x_j) x_k, the order of V * x[:, J]
        * x[:, K], so the array the reduce reads is bitwise that product's.
        J and K lie in [0, n) by construction; mode="wrap" skips the
        bounds check of the default mode, which made the gather slower
        than fancy indexing at n = 16.  When every coordinate has a
        segment the segment sums are the result; otherwise they are
        scattered into zeros.  Either way the result is a new array,
        never a view of the scratch.

        The scratch is made once per system and grown only when a call
        has more rows than any before: a step's products (1.1 MB at n =
        128 on 16 rows) are then not freed and allocated again on every
        step, which past glibc's mmap threshold maps and faults in their
        pages each time.  It is a private anonymous mapping, outside the
        malloc heap: a block that lives as long as the system, placed in
        the heap above a walk's chunk buffers, kept the heap from
        shrinking when they were freed (4 MB more resident after the
        tightness verb's n = 32 walk).  Private, so a forked pool worker
        writes its own copy."""
        if not self.include_B or not len(self._V):
            return np.zeros(x.shape)
        X = x.reshape(-1, self.n)
        B, T = len(X), len(self._V)
        if self._scratch.size < 2 * B * T:
            self._scratch = np.frombuffer(mmap.mmap(-1, 16 * B * T, flags=mmap.MAP_PRIVATE), dtype=np.float64)
        prod, gather = self._scratch[: 2 * B * T].reshape(2, B, T)
        np.take(X, self._J, axis=1, mode="wrap", out=prod)
        prod *= self._V
        prod *= np.take(X, self._K, axis=1, mode="wrap", out=gather)
        sums = np.add.reduceat(prod, self._starts, axis=1)
        if len(self._rows) == self.n:
            return sums.reshape(x.shape)
        out = np.zeros(x.shape)
        out.reshape(-1, self.n)[:, self._rows] = sums
        return out


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

# bound on dt * lambda_D,max for each explicit scheme: Euler-Maruyama, the
# scheme of the stochastic stepper, keeps its Stokes factor 1 - dt lambda
# positive; classical RK4 (`twodim`) stays inside its real stability
# interval [-2.785, 0]
STABILITY_LIMITS = {"em": 1.0, "rk4": 2.78}

# the energy ledger, reduced per path by the stepper: the worst relative
# residual of the discrete energy identity and the sums of the Ito and
# Hilbert-Schmidt increments
LEDGER = ("energy_residual", "ito_sum", "hs_sum")
INTEGRALS = ("stokes", "convection", "forcing", "noise")
# the optional outputs of the stepper: the energy ledger (the LEDGER arrays,
# read by `energy_budget_check`), the Stokes, convection and forcing
# integrals, which every reader reads together, the noise integral, the
# states at the snapshot steps (`Ensemble.snap_u`), the H, Dirichlet and
# U' norms of every step (`Ensemble.norm_H`, `norm_D`, `norm_Udual`), and
# the reductions of each path's norms that the tightness diagnostics read,
# its V-integral (`Ensemble.v_integral`) and its running-maximum record
# (`Ensemble.running_max`)
RECORDS = ("ledger", "integral_drift", "integral_noise", "states", "norms", "norm_reductions")


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
    limit = STABILITY_LIMITS[scheme]
    if len(levels):
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
    # the one grid of the stored states, quadratic variations and running
    # integrals: every stride-th step and the last; 0: endpoints only
    snapshot_stride: int = 0
    include_B: bool = True
    probes: tuple = ()  # SpectralFields; the quadratic variation of every pair is accumulated
    overflow_limit: float = 1e12
    # lags 1..modulus_lags, in steps, over which the stepper records each
    # path's U' modulus of continuity (`modulus`)
    modulus_lags: int = 0
    # lags, in steps, at which the stepper records the U' increments from
    # the `increment_starts` and from the running-maximum steps
    # (`Ensemble.running_max`), clipped to the horizon
    increment_lags: tuple = ()
    # steps, ascending, from which the stepper records the increment at each
    # of `increment_lags` (`increment_norms`)
    increment_starts: tuple = ()
    # powers p at which the stepper sums each path's left-endpoint integral
    # of |u|^(p-2) ||u||^2 (`weighted_integrals`)
    integral_powers: tuple = (2.0,)
    # the outputs of RECORDS the stepper records; an unrecorded one has
    # width 0 and costs no step work
    records: frozenset = frozenset(RECORDS)

    def __post_init__(self):
        violations = (level_violations(self.basis, (self.n,))
                      or horizon_violations(self.basis, (self.n,), self.dt, self.T, "em"))
        if violations:
            raise ValueError("; ".join(violations))
        if self.model is not None and self.model.d != self.basis.domain.d:
            raise ValueError("noise model dimension disagrees with the domain")
        if self.snapshot_stride < 0:
            raise ValueError(f"snapshot_stride = {self.snapshot_stride} must be >= 0 (0: endpoints only)")
        if not 0 <= self.modulus_lags <= self.steps:
            raise ValueError(f"modulus_lags = {self.modulus_lags} outside [0, {self.steps}], "
                             "the lags of the step grid")
        if not all(isinstance(lag, (int, np.integer)) and lag >= 0 for lag in self.increment_lags):
            raise ValueError(f"increment_lags = {self.increment_lags} must be whole numbers of "
                             "steps >= 0")
        self.increment_lags = tuple(int(lag) for lag in self.increment_lags)
        if not all(isinstance(s, (int, np.integer)) and 0 <= s <= self.steps for s in self.increment_starts):
            raise ValueError(f"increment_starts = {self.increment_starts} must be steps in [0, {self.steps}]")
        self.increment_starts = tuple(sorted({int(s) for s in self.increment_starts}))
        self.integral_powers = tuple(dict.fromkeys(float(p) for p in self.integral_powers))
        unknown = set(self.records) - set(RECORDS)
        if unknown:
            raise ValueError(f"unknown records {sorted(unknown)}; GalerkinConfig.records takes "
                             f"names of RECORDS = {RECORDS}")
        self.records = frozenset(self.records)

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
    def snap_times(self) -> np.ndarray:
        return self.snap_idx * self.dt

    @property
    def cutoff(self) -> CutoffSpec:
        return CutoffSpec(self.cutoff_level if self.cutoff_level is not None else float(self.n))

    @property
    def qv_pairs(self) -> tuple:
        """Every probe index pair (a, b) with a <= b, in order: the columns
        of `Ensemble.qv_cum`."""
        P = len(self.probes)
        return tuple((a, b) for a in range(P) for b in range(a, P))

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
class RunningMaxima:
    """The steps of each of R rows where |u|_H sets a strict new running
    maximum, step 0 first, with |u|_H there and the U' increment from there
    at each of the config's `increment_lags`, clipped to the horizon.  Row
    r's entries are offsets[r]:offsets[r + 1], in step order, so its |u|_H
    rises along them; its first step with |u|_H >= L is one of them, for
    any level L (`first_at`).  It holds memory proportional to its entries:
    a block's record is its own, and the blocks' records are joined in row
    order (`join`)."""

    offsets: np.ndarray  # (R + 1,) int64
    step: np.ndarray  # (P,) int64
    norm_H: np.ndarray  # (P,)
    increments: np.ndarray  # (P, len(increment_lags))

    @classmethod
    def empty(cls, rows: int, lags: int) -> RunningMaxima:
        return cls(np.zeros(rows + 1, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0),
                   np.zeros((0, lags)))

    @classmethod
    def join(cls, parts) -> RunningMaxima:
        """The record of the rows of `parts`, one after another."""
        ends = np.cumsum([0] + [p.offsets[-1] for p in parts])
        offsets = np.concatenate([[0]] + [p.offsets[1:] + end for p, end in zip(parts, ends)])
        return cls(offsets, *(np.concatenate([getattr(p, name) for p in parts])
                              for name in ("step", "norm_H", "increments")))

    def __len__(self) -> int:
        return len(self.offsets) - 1

    def rows(self, sel) -> RunningMaxima:
        """The record of rows `sel` (a slice, index list or boolean mask), a
        copy."""
        r = np.arange(len(self))[sel]
        counts = np.diff(self.offsets)[r]
        offsets = np.concatenate([[0], np.cumsum(counts)])
        at = np.repeat(self.offsets[r] - offsets[:-1], counts) + np.arange(offsets[-1])
        return RunningMaxima(offsets, self.step[at], self.norm_H[at], self.increments[at])

    def first_at(self, level: float) -> np.ndarray:
        """(R,): the entry of each row's first step with |u|_H >= level, -1
        on a row that never gets there."""
        P = len(self.step)
        at = np.where(self.norm_H >= level, np.arange(P), P)
        first = np.full(len(self), P)
        held = np.diff(self.offsets) > 0
        if np.any(held):
            first[held] = np.minimum.reduceat(at, self.offsets[:-1][held])
        return np.where(first < P, first, -1)


@dataclass(eq=False)
class Ensemble:
    """Trajectories `indices` of `config` as the rows of stacked arrays
    [R, ...] over the config's grid; one trajectory is an Ensemble of one
    row.  Every field but `config` holds one entry per row along its first
    axis, and `rows` selects them.  An aborted row reads zero after its
    abort step.  The functionals are per-row reductions of the step axis,
    which the stepper takes as it walks: one value per row."""

    config: GalerkinConfig
    indices: np.ndarray  # (R,) trajectory indices
    norm_H: np.ndarray  # (R, steps + 1), likewise norm_D and norm_Udual; (R, 0) unrecorded
    norm_D: np.ndarray
    norm_Udual: np.ndarray
    max_H: np.ndarray  # (R,), the largest |u|_H over the steps
    # (R,): dt sum_{j < steps} (|u_j|^2 + ||u_j||^2), the V-integral; (R, 0) unrecorded
    v_integral: np.ndarray
    # (R, len(integral_powers)): [r, i] = dt sum_{j < steps} ||u_j||^2 |u_j|^(p_i - 2)
    weighted_integrals: np.ndarray
    energy_residual: np.ndarray  # (R,), likewise the rest of the LEDGER; (R, 0) unrecorded
    ito_sum: np.ndarray
    hs_sum: np.ndarray
    snap_u: np.ndarray  # (R, S, n) at config.snap_idx; (R, 0, n) unrecorded
    snap_integrals: dict  # INTEGRALS term -> (R, S, n) at config.snap_idx; (R, 0, n) unrecorded
    qv_cum: np.ndarray  # (R, S, len(config.qv_pairs)) at config.snap_idx
    # (R, modulus_lags): [r, l-1] = max over lags l' <= l and steps j of |u(j + l') - u(j)|_{U'}
    modulus: np.ndarray
    # (R, len(increment_lags), len(increment_starts)): [r, i, k] = |u(min(s_k + l_i, steps)) - u(s_k)|_{U'}
    # at the k-th of the increment_starts s_k
    increment_norms: np.ndarray
    cutoff_min: np.ndarray  # (R,)
    abort_step: np.ndarray  # (R,), -1 on a row that ran to the end
    # the running-maximum steps; no entry unrecorded
    running_max: RunningMaxima

    def __len__(self) -> int:
        return len(self.indices)

    def rows(self, sel) -> Ensemble:
        """The Ensemble of rows `sel` (a slice, index list or boolean mask)
        of the same config: views of these arrays for a slice, copies
        otherwise; the running-maximum record's entries are copied."""
        def pick(v):
            if isinstance(v, RunningMaxima):
                return v.rows(sel)
            return {key: a[sel] for key, a in v.items()} if isinstance(v, dict) else v[sel]

        return Ensemble(config=self.config, **{f.name: pick(getattr(self, f.name))
                                                for f in fields(self) if f.name != "config"})

    @property
    def aborted(self) -> np.ndarray:
        return self.abort_step >= 0

    def sup_H(self):
        return self.max_H.copy()

    def integral_dirichlet2(self):
        """Left-endpoint quadrature of the Dirichlet energy integral."""
        return self.integral_weighted(2.0)

    def integral_weighted(self, p: float):
        """Left-endpoint quadrature of the |u|^(p-2) ||u||^2 integral (at
        p = 2, of ||u||^2), summed by the stepper at each of the config's
        `integral_powers`; ValueError at any other p."""
        powers = self.config.integral_powers
        if p not in powers:
            raise ValueError(f"the weighted integral at p = {p} was not recorded "
                             f"(GalerkinConfig.integral_powers = {powers})")
        return self.weighted_integrals[:, powers.index(p)].copy()


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
    if stride == 0:
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


def _lag_history(modulus_lags: int, increment_lags, steps: int) -> int:
    """H, the states before each chunk that the lag reductions read: the
    largest lag, of `modulus_lags` or `increment_lags`, up to the horizon;
    0 without lags."""
    return min(max(modulus_lags, *increment_lags, 0), steps)


class _LagReducer:
    """The U' modulus and lag increments of B rows, taken chunk by chunk
    from each chunk's window of states, which holds the H steps before its
    first (`_lag_history`): m[r, l-1] = max over lags 1..l and starts s of
    |x_r(s + l') - x_r(s)|_{U'} for l = 1..L into `modulus` (B, L), and
    |x_r(min(s + lag, steps)) - x_r(s)|_{U'} at each of `increment_lags`
    from each of `starts` into `increments` (B, len(increment_lags),
    len(starts)), and from each (row, step) the caller names as the walk
    reaches it (`follow`).  An increment is taken in the chunk that holds
    its later state, so a reduction keeps O(B (H + chunk)) values and its
    increments, whatever the steps.

    Every increment's norm is `_norms_of` of the later state less the
    earlier, the arithmetic of any gather of the pair, so each increment
    has the bits of one formed from the whole path, and each modulus is the
    maximum of such norms.

    Each lag's norms are formed once, at the carried lags: the powers of
    two 1, 2, 4, ... up to L and the `increment_lags`.  The increments are
    read from them, and the norms of the last H steps are carried to the
    next chunk.  The modulus is pruned by the triangle inequality.  A
    chunk raises each lag l in turn to lag l - 1's modulus, then by its
    increments: at a carried lag by their norms; at another lag, the
    increment is the sum of the increments along l's binary digits, so the
    sum of their norms bounds its norm.  That bound times 1 + 1e-9 also
    bounds the computed norm: a computed norm lies within (n + 3) 2^-53 of
    the exact one, relative to it, and the sum of at most 7 terms adds 7
    2^-53, so the margin holds for n up to about 10^6.  The exact norm is
    formed only where the bound reaches the modulus, so every increment
    whose norm is the maximum is among those formed and the modulus is
    exact."""

    def __init__(self, w: np.ndarray, steps: int, modulus: np.ndarray, increment_lags, increments: np.ndarray,
                 starts):
        self.w, self.steps = w, steps
        self.lags, self.increments = tuple(increment_lags), increments
        B = len(modulus)
        # (L, B): lag l - 1 of every row
        self.best = modulus.T
        # the carried norms: lag -> (rows, B), row e the increment that ends
        # at window row e of the last chunk, whose row 0 is step `base`
        pow2 = [1 << bit for bit in range(modulus.shape[1].bit_length())]
        self.norms = {lag: np.zeros((0, B)) for lag in (*pow2, *self.lags)}
        self.base = 0
        # (rows, starts, out) of the followed increments an end of which the
        # walk has yet to reach
        self.open = []
        # the increments from `starts`, as (B len(starts), lags) entries
        self.fixed = self.follow(np.repeat(np.arange(B), len(starts)), np.tile(starts, B))

    def follow(self, rows: np.ndarray, starts: np.ndarray) -> np.ndarray:
        """(k, len(increment_lags)): the increment at each lag from step
        starts[e] of row rows[e], which each later chunk fills as the walk
        reaches its end; complete once the walk has reached them all."""
        out = np.empty((len(rows), len(self.lags)))
        if len(rows) and self.lags:
            self.open.append((rows, np.asarray(starts), out))
        return out

    def add(self, chunk: Chunk) -> None:
        """Reduce the increments that end in steps first..last of `chunk`."""
        self.reduce(chunk.window, chunk.first, chunk.last)

    def _bounds(self, lag: int, e0: int, e1: int) -> np.ndarray:
        """(e1 - e0, B): the bound of each increment at `lag` that ends at
        window rows e0..e1-1, e0 >= lag, the sum of the power-of-two norms
        along its binary digits, the largest from its start."""
        out = np.zeros((e1 - e0, self.best.shape[1]))
        at = 0
        for bit in range(lag.bit_length()):
            if lag >> bit & 1:
                out += self.norms[1 << bit][e0 - at : e1 - at]
                at += 1 << bit
        return out

    def _take(self, rows, starts, out, window: np.ndarray, lo: int, last: int) -> None:
        """Fill out[e, i], the increment at lags[i] from step starts[e] of
        row rows[e], wherever it ends in steps lo..last: from the carried
        norms, or, clipped to the horizon, from the window's last state."""
        for i, lag in enumerate(self.lags):
            ends = np.minimum(starts + lag, self.steps)
            now = (lo <= ends) & (ends <= last)
            clip = now & (starts + lag > self.steps)
            at = now & ~clip
            out[at, i] = self.norms[lag][ends[at] - self.base, rows[at]]
            if np.any(clip):
                r = rows[clip]
                out[clip, i] = _norms_of(window[-1, r] - window[starts[clip] - self.base, r], self.w)

    def reduce(self, window: np.ndarray, first: int, last: int) -> None:
        """Reduce the increments that end in steps first..last (from 0 on
        the first chunk, at first > 0 from first + 1), from `window` (h +
        last - first + 1, B, n), the states of steps first - h..last with h
        = min(H, first)."""
        w, (B, n) = self.w, window.shape[1:]
        count = last - first
        h = len(window) - 1 - count
        shift, self.base = first - h - self.base, first - h
        for lag, old in self.norms.items():
            norms = old if len(old) >= len(window) else np.zeros((len(window), B))
            if len(old):
                norms[: h + 1] = old[shift : shift + h + 1]
            self.norms[lag] = norms
        # the norms at the carried lags of the increments that end at the
        # chunk's new rows, from row 0 on the first chunk, in blocks of rows
        # that stay in cache across the lags
        new = h + 1 if first else 0
        for rows in row_blocks(len(window) - new, 4 * B * n):
            e0, e1 = new + rows.start, min(new + rows.stop, len(window))
            for lag, norms in self.norms.items():
                lo = max(e0, lag)
                if lo < e1:
                    norms[lo:e1] = _norms_of(window[lo:e1] - window[lo - lag : e1 - lag], w)
        if self.open:
            for rows, starts, out in self.open:
                self._take(rows, starts, out, window, self.base + new, last)
            reach = max(self.lags)
            self.open = [o for o in self.open if np.max(np.minimum(o[1] + reach, self.steps)) > last]
        if last == self.steps:
            B, L, K = self.increments.shape
            self.increments[:] = self.fixed.reshape(B, K, L).transpose(0, 2, 1)
        if len(self.best):
            self._modulus(window, h, count)

    def _modulus(self, window: np.ndarray, h: int, count: int) -> None:
        """Raise the modulus by the increments that end at window rows
        h + 1..h + count, from the carried norms of this window: each lag
        in turn, from lag l - 1's modulus."""
        w, (B, n) = self.w, window.shape[1:]
        # window row e of column r is row e B + r of the flat window
        flat = window.reshape(-1, n)
        end = h + count + 1
        # the lags with an increment that ends in this chunk
        for lag in range(1, min(len(self.best), h + count) + 1):
            best, e0 = self.best[lag - 1], max(h + 1, lag)
            if lag > 1:
                np.maximum(best, self.best[lag - 2], out=best)
            if lag in self.norms:
                np.maximum(best, np.max(self.norms[lag][e0:end], axis=0), out=best)
                continue
            # the increments k = e B + r whose bound reaches the modulus, as
            # flat rows of the later state
            reach = self._bounds(lag, e0, end) >= best / (1.0 + 1e-9)
            k = np.flatnonzero(reach) + e0 * B
            vals = np.empty(len(k))
            for at in row_blocks(len(k), 4 * n):
                vals[at] = _norms_of(flat[k[at]] - flat[k[at] - lag * B], w)
            np.maximum.at(best, k % B, vals)


# -- stepping -------------------------------------------------------------------

# rows x convection triplets one block may hold.  Past it a step's (rows,
# triplets) product array leaves the cache: per row-step of
# `integrate_batch` on the default 2D config, one x86-64 core with 2 MB of
# L2, over repeated runs on a shared host, n = 128 (8,704 triplets) cost
# 33-55 us at 22 and at 32 rows and 83-112 us at 48; n = 32 (440
# triplets) cost 8-9 us at 100, 200 and 400 rows alike, so the cap binds
# only at large n.
BLOCK_CACHE = 2 * 10**5


def cache_rows(config: GalerkinConfig) -> int:
    """Rows one block of the stepper may hold: rows x triplets <=
    BLOCK_CACHE, at least 1 (BLOCK_CACHE rows without convection).  Compiles
    the system if it is not cached."""
    sys = _compiled(config.basis, config.n, config.model, config.include_B)
    triplets = len(sys._V) if sys.include_B else 0
    return max(1, BLOCK_CACHE // max(triplets, 1))


def _row_shapes(config: GalerkinConfig) -> dict:
    """Shape after the row axis of every per-row array of an Ensemble, by
    field name: norms, the largest H norm, the V-integral and the weighted
    integrals, ledger, the states, quadratic variations and running
    integrals (keyed by term) at the snapshots, the modulus, the increment
    norms from the increment starts, the cutoff minimum and the abort step.
    An output config.records leaves out has width 0: the norms have no
    steps, the V-integral and the ledger (one value per row) are (0,), the
    states and a running integral have no snapshots.  Every entry is 8
    bytes."""
    steps, n, records = config.steps, config.n, config.records
    snaps = len(config.snap_idx)
    shapes = {name: (steps + 1 if "norms" in records else 0,) for name in ("norm_H", "norm_D", "norm_Udual")}
    shapes.update(max_H=(), v_integral=() if "norm_reductions" in records else (0,),
                  weighted_integrals=(len(config.integral_powers),))
    shapes.update({name: () if "ledger" in records else (0,) for name in LEDGER})
    shapes.update(snap_u=(snaps if "states" in records else 0, n), qv_cum=(snaps, len(config.qv_pairs)))
    shapes.update({name: (snaps if integral_record(name) in records else 0, n) for name in INTEGRALS})
    shapes.update(modulus=(config.modulus_lags,),
                  increment_norms=(len(config.increment_lags), len(config.increment_starts)),
                  cutoff_min=(), abort_step=())
    return shapes


def _stacked(config: GalerkinConfig, indices) -> Ensemble:
    """The zeroed Ensemble of trajectories `indices`, its arrays of
    `_row_shapes` carved from one anonymous shared mapping, so that pool
    workers forked after it is made write into the same pages, and an
    empty running-maximum record.  abort_step is int64, the rest float64."""
    indices = np.array(indices, dtype=int)
    shapes = _row_shapes(config)
    sizes = [len(indices) * math.prod(shape) for shape in shapes.values()]
    total = sum(sizes)
    flat = np.frombuffer(mmap.mmap(-1, max(8 * total, 1)), dtype=np.float64, count=total)
    arrays, at = {}, 0
    for (name, shape), size in zip(shapes.items(), sizes):
        arrays[name] = flat[at : at + size].reshape((len(indices), *shape))
        at += size
    arrays["abort_step"] = arrays["abort_step"].view(np.int64)
    integrals = {name: arrays.pop(name) for name in INTEGRALS}
    return Ensemble(config=config, indices=indices, snap_integrals=integrals,
                    running_max=RunningMaxima.empty(len(indices), len(config.increment_lags)), **arrays)


def _sq_norms(sys: CompiledGalerkin, x: np.ndarray, h: bool = True) -> tuple:
    """Squared H, Dirichlet and U' norms of each row of x (B, n): the sums of
    x * x along each row, plain and times each weight; the H norms are None
    unless `h`."""
    sq = x * x
    return (np.add.reduce(sq, axis=1) if h else None, np.add.reduce(sys.lamD * sq, axis=1),
            np.add.reduce(sys.wUdual * sq, axis=1))


def _step(sys, config, cutoff, x, ud, f, dw, out=None):
    """One Euler-Maruyama step on the rows of x (B, n), whose U' norms are
    ud, under forcing coordinates f (n,) and Wiener increments dw (B, M),
    the new state written into `out` when given.

    Returns (x_new, theta, tbx, bx, g, xi): the new state, the cutoff
    factors, the tamed and untamed convection, the noise directions applied
    to each row (B, M, n) and the noise increment.  Only elementwise
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
    return np.add(x + dt * (f - sys.lamD * x - tbx), xi, out=out), theta, tbx, bx, g, xi


def _fold_residuals(worst, terms, norm_H, upto, first) -> None:
    """Fold the ledger terms (5, L, B) of steps first..first+L-1 -- drift,
    taming, forcing and martingale work and |du|^2 -- into each row's worst
    relative residual `worst` (B,) of the discrete energy identity, with
    norm_H (L + 1, B) the H norms at steps first..first+L.

    A step's residual is |(|u+|^2 - |u|^2) - rhs|, rhs the five terms
    summed in that order, over max(|rhs|, |u+|^2, |u|^2, 1), with each
    |u|^2 the square of its recorded norm; it is 0 at and after a row's
    first masked step `upto` (B,), and `np.fmax` keeps the worst, so a NaN
    residual (inf/inf at a step into an overflow) counts for nothing.
    Every operation is elementwise or a maximum, so the bits do not depend
    on the chunks."""
    h2 = norm_H**2
    drift, taming, forcing, mart, delta_sq = terms
    rhs = drift + taming + forcing + mart + delta_sq
    err = np.diff(h2, axis=0) - rhs
    np.abs(err, out=err)
    scale = np.abs(rhs, out=rhs)
    np.maximum(np.maximum(scale, h2[1:], out=scale), h2[:-1], out=scale)
    err /= np.maximum(scale, 1.0, out=scale)
    err[first + np.arange(len(err))[:, None] >= upto] = 0.0
    np.fmax(worst, np.fmax.reduce(err, axis=0), out=worst)


# the norms `step_chunks` buffers, by `Basis.mode_weights` name
NORMS = ("H", "D", "Udual")


class Chunk(NamedTuple):
    """Steps first..last of a walk of `step_chunks`, handed to its consumer:
    views of buffers that the next chunk overwrites, one row per step
    first..last (the states also from up to H steps before), and the walk's
    per-row arrays as they stand at step `last`.  The walk hands over every
    step to the horizon.  A row that aborted reads zero in the states from
    its abort step on, and keeps stepping from zero, so its other values
    after `abort_step` are not its path."""

    first: int
    last: int
    norms: dict  # NORMS name -> (last - first + 1, B), the norms (H under h_norm)
    states: np.ndarray  # (last - first + 1, B, n)
    # (h + last - first + 1, B, n): the states of steps first - h..last, h =
    # min(H, first) with H the config's `_lag_history`; `states` is its tail
    window: np.ndarray
    qv: np.ndarray  # (last - first + 1, B, len(config.qv_pairs)), the quadratic variations
    integrals: dict  # recorded INTEGRALS term -> (last - first + 1, B, n), the running integrals
    ito: np.ndarray | None  # (last - first, B), each step's Ito increment; None without the ledger
    hs: np.ndarray | None  # likewise the Hilbert-Schmidt increment
    worst: np.ndarray | None  # (B,), the worst ledger residual through `last`; None without the ledger
    cutoff_min: np.ndarray  # (B,), the smallest cutoff factor of a live row through `last`
    abort_step: np.ndarray  # (B,), each row's abort step, -1 on a row still alive


def step_chunks(config: GalerkinConfig, indices, x0=None, dW=None, h_norm: bool = True):
    """Step trajectories `indices` of `config` together as the rows of one
    (B, n) state, and hand the walk to its consumer one `Chunk` of steps at
    a time: the one stepper, which every reader of a path consumes.

    Row r starts from the coordinates of P_n config.u0, or from row r of
    `x0` (B, n) copied in C order, and is driven by its column of `dW`
    (steps, B, M) when given; otherwise by the Philox stream of trajectory
    indices[r] (`_wiener_stream`), drawn chunk by chunk, which keeps the bits
    of one draw of all steps, and once for a trajectory that is several
    rows.  The chunks are `row_blocks` over the steps, at most
    GRID_BLOCK // (B n) steps each.

    Each chunk takes its steps with the arithmetic of `_step` and buffers,
    at every step, the states, the Dirichlet and U' norms (and the H norms
    when `h_norm` or the ledger asks for them), the quadratic variations of
    the probe pairs and the running integrals its records name, each in a
    buffer of L + 1 rows made once per walk, whose row 0 is the last row of
    the chunk before; the consumer picks the steps it reads.  The states'
    buffer has H more rows (`_lag_history`, 0 without lags), and carries
    the last H + 1 rows of the chunk before, so each chunk's window holds
    the states of min(H, first) steps before its own.  The ledger --
    each step's drift, taming, forcing and martingale work and |du|^2 -- is
    folded into each row's worst relative residual (`_fold_residuals`) at
    the end of the chunk; each step's Ito and Hilbert-Schmidt increments are
    handed over.  Every row is bitwise the same whatever the other rows,
    their number or order, the memory layout of `x0` and the chunks.

    A row whose state leaves the finite range or passes `overflow_limit` is
    aborted at that step: its abort step is recorded, and its norms there
    are those of its state with the non-finite entries zeroed.  Then its
    state is zeroed, and again after each later step, so that it reads zero
    from its abort step on; it steps on masked, its cutoff factors and
    ledger terms no longer counted.  The walk takes every step to the
    horizon, also once every row has aborted.

    Two checks skip per-step work that would change no bit.  While the
    cutoff is idle (`_step` returns theta None) the cutoff minimum is not
    updated, since every factor is 1.0, and the taming work's factor is
    -2 dt.  One maximum of |x| over the whole block, at or below the limit,
    clears every row of the overflow check; only otherwise is each row's
    peak taken."""
    sys = _compiled(config.basis, config.n, config.model, config.include_B)
    steps, n, dt = config.steps, config.n, config.dt
    B = len(indices)
    if dW is not None and dW.shape != (steps, B, config.M):
        raise ValueError(f"Wiener increments of shape {dW.shape} do not match "
                         f"(steps, B, M) = ({steps}, {B}, {config.M})")
    # chunks of `length` steps, the last one shorter: row_blocks over the
    # steps, made one at a time
    length = min(steps, block_rows(B * n))
    history = _lag_history(config.modulus_lags, config.increment_lags, steps)
    states = np.empty((history + length + 1, B, n))
    if x0 is None:
        states[0] = config.basis.real_coords(project_Pn(config.u0, n), n)
    else:
        x0 = np.asarray(x0, dtype=np.float64)
        if x0.shape != (B, n):
            raise ValueError(f"initial states of shape {x0.shape} do not match (B, n) = ({B}, {n})")
        states[0] = x0
    if dW is None:
        # one stream per trajectory, its draws repeated for each of its rows
        keys = list(dict.fromkeys(indices))
        streams = [_wiener_stream(config.seed, i) for i in keys]
        repeat = None if len(keys) == B else [keys.index(i) for i in indices]
        drawn = np.empty((length, len(keys), config.M))

    records = config.records
    ledger = "ledger" in records
    drift, noise = "integral_drift" in records, "integral_noise" in records
    probes_n = config.probe_coords
    qv_pairs = config.qv_pairs
    # the quadratic variations and the running integrals config.records
    # names, by term, as zeros: without noise the one, and without forcing
    # the forcing integral, are never written
    qv = np.zeros((length + 1, B, len(qv_pairs)))
    J = {name: np.zeros((length + 1, B, n)) for name in INTEGRALS if integral_record(name) in records}
    cutoff = config.cutoff
    forced = config.forcing is not None
    f = config.basis.real_coords(config.forcing, n) if forced else np.zeros(n)
    cutoff_min = np.ones(B)
    abort_step = np.full(B, -1)
    alive, dead = np.ones(B, dtype=bool), False
    # the overflow limit as a finite bound, which an inf or NaN state fails
    limit = min(config.overflow_limit, np.finfo(np.float64).max)

    h_norm = h_norm or ledger
    norms = {name: np.empty((length + 1, B)) for name in NORMS if h_norm or name != "H"}
    nH, nD, nU = norms.get("H"), norms["D"], norms["Udual"]
    buffers = [qv, *norms.values(), *J.values()]
    if ledger:
        terms = np.zeros((5, length, B))
        drift_work, b_work, forcing_work, mart_work, delta_sq = terms
        ito, hs = np.zeros((length, B)), np.zeros((length, B))
        worst = np.full(B, np.nan)
    else:
        ito = hs = worst = None

    h2, d2, u2 = _sq_norms(sys, states[0], h_norm)
    for name, sq in zip(NORMS, (h2, d2, u2)):
        if name in norms:
            np.sqrt(sq, out=norms[name][0])
    h = 0
    for lo in range(0, steps, length):
        hi = min(lo + length, steps)
        if lo:
            # the step at lo ends the last chunk and opens this one, after
            # the states of the `history` steps before it
            for buf in buffers:
                buf[0] = buf[count]
            end, h = h + count + 1, min(history, lo)
            states[: h + 1] = states[end - h - 1 : end]
        # this chunk's states: row 0 is the step at lo
        cur = states[h:]
        x, ud = cur[0], nU[0]
        if dW is not None:
            dw = dW[lo:hi]
        else:
            for c, stream in enumerate(streams):
                drawn[: hi - lo, c] = stream.normal(0.0, math.sqrt(dt), size=(hi - lo, config.M))
            dw = drawn[: hi - lo] if repeat is None else drawn[: hi - lo, repeat]
        # aborted rows keep stepping, masked, and may overflow on the way,
        # into the ledger fold too
        with np.errstate(over="ignore", invalid="ignore"):
            for j in range(lo, hi):
                i = j - lo
                x_new, theta, tbx, bx, g, xi = _step(sys, config, cutoff, x, ud, f, dw[i], cur[i + 1])
                if theta is not None:
                    np.minimum(cutoff_min, np.where(alive, theta, 1.0), out=cutoff_min)
                if drift:
                    np.subtract(J["convection"][i], dt * tbx, out=J["convection"][i + 1])
                    if forced:
                        np.add(J["forcing"][i], dt * f, out=J["forcing"][i + 1])
                    np.subtract(J["stokes"][i], dt * (sys.lamD * x), out=J["stokes"][i + 1])
                if noise:
                    np.add(J["noise"][i], xi, out=J["noise"][i + 1])
                if qv_pairs and g is not None:
                    gp = g @ probes_n.T  # (B, M, P)
                    for q, (a, b) in enumerate(qv_pairs):
                        np.add(qv[i, :, q], dt * np.add.reduce(gp[:, :, a] * gp[:, :, b], axis=1),
                               out=qv[i + 1, :, q])
                if ledger:
                    # an idle cutoff's factor (-2 dt) 1.0 is -2 dt
                    b_factor = -2.0 * dt if theta is None else -2.0 * dt * theta
                    b_work[i] = b_factor * np.add.reduce(x * bx, axis=1)
                    mart_work[i] = 2.0 * np.add.reduce(x * xi, axis=1)
                    ito[i] = np.add.reduce(xi * xi, axis=1)
                    if forced:
                        forcing_work[i] = 2.0 * dt * np.add.reduce(x * f, axis=1)
                    if g is not None:
                        hs[i] = np.add.reduce((g * g).reshape(B, -1), axis=1) * dt
                    drift_work[i] = -2.0 * dt * d2
                    delta_sq[i] = np.add.reduce((x_new - x) ** 2, axis=1)

                x = x_new
                h2, d2, u2 = _sq_norms(sys, x, h_norm)
                # one block-wide maximum clears every row; only past it does
                # each row's peak decide
                if not np.abs(x).max() <= limit:
                    bad = alive & ~(np.maximum.reduce(np.abs(x), axis=1) <= limit)
                    if np.logical_or.reduce(bad):
                        abort_step[bad] = j + 1
                        alive &= ~bad
                        dead = True
                        x[~np.isfinite(x)] = 0.0
                        h2, d2, u2 = _sq_norms(sys, x, h_norm)
                if h_norm:
                    np.sqrt(h2, out=nH[i + 1])
                np.sqrt(d2, out=nD[i + 1])
                ud = np.sqrt(u2, out=nU[i + 1])
                if dead:
                    x[~alive] = 0.0
            count = hi - lo
            if ledger:
                upto = np.where(abort_step >= 0, abort_step, steps)
                _fold_residuals(worst, terms[:, :count], nH[: count + 1], upto, lo)
        yield Chunk(first=lo, last=hi, norms={name: buf[: count + 1] for name, buf in norms.items()},
                    states=cur[: count + 1], window=states[: h + count + 1], qv=qv[: count + 1],
                    integrals={name: buf[: count + 1] for name, buf in J.items()},
                    ito=None if ito is None else ito[:count], hs=None if hs is None else hs[:count],
                    worst=worst, cutoff_min=cutoff_min, abort_step=abort_step)


# values numpy's pairwise summation adds in one unrolled loop; it splits a
# longer run in two
PAIRWISE_LEAF = 128


class _PairwiseSum:
    """np.sum(a, axis=1) of a (K, N) array a, to the bit, from its columns
    handed over in order, a few steps at a time (`add`), without a.

    numpy sums each row of a C-contiguous array by one tree that depends on
    N alone: a run of at most PAIRWISE_LEAF values is a leaf, summed in one
    unrolled loop, and a longer run of m values splits at m // 2 less
    (m // 2) % 8 into the sums of its two parts, added first plus second.
    The reduction starts from 0.0.  The tree is planned once.  Each leaf's
    values gather in one contiguous (K, leaf) buffer, which np.add.reduce
    sums in that loop and from that 0.0 as it fills, and a node's two sums
    are added as soon as its second is done, so the reducer keeps one leaf
    and one sum per level of the tree, whatever N.  No leaf sum is -0.0,
    since it starts from 0.0, so the root needs no 0.0 added."""

    def __init__(self, K: int, N: int):
        # each leaf's length, and how many nodes its sum completes
        self.leaves, self.merges = [], []
        self._plan(N)
        self.K = K
        self.buf = np.empty(K * min(N, PAIRWISE_LEAF))
        self.sums, self.leaf, self.fill = [], 0, 0

    def _plan(self, m: int) -> None:
        if m <= PAIRWISE_LEAF:
            self.leaves.append(m)
            self.merges.append(0)
            return
        half = m // 2 - m // 2 % 8
        self._plan(half)
        self._plan(m - half)
        self.merges[-1] += 1

    def add(self, values: np.ndarray) -> None:
        """Take the next len(values) columns of a, as the rows of `values`
        (steps, K)."""
        at = 0
        while at < len(values):
            size = self.leaves[self.leaf]
            leaf = self.buf[: self.K * size].reshape(self.K, size)
            take = min(size - self.fill, len(values) - at)
            leaf[:, self.fill : self.fill + take] = values[at : at + take].T
            self.fill += take
            at += take
            if self.fill == size:
                self.sums.append(np.add.reduce(leaf, axis=1))
                for _ in range(self.merges[self.leaf]):
                    second = self.sums.pop()
                    self.sums[-1] = self.sums[-1] + second
                self.leaf, self.fill = self.leaf + 1, 0

    def total(self) -> np.ndarray:
        """(K,): np.sum(a, axis=1), once all N columns are in."""
        return self.sums[0]


class _RunningMaxWalk:
    """The running-maximum record (`RunningMaxima`) of B rows, taken chunk
    by chunk from their H norms: the steps where a row's |u|_H exceeds
    every earlier one, from step 0 on, with the increments from there,
    which `lags` (a `_LagReducer`, None without increment lags) fills as
    the walk reaches their ends.  It keeps each row's running maximum and
    the chunks' entries, so its memory is proportional to the entries."""

    def __init__(self, B: int, lags):
        self.B, self.lags = B, lags
        self.top = np.full(B, -np.inf)
        width = len(lags.lags) if lags is not None else 0
        self.parts = [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0), np.zeros((0, width)))]

    def add(self, norm_H: np.ndarray, first: int) -> None:
        """Take the steps of `norm_H` (L + 1, B), the H norms of steps
        first..first + L, from 0 on the first chunk, at first > 0 from
        first + 1."""
        new = norm_H[1:] if first else norm_H
        prior = np.maximum.accumulate(np.concatenate([self.top[None], new[:-1]]), axis=0)
        j, r = np.nonzero(new > prior)
        np.maximum(prior[-1], new[-1], out=self.top)
        if len(r):
            steps = j + (first + 1 if first else 0)
            incs = self.lags.follow(r, steps) if self.lags is not None else np.zeros((len(r), 0))
            self.parts.append((r, steps, new[j, r], incs))

    def record(self) -> RunningMaxima:
        """The record, once the walk has reached the horizon."""
        rows, steps, norm_H, incs = (np.concatenate(part) for part in zip(*self.parts))
        order = np.argsort(rows, kind="stable")
        offsets = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=self.B))])
        return RunningMaxima(offsets, steps[order], norm_H[order], incs[order])


def _grid_span(grid: np.ndarray, chunk: Chunk) -> tuple:
    """(at, rows): the slice of the positions on the snapshot grid `grid`
    (step indices) of the steps first..last of `chunk`, and their rows in
    the chunk's buffers: a slice where they are evenly spaced, as on every
    chunk of a strided grid but the one with an uneven last snapshot, so
    that the buffers are read through a view; an index array there."""
    p0, p1 = np.searchsorted(grid, (chunk.first, chunk.last + 1))
    rows = grid[p0:p1] - chunk.first
    stride = rows[1] - rows[0] if len(rows) > 1 else 1
    if len(rows) and np.all(np.diff(rows) == stride):
        rows = slice(rows[0], rows[-1] + 1, stride)
    return slice(p0, p1), rows


def _integrate_rows(ens: Ensemble, dW=None, x0=None) -> None:
    """Integrate the B trajectories `ens.indices` of `ens.config` together
    (`step_chunks`), each driven by its own Philox stream or by its column
    of the increments `dW` (steps, B, M) when given, from the coordinates
    of P_n config.u0 or from its row of `x0` (B, n), and reduce each chunk
    into the zeroed arrays of `ens` in place as it is handed over: its
    norms, when recorded, and its states, quadratic variations and running
    integrals at the config's snapshot steps (`_grid_span`, the one place
    that maps the snapshot grid onto a chunk); `snap_u[:, 0]` records each
    row's start.

    Each row's functionals are folded chunk by chunk: the largest H norm,
    and the per-step terms of its sums -- ||u_j||^2 |u_j|^(p-2) at each of
    `integral_powers` and, under the ledger, each step's Ito and
    Hilbert-Schmidt increments -- into one `_PairwiseSum`, the bits of
    numpy's pairwise sum of the whole (B, steps) row, so no array spans the
    horizon.  The walk folds each row's worst ledger residual.  The ledger
    and each running integral's update run only when config.records names
    them, and an unrecorded output's arrays have width 0; every recorded
    array is the same bits whatever else is recorded.  An aborted row keeps
    its norms at its abort step, those of its state with the non-finite
    entries zeroed, and reads zero after it, its ledger terms from it on;
    its states read zero from its abort step on.  Each row's U' modulus
    over lags 1..modulus_lags of the step grid and its increments at
    `increment_lags` from the `increment_starts` are reduced from each
    chunk's window as it is handed over (`_LagReducer`); no step's state is
    kept longer.  Under `norm_reductions` each row's V-integral is one
    more term of those sums, and its running-maximum steps are taken from
    its H norms as they are handed over, zero after its abort step, with
    the increments from them (`_RunningMaxWalk`).

    Returns the block's running-maximum record, also set on `ens`, or None
    unrecorded."""
    config = ens.config
    steps, powers, records = config.steps, config.integral_powers, config.records
    ledger, reductions = "ledger" in records, "norm_reductions" in records
    norms = dict(H=ens.norm_H, D=ens.norm_D, Udual=ens.norm_Udual) if "norms" in records else {}
    # the terms each row sums, one (steps,) row per term: an integrand per
    # power, the V-integrand, then the Ito and Hilbert-Schmidt increments
    width = len(powers) + reductions + 2 * ledger
    sums = _PairwiseSum(width * len(ens), steps)
    snap_idx = config.snap_idx
    lags = running = None
    if config.modulus_lags or config.increment_lags:
        sys = _compiled(config.basis, config.n, config.model, config.include_B)
        lags = _LagReducer(sys.wUdual, config.steps, ens.modulus, config.increment_lags, ens.increment_norms,
                           config.increment_starts)
    if reductions:
        running = _RunningMaxWalk(len(ens), lags if config.increment_lags else None)
    for chunk in step_chunks(config, ens.indices.tolist(), x0, dW):
        first, last = chunk.first, chunk.last
        count = last - first
        values = chunk.norms
        if np.any(chunk.abort_step >= 0):
            # an aborted row's norms read zero after its abort step: the walk
            # zeroed its states, but not what a zero state steps on to under
            # forcing.  Its ledger terms, stepped from zero states, are +0.0
            late = np.arange(first, last + 1)[:, None] > np.where(chunk.abort_step >= 0, chunk.abort_step, steps)
            values = {name: np.where(late, 0.0, buf) for name, buf in values.items()}
        for name, arr in norms.items():
            arr[:, first : last + 1] = values[name].T
        np.maximum(ens.max_H, np.max(values["H"], axis=0), out=ens.max_H)
        terms = np.empty((count, width, len(ens)))
        d2 = values["D"][:count] ** 2
        for i, p in enumerate(powers):
            terms[:, i] = d2 if p == 2.0 else d2 * values["H"][:count] ** (p - 2)
        if reductions:
            terms[:, len(powers)] = values["H"][:count] ** 2 + d2
        if ledger:
            terms[:, -2], terms[:, -1] = chunk.ito, chunk.hs
        sums.add(terms.reshape(count, width * len(ens)))
        if running is not None:
            running.add(values["H"], first)
        if lags is not None:
            lags.add(chunk)
        # each recorded snapshot array beside the chunk's buffer of it
        snapshots = [(ens.qv_cum, chunk.qv)]
        snapshots += [(ens.snap_integrals[name], buf) for name, buf in chunk.integrals.items()]
        if "states" in records:
            snapshots.append((ens.snap_u, chunk.states))
        at, rows = _grid_span(snap_idx, chunk)
        for snaps, buf in snapshots:
            snaps[:, at] = buf[rows].swapaxes(0, 1)
    ens.cutoff_min[:], ens.abort_step[:] = chunk.cutoff_min, chunk.abort_step

    # an aborted row's quadratic variations and running integrals read zero
    # from its abort step on
    for r in np.flatnonzero(ens.aborted):
        late = snap_idx >= ens.abort_step[r]
        for snaps, _ in snapshots:
            snaps[r, late] = 0.0
    totals = sums.total().reshape(width, len(ens))
    ens.weighted_integrals[:] = totals[: len(powers)].T * config.dt
    if reductions:
        ens.v_integral[:] = totals[len(powers)] * config.dt
    if ledger:
        ens.energy_residual[:] = chunk.worst
        ens.ito_sum[:], ens.hs_sum[:] = totals[-2], totals[-1]
    if running is None:
        return None
    ens.running_max = running.record()
    return ens.running_max


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


def _run_chunk(block) -> RunningMaxima | None:
    lo, hi = block
    return _integrate_rows(_ENSEMBLE["ens"].rows(slice(lo, hi)))


def integrate_ensemble(config: GalerkinConfig, n_traj: int, workers: int = 1) -> Ensemble:
    """Independent trajectories 0..n_traj-1, the rows of one Ensemble in order.

    The stacked (n_traj, ...) arrays are allocated once, in one anonymous
    shared mapping, and each block writes its rows in place, so no row is
    pickled.  A block is an equal share of the rows per worker, capped by
    `cache_rows`, which also compiles the system that forked workers
    inherit.  With k = min(workers, blocks) > 1 the calling process is one
    of the k workers: it steps every k-th block, from the first, while a
    pool of k - 1 forked processes steps the others.  Each block returns
    its running-maximum record, which is not in the shared mapping, and
    the records are joined in block order.  Every row is independent of the
    worker count, of the blocks and of the process that steps it."""
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
                mine = [_run_chunk(block) for block in blocks[::k]]
                theirs = list(theirs)
            parts = [mine[i // k] if i % k == 0 else theirs[i - i // k - 1] for i in range(len(blocks))]
        else:
            parts = [_run_chunk(block) for block in blocks]
    finally:
        _ENSEMBLE.clear()
    if "norm_reductions" in config.records:
        ens.running_max = RunningMaxima.join(parts)
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
    + |du|^2 is exact in exact arithmetic for the Euler-Maruyama step; the
    worst relative residual over the steps each path took is returned.  The
    step into an overflow may read inf/inf: a NaN residual counts for
    nothing, and the path's other steps still count.  The comparison of the
    realized quadratic noise increments against the integrated
    Hilbert-Schmidt norms is statistical and is reported as a z-score over
    the paths that did not abort.  The ensemble must have recorded the
    ledger (`GalerkinConfig.records`), which the stepper has already reduced
    per path (`step_chunks`), so this reads R values of each.
    """
    require_records(ens.config, "energy_budget_check", "ledger")
    live = ~ens.aborted
    diffs = ens.ito_sum[live] - ens.hs_sum[live]
    return EnergyBudgetReport(max_relative_residual=float(np.fmax.reduce(ens.energy_residual, initial=0.0)),
                              ito_zscore=_zscore(diffs), trajectories=len(ens))


def _zscore(vals: np.ndarray) -> float:
    """Mean over standard error; 0 for fewer than 2 values or no spread."""
    sd = np.std(vals, ddof=1) if len(vals) >= 2 else 0.0
    return float(np.mean(vals) / (sd / math.sqrt(len(vals)))) if sd > 0 else 0.0


def reconstruct_martingale(ens: Ensemble, pos: int) -> np.ndarray:
    """Martingale part at snapshot position `pos` of each row (R, n), rebuilt
    from the running integrals at the same snapshot: u(t) - u(0) - (Stokes +
    convection - forcing integrals), which the ensemble must have recorded
    with the states."""
    require_records(ens.config, "reconstruct_martingale", "integral_drift", "states")
    return (
        ens.snap_u[:, pos]
        - ens.snap_u[:, 0]
        - ens.snap_integrals["stokes"][:, pos]
        - ens.snap_integrals["convection"][:, pos]
        - ens.snap_integrals["forcing"][:, pos]
    )


def convection_pairing(ens: Ensemble, psi: SpectralField) -> np.ndarray:
    """I = int_0^T <B(u, u), P_n psi> dt of each row (R,), the untamed
    convection by left-endpoint quadrature, read from the states of an
    ensemble that recorded them (`states`) at every step (ValueError naming
    `snapshot_stride` otherwise).

    Each step's term dt <B(u_j, u_j), P_n psi> is formed per row from the
    convection of u_j, in blocks of `cache_rows` states, and the terms are
    summed in step order from 0.0, so I has the bits of a running sum
    updated once per step.  An aborted row reads 0.0, as past its abort."""
    cfg = ens.config
    require_records(cfg, "convection_pairing", "states")
    if len(cfg.snap_idx) != cfg.steps + 1:
        raise ValueError("convection_pairing reads the state at every step, and this ensemble "
                         f"snapshotted every {cfg.snapshot_stride} (GalerkinConfig.snapshot_stride "
                         "must be 1)")
    sys = _compiled(cfg.basis, cfg.n, cfg.model, cfg.include_B)
    psi_n = cfg.basis.real_coords(psi, cfg.n)
    rows = cache_rows(cfg)
    terms = np.zeros((len(ens), cfg.steps + 1))
    for r in range(len(ens)):
        states = ens.snap_u[r, :-1]
        for lo in range(0, cfg.steps, rows):
            bx = sys.convection(states[lo : lo + rows])
            terms[r, 1 + lo : 1 + lo + len(bx)] = cfg.dt * np.add.reduce(bx * psi_n, axis=1)
    out = np.add.accumulate(terms, axis=1)[:, -1]
    out[ens.aborted] = 0.0
    return out


@dataclass
class MartingaleReport:
    mean_zscore: float
    qv_zscore: float
    reconstruction_residual: float
    trajectories: int  # the paths that did not abort, which the report is over


def h_one(ens: Ensemble, step: int) -> np.ndarray:
    return np.ones(len(ens))


def martingale_diagnostic(ens: Ensemble, a: int, b: int, s: float, t: float, h=h_one) -> MartingaleReport:
    """Zero-mean and quadratic-variation z-scores of the reconstructed
    martingale part, paired against the probes psi = config.probes[a] and
    zeta = config.probes[b], over the paths that did not abort (an aborted
    path reads zero past its abort).

    The quadratic variation of (a, b) is the `qv_cum` column of
    (min(a, b), max(a, b)), accumulated online during integration; s and t
    must lie on the snapshot grid, and the ensemble must have recorded the
    drift and noise integrals and the states.
    h(ens, step) weighs each path by a functional of it up to `step`.
    """
    require_records(ens.config, "martingale_diagnostic", "integral_drift", "integral_noise", "states")
    live = ~ens.aborted
    count = int(np.count_nonzero(live))
    if count < 2:
        raise ValueError(f"need at least 2 live trajectories for z-scores, got {count}")
    cfg = ens.config
    for i in (a, b):
        if not 0 <= i < len(cfg.probes):
            raise ValueError(f"probe index {i} outside the {len(cfg.probes)} configured probes")
    psi_n, zeta_n = cfg.probe_coords[[a, b]]
    # (a, b) and (b, a) accumulate the same products, in one column
    qcol = cfg.qv_pairs.index((min(a, b), max(a, b)))

    ps, pt = _grid_positions(cfg.snap_times, (s, t), cfg.dt)
    Ms = reconstruct_martingale(ens, ps)[live]
    Mt = reconstruct_martingale(ens, pt)[live]
    recon = float(np.max(np.abs(Mt - ens.snap_integrals["noise"][live, pt])))
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
