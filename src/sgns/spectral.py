"""Divergence-free Fourier basis on the periodic torus and the norm tower.

All function spaces are realized spectrally: a velocity field is a finite
combination of divergence-free Fourier modes, and every space in the tower

    U -> V_s -> V -> H -> V' -> V_s' -> U'

is the same coefficient vector measured with a different diagonal weight
(1 + |kappa|^2)^q.  The Stokes-type operators are diagonal multipliers in
this basis, so the duality identities they satisfy are exact up to roundoff
and can be asserted rather than approximated.

Storage convention
------------------
Fields are real-valued.  For each conjugate pair {k, -k} of lattice vectors
one complex amplitude c per polarization is stored against the canonical
representative (first nonzero component positive).  Writing
phi_k(x) = (2 vol)^(-1/2) exp(i kappa.x), the field is

    u(x) = sum_slots [ c * phi_k(x) + conj(c) * conj(phi_k(x)) ] * eps(k, p)

so Re(c) multiplies the cosine-type real basis field and Im(c) the
sine-type one.  Both are H-orthonormal, which makes |u|_H^2 = sum |c|^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict

import numpy as np

SPACES = ("H", "D", "V", "Vs", "U", "Hdual", "Vdual", "Vsdual", "Udual")

# roles of the two real basis fields carried by one stored amplitude
ROLE_COS = 0
ROLE_SIN = 1


@dataclass(frozen=True)
class TorusDomain:
    """Periodic box [0, period)^d with the mean-free mode lattice |k_j| <= K."""

    d: int
    K: int
    period: tuple = ()

    def __post_init__(self):
        if self.d not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.d}")
        if self.K < 1:
            raise ValueError(f"max wavenumber must be >= 1, got {self.K}")
        period = self.period if self.period else (2.0 * math.pi,) * self.d
        period = tuple(float(p) for p in period)
        if len(period) != self.d or any(p <= 0 for p in period):
            raise ValueError(f"period must be {self.d} positive reals")
        object.__setattr__(self, "period", period)

    @property
    def volume(self) -> float:
        return float(np.prod(self.period))

    def lattice(self) -> np.ndarray:
        """All integer wavevectors with 0 < max_j |k_j| <= K, in (|kappa|^2, k) order."""
        rng = np.arange(-self.K, self.K + 1)
        grid = np.stack(np.meshgrid(*([rng] * self.d), indexing="ij"), axis=-1)
        ks = grid.reshape(-1, self.d)
        ks = ks[np.any(ks != 0, axis=1)]
        # lexsort's last key is its primary one: |kappa|^2, then k_0, k_1, ...
        return ks[np.lexsort(tuple(ks[:, ::-1].T) + (self.kappa2(ks),))]

    def kappa(self, ks: np.ndarray) -> np.ndarray:
        """Physical wavevector 2*pi*k/L per axis."""
        scale = 2.0 * math.pi / np.asarray(self.period)
        return np.asarray(ks, dtype=float) * scale

    def kappa2(self, ks: np.ndarray) -> np.ndarray:
        kap = self.kappa(ks)
        return np.sum(kap * kap, axis=-1)


@dataclass(frozen=True)
class SpaceScale:
    """Smoothness indices fixing the weights of the norm tower."""

    d: int
    s: float = 0.0
    s_U: float = 0.0

    def __post_init__(self):
        s = self.s if self.s else self.d / 2 + 1.5
        s_U = self.s_U if self.s_U else s + 2.0
        if s <= self.d / 2 + 1:
            raise ValueError(f"s must exceed d/2 + 1 = {self.d / 2 + 1}, got {s}")
        if s_U <= s:
            raise ValueError(f"s_U must exceed s = {s}, got {s_U}")
        object.__setattr__(self, "s", float(s))
        object.__setattr__(self, "s_U", float(s_U))

    def weight(self, space: str, kappa2: np.ndarray) -> np.ndarray:
        """|kappa|^2 for the Dirichlet seminorm D, (1 + |kappa|^2)^q for the others."""
        q = {"H": 0.0, "Hdual": 0.0, "V": 1.0, "Vdual": -1.0, "Vs": self.s, "Vsdual": -self.s,
             "U": self.s_U, "Udual": -self.s_U}
        if space == "D":
            return kappa2
        if space not in q:
            raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")
        return (1.0 + kappa2) ** q[space]


def _polarizations(kappa: np.ndarray) -> np.ndarray:
    """Orthonormal real vectors spanning the plane orthogonal to kappa."""
    d = len(kappa)
    if d == 2:
        e = np.array([-kappa[1], kappa[0]])
        return (e / np.linalg.norm(e))[None, :]
    # d == 3: cross with the axis least aligned with kappa, tie broken by index
    axis = np.zeros(3)
    axis[int(np.argmin(np.abs(kappa)))] = 1.0
    e1 = np.cross(kappa, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(kappa, e1)
    e2 /= np.linalg.norm(e2)
    return np.stack([e1, e2])


class Basis:
    """Mode table and weight arrays for one (domain, scale) pair.

    Precomputes the ordered real eigenbasis, the canonical-slot storage
    layout and the per-slot weights of every space in the tower.  The
    eigenbasis is one table of arrays over the real modes in mode order:
    wavevector `mode_k` (n_modes, d), polarization `mode_p`, storage slot
    `mode_slot`, role `mode_role` and eigenvalue of L `mode_lambda`.
    """

    def __init__(self, domain: TorusDomain, scale: SpaceScale | None = None):
        if scale is None:
            scale = SpaceScale(domain.d)
        if scale.d != domain.d:
            raise ValueError("domain and scale dimensions disagree")
        self.domain = domain
        self.scale = scale
        self.npol = domain.d - 1

        ks = domain.lattice()
        K, d, npol = domain.K, domain.d, self.npol
        # flat box over [-2K, 2K]^d holding the lattice row of each wavevector
        # (-1 off the lattice) at k @ box_stride + box_origin; the index is
        # affine in k, so the index of a wavevector sum is a sum of flat parts
        width = 4 * K + 1
        self.box_stride = width ** np.arange(d - 1, -1, -1)
        self.box_origin = 2 * K * int(self.box_stride.sum())
        self.box_rows = np.full(width**d, -1)
        self.box_rows[ks @ self.box_stride + self.box_origin] = np.arange(len(ks))

        # canonical rows (first nonzero component positive): one slot per
        # (canonical k, polarization), in mode order
        canon = ks[np.arange(len(ks)), np.argmax(ks != 0, axis=1)] > 0
        self.slot_k = np.repeat(ks[canon], npol, axis=0)
        self.slot_eps = np.concatenate([_polarizations(domain.kappa(k)) for k in ks[canon]])
        self.n_slots = len(self.slot_k)
        self.slot_kappa = domain.kappa(self.slot_k)
        self.slot_kappa2 = domain.kappa2(self.slot_k)

        # the mode table: every lattice row carries npol real modes; the
        # canonical member of a pair is the cosine-type field, its negative
        # the sine-type one, and both read the slot of the canonical member
        rank = np.cumsum(canon) - 1
        rep = np.where(canon, np.arange(len(ks)), self.lattice_rows(-ks))
        self.mode_k = np.repeat(ks, npol, axis=0)
        self.mode_p = np.tile(np.arange(npol), len(ks))
        self.mode_slot = (rank[rep, None] * npol + np.arange(npol)).ravel()
        self.mode_role = np.repeat(np.where(canon, ROLE_COS, ROLE_SIN), npol)
        self.mode_lambda = np.repeat((1.0 + domain.kappa2(ks)) ** scale.s_U, npol)
        self.n_modes = len(self.mode_k)

        self._weights = {
            sp: scale.weight(sp, self.slot_kappa2) for sp in SPACES
        }
        self.lattice_k = ks
        self._exp_alpha = 1.0 / math.sqrt(2.0 * domain.volume)
        # rows of the canonical k and of -k in the lattice, per slot
        self._slot_row = self.lattice_rows(self.slot_k)
        self._slot_row_neg = self.lattice_rows(-self.slot_k)

    def lattice_rows(self, ks) -> np.ndarray:
        """Lattice row of each wavevector of ks (shape (..., d)); -1 for the
        zero vector and for a vector off the lattice or outside the box."""
        ks = np.asarray(ks, dtype=int)
        inside = np.all(np.abs(ks) <= 2 * self.domain.K, axis=-1)
        flat = np.where(inside[..., None], ks, 0) @ self.box_stride + self.box_origin
        return np.where(inside, self.box_rows[flat], -1)

    # -- fields -----------------------------------------------------------

    def zero_field(self) -> "SpectralField":
        return SpectralField(self, np.zeros(self.n_slots, dtype=complex))

    def basis_field(self, mode_id: int) -> "SpectralField":
        """The H-orthonormal real eigenfield e_i."""
        return self.field_from_real_coords(np.eye(1, self.n_modes, mode_id)[0])

    def field_from_real_coords(self, x: np.ndarray) -> "SpectralField":
        """Field(s) with coordinates x[..., i] against the real eigenbasis (zero-padded)."""
        x = np.asarray(x, dtype=float)
        c = np.zeros(x.shape[:-1] + (self.n_slots,), dtype=complex)
        ids = np.arange(x.shape[-1])
        roles = self.mode_role[ids]
        vals = np.where(roles == ROLE_COS, x, 0.0) + 1j * np.where(roles == ROLE_SIN, x, 0.0)
        np.add.at(c, (..., self.mode_slot[ids]), vals)
        return SpectralField(self, c)

    def real_coords(self, u: "SpectralField", n: int | None = None) -> np.ndarray:
        """Coordinates of u against the first n real eigenfields, (..., n)."""
        n = self.n_modes if n is None else n
        ids = np.arange(n)
        c = u.coeffs[..., self.mode_slot[ids]]
        return np.where(self.mode_role[ids] == ROLE_COS, c.real, c.imag)

    def weights(self, space: str) -> np.ndarray:
        if space not in self._weights:
            raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")
        return self._weights[space]

    def mode_weights(self, space: str, n: int | None = None) -> np.ndarray:
        """Per real-mode weights (both roles of a slot share the weight)."""
        n = self.n_modes if n is None else n
        return self.weights(space)[self.mode_slot[:n]]

    # -- exponential-mode (full lattice) representation --------------------

    def to_exp_coeffs(self, u: "SpectralField") -> np.ndarray:
        """Vector Fourier amplitudes v(k), (..., rows, d): u(x) = sum_k v(k) exp(i kappa.x)."""
        amp = np.zeros(u.coeffs.shape[:-1] + (len(self.lattice_k), self.domain.d), dtype=complex)
        contrib = (self._exp_alpha * u.coeffs)[..., None] * self.slot_eps
        # the slots of one polarization sit on distinct rows (slot = row * npol
        # + p), so each pass adds in the slot order of an unbuffered np.add.at
        for rows, vals in ((self._slot_row, contrib), (self._slot_row_neg, contrib.conj())):
            for p in range(self.npol):
                amp[..., rows[p :: self.npol], :] += vals[..., p :: self.npol, :]
        return amp

    def from_exp_coeffs(self, amp: np.ndarray) -> "SpectralField":
        """Decompose full-lattice amplitudes (..., rows, d) onto the polarization slots.

        Components parallel to k are discarded, so this is also the Leray
        projection of a conjugate-symmetric coefficient array.
        """
        c = np.einsum("...sd,sd->...s", amp[..., self._slot_row, :], self.slot_eps) / self._exp_alpha / 2.0
        neg = amp[..., self._slot_row_neg, :].conj()
        c += np.einsum("...sd,sd->...s", neg, self.slot_eps) / self._exp_alpha / 2.0
        return SpectralField(self, c)

    # -- the uniform grid: the one lattice-to-grid map ----------------------

    def _half_spectrum(self, N: int) -> tuple:
        """Index (rows, d) of each lattice row in the half spectrum (N,) * (d - 1) + (N // 2 + 1,)
        and the mask of the rows with k_d < 0, which it holds as the conjugate of -k."""
        if N < 2 * self.domain.K + 2:
            raise ValueError(f"grid must have at least 2K+2 = {2 * self.domain.K + 2} points per axis")
        neg = self.lattice_k[:, -1] < 0
        return np.mod(np.where(neg[:, None], -self.lattice_k, self.lattice_k), N), neg

    def grid_values(self, amp: np.ndarray, N: int) -> np.ndarray:
        """Real values (c, ..., N, ..., N) on the uniform N^d grid of the
        conjugate-symmetric lattice amplitudes (..., rows, c) of c components."""
        d = self.domain.d
        k, neg = self._half_spectrum(N)
        spec = np.zeros(amp.shape[-1:] + amp.shape[:-2] + (N,) * (d - 1) + (N // 2 + 1,), dtype=complex)
        spec[(...,) + tuple(k[~neg].T)] = np.moveaxis(amp[..., ~neg, :], -1, 0)
        return np.fft.irfftn(spec, s=(N,) * d, axes=tuple(range(-d, 0)), norm="forward")

    def grid_amplitudes(self, vals: np.ndarray, N: int) -> np.ndarray:
        """Lattice amplitudes (..., rows, c) of real grid values (c, ..., N, ..., N):
        the Fourier coefficients of the grid function, truncated to the lattice."""
        d = self.domain.d
        k, neg = self._half_spectrum(N)
        spec = np.fft.rfftn(vals, axes=tuple(range(-d, 0)), norm="forward")[(...,) + tuple(k.T)]
        return np.moveaxis(np.where(neg, spec.conj(), spec), 0, -1)


@dataclass
class SpectralField:
    """Divergence-free real velocity field(s) stored as half-spectrum amplitudes.

    `coeffs` is (..., n_slots): one field is the 1-D case, a stack has leading
    axes.  Norms, the grid map and the certification forms give a float for one
    field and an array of the leading shape for a stack, by the same code."""

    basis: Basis
    coeffs: np.ndarray

    def __add__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs + other.coeffs)

    def __sub__(self, other: "SpectralField") -> "SpectralField":
        _check_same_basis(self, other)
        return SpectralField(self.basis, self.coeffs - other.coeffs)

    def __mul__(self, a: float) -> "SpectralField":
        return SpectralField(self.basis, self.coeffs * a)

    __rmul__ = __mul__


def _check_same_basis(u: SpectralField, v: SpectralField):
    if u.basis is not v.basis:
        raise ValueError("fields live on different bases")


def stack(fields) -> SpectralField:
    """One field stack holding the given fields of one basis as its rows, in order."""
    return SpectralField(fields[0].basis, np.stack([f.coeffs for f in fields]))


def per_field(x):
    """A 0-d result as a float (one field); a stack's results as the array."""
    return float(x) if np.ndim(x) == 0 else x


def norm(u: SpectralField, space: str):
    w = u.basis.weights(space)
    return per_field(np.sqrt(np.sum(w * np.abs(u.coeffs) ** 2, axis=-1)))


def inner(u: SpectralField, v: SpectralField, space: str):
    _check_same_basis(u, v)
    w = u.basis.weights(space)
    return per_field(np.sum(w * (u.coeffs * v.coeffs.conj()).real, axis=-1))


# grid values a block of a stacked evaluation holds, one field at least
GRID_BLOCK = 1 << 17


def row_blocks(rows: int, values_per_row: int) -> list:
    """Slices covering range(rows), each of at most GRID_BLOCK // values_per_row rows."""
    step = max(1, GRID_BLOCK // values_per_row)
    return [slice(lo, lo + step) for lo in range(0, max(rows, 1), step)]


def blockwise(fn, fields: tuple, values_per_row: int) -> np.ndarray:
    """fn over row blocks of the broadcast stack of `fields`, given one one-axis stack per
    field and giving one result row per field row; joined in the stack's leading shape."""
    coeffs = np.broadcast_arrays(*(f.coeffs for f in fields))
    flat = [c.reshape(-1, c.shape[-1]) for c in coeffs]
    out = np.concatenate([fn(*(SpectralField(f.basis, c[sl]) for f, c in zip(fields, flat)))
                          for sl in row_blocks(len(flat[0]), values_per_row)])
    return out.reshape(coeffs[0].shape[:-1] + out.shape[1:])


def leray_project(basis: Basis, raw: Dict[tuple, np.ndarray]) -> SpectralField:
    """Project raw conjugate-symmetric vector amplitudes onto the solenoidal span.

    `raw` maps lattice vectors to complex vector amplitudes; entries may be
    given on either or both halves of the spectrum (missing halves are
    implied by conjugation).
    """
    amp = np.zeros((len(basis.lattice_k), basis.domain.d), dtype=complex)
    seen = np.zeros(len(basis.lattice_k), dtype=bool)
    for k, v in raw.items():
        k = tuple(int(x) for x in k)
        row = basis.lattice_rows(k) if len(k) == basis.domain.d else -1
        if row < 0:
            raise ValueError(f"wavevector {k} outside the mode lattice")
        amp[row] = np.asarray(v, dtype=complex)
        seen[row] = True
    for r, rn in ((basis._slot_row, basis._slot_row_neg), (basis._slot_row_neg, basis._slot_row)):
        fill = seen[r] & ~seen[rn]
        amp[rn[fill]] = amp[r[fill]].conj()
    return basis.from_exp_coeffs(amp)


_MULTIPLIERS = {
    "Acal": lambda b: b.slot_kappa2,
    "A": lambda b: 1.0 + b.slot_kappa2,
    "L": lambda b: (1.0 + b.slot_kappa2) ** b.scale.s_U,
    "As": lambda b: (1.0 + b.slot_kappa2) ** (b.scale.s - 1.0),
    "Ls": lambda b: (1.0 + b.slot_kappa2) ** (b.scale.s_U - b.scale.s),
}


def apply_operator(u: SpectralField, which: str) -> SpectralField:
    """Diagonal operators: Acal -> |kappa|^2, A -> 1+|kappa|^2, L -> w_U, plus
    the factorization pieces As -> (1+|kappa|^2)^(s-1), Ls -> (1+|kappa|^2)^(s_U-s)."""
    return SpectralField(u.basis, operator_multiplier(u.basis, which) * u.coeffs)


def operator_multiplier(basis: Basis, which: str) -> np.ndarray:
    if which not in _MULTIPLIERS:
        raise ValueError(f"unknown operator {which!r}")
    return _MULTIPLIERS[which](basis)


def project_Pn(u: SpectralField, n: int) -> SpectralField:
    """Orthogonal projection onto the span of the first n real eigenfields."""
    basis = u.basis
    if not 1 <= n <= basis.n_modes:
        raise ValueError(f"projection level {n} outside [1, {basis.n_modes}]")
    return basis.field_from_real_coords(basis.real_coords(u, n))


def partial_derivative(u: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis as the per-slot multiplier i*kappa_axis (stays solenoidal)."""
    return SpectralField(u.basis, 1j * u.basis.slot_kappa[:, axis] * u.coeffs)


def eval_physical(u: SpectralField, grid_points_per_axis: int) -> np.ndarray:
    """Sample the real field(s) on the uniform N^d grid, (..., N, ..., N, d);
    exact for N >= 2K+2."""
    basis = u.basis
    return np.moveaxis(basis.grid_values(basis.to_exp_coeffs(u), int(grid_points_per_axis)), 0, -1)


def grid_points(domain: TorusDomain, N: int) -> np.ndarray:
    """Coordinates of the uniform sampling grid, shape (N, ..., N, d)."""
    axes = [np.arange(N) * (L / N) for L in domain.period]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def random_field(
    basis: Basis,
    rng: np.random.Generator,
    n: int | None = None,
    decay: float = 0.0,
    amplitude: float = 1.0,
) -> SpectralField:
    """Gaussian random field, optionally restricted to the first n modes and
    damped by (1+|kappa|^2)^(-decay) for smoother samples."""
    x = rng.standard_normal(basis.n_modes)
    if n is not None:
        x[n:] = 0.0
    x *= amplitude * (1.0 + basis.mode_weights("D")) ** (-decay)
    return basis.field_from_real_coords(x)
