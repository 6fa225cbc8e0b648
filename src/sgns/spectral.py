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
from typing import Dict, Sequence

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
        kap2 = self.kappa2(ks)
        order = sorted(range(len(ks)), key=lambda i: (kap2[i], tuple(ks[i])))
        return ks[order]

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
        one = 1.0 + kappa2
        if space == "H":
            return np.ones_like(kappa2)
        if space == "D":
            return kappa2
        if space == "V":
            return one
        if space == "Vs":
            return one ** self.s
        if space == "U":
            return one ** self.s_U
        if space == "Hdual":
            return np.ones_like(kappa2)
        if space == "Vdual":
            return 1.0 / one
        if space == "Vsdual":
            return one ** (-self.s)
        if space == "Udual":
            return one ** (-self.s_U)
        raise ValueError(f"unknown space {space!r}; expected one of {SPACES}")


@dataclass(frozen=True)
class WaveMode:
    """One real eigenmode of L: lattice vector, polarization, storage slot."""

    k: tuple
    p: int
    eps: np.ndarray
    mode_id: int
    lam: float
    slot: int
    role: int  # ROLE_COS for the canonical representative, ROLE_SIN for -k


def _is_canonical(k: Sequence[int]) -> bool:
    for kj in k:
        if kj != 0:
            return kj > 0
    return False


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
    layout and the per-slot weights of every space in the tower.
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
        kap2 = domain.kappa2(ks)
        lam = (1.0 + kap2) ** scale.s_U

        # canonical slots: one per (canonical k, polarization), in mode order
        canon_rows = [i for i in range(len(ks)) if _is_canonical(ks[i])]
        slot_of = {}
        slot_k, slot_eps = [], []
        for row in canon_rows:
            k = tuple(int(v) for v in ks[row])
            eps = _polarizations(domain.kappa(ks[row]))
            for p in range(self.npol):
                slot_of[(k, p)] = len(slot_k)
                slot_k.append(k)
                slot_eps.append(eps[p])
        self.n_slots = len(slot_k)
        self.slot_k = np.array(slot_k, dtype=int)
        self.slot_eps = np.array(slot_eps, dtype=float)
        self.slot_kappa = domain.kappa(self.slot_k)
        self.slot_kappa2 = domain.kappa2(self.slot_k)

        # real modes: every lattice vector carries npol modes; the canonical
        # member of a pair is the cosine-type field, its negative the sine-type
        modes = []
        for row in range(len(ks)):
            k = tuple(int(v) for v in ks[row])
            canonical = _is_canonical(k)
            kc = k if canonical else tuple(-v for v in k)
            for p in range(self.npol):
                slot = slot_of[(kc, p)]
                modes.append(
                    WaveMode(
                        k=k,
                        p=p,
                        eps=self.slot_eps[slot],
                        mode_id=len(modes),
                        lam=float(lam[row]),
                        slot=slot,
                        role=ROLE_COS if canonical else ROLE_SIN,
                    )
                )
        self.modes = modes
        self.n_modes = len(modes)
        self.mode_slot = np.array([m.slot for m in modes])
        self.mode_role = np.array([m.role for m in modes])
        self.mode_lambda = np.array([m.lam for m in modes])

        self._weights = {
            sp: scale.weight(sp, self.slot_kappa2) for sp in SPACES
        }
        self.lattice_k = ks
        self._exp_alpha = 1.0 / math.sqrt(2.0 * domain.volume)
        # flat box over [-2K, 2K]^d holding the lattice row of each wavevector
        # (-1 off the lattice) at k @ box_stride + box_origin; the index is
        # affine in k, so the index of a wavevector sum is a sum of flat parts
        K, d = domain.K, domain.d
        width = 4 * K + 1
        self.box_stride = width ** np.arange(d - 1, -1, -1)
        self.box_origin = 2 * K * int(self.box_stride.sum())
        self.box_rows = np.full(width**d, -1)
        self.box_rows[ks @ self.box_stride + self.box_origin] = np.arange(len(ks))
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
        m = self.modes[mode_id]
        c = np.zeros(self.n_slots, dtype=complex)
        c[m.slot] = 1.0 if m.role == ROLE_COS else 1.0j
        return SpectralField(self, c)

    def field_from_real_coords(self, x: np.ndarray) -> "SpectralField":
        """Field with coordinates x_i against the real eigenbasis (zero-padded)."""
        c = np.zeros(self.n_slots, dtype=complex)
        x = np.asarray(x, dtype=float)
        ids = np.arange(len(x))
        roles = self.mode_role[ids]
        vals = np.where(roles == ROLE_COS, x, 0.0) + 1j * np.where(roles == ROLE_SIN, x, 0.0)
        np.add.at(c, self.mode_slot[ids], vals)
        return SpectralField(self, c)

    def real_coords(self, u: "SpectralField", n: int | None = None) -> np.ndarray:
        """Coordinates of u against the first n real eigenfields."""
        n = self.n_modes if n is None else n
        ids = np.arange(n)
        c = u.coeffs[self.mode_slot[ids]]
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
        """Vector Fourier amplitudes v(k) with u(x) = sum_k v(k) exp(i kappa.x)."""
        amp = np.zeros((len(self.lattice_k), self.domain.d), dtype=complex)
        contrib = (self._exp_alpha * u.coeffs)[:, None] * self.slot_eps
        np.add.at(amp, self._slot_row, contrib)
        np.add.at(amp, self._slot_row_neg, contrib.conj())
        return amp

    def from_exp_coeffs(self, amp: np.ndarray) -> "SpectralField":
        """Decompose full-lattice amplitudes onto the polarization slots.

        Components parallel to k are discarded, so this is also the Leray
        projection of a conjugate-symmetric coefficient array.
        """
        rows = amp[self._slot_row]
        c = np.einsum("sd,sd->s", rows, self.slot_eps) / self._exp_alpha / 2.0
        c += np.einsum("sd,sd->s", amp[self._slot_row_neg].conj(), self.slot_eps) / self._exp_alpha / 2.0
        return SpectralField(self, c)


@dataclass
class SpectralField:
    """Divergence-free real velocity field stored as half-spectrum amplitudes."""

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


def enumerate_modes(domain: TorusDomain, scale: SpaceScale | None = None) -> list:
    """Ordered real eigenmodes of L; ascending eigenvalue, ties by (|k|^2, k, p)."""
    return Basis(domain, scale).modes


def norm(u: SpectralField, space: str) -> float:
    w = u.basis.weights(space)
    return float(np.sqrt(np.sum(w * np.abs(u.coeffs) ** 2)))


def inner(u: SpectralField, v: SpectralField, space: str) -> float:
    _check_same_basis(u, v)
    w = u.basis.weights(space)
    return float(np.sum(w * (u.coeffs * v.coeffs.conj()).real))


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
    for slot in range(basis.n_slots):
        r, rn = basis._slot_row[slot], basis._slot_row_neg[slot]
        if seen[r] and not seen[rn]:
            amp[rn] = amp[r].conj()
        elif seen[rn] and not seen[r]:
            amp[r] = amp[rn].conj()
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
    if which not in _MULTIPLIERS:
        raise ValueError(f"unknown operator {which!r}")
    return SpectralField(u.basis, _MULTIPLIERS[which](u.basis) * u.coeffs)


def operator_multiplier(basis: Basis, which: str) -> np.ndarray:
    if which not in _MULTIPLIERS:
        raise ValueError(f"unknown operator {which!r}")
    return _MULTIPLIERS[which](basis)


def project_Pn(u: SpectralField, n: int) -> SpectralField:
    """Orthogonal projection onto the span of the first n real eigenfields."""
    basis = u.basis
    if not 1 <= n <= basis.n_modes:
        raise ValueError(f"projection level {n} outside [1, {basis.n_modes}]")
    keep = np.zeros(basis.n_slots, dtype=complex)
    ids = np.arange(n)
    slots = basis.mode_slot[ids]
    roles = basis.mode_role[ids]
    keep[slots[roles == ROLE_COS]] += 1.0
    keep[slots[roles == ROLE_SIN]] += 1.0j
    c = u.coeffs.real * keep.real + 1j * (u.coeffs.imag * keep.imag)
    return SpectralField(basis, c)


def partial_derivative(u: SpectralField, axis: int) -> SpectralField:
    """d/dx_axis as the per-slot multiplier i*kappa_axis (stays solenoidal)."""
    return SpectralField(u.basis, 1j * u.basis.slot_kappa[:, axis] * u.coeffs)


def eval_physical(u: SpectralField, grid_points_per_axis: int) -> np.ndarray:
    """Sample the real field on the uniform N^d grid; exact for N >= 2K+2."""
    basis = u.basis
    N = int(grid_points_per_axis)
    if N < 2 * basis.domain.K + 2:
        raise ValueError(f"grid must have at least 2K+2 = {2 * basis.domain.K + 2} points per axis")
    d = basis.domain.d
    amp = basis.to_exp_coeffs(u)
    spec = np.zeros((N,) * d + (d,), dtype=complex)
    idx = tuple(np.mod(basis.lattice_k[:, j], N) for j in range(d))
    spec[idx] = amp
    out = np.fft.ifftn(spec, axes=tuple(range(d))) * (N ** d)
    return out.real


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
