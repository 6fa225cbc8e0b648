"""Trilinear convection form b, bilinear operator B and the tamed Galerkin
nonlinearity, evaluated on a dealiased grid.

This is the independent oracle for the sparse triplet kernel of
`sgns.galerkin`: the advection product is formed in physical space on a grid
of N >= 3K+1 points per axis (the 3/2-rule dealiasing of Orszag 1971), so no
aliased frequency folds back onto a kept mode.  The evaluation is exact on
the truncated mode set, and the structural identities b(u,w,v) = -b(u,v,w)
and b(u,v,v) = 0 hold to roundoff and are asserted, not approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Basis, SpectralField, blockwise, norm, per_field, project_Pn, random_field, stack


class TrilinearWorkspace:
    """Dealiased grid of one basis: N >= 3K+1 points per axis, made even."""

    def __init__(self, basis: Basis, grid_points: int | None = None):
        self.basis = basis
        K, d = basis.domain.K, basis.domain.d
        N = grid_points if grid_points is not None else 3 * K + 1
        if N < 3 * K + 1:
            raise ValueError(f"dealiased grid needs at least 3K+1 = {3 * K + 1} points")
        self._N = N + (N % 2)
        # grid values of one field's product: u and the d x d gradient of w
        self.field_values = (d + d * d) * self._N**d

    def product_coeffs(self, u: SpectralField, w: SpectralField) -> np.ndarray:
        """Lattice amplitudes (..., rows, d) of the dealiased advection product (u.grad)w."""
        basis = self.basis
        if u.basis is not basis or w.basis is not basis:
            raise ValueError("fields and workspace live on different bases")
        d = basis.domain.d
        wa = basis.to_exp_coeffs(w)
        # d_j w_i at component j * d + i, next to the d components of u
        grad = 1j * basis.domain.kappa(basis.lattice_k)[:, :, None] * wa[..., None, :]
        g = basis.grid_values(np.concatenate(
            [basis.to_exp_coeffs(u), grad.reshape(wa.shape[:-1] + (d * d,))], axis=-1), self._N)
        prod = sum(g[j] * g[d * (j + 1) : d * (j + 2)] for j in range(d))
        return basis.grid_amplitudes(prod, self._N)


def trilinear_b(u: SpectralField, w: SpectralField, v: SpectralField, ws: TrilinearWorkspace):
    """Exact Galerkin value of the convection integral of (u.grad w) against v."""
    if v.basis is not ws.basis:
        raise ValueError("fields and workspace live on different bases")

    def pair(u, w, v):
        q, va = ws.product_coeffs(u, w), ws.basis.to_exp_coeffs(v)
        return np.sum(q.real * va.real + q.imag * va.imag, axis=(-2, -1))

    return per_field(ws.basis.domain.volume * blockwise(pair, (u, w, v), ws.field_values))


def bilinear_B(u: SpectralField, w: SpectralField, ws: TrilinearWorkspace) -> SpectralField:
    """Leray-projected, lattice-truncated coefficients of (u.grad)w.

    The result represents the dual object B(u,w) on the span: pairing it in H
    with any field v of the span reproduces trilinear_b(u,w,v).
    """
    return SpectralField(ws.basis, blockwise(
        lambda u, w: ws.basis.from_exp_coeffs(ws.product_coeffs(u, w)).coeffs, (u, w), ws.field_values))


def bilinear_norm_ratio(u: SpectralField, w: SpectralField, ws: TrilinearWorkspace):
    """Realized |B(u,w)|_{V'} / (||u||_V ||w||_V); 0 where the denominator is."""
    denom = norm(u, "V") * norm(w, "V")
    return per_field(np.divide(norm(bilinear_B(u, w, ws), "Vdual"), denom,
                               out=np.zeros(np.shape(denom)), where=denom != 0.0))


@dataclass(frozen=True)
class CutoffSpec:
    """Quintic smoothstep cutoff: 1 below `level`, 0 above `level`+1, C^2."""

    level: float

    def __post_init__(self):
        if self.level <= 0:
            raise ValueError("cutoff level must be positive")

    def theta(self, r):
        """Cutoff factor of a norm r, or elementwise of an array of norms.
        Products only, so each entry depends on its own r alone."""
        x = np.asarray(r, dtype=float) - self.level
        if (x <= 0.0).all():
            out = np.ones(x.shape)
        else:
            x = np.minimum(np.maximum(x, 0.0), 1.0)
            out = 1.0 - x * x * x * (10.0 - 15.0 * x + 6.0 * (x * x))
        return float(out) if out.ndim == 0 else out

    def dtheta(self, r: float) -> float:
        x = r - self.level
        if x <= 0.0 or x >= 1.0:
            return 0.0
        return -(30.0 * x**2 - 60.0 * x**3 + 30.0 * x**4)


def truncated_Bn(
    u: SpectralField, n: int, cutoff: CutoffSpec, ws: TrilinearWorkspace
) -> SpectralField:
    """Tamed Galerkin nonlinearity: P_n B(theta(|u|_{U'}) u, u).

    The scalar cutoff factors out of the bilinear first slot, so the value is
    theta(|u|_{U'}) * P_n B(u, u); below the cutoff level it coincides with
    P_n B(u, u), above level+1 it vanishes identically.
    """
    factor = cutoff.theta(norm(u, "Udual"))
    if factor == 0.0:
        return u.basis.zero_field()
    return factor * project_Pn(bilinear_B(u, u, ws), n)


@dataclass
class LipschitzReport:
    max_ratio: float
    certified_bound: float
    b_norm: float
    violations: int
    pairs_used: int


def local_lipschitz_B(
    ws: TrilinearWorkspace,
    r: float,
    samples: int,
    seed: int = 0,
) -> LipschitzReport:
    """Sample the local Lipschitz quotient of u -> B(u,u) on the V-ball of radius r.

    The certified bound is 2 r ||B|| with ||B|| measured on the decomposition
    pairs (u, u-v) and (u-v, v) that drive the estimate, so every sampled
    quotient is guaranteed to sit below it.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    if samples < 1:
        raise ValueError("need at least one sample pair")
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(samples):
        u, v = random_field(ws.basis, rng, decay=1.0), random_field(ws.basis, rng, decay=1.0)
        pairs.append([f * (r * rng.uniform(0.2, 1.0) / norm(f, "V")) for f in (u, v)])
    u, v = (stack(fields) for fields in zip(*pairs))
    dn = norm(u - v, "V")
    # a pair with u = v has no quotient
    u, v = (SpectralField(ws.basis, f.coeffs[dn != 0.0]) for f in (u, v))
    diff, dn = u - v, dn[dn != 0.0]
    ratios = norm(bilinear_B(u, u, ws) - bilinear_B(v, v, ws), "Vdual") / dn
    b_norm = float(np.max(np.concatenate(
        [bilinear_norm_ratio(u, diff, ws), bilinear_norm_ratio(diff, v, ws)]), initial=0.0))
    bound = 2.0 * r * b_norm
    return LipschitzReport(max_ratio=float(np.max(ratios, initial=0.0)), certified_bound=bound,
                           b_norm=b_norm, violations=int(np.sum(ratios > bound * (1.0 + 1e-12))),
                           pairs_used=len(dn))
