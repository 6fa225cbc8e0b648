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

from .spectral import Basis, SpectralField, eval_physical, norm, partial_derivative, project_Pn


class TrilinearWorkspace:
    """Dealiased grid of one basis: N >= 3K+1 points per axis, made even."""

    def __init__(self, basis: Basis, grid_points: int | None = None):
        self.basis = basis
        K = basis.domain.K
        N = grid_points if grid_points is not None else 3 * K + 1
        if N < 3 * K + 1:
            raise ValueError(f"dealiased grid needs at least 3K+1 = {3 * K + 1} points")
        self._N = N + (N % 2)

    def product_coeffs(self, u: SpectralField, w: SpectralField) -> np.ndarray:
        """Lattice-truncated Fourier amplitudes of the advection product (u.grad)w."""
        basis = self.basis
        N, d = self._N, basis.domain.d
        u_g = eval_physical(u, N)
        prod = np.zeros((N,) * d + (d,))
        for j in range(d):
            dw_g = eval_physical(partial_derivative(w, j), N)
            prod += u_g[..., j : j + 1] * dw_g
        spec = np.fft.fftn(prod, axes=tuple(range(d))) / (N**d)
        idx = tuple(np.mod(basis.lattice_k[:, j], N) for j in range(d))
        return spec[idx]


def trilinear_b(
    u: SpectralField, w: SpectralField, v: SpectralField, ws: TrilinearWorkspace
) -> float:
    """Exact Galerkin value of the convection integral of (u.grad w) against v."""
    if u.basis is not ws.basis or w.basis is not ws.basis or v.basis is not ws.basis:
        raise ValueError("fields and workspace live on different bases")
    q = ws.product_coeffs(u, w)
    va = ws.basis.to_exp_coeffs(v)
    return float(ws.basis.domain.volume * np.sum(q * va.conj()).real)


def bilinear_B(u: SpectralField, w: SpectralField, ws: TrilinearWorkspace) -> SpectralField:
    """Leray-projected, lattice-truncated coefficients of (u.grad)w.

    The result represents the dual object B(u,w) on the span: pairing it in H
    with any field v of the span reproduces trilinear_b(u,w,v).
    """
    q = ws.product_coeffs(u, w)
    return ws.basis.from_exp_coeffs(q)


def bilinear_norm_ratio(u: SpectralField, w: SpectralField, ws: TrilinearWorkspace) -> float:
    """Realized |B(u,w)|_{V'} / (||u||_V ||w||_V)."""
    denom = norm(u, "V") * norm(w, "V")
    if denom == 0.0:
        return 0.0
    return norm(bilinear_B(u, w, ws), "Vdual") / denom


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
    from .spectral import random_field

    rng = np.random.default_rng(seed)
    basis = ws.basis
    b_norm = 0.0
    max_ratio = 0.0
    pairs = 0
    ratios = []
    for _ in range(samples):
        u = random_field(basis, rng, decay=1.0)
        v = random_field(basis, rng, decay=1.0)
        u = u * (r * rng.uniform(0.2, 1.0) / norm(u, "V"))
        v = v * (r * rng.uniform(0.2, 1.0) / norm(v, "V"))
        diff = u - v
        dn = norm(diff, "V")
        if dn == 0.0:
            continue
        pairs += 1
        gap = norm(bilinear_B(u, u, ws) - bilinear_B(v, v, ws), "Vdual")
        ratios.append(gap / dn)
        max_ratio = max(max_ratio, gap / dn)
        b_norm = max(b_norm, bilinear_norm_ratio(u, diff, ws))
        b_norm = max(b_norm, bilinear_norm_ratio(diff, v, ws))
    bound = 2.0 * r * b_norm
    violations = sum(1 for q in ratios if q > bound * (1.0 + 1e-12))
    return LipschitzReport(
        max_ratio=max_ratio,
        certified_bound=bound,
        b_norm=b_norm,
        violations=violations,
        pairs_used=pairs,
    )
