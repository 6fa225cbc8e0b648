"""The sampled checks of the exact certificates: random fields drawn on the
Galerkin space for the noise conditions, and random points of the unit
sphere for the nested space.  A sampled maximum can only fall below the sup
it estimates, so these are the independent lower witnesses of
`noise.exact_constants` and of `tightness.build_nested_space`, whose
verdicts rest on the exact values.

Here too are the noise operator applied to a field, G(u)h by exact
convolution on the lattice, the oracle whose image of each basis field
`noise.noise_matrices` must give to the bit, the exact constant of the
weak-continuity condition (G**), which no verb reports, and the polished
maximum of a coefficient scalar, a value the scalar reaches, which each
certified sup bracket of `noise` must contain."""

from dataclasses import asdict, dataclass

import numpy as np

from sgns.noise import (
    NoiseConditionReport, NoiseModel, _max_lipschitz_quotient, _tables, noise_conditions, noise_matrices,
)
from sgns.spectral import SpectralField, grid_points, norm


def apply_G_direction(u: SpectralField, i: int, model: NoiseModel) -> SpectralField:
    """G(u)h^i for the i-th canonical direction: (b_i . grad)u + c_i u,
    computed by exact convolution, Leray-projected and lattice-truncated;
    for one field or a stack."""
    basis = u.basis
    ua = basis.to_exp_coeffs(u)
    out = np.zeros_like(ua)
    for rows, scal in _tables(model, basis)[i]:
        ok = rows >= 0
        # one shift sends distinct rows to distinct rows
        out[..., rows[ok], :] += scal[ok, None] * ua[..., ok, :]
    return basis.from_exp_coeffs(out)


def apply_G(u: SpectralField, h, model: NoiseModel) -> SpectralField:
    """Noise operator G(u)h = sum_i h_i [(b_i . grad)u + c_i u]."""
    h = np.asarray(h, dtype=float)
    if h.shape != (model.M,):
        raise ValueError(f"h must have length M = {model.M}")
    out = u.basis.zero_field()
    for i in range(model.M):
        if h[i] != 0.0:
            out = out + h[i] * apply_G_direction(u, i, model)
    return out


def polished_max(scalar_at, domain, max_k: int) -> float:
    """Largest value found of a smooth scalar on the torus: a grid sweep, one
    doubling check, then a Nelder-Mead polish from the best grid point.  A
    value the scalar reaches, so never above its sup."""
    from scipy.optimize import minimize

    N = max(64, 16 * max_k + 2) if domain.d == 2 else max(24, 8 * max_k + 2)
    pts = grid_points(domain, N).reshape(-1, domain.d)
    vals = scalar_at(pts)
    best = float(np.max(vals))
    pts2 = grid_points(domain, 2 * N).reshape(-1, domain.d)
    vals2 = scalar_at(pts2)
    if np.max(vals2) > best:
        best, pts, vals = float(np.max(vals2)), pts2, vals2
    x0 = pts[int(np.argmax(vals))]
    res = minimize(
        lambda x: -scalar_at(x[None, :])[0],
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    return max(best, float(-res.fun))


def continuity_constant_Gstarstar(model: NoiseModel, psi: SpectralField) -> float:
    """The least C of the weak-continuity condition on the basis of psi,

        |<G(u) - G(v) | psi>|_Y  <=  C |u - v|_H ||psi||_V   for all u, v.

    G is linear, so the pairing is A (u - v) in real coordinates, with
    A[i, j] = <G_i e_j, psi>_H read from `noise_matrices`, and C is
    sigma_max(A) / ||psi||_V; 0 when psi = 0 or the model has no direction."""
    psiV = norm(psi, "V")
    if model.M == 0 or psiV == 0.0:
        return 0.0
    x = psi.basis.real_coords(psi)
    A = np.stack([x @ mat for mat in noise_matrices(model, psi.basis)])
    return float(np.linalg.norm(A, 2)) / psiV


@dataclass
class SampledConditionReport(NoiseConditionReport):
    gstar_constant: float  # the growth ratio's sampled maximum
    gstar_violations: int
    lipschitz_L: float  # the Lipschitz quotient's sampled maximum
    empirical_violations: int
    samples: int


def certify_conditions(model, basis, eps=None, samples: int = 1000, seed: int = 0) -> SampledConditionReport:
    """The constants of `noise.noise_conditions`, checked on `samples`
    random fields: counts the fields that violate

        2 ((u,u)) - |G(u)|_{HS(Y,H)}^2 >= eta ||u||^2 - lam0 |u|_H^2

    or whose growth ratio |G(u)|_{HS(Y,V')}^2 / (1 + |u|_H^2) exceeds the
    analytic bound, and takes the largest growth ratio and the largest
    Lipschitz quotient |G(u)-G(v)|_{HS(Y,H)} / ||u-v|| over the draws."""
    rep = noise_conditions(model, basis.domain, eps)
    if rep.rejected:
        return SampledConditionReport(**asdict(rep), gstar_constant=float("nan"), gstar_violations=0,
                                      lipschitz_L=float("nan"), empirical_violations=0, samples=0)
    eta, lam0 = rep.eta, rep.lam0

    mats = noise_matrices(model, basis)
    wD = basis.mode_weights("D")
    wVdual = basis.mode_weights("Vdual")

    rng = np.random.default_rng(seed)
    X = rng.standard_normal((samples, basis.n_modes))
    X *= (1.0 + wD) ** (-rng.uniform(0.0, 1.0, size=(samples, 1)))

    # every square and weight is taken in place, in the order of Y * Y * w,
    # so that at most two (samples, modes) arrays are alive at once
    hsH2 = np.zeros(samples)
    hsV2 = np.zeros(samples)
    for mat in mats:
        Y = X @ mat.T
        Y *= Y
        hsH2 += np.sum(Y, axis=1)
        Y *= wVdual
        hsV2 += np.sum(Y, axis=1)
    Y = None  # freed before D is made (mats may be empty)
    half = samples // 2
    D = X[:half] - X[half : 2 * half]
    X *= X
    normH2 = np.sum(X, axis=1)
    X *= wD
    normD2 = np.sum(X, axis=1)
    del X

    lhs = 2.0 * normD2 - hsH2
    rhs = eta * normD2 - lam0 * normH2
    scale = np.maximum(1.0, 2.0 * normD2 + lam0 * normH2)
    violations = int(np.sum(lhs < rhs - 1e-9 * scale))

    gstar_ratio = hsV2 / (1.0 + normH2)
    gstar_constant = float(np.max(gstar_ratio)) if samples else 0.0
    gstar_violations = int(np.sum(gstar_ratio > rep.gstar_analytic * (1.0 + 1e-9) + 1e-12))

    # linear G: the Lipschitz quotient is the operator norm from the Dirichlet
    # seminorm into HS(Y,H); measure it on the sampled pair differences
    lip = _max_lipschitz_quotient(D, mats, wD)

    return SampledConditionReport(**asdict(rep), gstar_constant=gstar_constant,
                                  gstar_violations=gstar_violations, lipschitz_L=lip,
                                  empirical_violations=violations, samples=samples)


@dataclass
class SampledNestedSpace:
    embedding_norm_bound: float  # 1 - eta0
    max_embedding_norm: float  # the sampled maximum
    embedding_violations: int
    tail_violations: int
    samples: int


def sample_nested_space(spec, samples: int = 1000, seed: int = 0) -> SampledNestedSpace:
    """The unit sphere of the weighted space of `spec`, sampled: counts the
    points whose embedding norm exceeds 1 - eta0, and those with a tail
    above its bound |s_N - s_m|_Phi <= eta_N - eta_m, by the comparisons of
    `tightness.build_nested_space`."""
    etas, phi_norms, radii = spec.etas, spec.phi_norms, spec.radii
    N = len(radii)
    rng = np.random.default_rng(seed)
    emb_viol = 0
    tail_viol = 0
    max_emb = 0.0
    bound = 1.0 - spec.eta0
    for _ in range(samples):
        g = rng.standard_normal(N)
        nrm = np.linalg.norm(g)
        if nrm == 0:
            continue
        x = radii * g / nrm  # |x|_H = 1 exactly
        phi_terms = np.abs(x) * phi_norms
        emb = float(np.sum(phi_terms))
        max_emb = max(max_emb, emb)
        if emb > bound * (1.0 + 1e-12):
            emb_viol += 1
        tails = np.cumsum(phi_terms[::-1])[::-1]  # tails[m] = sum_{i >= m} (0-based)
        # |s_N - s_m|_Phi <= eta_N - eta_m for every m = 0..N-1
        allowed = etas[-1] - etas[:-1]
        if np.any(tails > allowed * (1.0 + 1e-12) + 1e-15):
            tail_viol += 1
    return SampledNestedSpace(embedding_norm_bound=bound, max_embedding_norm=max_emb,
                              embedding_violations=emb_viol, tail_violations=tail_viol, samples=samples)
