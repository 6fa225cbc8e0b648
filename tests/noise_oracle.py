"""The sampled checks of the exact certificates: random fields drawn on the
Galerkin space for the noise conditions, and random points of the unit
sphere for the nested space.  A sampled maximum can only fall below the sup
it estimates, so these are the independent lower witnesses of
`noise.exact_constants` and of `tightness.build_nested_space`, whose
verdicts rest on the exact values."""

from dataclasses import asdict, dataclass

import numpy as np

from sgns.noise import NoiseConditionReport, _max_lipschitz_quotient, noise_conditions, noise_matrices


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
