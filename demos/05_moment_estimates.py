"""Uniform-in-n moment estimates.

Admissible moment exponents depend on the certified noise margin eta through
p < 2 + eta/(2 - eta); the ensembles below estimate E[sup |u|_H^p] and the
Dirichlet-energy integral across Galerkin levels and test that they are
bounded uniformly with no rising trend beyond Monte Carlo noise.
"""

import numpy as np

from sgns.estimates import aggregate, epsilon_for_p, p_range, uniformity_report
from sgns.galerkin import GalerkinConfig, integrate_ensemble
from sgns.noise import HarmonicField, NoiseModel, coercivity_constant
from sgns.spectral import Basis, SpaceScale, TorusDomain, random_field

basis = Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))

b1 = HarmonicField.build(2, 2, const=[1.0, 0.0])
b2 = HarmonicField.build(2, 2, const=None, harmonics=[((2, 2), [0.1, 0.0], None)])
model = NoiseModel(d=2, directions=((b1, None), (b2, None)))
# eta = a - eps at the default eps = a / 2, as noise_conditions forms it
a = coercivity_constant(model, basis.domain)
eta = a - a / 2.0
print(f"certified eta = {eta:.4f} -> admissible p in [2, {p_range(eta)[1]:.4f})")
print(f"  e.g. p = 2: admissible eps interval {epsilon_for_p(2.0, eta)}")

rng = np.random.default_rng(314)
u0 = random_field(basis, rng, n=4, decay=0.5)
by_n = {}
for n in (4, 8, 16, 32):
    cfg = GalerkinConfig(basis=basis, n=n, dt=1e-3, T=1.0, u0=u0, model=model, seed=2024,
                         integral_powers=(2.0, 2.2))
    by_n[n] = integrate_ensemble(cfg, 100, workers=2)

stats = aggregate(by_n, p_list=(2.0, 2.2), eta=eta)
print("\nper-level moment functionals (mean +- SE):")
print(f"  {'n':>4s} {'E sup|u|^2':>22s} {'E int |u|^0.2 ||u||^2':>24s} {'E int ||u||^2':>22s}")
for n in sorted(stats.per_n):
    e = stats.per_n[n]
    s2 = e["sup_H_p"][2.0]
    w22 = e["int_weighted"][2.2]
    d2 = e["int_dirichlet2"]
    print(f"  {n:4d} {s2.mean:12.6f} +- {s2.se:.6f} {w22.mean:13.6f} +- {w22.se:.6f} "
          f"{d2.mean:12.6f} +- {d2.se:.6f}")

verdict = uniformity_report(stats)
print("\nuniformity verdict:")
for name, ratio in verdict.ratios.items():
    tau, pval = verdict.kendall[name]
    print(f"  {name}: max/min ratio = {ratio:.6f}, Kendall tau = {tau:.3f} (p = {pval:.3f})")
print(f"  passed: {verdict.passed}")
