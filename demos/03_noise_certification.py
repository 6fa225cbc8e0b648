"""Certifying a transport-noise model.

Builds the noise operator G(u)h = sum_i h_i [(b_i . grad)u + c_i u] for a few
coefficient families, computes the certified constants (C_1, coercivity
margin a, the derived pair (eta, lambda_0) and the analytic growth bound),
then the exact growth sup, Lipschitz constant and coercivity margin on the
Galerkin space, each beside its bound, and shows the eta/lambda_0 tradeoff
as eps varies.  A model whose gradient coefficients are too strong is
rejected.
"""

import numpy as np

from sgns.noise import (
    HarmonicField, NoiseModel, constant_transport_model, default_noise_model, exact_constants,
    noise_conditions,
)
from sgns.spectral import Basis, SpaceScale, TorusDomain

basis = Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))

print("reference model: b = (1, 0), c = 0")
rep = noise_conditions(default_noise_model(2), basis.domain, eps=0.5)
exact = exact_constants(default_noise_model(2), basis, rep.eta, rep.lam0)
print(f"  C_1 = {rep.C1}, a = {rep.a}, eta = {rep.eta}, lambda_0 = {rep.lam0}")
print(f"  exact coercivity margin {exact.coercivity_margin:.4f} >= 0")
print(f"  exact growth sup {exact.gstar_constant:.4f} <= analytic bound {rep.gstar_analytic:.3f} "
      f"(margin {rep.gstar_analytic - exact.gstar_constant:.4f})")
print(f"  Lipschitz constant into HS(Y,H): L = {exact.lipschitz_L:.4f} exact")

print("\neta / lambda_0 tradeoff as eps sweeps (eta = a - eps, lambda_0 = C_1^2/(4 eps) + C_1):")
for eps in (0.1, 0.25, 0.5, 0.75, 0.9):
    r = noise_conditions(default_noise_model(2), basis.domain, eps=eps)
    print(f"  eps = {eps:4.2f}: eta = {r.eta:4.2f}, lambda_0 = {r.lam0:6.3f}")

print("\nvariable-coefficient model: b = (0.6, 0) + harmonic, c = 0.3 + harmonic")
b = HarmonicField.build(2, 2, const=[0.6, 0.0], harmonics=[((0, 1), [0.2, 0.1], None)])
c = HarmonicField.build(2, 1, const=[0.3], harmonics=[((1, 0), None, [0.1])])
model = NoiseModel(d=2, directions=((b, c),))
rep = noise_conditions(model, basis.domain)
exact = exact_constants(model, basis, rep.eta, rep.lam0)
print(f"  C_1 = {rep.C1:.4f}, a = {rep.a:.4f}, eta = {rep.eta:.4f}, lambda_0 = {rep.lam0:.4f}")
print(f"  exact: coercivity margin {exact.coercivity_margin:.4f}, growth sup {exact.gstar_constant:.4f} "
      f"<= {rep.gstar_analytic:.4f} (margin {rep.gstar_analytic - exact.gstar_constant:.4f}), "
      f"L = {exact.lipschitz_L:.4f}")

print("\nrejected model: two orthogonal directions of strength sqrt(2)")
bad = constant_transport_model([[np.sqrt(2), 0.0], [0.0, np.sqrt(2)]])
rep = noise_conditions(bad, basis.domain)
print(f"  coercivity margin a = {rep.a:.2e} -> rejected: {rep.rejected}")
