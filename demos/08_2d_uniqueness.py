"""Two-dimensional structure: interpolation inequalities and uniqueness.

In 2D the L4 interpolation inequality sharpens every convection bound enough
to close a Gronwall argument: the shifted deterministic equation has a unique
solution under an explicit envelope, and twin stochastic runs driven by one
Wiener path stay together, measured by the weighted distance
exp(-r(t)) |u1 - u2|_H^2 with r' proportional to the Dirichlet energy of one
solution.
"""

import numpy as np

from sgns.galerkin import GalerkinConfig
from sgns.noise import default_noise_model, exact_constants
from sgns.nonlinear import TrilinearWorkspace
from sgns.spectral import Basis, SpaceScale, TorusDomain, random_field
from sgns.twodim import (
    ShiftedProblem, energy_inequality_check, ladyzhenskaya_check,
    pathwise_uniqueness_experiment, solve_shifted, trilinear_2d_bound,
    uniqueness_shifted,
)

basis = Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))
rng = np.random.default_rng(8)
ws = TrilinearWorkspace(basis)

print("L4 interpolation and trilinear ratios over 500 random fields:")
lady = [ladyzhenskaya_check(random_field(basis, rng, decay=0.5)) for _ in range(500)]
tri = [
    trilinear_2d_bound(*(random_field(basis, rng, decay=0.5) for _ in range(3)), ws)
    for _ in range(500)
]
print(f"  max L4 ratio        = {max(lady):.4f} (<= 1 expected on domains; recorded on the torus)")
print(f"  max trilinear ratio = {max(t for t in tri if t == t):.4f}")

print("\nshifted deterministic equation (Runge-Kutta, order 4):")
u0 = random_field(basis, rng, n=8, decay=0.5)
z = random_field(basis, rng, n=8, decay=1.0)
prob = ShiftedProblem(basis=basis, n=16, dt=1e-3, T=0.2, u0=u0, z=z)
path = solve_shifted(prob)
erep = energy_inequality_check(path, prob)
print(f"  energy-inequality worst margin = {erep.worst_margin:+.4f} (>= -O(dt); C = {erep.C})")

pert = np.zeros(basis.n_modes)
pert[3] = 1e-8
urep = uniqueness_shifted(prob, u0, u0 + basis.field_from_real_coords(pert))
print(f"  perturbed twin stays under the Gronwall envelope: {urep.within_envelope}")
print(f"  |w(T)|^2 = {urep.distance_sq[-1]:.3e} <= envelope(T) = {urep.envelope[-1]:.3e}")

print("\npathwise uniqueness of the stochastic system:")
model = default_noise_model(2)
L = exact_constants(model, basis).lipschitz_L
print(f"  noise Lipschitz constant L = {L:.4f} (exact on the Galerkin space) < 2 (gate open)")
cfg = GalerkinConfig(basis=basis, n=16, dt=1e-3, T=0.3, u0=u0, model=model, seed=13)
twin = pathwise_uniqueness_experiment(cfg, L, gamma=0.0, n_traj=2)
print(f"  gamma = 0 twins bitwise identical: {twin.identical}")
rep = pathwise_uniqueness_experiment(cfg, L, gamma=1e-8, n_traj=100)
print(f"  gamma = 1e-8: median exp(-r(T))|U(T)|^2 / |U(0)|^2 = {rep.median_ratio_T:.4f} "
      f"(eps = {rep.eps:.3f}, C_eps = {rep.C_eps:.3f})")
