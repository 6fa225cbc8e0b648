"""Tightness diagnostics on a trajectory family.

The compactness machinery consumes exactly three empirical inputs: bounded
energy, a uniform U'-modulus of continuity that decays with the window, and
smallness of stopped increments (the Aldous table).  The drift/noise pieces
of the path decomposition scale like theta and sqrt(theta) respectively,
which the J-term fits confirm.
"""

import numpy as np

from sgns.galerkin import GalerkinConfig, integrate_batch, integrate_ensemble
from sgns.noise import default_noise_model
from sgns.spectral import Basis, SpaceScale, TorusDomain, random_field
from sgns.tightness import (
    FunctionFamily, aldous_check, calibrate_aldous_eta, dubinsky_diagnostic,
    increment_scaling, median_modulus_curve, modulus_lags, nonlinear_refinement_check,
)

basis = Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))
rng = np.random.default_rng(6)
u0 = random_field(basis, rng, n=8, decay=0.5)
T, steps = 1.0, 512
dt = T / steps
deltas = [T * 2.0**-j for j in range(9, 3, -1)]

# the pool workers record each path's U' increment maxima at the lags the
# modulus table over `deltas` reads
cfg = GalerkinConfig(basis=basis, n=16, dt=dt, T=T, u0=u0,
                     model=default_noise_model(2), seed=7,
                     snapshot_stride=1, integral_snapshot_stride=4,
                     modulus_lags=modulus_lags(deltas, np.arange(steps + 1) * dt))
ens = integrate_ensemble(cfg, 100, workers=2)
fam = FunctionFamily(ens)

rep = dubinsky_diagnostic(fam, deltas)
curve, slope = median_modulus_curve(fam, deltas)
print("compactness premises:")
print(f"  sup int ||u||_V^2 dt = {rep.sup_V_integral:.4f}, sup sup |u|_H = {rep.sup_sup_H:.4f}")
print(f"  family-sup modulus slope = {rep.slope:.3f}, ensemble-median slope = {slope:.3f}")
print("  delta -> median modulus:")
for d, m in zip(sorted(deltas), curve):
    print(f"    {d:9.5f} -> {m:.6f}")

eta = calibrate_aldous_eta(fam, T * 2.0**-4, 60.0)
ald = aldous_check(fam, [T * 2.0**-j for j in range(8, 3, -1)], eta)
print(f"\nAldous exceedance table (threshold eta = {eta:.5f}):")
for t, p in zip(ald.thetas, ald.probabilities):
    print(f"  theta = {t:8.5f}: P(increment >= eta) = {p:.3f}")
print(f"  nonincreasing: {ald.monotone}, decays: {ald.decays}")

jrep = increment_scaling(ens, tau=[T / 8.0, T / 4.0, 3.0 * T / 8.0, T / 2.0],
                         thetas=[dt * 4 * 2**j for j in range(5)])
print("\npath-decomposition increment scaling (fitted exponents):")
for name, exp in jrep.exponents.items():
    print(f"  {name:12s}: {exp:.3f}" if exp == exp else f"  {name:12s}: identically zero")

print("\nnonlinear-term refinement across Galerkin levels (same Wiener path):")
u0_ref = random_field(basis, np.random.default_rng(20), n=8, decay=0.5)
psi = random_field(basis, np.random.default_rng(21), decay=1.0)
by_n = {}
for n in (8, 16, 32, 64):
    c = GalerkinConfig(basis=basis, n=n, dt=dt, T=T, u0=u0_ref,
                       model=default_noise_model(2), seed=22,
                       snapshot_stride=64, refinement_probe=psi)
    by_n[n] = integrate_batch(c, [0])  # one path per level
ref = nonlinear_refinement_check(by_n)
print(f"  I_n = {[f'{v:+.6f}' for v in ref.integrals]}")
print(f"  successive gaps = {[f'{g:.2e}' for g in ref.successive_gaps]}")
print(f"  monotone decreasing: {ref.passed}, overall Cauchy decay: {ref.cauchy_decay}")
