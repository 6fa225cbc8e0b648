"""Tour of the spectral function-space tower.

Builds the divergence-free Fourier basis on the 2D torus, shows how every
space in the tower H, V, V_s, U (and their duals) is a diagonal reweighting
of the same coefficients, and verifies the operator identities that make the
Stokes operator and the eigenbasis projections exactly testable.
"""

import numpy as np

from sgns.spectral import (
    Basis, SpaceScale, TorusDomain, apply_operator, inner, norm,
    project_Pn, random_field,
)

basis = Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))
print(f"domain: 2D torus, |k_j| <= {basis.domain.K}")
print(f"real eigenmodes: {basis.n_modes} (stored as {basis.n_slots} complex amplitudes)")
print(f"smoothness indices: s = {basis.scale.s}, s_U = {basis.scale.s_U}")

print("\nfirst six modes (wavevector, polarization, eigenvalue of L):")
for i, (k, role, lam) in enumerate(zip(basis.mode_k[:6].tolist(), basis.mode_role, basis.mode_lambda)):
    print(f"  mode {i}: k = {tuple(k)}, role = {'cos' if role == 0 else 'sin'}, lambda = {lam:.4f}")

rng = np.random.default_rng(1)
u = random_field(basis, rng)
v = random_field(basis, rng)

print("\nnorm tower of one random field (nested with constants 1):")
for sp in ("Udual", "H", "V", "Vs", "U"):
    print(f"  |u|_{sp:6s} = {norm(u, sp):12.4f}")

print("\noperator identities (should vanish to roundoff):")
print(f"  <Au, v>_H - <u, v>_V              = {inner(apply_operator(u, 'A'), v, 'H') - inner(u, v, 'V'):+.2e}")
print(f"  <Lu, v>_H - <u, v>_U              = {inner(apply_operator(u, 'L'), v, 'H') - inner(u, v, 'U'):+.2e}")
gap = apply_operator(u, "A") - u - apply_operator(u, "Acal")
print(f"  |(A - I)u - (Stokes)u|_H          = {norm(gap, 'H'):+.2e}")
print(f"  |u|_V^2 - |u|_H^2 - ||u||^2       = {norm(u, 'V')**2 - norm(u, 'H')**2 - norm(u, 'D')**2:+.2e}")

n = 40
print(f"\nprojection onto the first {n} modes:")
print(f"  (P_n u | v)_H - <u, P_n v>        = {inner(project_Pn(u, n), v, 'H') - inner(u, project_Pn(v, n), 'H'):+.2e}")
smooth = random_field(basis, rng, decay=2.0)
errs = [norm(project_Pn(smooth, m) - smooth, "U") for m in (32, 64, 128, basis.n_modes)]
print(f"  U-norm projection error vs n      = {[f'{e:.4f}' for e in errs]} (monotone to 0)")
