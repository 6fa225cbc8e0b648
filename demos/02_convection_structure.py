"""Structure of the convection term.

Evaluates the trilinear form two independent ways (the sparse triplet
kernel the stepper uses and the dealiased-grid oracle), demonstrates the
antisymmetry and energy-cancellation identities, the dual-norm bounds of the
bilinear operator, and the taming cutoff used by the Galerkin scheme.
"""

import numpy as np

from sgns.galerkin import build_convection_tensor
from sgns.nonlinear import (
    CutoffSpec, TrilinearWorkspace, bilinear_B, local_lipschitz_B,
    trilinear_b, truncated_Bn,
)
from sgns.spectral import Basis, SpaceScale, TorusDomain, inner, norm, project_Pn, random_field

basis = Basis(TorusDomain(d=2, K=8), SpaceScale(d=2))
ws = TrilinearWorkspace(basis)
rng = np.random.default_rng(2)

u, w, v = (random_field(basis, rng, decay=0.5) for _ in range(3))
# triplets T[i, j, k] = b(e_j, e_k, e_i) on every mode of the basis
I, J, K, V = build_convection_tensor(basis, basis.n_modes)
x, y, z = (basis.real_coords(f) for f in (u, w, v))
print("two exact evaluations:")
print(f"  triplet kernel: b(u,w,v) = {np.sum(V * x[J] * y[K] * z[I]):+.10f}")
print(f"  dealiased grid: b(u,w,v) = {trilinear_b(u, w, v, ws):+.10f}")

print("\nstructural identities (roundoff-level):")
print(f"  b(u,w,v) + b(u,v,w) = {trilinear_b(u, w, v, ws) + trilinear_b(u, v, w, ws):+.2e}")
print(f"  b(u,v,v)            = {trilinear_b(u, v, v, ws):+.2e}")

B = bilinear_B(u, w, ws)
print("\nbilinear operator as a dual object:")
print(f"  <B(u,w), v>_H - b(u,w,v) = {inner(B, v, 'H') - trilinear_b(u, w, v, ws):+.2e}")
print(f"  |B(u,w)|_V' / (|u|_V |w|_V)   = {norm(B, 'Vdual') / (norm(u, 'V') * norm(w, 'V')):.4f}")
print(f"  |B(u,u)|_Vs' / |u|_H^2        = {norm(bilinear_B(u, u, ws), 'Vsdual') / norm(u, 'H')**2:.4f}")

print("\ntamed nonlinearity (quintic cutoff between level and level+1):")
n = 16
un = project_Pn(u, n)
r = norm(un, "Udual")
for level in (r + 0.5, r - 0.4, r - 2.0):
    cut = CutoffSpec(level=max(level, 1e-3))
    bn = truncated_Bn(un, n, cut, ws)
    print(f"  level = {cut.level:7.4f} (|u|_U' = {r:.4f}): theta = {cut.theta(r):.4f}, "
          f"|B_n(u)|_H = {norm(bn, 'H'):.6f}, <B_n(u), u>_H = {inner(bn, un, 'H'):+.2e}")

rep = local_lipschitz_B(ws, r=2.0, samples=40, seed=3)
print("\nlocal Lipschitz quotient of u -> B(u,u) on the V-ball of radius 2:")
print(f"  sampled max quotient = {rep.max_ratio:.4f}")
print(f"  certified bound 2r||B|| = {rep.certified_bound:.4f}  (violations: {rep.violations})")
