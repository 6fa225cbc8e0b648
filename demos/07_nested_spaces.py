"""The nested-space construction behind the compact embedding.

Given any separable normed space Phi sitting continuously inside a Hilbert
space, a weighted sequence space embeds compactly into Phi: the recursion
eta_n = (eta_{n-1} + 1)/2 climbs to 1 and hands each basis direction a
shrinking radius r_n = (1 - eta_n)/(2 |h_n|_Phi).  The certificate takes
the exact sup of the embedding norm over the unit sphere of the weighted
space, |(r_n |h_n|_Phi)_n|_2 by Cauchy-Schwarz, and of every tail, and
checks them against the bound 1 - eta_0 and the tail estimates
|s_N - s_m|_Phi <= eta_N - eta_m.
"""

import numpy as np

from sgns.tightness import build_nested_space

print("uniform Phi-norms, eta_0 = 1/2 (so eta_n = 1 - 2^-(n+1), r_1 = 1/8):")
spec, cert = build_nested_space(np.ones(12), eta0=0.5)
print(f"  {'n':>3s} {'eta_n':>12s} {'r_n':>12s}")
for i in range(len(spec.radii)):
    print(f"  {i + 1:3d} {spec.etas[i + 1]:12.8f} {spec.radii[i]:12.3e}")
print(f"  embedding norm bound 1 - eta_0 = {cert.embedding_norm_bound}")
print(f"  exact sup of the embedding norm = {cert.max_embedding_norm:.6f}")
print(f"  margins (embedding / least tail) = {cert.embedding_margin:.6f} / {cert.tail_margin:.3e}")
print(f"  certified: {cert.passed}")

print("\nrandom Phi-norms, eta_0 = 0.3:")
rng = np.random.default_rng(1)
spec, cert = build_nested_space(rng.uniform(0.5, 3.0, size=25), eta0=0.3)
print(f"  radii shrink from {spec.radii[0]:.3e} to {spec.radii[-1]:.3e}")
print(f"  exact sup of the embedding norm = {cert.max_embedding_norm:.6f} <= {cert.embedding_norm_bound}")
print(f"  margins (embedding / least tail) = {cert.embedding_margin:.6f} / {cert.tail_margin:.3e}")
print(f"  certified: {cert.passed}")
