"""The convection triplets built on the whole lattice at once: the
independent reference for `galerkin.build_convection_tensor`, which walks
the exponentials in blocks of whole modes and must give these bits.

Every pair of exponentials is formed in one (2n, 2n) table and every term
of the form in one array, and coinciding (i, j, k) are summed by
`np.bincount` in term order, from 0.0."""

import numpy as np

from sgns.spectral import ROLE_COS


def whole_lattice_tensor(basis, n: int) -> tuple:
    """Nonzero triplets (I, J, K, V) of T[i, j, k] = b(e_j, e_k, e_i) on the
    first n real eigenfields, sorted by (i, j, k)."""
    dom = basis.domain
    slot = basis.mode_slot[:n]
    phase = np.where(basis.mode_role[:n] == ROLE_COS, 1.0, 1.0j)
    amp = basis._exp_alpha * phase[:, None] * basis.slot_eps[slot]
    mode = np.concatenate([np.arange(n), np.arange(n)])
    row = np.concatenate([basis._slot_row[slot], basis._slot_row_neg[slot]])
    amp = np.concatenate([amp, amp.conj()])
    kap = dom.kappa(basis.lattice_k[row])

    # lattice row of every wavevector sum, from the affine index of the box
    flat = basis.lattice_k[row] @ basis.box_stride
    out = basis.box_rows[flat[:, None] + flat[None, :] + basis.box_origin]
    p, q = np.nonzero(out >= 0)
    o = out[p, q]

    # exponentials of the first n modes at each lattice row, grouped by row
    by_row = np.argsort(row, kind="stable")
    count = np.bincount(row, minlength=len(basis.lattice_k))
    first = np.cumsum(count) - count
    c = count[o]
    p, q = np.repeat(p, c), np.repeat(q, c)
    pos = np.arange(len(p)) - np.repeat(np.cumsum(c) - c, c)
    r = by_row[np.repeat(first[o], c) + pos]

    s = 1j * np.einsum("pd,pd->p", amp[p], kap[q])
    val = dom.volume * (s * np.einsum("pd,pd->p", amp[q], amp[r].conj())).real
    key = (mode[r] * n + mode[p]) * n + mode[q]
    uniq, inv = np.unique(key, return_inverse=True)
    V = np.bincount(inv, weights=val, minlength=len(uniq))
    keep = V != 0.0
    uniq, V = uniq[keep], V[keep]
    return uniq // (n * n), uniq // n % n, uniq % n, V
