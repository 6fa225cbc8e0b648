"""Transport-type multiplicative noise G(u)h = sum_i h_i [(b_i . grad)u + c_i u]
and numerical certification of its coercivity, growth and Lipschitz constants.

Coefficient fields are finite real Fourier series, so all products are exact
convolutions.  Each coefficient sup is bracketed by one sweep over
equispaced nodes (`_certified_max`), and the upper end feeds C1, the
analytic growth bound and the coercivity margin a, which so err on the safe
side only.  These constants feed the admissible moment exponents and the 2D
uniqueness gate downstream.

`noise_conditions` forms the constants the coefficient sups fix, and
`exact_constants` the sups and margin on the Galerkin space as exact
eigenvalues.  The random-field samplers that check them, the per-field
application of G that checks `noise_matrices`, and the polished maximum
that checks each certified sup live with the tests (`tests/noise_oracle.py`);
the one sampler kept here, `sampled_lipschitz`, is the uniqueness verb's
witness of the exact L.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .spectral import ROLE_COS, ROLE_SIN, Basis


@dataclass(frozen=True)
class HarmonicField:
    """Real field on the torus: constant term plus a finite cos/sin series.

    `const` has shape (ncomp,); each harmonic is (k, cos_amp, sin_amp) with
    integer wavevector k and amplitude vectors of shape (ncomp,).  Scalar
    fields use ncomp = 1.
    """

    d: int
    ncomp: int
    const: tuple
    harmonics: tuple = ()

    @staticmethod
    def build(d: int, ncomp: int, const=None, harmonics=()) -> "HarmonicField":
        c = np.zeros(ncomp) if const is None else np.asarray(const, dtype=float)
        if c.shape != (ncomp,):
            raise ValueError(f"constant term must have {ncomp} components")
        terms = []
        for k, ca, sa in harmonics:
            k = tuple(int(v) for v in k)
            if len(k) != d or all(v == 0 for v in k):
                raise ValueError(f"harmonic wavevector {k} must be nonzero of length {d}")
            ca = np.zeros(ncomp) if ca is None else np.asarray(ca, dtype=float)
            sa = np.zeros(ncomp) if sa is None else np.asarray(sa, dtype=float)
            if ca.shape != (ncomp,) or sa.shape != (ncomp,):
                raise ValueError("harmonic amplitudes must match the component count")
            terms.append((k, tuple(ca), tuple(sa)))
        return HarmonicField(d=d, ncomp=ncomp, const=tuple(c), harmonics=tuple(terms))

    @property
    def max_k(self) -> int:
        return max((max(abs(v) for v in k) for k, _, _ in self.harmonics), default=0)

    def exp_terms(self, domain) -> list:
        """Frequency/amplitude pairs with f(x) = sum_t amp_t exp(i kappa(k_t).x)."""
        terms = []
        c = np.asarray(self.const)
        if np.any(c != 0.0):
            terms.append(((0,) * domain.d, c.astype(complex)))
        for k, ca, sa in self.harmonics:
            amp = (np.asarray(ca) - 1j * np.asarray(sa)) / 2.0
            terms.append((k, amp))
            terms.append((tuple(-v for v in k), amp.conj()))
        return terms

    def values(self, domain, pts: np.ndarray) -> np.ndarray:
        """Values at arbitrary points, shape pts.shape[:-1] + (ncomp,)."""
        out = np.broadcast_to(np.asarray(self.const), pts.shape[:-1] + (self.ncomp,)).copy()
        for k, ca, sa in self.harmonics:
            phase = pts @ domain.kappa(np.array(k))
            out += np.cos(phase)[..., None] * np.asarray(ca)
            out += np.sin(phase)[..., None] * np.asarray(sa)
        return out

    def divergence(self, domain) -> "HarmonicField":
        """div of a vector field, as a scalar HarmonicField (constants drop out)."""
        if self.ncomp != domain.d:
            raise ValueError("divergence needs a vector field")
        terms = []
        for k, ca, sa in self.harmonics:
            kap = domain.kappa(np.array(k))
            terms.append((k, [float(np.dot(kap, sa))], [-float(np.dot(kap, ca))]))
        return HarmonicField.build(domain.d, 1, const=[0.0], harmonics=terms)


# largest relative width hi / lo - 1 of a certified sup bracket
SUP_REL_WIDTH = 0.01


def _node_slabs(domain, N: int):
    """The N^d equispaced nodes of the torus as (N^2, d) slabs, one per node
    of the first d - 2 axes, in the order of `spectral.grid_points(domain,
    N)`, with its coordinates; each slab is built from the per-axis
    coordinates, so the sweep holds one slab, not the N^d x d grid."""
    axes = [np.arange(N) * (L / N) for L in domain.period]
    last = np.stack(np.meshgrid(*axes[-2:], indexing="ij"), axis=-1).reshape(N * N, 2)
    for lead in itertools.product(*axes[:-2]):
        yield np.concatenate([np.broadcast_to(np.array(lead), (N * N, len(lead))), last], axis=1)


def _certified_max(scalar_at, domain, degree: int) -> tuple:
    """(lo, hi) around the max over the torus of a scalar that is, at each
    x, the largest |T(x)| of real trigonometric polynomials T of `degree`
    per axis, from one sweep over N^d equispaced nodes, N^2 at a time
    (`_node_slabs`): lo is the largest node value.  Near its max M, T stays
    above M cos(degree t) (Van der Corput and Schaake 1935), and a node lies
    within pi / N of it in each axis' phase, so M <= lo sec(pi degree / N)^d
    = hi.  N is the fewest nodes with hi / lo - 1 <= SUP_REL_WIDTH; one if
    constant."""
    d = domain.d
    N = max(1, math.ceil(math.pi * degree / math.acos((1.0 + SUP_REL_WIDTH) ** (-1.0 / d))))
    lo = max(float(np.max(scalar_at(slab))) for slab in _node_slabs(domain, N))
    return lo, lo / math.cos(math.pi * degree / N) ** d


def sup_norm(field: HarmonicField, domain) -> float:
    """Certified upper bound on the sup of |f(x)| = max over unit e of
    e . f(x), within SUP_REL_WIDTH of it (`_certified_max`)."""
    return _certified_max(lambda pts: np.linalg.norm(field.values(domain, pts), axis=-1),
                          domain, field.max_k)[1]


@dataclass(frozen=True)
class NoiseModel:
    """Coefficient families {b_i}, {c_i} of the transport noise, one pair per
    canonical direction of the (truncated) Wiener space Y = R^M."""

    d: int
    directions: tuple  # tuple of (b: HarmonicField | None, c: HarmonicField | None)

    def __post_init__(self):
        for b, c in self.directions:
            if b is not None and (b.ncomp != self.d):
                raise ValueError("b coefficients must be vector fields")
            if c is not None and c.ncomp != 1:
                raise ValueError("c coefficients must be scalar fields")

    @property
    def M(self) -> int:
        return len(self.directions)


def constant_transport_model(b_vectors, c_values=None, d: int | None = None) -> NoiseModel:
    """Model with constant coefficients; b_vectors is a list of d-vectors."""
    b_vectors = [np.asarray(v, dtype=float) for v in b_vectors]
    if d is None:
        d = len(b_vectors[0])
    if c_values is None:
        c_values = [0.0] * len(b_vectors)
    dirs = []
    for bv, cv in zip(b_vectors, c_values):
        b = HarmonicField.build(d, d, const=bv) if np.any(bv != 0) else None
        c = HarmonicField.build(d, 1, const=[cv]) if cv != 0 else None
        dirs.append((b, c))
    return NoiseModel(d=d, directions=tuple(dirs))


def default_noise_model(d: int = 2) -> NoiseModel:
    """Reference model: single direction, b = (1, 0, ...), c = 0."""
    b = np.zeros(d)
    b[0] = 1.0
    return constant_transport_model([b], d=d)


# -- the noise matrices ----------------------------------------------------


# convolution tables, keyed by value: they depend only on the noise model
# (frozen, hashable) and the lattice of the domain
_TABLES: dict = {}


def _tables(model: NoiseModel, basis: Basis) -> list:
    """Per direction, one (rows, scal) per exponential term of b and of c:
    (b.grad)u at l+k picks i (amp . kappa_l) u(l), and c u picks amp u(l)."""
    key = (model, basis.domain)
    terms = _TABLES.get(key)
    if terms is None:
        kap = basis.domain.kappa(basis.lattice_k)
        terms = _TABLES[key] = [
            [(basis.lattice_rows(basis.lattice_k + k), 1j * (kap @ np.asarray(amp)))
             for k, amp in (b.exp_terms(basis.domain) if b is not None else ())]
            + [(basis.lattice_rows(basis.lattice_k + k), np.full(len(kap), complex(amp[0])))
               for k, amp in (c.exp_terms(basis.domain) if c is not None else ())]
            for b, c in model.directions
        ]
    return terms


def noise_matrices(model: NoiseModel, basis: Basis, n: int | None = None) -> list:
    """Real matrices of u -> P_n G(u)h^i against the first n real eigenfields,
    read off the convolution tables: basis field e_j sits on the rows of its
    slot's k and -k, and each term of `_tables` moves a row to one row, so
    column j needs only the conjugate pairs that its terms reach.  Each step
    is the arithmetic of `to_exp_coeffs`, a pass over the tables and
    `from_exp_coeffs`, in their order, so column j is bitwise the image of
    e_j under the per-field oracle `apply_G_direction` of
    `tests/noise_oracle.py`; an entry that no term reaches keeps its zero."""
    n = basis.n_modes if n is None else n
    mats = [np.zeros((n, n)) for _ in range(model.M)]
    npol, d, alpha = basis.npol, basis.domain.d, basis._exp_alpha
    slots = basis.mode_slot[:n]
    # e_j's amplitudes on the row of k (side 0) and of -k (side 1)
    amp = (alpha * np.where(basis.mode_role[:n] == ROLE_COS, 1.0 + 0j, 1j))[:, None] * basis.slot_eps[slots]
    amp = np.stack([amp, amp.conj()])
    src = np.stack([basis._slot_row[slots], basis._slot_row_neg[slots]])
    col = np.broadcast_to(np.arange(n), src.shape)
    # every lattice row is one side of one conjugate pair; a slot's cosine
    # mode reads side 0 and its sine mode side 1
    n_pairs = basis.n_slots // npol
    pair, side = np.empty((2, len(basis.lattice_k)), dtype=int)
    for s, rows in enumerate((basis._slot_row[::npol], basis._slot_row_neg[::npol])):
        pair[rows], side[rows] = np.arange(n_pairs), s
    mode = np.full((2, basis.n_slots), -1)
    mode[basis.mode_role[:n], slots] = np.arange(n)
    for mat, terms in zip(mats, _tables(model, basis)):
        if not terms:
            continue
        hits = []
        for rows, scal in terms:
            dest = rows[src]
            ok = dest >= 0
            hits.append((col[ok] * n_pairs + pair[dest[ok]], side[dest[ok]], (scal[src][..., None] * amp)[ok]))
        # the (column, pair) entries reached, each summed from zero in term
        # order; np.unique with return_inverse does not import numpy.ma
        keys, inv = np.unique(np.concatenate([key for key, _, _ in hits]), return_inverse=True)
        acc = np.zeros((len(keys), 2, d), dtype=complex)
        for (key, sides, prod), stop in zip(hits, np.cumsum([len(key) for key, _, _ in hits])):
            acc[inv[stop - len(key) : stop], sides] += prod
        j, q = np.divmod(keys, n_pairs)
        for p in range(npol):
            s = q * npol + p
            eps = basis.slot_eps[s]
            c = np.einsum("sd,sd->s", acc[:, 0], eps) / alpha / 2.0
            c += np.einsum("sd,sd->s", acc[:, 1].conj(), eps) / alpha / 2.0
            for role, part in ((ROLE_COS, c.real), (ROLE_SIN, c.imag)):
                i = mode[role, s]
                ok = i >= 0
                mat[i[ok], j[ok]] = part[ok]
    return mats


# -- certified constants ----------------------------------------------------


def direction_sups(model: NoiseModel, domain) -> list:
    """(sup|b_i|, sup|div b_i|, sup|c_i|) per direction, 0.0 for an absent
    coefficient; the one sweep behind both C1 and the growth bound."""
    return [tuple(0.0 if f is None else sup_norm(f, domain) for f in (b, b and b.divergence(domain), c))
            for b, c in model.directions]


def c1_constant(sups) -> float:
    """Sum over directions of sup|b|^2 + sup|div b|^2 + sup|c|^2, from the
    per-direction sups of `direction_sups`."""
    total = 0.0
    for sb, sdb, sc in sups:
        total += sb**2
        total += sdb**2
        total += sc**2
    return total


def _lambda_max(mats: np.ndarray) -> np.ndarray:
    """Largest eigenvalue of each symmetric matrix of a stack, in closed
    form for 2 x 2."""
    if mats.shape[-1] == 2:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        m = 0.5 * (a + c)
        return m + np.sqrt(np.maximum(m * m - (a * c - b * b), 0.0))
    return np.linalg.eigvalsh(mats)[..., -1]


def coercivity_constant(model: NoiseModel, domain) -> float:
    """a = min over x of (2 - lambda_max(sum_i b_i(x) b_i(x)^T)).

    Positive a says that viscous dissipation dominates the gradient part of
    the noise; a <= 0 flags the model as inadmissible.  lambda_max is the
    max over unit e of sum_i (e . b_i)^2, of degree 2 max_k: 2 less its
    certified upper bound (`_certified_max`) is a lower bound on a.  It is
    taken from the Gram matrix (b_i . b_j), smaller than 3 x 3 for M <= 2.
    """
    bs = [b for b, _ in model.directions if b is not None]
    if not bs:
        return 2.0

    def scalar_at(pts):
        rows = np.stack([b.values(domain, pts) for b in bs], axis=-2)
        return _lambda_max(rows @ rows.swapaxes(-1, -2))

    return 2.0 - _certified_max(scalar_at, domain, 2 * max(b.max_k for b in bs))[1]


def gstar_analytic_bound(sups) -> float:
    """2 sum_i (2 sup|b_i|^2 + 2 sup|div b_i|^2 + sup|c_i|^2), the growth
    constant of the Hilbert-Schmidt bound into V', from the per-direction
    sups of `direction_sups`."""
    total = 0.0
    for sb, sdb, sc in sups:
        total += 2.0 * sb**2
        total += 2.0 * sdb**2
        total += sc**2
    return 2.0 * total


@dataclass(frozen=True)
class ExactConstants:
    """The noise conditions' constants on the Galerkin space; None where
    not formed."""

    lipschitz_L: float
    gstar_constant: float | None = None
    coercivity_margin: float | None = None


def exact_constants(model: NoiseModel, basis: Basis, eta: float | None = None,
                    lam0: float | None = None) -> ExactConstants:
    """G is linear, so on the Galerkin space each noise condition is the
    extreme of a ratio of quadratic forms in real coordinates: one symmetric
    eigenvalue.  With G_i from `noise_matrices` on the full basis,
    S = sum_i G_i^T G_i and the diagonal weights W_D and W_V':

      L = sqrt(lambda_max(W_D^-1/2 S W_D^-1/2)), the sup of
          |G(u) - G(v)|_HS(Y,H) / ||u - v||;
      gstar_constant = lambda_max(sum_i G_i^T W_V' G_i), the sup of
          |G(u)|_HS(Y,V')^2 / (1 + |u|_H^2), approached as |u|_H grows;
      coercivity_margin = lambda_min((2 - eta) W_D - S + lam0 I), >= 0 iff
          2 ||u||^2 - |G(u)|_HS(Y,H)^2 >= eta ||u||^2 - lam0 |u|_H^2 for all u.

    Only L is formed unless the coercivity pair (eta, lam0) is given.  P_n G
    drops the part of G(u) outside the box, so each is a lower bound of its
    infinite-dimensional constant, which the analytic constants formed
    from the certified `direction_sups` bound above."""
    mats = noise_matrices(model, basis)
    wD = basis.mode_weights("D")
    S = np.zeros((basis.n_modes,) * 2)
    for mat in mats:
        S += mat.T @ mat
    r = wD**-0.5
    L = math.sqrt(max(float(np.linalg.eigvalsh(r[:, None] * S * r)[-1]), 0.0))
    if eta is None:
        return ExactConstants(L)
    wVdual = basis.mode_weights("Vdual")
    gstar = float(np.linalg.eigvalsh(sum(mat.T @ (wVdual[:, None] * mat) for mat in mats))[-1]) if mats else 0.0
    S *= -1.0
    S[np.diag_indices_from(S)] += (2.0 - eta) * wD + lam0
    return ExactConstants(L, gstar, float(np.linalg.eigvalsh(S)[0]))


def _max_lipschitz_quotient(D: np.ndarray, mats, wD: np.ndarray) -> float:
    """Largest |G(d)|_HS(Y,H) / ||d|| over the rows d of D with ||d|| > 0
    (0 if there is none), G given by `mats` in D's coordinates and ||.||
    by the Dirichlet weights wD; D is overwritten."""
    dH = np.zeros(len(D))
    for mat in mats:
        Y = D @ mat.T
        Y *= Y
        dH += np.sum(Y, axis=1)
    D *= D
    D *= wD
    dD = np.sum(D, axis=1)
    ok = dD > 0
    return float(np.max(np.sqrt(dH[ok] / dD[ok]))) if np.any(ok) else 0.0


def sampled_lipschitz(mats, wD: np.ndarray, samples: int, seed: int) -> float:
    """The Lipschitz quotient's largest value over `samples` random pairs
    (u, v) in the coordinates of `mats`, with Dirichlet weights wD: G is
    linear, so a pair is drawn as its difference u - v, one (samples, n)
    array.  A witness that never exceeds the exact L of those matrices."""
    rng = np.random.default_rng(seed)
    D = rng.standard_normal((samples, len(wD)))
    D *= (1.0 + wD) ** (-rng.uniform(0.0, 1.0, size=(samples, 1)))
    return _max_lipschitz_quotient(D, mats, wD)


@dataclass
class NoiseConditionReport:
    C1: float
    a: float
    eps: float | None
    eta: float | None
    lam0: float | None
    gstar_analytic: float
    rejected: bool


def noise_conditions(model: NoiseModel, domain, eps: float | None = None) -> NoiseConditionReport:
    """The constants of the coercivity and growth conditions that the
    coefficient sups fix: C1, the coercivity margin a, the derived pair
    (eta, lam0) = (a - eps, C1^2/(4 eps) + C1) of

        2 ((u,u)) - |G(u)|_{HS(Y,H)}^2 >= eta ||u||^2 - lam0 |u|_H^2,

    and the analytic bound on the growth ratio |G(u)|_{HS(Y,V')}^2 /
    (1 + |u|_H^2).  Rejected, with no pair, when a <= 0; with no noise
    (C1 = 0) the pair is (2, 0).  `exact_constants` gives the sups and the
    margin on the Galerkin space."""
    sups = direction_sups(model, domain)
    C1 = c1_constant(sups)
    a = coercivity_constant(model, domain)
    gan = gstar_analytic_bound(sups)
    if a <= 0.0:
        return NoiseConditionReport(C1=C1, a=a, eps=None, eta=None, lam0=None,
                                    gstar_analytic=gan, rejected=True)
    if C1 == 0.0:
        # noise absent: dissipation inequality holds with full margin
        return NoiseConditionReport(C1=C1, a=a, eps=None, eta=2.0, lam0=0.0,
                                    gstar_analytic=gan, rejected=False)
    if eps is None:
        eps = a / 2.0
    if not 0.0 < eps < a:
        raise ValueError(f"eps must lie in (0, a) = (0, {a}), got {eps}")
    return NoiseConditionReport(C1=C1, a=a, eps=eps, eta=a - eps, lam0=C1**2 / (4.0 * eps) + C1,
                                gstar_analytic=gan, rejected=False)

