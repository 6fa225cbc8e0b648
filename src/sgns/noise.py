"""Transport-type multiplicative noise G(u)h = sum_i h_i [(b_i . grad)u + c_i u]
and numerical certification of its coercivity, growth and Lipschitz constants.

Coefficient fields are finite real Fourier series, so all products are exact
convolutions and every sup-norm is a trigonometric-polynomial maximum that a
refinement-doubling grid search pins down (exactly, for constant
coefficients).  The certified constants feed the admissible moment exponents
and the 2D uniqueness gate downstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import Basis, SpectralField, grid_points, norm, row_blocks


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
    def is_constant(self) -> bool:
        return len(self.harmonics) == 0

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
            phase = np.tensordot(pts, domain.kappa(np.array(k)), axes=([-1], [0]))
            out += np.cos(phase)[..., None] * np.asarray(ca)
            out += np.sin(phase)[..., None] * np.asarray(sa)
        return out

    def sample(self, domain, N: int) -> np.ndarray:
        """Values on the uniform N^d grid, shape (N, ..., N, ncomp)."""
        return self.values(domain, grid_points(domain, N))

    def divergence(self, domain) -> "HarmonicField":
        """div of a vector field, as a scalar HarmonicField (constants drop out)."""
        if self.ncomp != domain.d:
            raise ValueError("divergence needs a vector field")
        terms = []
        for k, ca, sa in self.harmonics:
            kap = domain.kappa(np.array(k))
            terms.append((k, [float(np.dot(kap, sa))], [-float(np.dot(kap, ca))]))
        return HarmonicField.build(domain.d, 1, const=[0.0], harmonics=terms)


def _polished_max(scalar_at, domain, max_k: int) -> float:
    """Global max of a smooth scalar on the torus: grid sweep, one doubling
    check, then a simplex polish from the best grid point."""
    from scipy.optimize import minimize

    N = max(64, 16 * max_k + 2) if domain.d == 2 else max(24, 8 * max_k + 2)
    pts = grid_points(domain, N).reshape(-1, domain.d)
    vals = scalar_at(pts)
    best = float(np.max(vals))
    pts2 = grid_points(domain, 2 * N).reshape(-1, domain.d)
    vals2 = scalar_at(pts2)
    if np.max(vals2) > best:
        best, pts, vals = float(np.max(vals2)), pts2, vals2
    x0 = pts[int(np.argmax(vals))]
    res = minimize(
        lambda x: -scalar_at(x[None, :])[0],
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 2000},
    )
    return max(best, float(-res.fun))


def sup_norm(field: HarmonicField, domain) -> float:
    """Sup of |f(x)|: exact for constants, polished grid maximum otherwise."""
    if field.is_constant:
        return float(np.linalg.norm(field.const))

    def scalar_at(pts):
        return np.linalg.norm(field.values(domain, pts), axis=-1)

    return _polished_max(scalar_at, domain, field.max_k)


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


# -- applying G ------------------------------------------------------------


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


def apply_G_direction(u: SpectralField, i: int, model: NoiseModel) -> SpectralField:
    """G(u)h^i for the i-th canonical direction: (b_i . grad)u + c_i u,
    computed by exact convolution, Leray-projected and lattice-truncated;
    for one field or a stack."""
    basis = u.basis
    ua = basis.to_exp_coeffs(u)
    out = np.zeros_like(ua)
    for rows, scal in _tables(model, basis)[i]:
        ok = rows >= 0
        # one shift sends distinct rows to distinct rows
        out[..., rows[ok], :] += scal[ok, None] * ua[..., ok, :]
    return basis.from_exp_coeffs(out)


def apply_G(u: SpectralField, h, model: NoiseModel) -> SpectralField:
    """Noise operator G(u)h = sum_i h_i [(b_i . grad)u + c_i u]."""
    h = np.asarray(h, dtype=float)
    if h.shape != (model.M,):
        raise ValueError(f"h must have length M = {model.M}")
    out = u.basis.zero_field()
    for i in range(model.M):
        if h[i] != 0.0:
            out = out + h[i] * apply_G_direction(u, i, model)
    return out


def noise_matrices(model: NoiseModel, basis: Basis, n: int | None = None) -> list:
    """Real matrices of u -> P_n G(u)h^i against the first n real eigenfields,
    whose columns are the images of the basis fields, taken as stacks."""
    n = basis.n_modes if n is None else n
    mats = [np.empty((n, n)) for _ in range(model.M)]
    # an image holds about four complex (lattice rows, d) arrays, 2 d reals per row each
    for cols in row_blocks(n, 8 * basis.domain.d * len(basis.lattice_k)):
        fields = basis.field_from_real_coords((np.arange(n)[cols, None] == np.arange(n)).astype(float))
        for i, mat in enumerate(mats):
            mat[:, cols] = basis.real_coords(apply_G_direction(fields, i, model), n).T
    return mats


def hs_norm_G(u: SpectralField, model: NoiseModel, target: str = "H") -> float:
    """Hilbert-Schmidt norm of G(u) into H or V' over the M canonical directions."""
    if target not in ("H", "Vdual"):
        raise ValueError(f"target must be 'H' or 'Vdual', got {target!r}")
    return math.sqrt(sum(norm(apply_G_direction(u, i, model), target) ** 2 for i in range(model.M)))


# -- certified constants ----------------------------------------------------


def direction_sups(model: NoiseModel, domain) -> list:
    """(sup|b_i|, sup|div b_i|, sup|c_i|) per direction, 0.0 for an absent
    coefficient; the one sweep behind both C1 and the growth bound."""
    return [
        (
            sup_norm(b, domain) if b is not None else 0.0,
            sup_norm(b.divergence(domain), domain) if b is not None else 0.0,
            sup_norm(c, domain) if c is not None else 0.0,
        )
        for b, c in model.directions
    ]


def c1_constant(sups) -> float:
    """Sum over directions of sup|b|^2 + sup|div b|^2 + sup|c|^2, from the
    per-direction sups of `direction_sups`."""
    total = 0.0
    for sb, sdb, sc in sups:
        total += sb**2
        total += sdb**2
        total += sc**2
    return total


def _lambda_max(mats: np.ndarray, d: int) -> np.ndarray:
    if d == 2:
        a, b, c = mats[..., 0, 0], mats[..., 0, 1], mats[..., 1, 1]
        m = 0.5 * (a + c)
        return m + np.sqrt(np.maximum(m * m - (a * c - b * b), 0.0))
    return np.linalg.eigvalsh(mats)[..., -1]


def coercivity_constant(model: NoiseModel, domain) -> float:
    """a = min over x of (2 - lambda_max(sum_i b_i(x) b_i(x)^T)).

    Positive a certifies that viscous dissipation dominates the gradient part
    of the noise; a <= 0 flags the model as inadmissible.  Exact for constant
    coefficients, polished grid minimum otherwise.
    """
    bs = [b for b, _ in model.directions if b is not None]
    if not bs:
        return 2.0
    if all(b.is_constant for b in bs):
        mat = sum(np.outer(b.const, b.const) for b in bs)
        return float(2.0 - np.linalg.eigvalsh(mat)[-1])

    def scalar_at(pts):
        mats = np.zeros(pts.shape[:-1] + (domain.d, domain.d))
        for b in bs:
            vals = b.values(domain, pts)
            mats += vals[..., :, None] * vals[..., None, :]
        return _lambda_max(mats, domain.d)

    max_k = max(b.max_k for b in bs)
    return 2.0 - _polished_max(scalar_at, domain, max_k)


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


@dataclass
class NoiseConditionReport:
    C1: float
    a: float
    eps: float | None
    eta: float | None
    lam0: float | None
    rho: float
    gstar_constant: float
    gstar_analytic: float
    gstar_violations: int
    lipschitz_L: float
    empirical_violations: int
    samples: int
    rejected: bool


def certify_conditions(
    model: NoiseModel,
    basis: Basis,
    eps: float | None = None,
    samples: int = 1000,
    seed: int = 0,
) -> NoiseConditionReport:
    """Certify the coercivity/growth conditions on `samples` random fields.

    Computes C1, the coercivity margin a, the derived pair (eta, lam0) =
    (a - eps, C1^2/(4 eps) + C1), and counts empirical violations of

        2 ((u,u)) - |G(u)|_{HS(Y,H)}^2 >= eta ||u||^2 - lam0 |u|_H^2

    together with the growth ratio |G(u)|_{HS(Y,V')}^2 / (1 + |u|_H^2) and
    the Lipschitz quotient |G(u)-G(v)|_{HS(Y,H)} / ||u-v||.
    """
    domain = basis.domain
    sups = direction_sups(model, domain)
    C1 = c1_constant(sups)
    a = coercivity_constant(model, domain)
    if a <= 0.0:
        return NoiseConditionReport(
            C1=C1, a=a, eps=None, eta=None, lam0=None, rho=0.0,
            gstar_constant=float("nan"), gstar_analytic=gstar_analytic_bound(sups),
            gstar_violations=0, lipschitz_L=float("nan"),
            empirical_violations=0, samples=0, rejected=True,
        )
    if C1 == 0.0:
        # noise absent: dissipation inequality holds with full margin
        eta, lam0 = 2.0, 0.0
    else:
        if eps is None:
            eps = a / 2.0
        if not 0.0 < eps < a:
            raise ValueError(f"eps must lie in (0, a) = (0, {a}), got {eps}")
        eta = a - eps
        lam0 = C1**2 / (4.0 * eps) + C1

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
    gan = gstar_analytic_bound(sups)
    gstar_violations = int(np.sum(gstar_ratio > gan * (1.0 + 1e-9) + 1e-12))

    # linear G: the Lipschitz quotient is the operator norm from the Dirichlet
    # seminorm into HS(Y,H); measure it on the sampled pair differences
    lip = 0.0
    dH = np.zeros(half)
    for mat in mats:
        Y = D @ mat.T
        Y *= Y
        dH += np.sum(Y, axis=1)
    D *= D
    D *= wD
    dD = np.sum(D, axis=1)
    ok = dD > 0
    if np.any(ok):
        lip = float(np.max(np.sqrt(dH[ok] / dD[ok])))

    return NoiseConditionReport(
        C1=C1, a=a, eps=eps if C1 else None, eta=eta, lam0=lam0, rho=0.0,
        gstar_constant=gstar_constant, gstar_analytic=gan,
        gstar_violations=gstar_violations, lipschitz_L=lip,
        empirical_violations=violations, samples=samples, rejected=False,
    )


def continuity_constant_Gstarstar(model: NoiseModel, psi: SpectralField) -> float:
    """The least C of the weak-continuity condition on the basis of psi,

        |<G(u) - G(v) | psi>|_Y  <=  C |u - v|_H ||psi||_V   for all u, v.

    G is linear, so the pairing is A (u - v) in real coordinates, with
    A[i, j] = <G_i e_j, psi>_H read from `noise_matrices`, and C is
    sigma_max(A) / ||psi||_V; 0 when psi = 0 or the model has no direction."""
    psiV = norm(psi, "V")
    if model.M == 0 or psiV == 0.0:
        return 0.0
    x = psi.basis.real_coords(psi)
    A = np.stack([x @ mat for mat in noise_matrices(model, psi.basis)])
    return float(np.linalg.norm(A, 2)) / psiV
