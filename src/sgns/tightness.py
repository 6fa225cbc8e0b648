"""Empirical compactness and tightness diagnostics for trajectory families.

A family of Galerkin paths is probed exactly the way the compactness
machinery consumes it: bounded energy (sup of the V-integral and of the
running H-sup), a uniform U'-modulus of continuity that decays as the window
shrinks, an Aldous-type exceedance table over stopped increments, and the
per-term scaling of the drift and noise pieces of the path decomposition
(initial state, Stokes integral, convection integral, forcing integral,
stochastic integral).  The path diagnostics read one `galerkin.Ensemble`
and weigh by the U' norm of the basis of the config it holds; no basis is
passed beside it.  The modulus table reads only the per-path lag maxima
the stepper recorded (`GalerkinConfig.modulus_lags`, sized by
`modulus_lags`); an ensemble that recorded fewer lags than a table needs
is a `ValueError`, not a recomputation.  The nested-space construction
that supplies the compact embedding U -> V_s is built and certified
separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import median
from .galerkin import INTEGRALS, Ensemble, _grid_positions, _increment_norms, integral_record, require_records


# -- windows -------------------------------------------------------------------


def _window_lag(delta: float, h: float, max_lag: int) -> int:
    """Whole snapshot spacings h inside a window of length delta, capped."""
    return min(int(math.floor(delta / h + 1e-12)), max_lag)


def modulus_lags(deltas, times) -> int:
    """Snapshot lags a modulus table over the windows `deltas` reads on the
    snapshot grid `times`: the whole spacings in the largest window, capped
    by the grid.  A `GalerkinConfig` given this many `modulus_lags` records
    every lag maxima the table needs."""
    return _window_lag(max(deltas), times[1] - times[0], len(times) - 1)


def window_violations(config, deltas, anchors, windows) -> list:
    """Every window of a tightness run on the grids of `config` that its
    diagnostics cannot read, as texts naming the experiment key: a modulus
    window shorter than one snapshot spacing (its modulus is 0, so the
    log-log fit fails), and a scaling anchor, or an anchor plus a scaling
    window, off the integral snapshot grid (increment_scaling raises)."""
    h = config.snap_times[1] - config.snap_times[0]
    short = ", ".join(str(d) for d in deltas if _window_lag(d, h, 1) < 1)
    out = [f"experiment.deltas: window(s) {short} shorter than one snapshot spacing {h}"] if short else []
    grid = config.integral_snap_idx * config.dt
    spacing = f"the integral snapshot grid (spacing {grid[1] - grid[0]}, up to T = {config.T})"

    def on_grid(t) -> bool:
        try:
            _grid_positions(grid, t, config.dt)
        except ValueError:
            return False
        return True

    bad = [a for a in anchors if not on_grid(a)]
    if bad:
        out.append(f"experiment.scaling_anchors: anchor {bad[0]} is not on {spacing}")
    else:
        ends = [(a, w) for a in anchors for w in windows if not on_grid(a + w)]
        if ends:
            a, w = ends[0]
            out.append(f"experiment.scaling_windows: anchor {a} + window {w} = {a + w} is not on {spacing}")
    return out


def _loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x; nan unless every y is positive."""
    if not np.all(y > 0):
        return math.nan
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


# -- trajectory families -----------------------------------------------------


def _live_rows(ens):
    """Index of the live rows of ens: all, as a slice that keeps arrays views, if none aborted."""
    if np.all(ens.aborted):
        raise ValueError("all trajectories aborted")
    return slice(None) if not np.any(ens.aborted) else ~ens.aborted


class FunctionFamily:
    """Snapshot trajectories of the live paths of one Ensemble in
    U'-coordinates of the basis of its `config` (the Ensemble's): coords
    (R, S, n), the per-step norms (R, steps + 1) and the lag maxima the
    stepper recorded (R, config.modulus_lags).  These are views of the
    ensemble's arrays, copied only to drop aborted rows."""

    def __init__(self, ens):
        rows = _live_rows(ens)
        self.config = ens.config
        self.coords = ens.snap_u[rows]  # (R, S, n)
        self.norm_H = ens.norm_H[rows]  # (R, steps + 1)
        self.norm_D = ens.norm_D[rows]
        self.stored_lag_maxima = ens.lag_maxima[rows]  # (R, modulus_lags)

    @property
    def size(self) -> int:
        return len(self.coords)

    def sup_V_integral(self) -> float:
        H, D = self.norm_H[:, :-1], self.norm_D[:, :-1]
        return float(np.max(np.sum(H**2 + D**2, axis=1))) * self.config.dt

    def sup_sup_H(self) -> float:
        return float(np.max(self.norm_H))

    def lag_maxima(self, max_lag: int) -> np.ndarray:
        """m[r, l-1] = max_j |u_r(t_{j+l}) - u_r(t_j)|_{U'} for lags 1..max_lag,
        as the stepper recorded them; ValueError when it recorded fewer."""
        recorded = self.config.modulus_lags
        if max_lag > recorded:
            raise ValueError(f"the modulus table needs lag maxima up to lag {max_lag}, but the ensemble "
                             f"recorded {recorded} (set GalerkinConfig.modulus_lags)")
        return self.stored_lag_maxima[:, :max_lag]


def _modulus_table(family: FunctionFamily, deltas: np.ndarray) -> np.ndarray:
    """omega_r(delta) = sup over |t - s| <= delta of |u_r(t) - u_r(s)|_{U'} on
    the snapshot grid, per path r and sorted window: (R, len(deltas))."""
    times = family.config.snap_times
    h = times[1] - times[0]
    max_lag = modulus_lags(deltas, times)
    running = np.maximum.accumulate(family.lag_maxima(max_lag), axis=1)
    # column 0 is the window without a whole spacing: modulus 0
    running = np.concatenate([np.zeros((family.size, 1)), running], axis=1)
    return running[:, [_window_lag(d, h, max_lag) for d in deltas]]


def median_modulus_curve(family: FunctionFamily, deltas) -> tuple:
    """Per-delta ensemble median of the per-trajectory moduli, with the fitted
    log-log slope (nan when the curve touches zero)."""
    deltas = np.sort(np.asarray(deltas, dtype=float))
    curve = median(_modulus_table(family, deltas), axis=0)
    return curve, _loglog_slope(deltas, curve)


# -- Dubinsky-type diagnostic -------------------------------------------------


@dataclass
class DubinskyReport:
    sup_V_integral: float
    sup_sup_H: float
    deltas: np.ndarray
    modulus_curve: np.ndarray  # sup over the family, per delta
    slope: float
    slope_threshold: float
    passed: bool


def dubinsky_diagnostic(
    family: FunctionFamily, deltas, slope_threshold: float = 0.4
) -> DubinskyReport:
    """Bounded energy plus a decaying uniform modulus: the two premises of the
    deterministic compactness criterion, checked on the finite family.

    The modulus curve is fitted in log-log coordinates; the family passes when
    the fitted slope reaches the threshold (a flat curve fails).  An exactly
    zero curve (constant family) passes trivially.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))
    curve = np.max(_modulus_table(family, deltas), axis=0)
    supV = family.sup_V_integral()
    supH = family.sup_sup_H()
    if np.max(curve) == 0.0:
        slope, passed = math.inf, True
    elif np.any(curve <= 0.0):
        slope, passed = 0.0, False
    else:
        slope = _loglog_slope(deltas, curve)
        passed = slope >= slope_threshold
    return DubinskyReport(supV, supH, deltas, curve, slope, slope_threshold, passed)


# -- Aldous condition ----------------------------------------------------------


@dataclass
class AldousReport:
    thetas: np.ndarray
    probabilities: np.ndarray  # max over stopping rules, per theta
    per_rule: dict  # rule label -> probabilities per theta
    eta: float
    monotone: bool
    decays: bool

    @property
    def passed(self) -> bool:
        return self.monotone and self.decays


def _hitting_positions(family: FunctionFamily, level: float) -> np.ndarray:
    """Snapshot position of the first time |u|_H >= level (end of path if never)."""
    cfg = family.config
    times = cfg.snap_times
    last = len(times) - 1
    stride = int(round((times[1] - times[0]) / cfg.dt))
    hit = family.norm_H >= level
    first = np.argmax(hit, axis=1)
    return np.where(hit.any(axis=1), np.minimum(-(-first // stride), last), last)


def aldous_check(family: FunctionFamily, thetas, eta: float) -> AldousReport:
    """Empirical exceedance probabilities of stopped increments.

    Stopping rules: three deterministic grid times plus first-hitting times of
    the ensemble's 50th/90th percentile running-sup levels; tau + theta is
    clipped to the horizon.  Probabilities are reported per theta, maximized
    over rules; the pass flag requires them nonincreasing in theta with an
    overall decay.
    """
    thetas = np.sort(np.asarray(thetas, dtype=float))[::-1]  # descending
    cfg = family.config
    times = cfg.snap_times
    w = cfg.basis.mode_weights("Udual", cfg.n)
    S = len(times)
    h = times[1] - times[0]
    rules = {}
    for frac in (0.2, 0.45, 0.7):
        pos = int(round(frac * (S - 1)))
        rules[f"grid_t={times[pos]:.4g}"] = np.full(family.size, pos, dtype=int)
    sups = np.max(family.norm_H, axis=1)
    for q in (50, 90):
        level = float(np.percentile(sups, q))
        rules[f"hit_p{q}"] = _hitting_positions(family, level)

    rows = np.arange(family.size)[:, None]
    per_rule = {label: np.zeros(len(thetas)) for label in rules}
    for i, theta in enumerate(thetas):
        lag = int(round(theta / h))
        for label, taus in rules.items():
            pair = np.stack([taus, np.minimum(taus + lag, S - 1)], axis=1)
            d = _increment_norms(family.coords[rows, pair], 1, w)[:, 0]
            per_rule[label][i] = float(np.mean(d >= eta))
    probs = np.max(np.stack(list(per_rule.values())), axis=0)
    # thetas descending: probabilities must not increase as theta shrinks
    monotone = bool(np.all(np.diff(probs) <= 1e-12))
    decays = bool(probs[-1] < probs[0] or probs[0] == 0.0)
    return AldousReport(
        thetas=thetas, probabilities=probs, per_rule=per_rule, eta=eta,
        monotone=monotone, decays=decays,
    )


def calibrate_aldous_eta(family: FunctionFamily, theta: float, quantile: float = 60.0) -> float:
    """Threshold for the exceedance table: a quantile of the pooled increments
    |u(t + theta) - u(t)|_{U'} over the family at the largest window, so the
    table starts mid-range and its decay toward 0 is informative."""
    cfg = family.config
    times = cfg.snap_times
    lag = max(1, int(round(theta / (times[1] - times[0]))))
    # only the sampled increments are formed: those starting at every
    # ((S - lag) // 64)-th snapshot
    count = len(times) - lag
    starts = np.arange(0, count, max(1, count // 64))
    pair = family.coords[:, np.stack([starts, starts + lag], axis=1)]  # (R, starts, 2, n)
    d = _increment_norms(pair, 1, cfg.basis.mode_weights("Udual", cfg.n))[..., 0]
    return float(np.percentile(d.ravel(), quantile))


# -- J-term decomposition -------------------------------------------------------


def decomposition_increments(ens: Ensemble, tau: float, theta: float) -> dict:
    """Increments (R, n) of each row's drift/forcing/noise integrals over
    [tau, tau + theta], plus the worst decomposition-identity residual over
    the rows against the increments of the paths themselves (nan when the
    paths have no snapshot at either end).  The ensemble must have recorded
    the drift and noise integrals (`GalerkinConfig.records`)."""
    cfg = ens.config
    require_records(cfg, "decomposition_increments", "integral_drift", "integral_noise")
    jt = cfg.integral_snap_idx * cfg.dt
    a, b = _grid_positions(jt, (tau, tau + theta), cfg.dt)
    out = {name: ens.snap_integrals[name][:, b] - ens.snap_integrals[name][:, a] for name in INTEGRALS}
    residual = math.nan
    try:
        ia, ib = _grid_positions(cfg.snap_times, jt[[a, b]], cfg.dt)
    except ValueError:
        pass
    else:
        residual = float(np.max(np.abs(ens.snap_u[:, ib] - ens.snap_u[:, ia] - sum(out.values()))))
    return {"increments": out, "identity_residual": residual}


@dataclass
class IncrementScalingReport:
    thetas: np.ndarray
    median_norms: dict  # term -> medians per theta
    exponents: dict  # term -> fitted log-log slope (nan when the term vanishes)


def increment_scaling(ens: Ensemble, tau, thetas) -> IncrementScalingReport:
    """Fit |J_i(tau+theta) - J_i(tau)|_{U'} ~ theta^gamma per term over a
    theta-halving grid, using medians over the live paths of the Ensemble,
    in the U' norm of its config's basis.  Reports the terms the ensemble
    recorded (`GalerkinConfig.records`): the Stokes, convection and forcing
    terms under `integral_drift`, the noise term under `integral_noise`, and
    at least one of the two.

    `tau` may be a single anchor or a list; the increment bounds hold at every
    anchor, so pooling several of them sharpens the median without bias."""
    rows = _live_rows(ens)
    cfg = ens.config
    wUdual = cfg.basis.mode_weights("Udual", cfg.n)
    taus = np.atleast_1d(np.asarray(tau, dtype=float))
    thetas = np.sort(np.asarray(thetas, dtype=float))
    jt = cfg.integral_snap_idx * cfg.dt
    start = _grid_positions(jt, taus[None, :], cfg.dt)  # (1, anchor)
    end = _grid_positions(jt, taus + thetas[:, None], cfg.dt)  # (theta, anchor)
    terms = [name for name in INTEGRALS if integral_record(name) in cfg.records]
    if not terms:
        raise ValueError("increment_scaling needs the integral_drift or integral_noise record, and "
                         f"this ensemble recorded neither (GalerkinConfig.records = {sorted(cfg.records)})")
    med, exps = {}, {}
    for name in terms:
        J = ens.snap_integrals[name][rows]  # (R, S_J, n)
        inc = J[:, end] - J[:, start]  # (R, theta, anchor, n)
        # these norms are the pairwise np.sum over n; the einsum of
        # _increment_norms rounds differently in the last bit, so the scaling
        # table keeps its own form and its values to the bit
        norms = np.sqrt(np.sum(wUdual * inc * inc, axis=-1))
        med[name] = median(norms.transpose(1, 0, 2).reshape(len(thetas), -1), axis=1)
        exps[name] = _loglog_slope(thetas, med[name])
    return IncrementScalingReport(thetas=thetas, median_norms=med, exponents=exps)


# -- nonlinear-term refinement ----------------------------------------------------


@dataclass
class RefinementReport:
    levels: tuple
    integrals: np.ndarray
    successive_gaps: np.ndarray
    passed: bool  # strictly nonincreasing successive gaps
    cauchy_decay: bool  # last gap at most half the largest gap


def nonlinear_refinement_check(by_n: dict) -> RefinementReport:
    """Cauchy behaviour of I_n = int <B(u_n,u_n), P_n psi> dt across Galerkin
    levels driven by the same Wiener path: `by_n` maps each level to an
    Ensemble of exactly one row, which must carry the accumulated
    refinement integral, i.e. was run with refinement_probe=psi.

    `passed` demands monotone-decreasing gaps; single-path pre-asymptotic gaps
    can fluctuate even when the tail converges, which `cauchy_decay` captures.
    """
    levels = tuple(sorted(by_n))
    if len(levels) < 3:
        raise ValueError("need at least 3 levels")
    vals = []
    for n in levels:
        ens = by_n[n]
        if len(ens) != 1:
            raise ValueError(f"need one trajectory per level, got {len(ens)} at n = {n}")
        if ens.refinement_I is None:
            raise ValueError("records lack the accumulated refinement integral")
        if ens.aborted[0]:
            raise ValueError(f"trajectory at n = {n} aborted")
        vals.append(ens.refinement_I[0, -1])
    vals = np.asarray(vals)
    gaps = np.abs(np.diff(vals))
    passed = bool(np.all(np.diff(gaps) <= 1e-12 * np.maximum(1.0, gaps[:-1]))) or bool(
        np.all(gaps <= 1e-12)
    )
    cauchy = bool(gaps[-1] <= 0.5 * np.max(gaps) or np.all(gaps <= 1e-12))
    return RefinementReport(
        levels=levels, integrals=vals, successive_gaps=gaps, passed=passed, cauchy_decay=cauchy
    )


# -- nested-space construction ------------------------------------------------------


@dataclass
class NestedSpaceSpec:
    eta0: float
    etas: np.ndarray  # eta_0 .. eta_N
    phi_norms: np.ndarray  # |h_n|_Phi, n = 1..N
    radii: np.ndarray  # r_n, n = 1..N


@dataclass
class NestedSpaceCertificate:
    embedding_norm_bound: float  # 1 - eta0
    max_embedding_norm: float
    embedding_violations: int
    tail_violations: int
    samples: int


def admissible_eta0(eta0: float) -> float:
    """eta0 itself if it lies in (0, 1), where the recursion eta_n climbs
    to 1 from; otherwise ValueError saying what it must be."""
    if 0.0 < eta0 < 1.0:
        return eta0
    raise ValueError(f"a number in (0, 1), got {eta0}")


def build_nested_space(
    phi_norms, eta0: float, samples: int = 1000, seed: int = 0
) -> tuple:
    """Construct the weighted sequence space compactly embedded below Phi.

    The recursion eta_n = (eta_{n-1} + 1)/2 climbs to 1 and the radii
    r_n = (1 - eta_n) / (2 |h_n|_Phi) shrink to 0.  The certificate samples the
    unit sphere of the weighted space and checks (i) the embedding norm stays
    below 1 - eta0 and (ii) every tail satisfies
    |s_N - s_m|_Phi <= eta_N - eta_m.
    """
    admissible_eta0(eta0)
    phi_norms = np.asarray(phi_norms, dtype=float)
    if np.any(phi_norms <= 0):
        raise ValueError("Phi-norms must be positive")
    N = len(phi_norms)
    etas = np.zeros(N + 1)
    etas[0] = eta0
    for i in range(1, N + 1):
        etas[i] = (etas[i - 1] + 1.0) / 2.0
    radii = (1.0 - etas[1:]) / (2.0 * phi_norms)
    spec = NestedSpaceSpec(eta0=eta0, etas=etas, phi_norms=phi_norms, radii=radii)

    rng = np.random.default_rng(seed)
    emb_viol = 0
    tail_viol = 0
    max_emb = 0.0
    bound = 1.0 - eta0
    for _ in range(samples):
        g = rng.standard_normal(N)
        nrm = np.linalg.norm(g)
        if nrm == 0:
            continue
        x = radii * g / nrm  # |x|_H = 1 exactly
        phi_terms = np.abs(x) * phi_norms
        emb = float(np.sum(phi_terms))
        max_emb = max(max_emb, emb)
        if emb > bound * (1.0 + 1e-12):
            emb_viol += 1
        tails = np.cumsum(phi_terms[::-1])[::-1]  # tails[m] = sum_{i >= m} (0-based)
        # |s_N - s_m|_Phi <= eta_N - eta_m for every m = 0..N-1
        allowed = etas[-1] - etas[:-1]
        if np.any(tails > allowed * (1.0 + 1e-12) + 1e-15):
            tail_viol += 1
    cert = NestedSpaceCertificate(
        embedding_norm_bound=bound,
        max_embedding_norm=max_emb,
        embedding_violations=emb_viol,
        tail_violations=tail_viol,
        samples=samples,
    )
    return spec, cert
