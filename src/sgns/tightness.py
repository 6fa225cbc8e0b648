"""Empirical compactness and tightness diagnostics for trajectory families.

A family of Galerkin paths is probed exactly the way the compactness
machinery consumes it: bounded energy (sup of the V-integral and of the
running H-sup), a uniform U'-modulus of continuity that decays as the window
shrinks, an Aldous-type exceedance table over stopped increments, and the
per-term scaling of the drift and noise pieces of the path decomposition
(initial state, Stokes integral, convection integral, forcing integral,
stochastic integral).  Every path diagnostic takes one `galerkin.Ensemble`,
reads its live rows (views when no row aborted, a copy of what it reads
otherwise) and weighs by the U' norm of the basis of the config it holds;
no basis is passed beside it.  No tightness diagnostic reads a state:
the process that stepped a path reduces it, on the step grid, to the
records they read.
The modulus table reads the per-path lag maxima
(`GalerkinConfig.modulus_lags`, sized by `modulus_lags`), and the Aldous
table and its threshold read the per-path increments from every step at
their lags (`GalerkinConfig.increment_lags`, sized by `increment_lags`);
both lags count steps, and an ensemble that recorded too few lags for a
table is a `ValueError`, not a recomputation.  The scaling of the
decomposition increments reads the running integrals on the snapshot grid,
the one grid of every stored record; the per-row increments themselves, with
the identity residual, are a test oracle (`tests/path_oracle.py`).  The
nonlinear-term refinement reads each level's integral from that level's
path (`galerkin.convection_pairing`).  The nested-space construction that
supplies the compact embedding U -> V_s is built and certified separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimates import median, percentile
from .galerkin import INTEGRALS, Ensemble, _grid_positions, convection_pairing, integral_record


# -- windows -------------------------------------------------------------------


def _window_lag(delta: float, h: float, max_lag: int) -> int:
    """Whole steps h inside a window of length delta, capped."""
    return min(int(math.floor(delta / h + 1e-12)), max_lag)


def modulus_lags(deltas, times) -> int:
    """Step lags a modulus table over the windows `deltas` reads on the
    step grid `times`: the whole steps in the largest window, capped by the
    grid.  A `GalerkinConfig` given this many `modulus_lags` records every
    lag maxima the table needs."""
    return _window_lag(max(deltas), times[1] - times[0], len(times) - 1)


def _aldous_lag(theta: float, h: float) -> int:
    """Steps h of an Aldous window theta: the nearest whole number."""
    return int(round(theta / h))


def _calibration_lag(theta: float, h: float) -> int:
    """Steps h of the threshold's window theta: the nearest whole number,
    at least 1."""
    return max(1, _aldous_lag(theta, h))


def increment_lags(thetas, eta_theta: float, times) -> tuple:
    """Step lags, ascending, at which `aldous_check` over the windows
    `thetas` and `calibrate_aldous_eta` at the window `eta_theta` read the
    increments on the step grid `times`.  A `GalerkinConfig` given these
    `increment_lags` records every increment both need."""
    h = times[1] - times[0]
    return tuple(sorted({_aldous_lag(t, h) for t in thetas} | {_calibration_lag(eta_theta, h)}))


def window_violations(config, deltas, thetas, anchors, windows) -> list:
    """Every window of a tightness run on the grids of `config` that its
    diagnostics cannot read, as texts naming the experiment key: a modulus
    or Aldous window shorter than one step dt (a modulus of 0 fails the
    log-log fit; an Aldous increment over no step is 0, so the gate passes
    unread), a smallest Aldous window, the threshold's, past the horizon
    (no increment to calibrate on; larger ones are clipped to it), and a
    scaling anchor, or an anchor plus a scaling window, off the snapshot
    grid (increment_scaling raises)."""
    out = []
    for key, ws in (("deltas", deltas), ("thetas", thetas)):
        short = ", ".join(str(w) for w in ws if _window_lag(w, config.dt, 1) < 1)
        if short:
            out.append(f"experiment.{key}: window(s) {short} shorter than one step {config.dt}")
    lag = _calibration_lag(min(thetas), config.dt)
    if lag > config.steps:
        out.append(f"experiment.thetas: the smallest window {min(thetas)}, at which the Aldous threshold "
                   f"is calibrated, is {lag} steps, more than the {config.steps} steps up to T = {config.T}")
    grid = config.snap_times
    spacing = f"the snapshot grid (spacing {grid[1] - grid[0]}, up to T = {config.T})"

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
    """The recorded lag reads of the live rows (`_live_rows`) of one Ensemble:
    views of its arrays, or copies of the part read when a row aborted.  The
    tables build their own; it is a class because the benchmark's tracer
    (`bench/spans.py`) times its construction and `lag_maxima`."""

    def __init__(self, ens):
        self.ens, self.rows = ens, _live_rows(ens)

    def lag_maxima(self, max_lag: int) -> np.ndarray:
        """m[r, l-1] = max_j |u_r(t_{j+l}) - u_r(t_j)|_{U'} for lags 1..max_lag,
        as the stepper recorded them; ValueError when it recorded fewer."""
        recorded = self.ens.config.modulus_lags
        if max_lag > recorded:
            raise ValueError(f"the modulus table needs lag maxima up to lag {max_lag}, but the ensemble "
                             f"recorded {recorded} (set GalerkinConfig.modulus_lags)")
        return self.ens.lag_maxima[self.rows, :max_lag]

    def increment_norms(self, lag: int) -> np.ndarray:
        """d[r, j] = |u_r(t_min(j + lag, steps)) - u_r(t_j)|_{U'} from every
        step j, as the stepper recorded them (R, steps + 1); ValueError when
        it did not record this lag."""
        recorded = self.ens.config.increment_lags
        if lag not in recorded:
            raise ValueError(f"the Aldous table needs the increments at lag {lag}, but the ensemble "
                             f"recorded lags {list(recorded)} (set GalerkinConfig.increment_lags)")
        return self.ens.increment_norms[self.rows, recorded.index(lag)]


def _modulus_table(ens: Ensemble, deltas: np.ndarray) -> np.ndarray:
    """omega_r(delta) = sup over |t - s| <= delta of |u_r(t) - u_r(s)|_{U'} on
    the step grid, per live path r and sorted window: (R, len(deltas))."""
    times = ens.config.times
    h = times[1] - times[0]
    max_lag = modulus_lags(deltas, times)
    running = np.maximum.accumulate(FunctionFamily(ens).lag_maxima(max_lag), axis=1)
    # column 0 is the window without a whole step: modulus 0
    running = np.concatenate([np.zeros((len(running), 1)), running], axis=1)
    return running[:, [_window_lag(d, h, max_lag) for d in deltas]]


def median_modulus_curve(ens: Ensemble, deltas) -> tuple:
    """Per-delta median over the live paths of their moduli, with the fitted
    log-log slope (nan when the curve touches zero)."""
    deltas = np.sort(np.asarray(deltas, dtype=float))
    curve = median(_modulus_table(ens, deltas), axis=0)
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


def dubinsky_diagnostic(ens: Ensemble, deltas, slope_threshold: float = 0.4) -> DubinskyReport:
    """Bounded energy plus a decaying uniform modulus: the two premises of the
    deterministic compactness criterion, checked on the live paths.

    The modulus curve is fitted in log-log coordinates; the family passes when
    the fitted slope reaches the threshold (a flat curve fails).  An exactly
    zero curve (constant family) passes trivially.
    """
    deltas = np.sort(np.asarray(deltas, dtype=float))
    curve = np.max(_modulus_table(ens, deltas), axis=0)
    rows = _live_rows(ens)
    H, D = ens.norm_H[rows], ens.norm_D[rows]
    supV = float(np.max(np.sum(H[:, :-1] ** 2 + D[:, :-1] ** 2, axis=1))) * ens.config.dt
    supH = float(np.max(H))
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


def _hitting_positions(norm_H: np.ndarray, level: float) -> np.ndarray:
    """Step of the first time |u|_H >= level per row of the per-step norms
    (R, steps + 1) (the last step if never)."""
    hit = norm_H >= level
    return np.where(hit.any(axis=1), np.argmax(hit, axis=1), norm_H.shape[1] - 1)


def aldous_check(ens: Ensemble, thetas, eta: float) -> AldousReport:
    """Empirical exceedance probabilities of stopped increments of the live
    paths.

    Stopping rules: three deterministic steps plus first-hitting times of
    the ensemble's 50th/90th percentile running-sup levels; tau + theta is
    clipped to the horizon.  Probabilities are reported per theta, maximized
    over rules; the pass flag requires them nonincreasing in theta with an
    overall decay.  Each increment is read from the recorded increments at
    its window's lag (`FunctionFamily.increment_norms`).
    """
    thetas = np.sort(np.asarray(thetas, dtype=float))[::-1]  # descending
    fam = FunctionFamily(ens)
    norm_H = ens.norm_H[fam.rows]
    times = ens.config.times
    S = len(times)
    h = times[1] - times[0]
    rules = {}
    for frac in (0.2, 0.45, 0.7):
        pos = int(round(frac * (S - 1)))
        rules[f"grid_t={times[pos]:.4g}"] = np.full(len(norm_H), pos, dtype=int)
    sups = np.max(norm_H, axis=1)
    for q in (50, 90):
        level = float(percentile(sups, q))
        rules[f"hit_p{q}"] = _hitting_positions(norm_H, level)

    rows = np.arange(len(norm_H))
    per_rule = {label: np.zeros(len(thetas)) for label in rules}
    for i, theta in enumerate(thetas):
        inc = fam.increment_norms(_aldous_lag(theta, h))
        for label, taus in rules.items():
            per_rule[label][i] = float(np.mean(inc[rows, taus] >= eta))
    probs = np.max(np.stack(list(per_rule.values())), axis=0)
    # thetas descending: probabilities must not increase as theta shrinks
    monotone = bool(np.all(np.diff(probs) <= 1e-12))
    decays = bool(probs[-1] < probs[0] or probs[0] == 0.0)
    return AldousReport(
        thetas=thetas, probabilities=probs, per_rule=per_rule, eta=eta,
        monotone=monotone, decays=decays,
    )


def calibrate_aldous_eta(ens: Ensemble, theta: float, quantile: float = 60.0) -> float:
    """Threshold for the exceedance table: a quantile of the pooled increments
    |u(t + theta) - u(t)|_{U'} over the live paths at the window theta it is
    passed, so the table starts mid-range and its decay toward 0 is
    informative.  `sgns tightness` passes its smallest window.  The
    increments are read from those recorded at the window's lag
    (`FunctionFamily.increment_norms`); a window of more steps than the
    horizon holds no increment and is a `ValueError`."""
    times = ens.config.times
    lag = _calibration_lag(theta, times[1] - times[0])
    count = len(times) - lag
    if count < 1:
        raise ValueError(f"the Aldous threshold's window {theta} is {lag} steps, more than the "
                         f"{len(times) - 1} steps up to T = {times[-1]}")
    # the sampled increments: those starting at every ((S - lag) // 64)-th
    # step
    starts = np.arange(0, count, max(1, count // 64))
    return float(percentile(FunctionFamily(ens).increment_norms(lag)[:, starts], quantile))


# -- J-term decomposition -------------------------------------------------------


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
    start = _grid_positions(cfg.snap_times, taus[None, :], cfg.dt)  # (1, anchor)
    end = _grid_positions(cfg.snap_times, taus + thetas[:, None], cfg.dt)  # (theta, anchor)
    terms = [name for name in INTEGRALS if integral_record(name) in cfg.records]
    if not terms:
        raise ValueError("increment_scaling needs the integral_drift or integral_noise record, and "
                         f"this ensemble recorded neither (GalerkinConfig.records = {sorted(cfg.records)})")
    med, exps = {}, {}
    for name in terms:
        J = ens.snap_integrals[name][rows]  # (R, S, n)
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


def nonlinear_refinement_check(by_n: dict, psi) -> RefinementReport:
    """Cauchy behaviour of I_n = int <B(u_n,u_n), P_n psi> dt across Galerkin
    levels driven by the same Wiener path: `by_n` maps each level to an
    Ensemble of exactly one row that snapshotted every step, from whose
    states `galerkin.convection_pairing` forms I_n.

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
        if ens.aborted[0]:
            raise ValueError(f"trajectory at n = {n} aborted")
        vals.append(convection_pairing(ens, psi)[0])
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
    max_embedding_norm: float  # the sup over the unit sphere
    embedding_margin: float  # bound - sup
    tail_margin: float  # least (eta_N - eta_m) - tail sup, over m
    passed: bool


def admissible_eta0(eta0: float) -> float:
    """eta0 itself if it lies in (0, 1), where the recursion eta_n climbs
    to 1 from; otherwise ValueError saying what it must be."""
    if 0.0 < eta0 < 1.0:
        return eta0
    raise ValueError(f"a number in (0, 1), got {eta0}")


def build_nested_space(phi_norms, eta0: float) -> tuple:
    """Construct the weighted sequence space compactly embedded below Phi.

    The recursion eta_n = (eta_{n-1} + 1)/2 climbs to 1 and the radii
    r_n = (1 - eta_n) / (2 |h_n|_Phi) shrink to 0.  On the unit sphere of the
    weighted space, x_i = r_i u_i with |u|_2 = 1, a tail of the embedding
    norm is sum_i r_i |h_i|_Phi |u_i|, whose sup is by Cauchy-Schwarz the
    l2 norm of that tail of (r_i |h_i|_Phi)_i.  The certificate checks
    (i) the whole sum's sup against 1 - eta0 and (ii) every tail's against
    |s_N - s_m|_Phi <= eta_N - eta_m, from the spec's own radii and norms.
    """
    admissible_eta0(eta0)
    phi_norms = np.asarray(phi_norms, dtype=float)
    if len(phi_norms) == 0 or np.any(phi_norms <= 0):
        raise ValueError("Phi-norms must be a non-empty list of positive numbers")
    N = len(phi_norms)
    etas = np.zeros(N + 1)
    etas[0] = eta0
    for i in range(1, N + 1):
        etas[i] = (etas[i - 1] + 1.0) / 2.0
    radii = (1.0 - etas[1:]) / (2.0 * phi_norms)
    spec = NestedSpaceSpec(eta0=eta0, etas=etas, phi_norms=phi_norms, radii=radii)

    w = spec.radii * spec.phi_norms
    tails = np.sqrt(np.cumsum((w * w)[::-1])[::-1])  # tails[m] = |w[m:]|_2 (0-based)
    emb = float(tails[0])
    bound = 1.0 - eta0
    # |s_N - s_m|_Phi <= eta_N - eta_m for every m = 0..N-1
    allowed = spec.etas[-1] - spec.etas[:-1]
    passed = not (emb > bound * (1.0 + 1e-12) or np.any(tails > allowed * (1.0 + 1e-12) + 1e-15))
    cert = NestedSpaceCertificate(
        embedding_norm_bound=bound,
        max_embedding_norm=emb,
        embedding_margin=bound - emb,
        tail_margin=float(np.min(allowed - tails)),
        passed=passed,
    )
    return spec, cert
