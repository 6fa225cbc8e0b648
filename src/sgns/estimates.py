"""Moment-exponent bookkeeping, ensemble aggregation of the a priori energy
functionals, uniformity-in-n verdicts, and the discrete Gronwall envelope.

The admissible exponent window p in [2, 2 + eta/(2-eta)) and the epsilon
interval in the Ito estimate reduce to the same inequality
p - p*eps - p(p-1)(2-eta)/2 > 0; both are exposed and tested for consistency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .galerkin import float_map


def admissible_eta(eta: float) -> float:
    """eta itself if it lies in (0, 2], the range of the noise-growth
    exponent; otherwise ValueError saying what it must be."""
    if 0.0 < eta <= 2.0:
        return eta
    raise ValueError(f"a number in (0, 2], got {eta}")


def p_range(eta: float) -> tuple:
    """Admissible moment exponents: [2, 2 + eta/(2-eta)), or [2, inf) at eta = 2."""
    if admissible_eta(eta) == 2.0:
        return (2.0, math.inf)
    return (2.0, 2.0 + eta / (2.0 - eta))


def epsilon_for_p(p: float, eta: float) -> tuple:
    """Open interval of admissible epsilon in the p-th moment estimate."""
    lo, hi = p_range(eta)
    if not lo <= p < hi:
        raise ValueError(f"p = {p} outside the admissible range [{lo}, {hi})")
    upper = 1.0 - 0.5 * (p - 1.0) * (2.0 - eta)
    return (0.0, upper)


def median(a, axis=None):
    """np.median of a non-empty float array, bit for bit, with its NaN rule
    (NaN wherever a NaN is present) read off the partition directly: the
    first np.median of a process imports numpy.ma for that check."""
    a = np.asarray(a, dtype=np.float64)
    if axis is None:
        a, axis = a.ravel(), 0
    size = a.shape[axis]
    half = size // 2
    kth = [half - 1, half] if size % 2 == 0 else [half]
    part = np.partition(a, kth + [-1], axis=axis)
    mid = np.mean(np.take(part, range(kth[0], half + 1), axis=axis), axis=axis)
    last = np.take(part, -1, axis=axis)
    return np.where(np.isnan(last), last, mid)[()]


def percentile(a, q: float):
    """np.percentile(a, q) of a non-empty float array, flattened, at one q
    in [0, 100], bit for bit: numpy's linear method (virtual index
    (size - 1) q / 100 between its two order statistics, in numpy's `_lerp`
    form) and its NaN rule (NaN wherever a NaN is present), read off the
    partition without the first np.percentile's import of numpy.ma."""
    a = np.asarray(a, dtype=np.float64).ravel()
    size = len(a)
    virtual = (size - 1) * np.true_divide(q, 100)
    # at and past the last index both neighbours are the maximum, index -1
    below = int(virtual) if virtual < size - 1 else -1
    above = below + 1 if below >= 0 else -1
    part = np.partition(a, sorted({0, -1, below, above}))
    if np.isnan(part[-1]):
        return part[-1]
    t = virtual - below
    lo, hi = part[below], part[above]
    diff = hi - lo
    return hi - diff * (1 - t) if t >= 0.5 else lo + diff * t


@dataclass
class FunctionalStats:
    mean: float
    se: float

    @staticmethod
    def of(values: np.ndarray) -> "FunctionalStats":
        """Mean and standard error of two or more values."""
        se = float(np.std(values, ddof=1) / math.sqrt(len(values)))
        return FunctionalStats(mean=float(np.mean(values)), se=se)


@dataclass
class EnsembleStats:
    """Aggregated moment functionals per Galerkin level n."""

    per_n: dict  # n -> {"sup_H_p": {p: FunctionalStats}, "int_weighted": {...},
    #                    "int_dirichlet2": FunctionalStats, "count": int, "aborts": int,
    #                    "rows": {"sup_H": (R,), "int_dirichlet2": (R,)} of every row}
    p_list: tuple
    warnings: tuple = ()


def too_few_live_paths(ensembles: dict) -> str | None:
    """Why the Ensembles of {n: Ensemble} give no statistics: the levels
    with fewer than 2 live (not aborted) trajectories, each with its count;
    None when every level has at least 2."""
    live = {n: int(np.count_nonzero(~ens.aborted)) for n, ens in ensembles.items()}
    short = [f"n = {n} has {count}" for n, count in live.items() if count < 2]
    return f"need at least 2 live trajectories at every level: {', '.join(short)}" if short else None


def aggregate(ensembles: dict, p_list=(2.0,), eta: float | None = None) -> EnsembleStats:
    """Unbiased means with standard errors of the energy functionals of each
    Ensemble of {n: Ensemble}.

    Aborted trajectories are excluded from the statistics and counted; the
    per-row sup_H and Dirichlet integral of every row, aborted ones
    included, are kept under "rows".  If a certified eta is supplied,
    requested exponents outside its admissible window are flagged (the
    statistic is still computed).  A level with fewer than 2 live
    trajectories is a ValueError (`too_few_live_paths`).
    """
    failure = too_few_live_paths(ensembles)
    if failure is not None:
        raise ValueError(failure)
    warnings = []
    if eta is not None:
        lo, hi = p_range(eta)
        for p in p_list:
            if not lo <= p < hi:
                warnings.append(f"p = {p} outside the admissible range [{lo}, {hi}) for eta = {eta}")
    per_n = {}
    for n, ens in ensembles.items():
        live = ~ens.aborted
        count = int(np.count_nonzero(live))
        rows = {"sup_H": ens.sup_H(), "int_dirichlet2": ens.integral_dirichlet2()}
        sup = rows["sup_H"][live]
        per_n[n] = {
            "sup_H_p": {
                p: FunctionalStats.of(float_map(lambda v: v**p, sup)) for p in p_list
            },
            "int_weighted": {
                p: FunctionalStats.of(ens.integral_weighted(p)[live]) for p in p_list
            },
            "int_dirichlet2": FunctionalStats.of(rows["int_dirichlet2"][live]),
            "count": count,
            "aborts": len(live) - count,
            "rows": rows,
        }
    return EnsembleStats(per_n=per_n, p_list=tuple(p_list), warnings=tuple(warnings))


@dataclass
class UniformityVerdict:
    ratios: dict  # functional name -> max/min ratio across n
    kendall: dict  # functional name -> (tau, one-sided p-value for a rising trend)
    ratio_bound: float
    alpha: float
    passed: bool


def uniformity_report(
    stats: EnsembleStats,
    p: float = 2.0,
    ratio_bound: float = 1.5,
    alpha: float = 0.05,
) -> UniformityVerdict:
    """Uniformity-in-n check: bounded max/min ratio and no rising trend beyond
    noise for E[sup |u|_H^p] and E[int ||u||^2 dt].

    The trend test is one-sided Kendall tau on the per-level means at level
    alpha; a monotone ordering whose total rise stays within the combined
    standard errors (1.645 sigma one-sided) counts as flat.

    The p-value is scipy's: exact for untied means (up to 33 levels) and the
    tie-corrected normal approximation for tied ones.  scipy.stats is
    imported here, not at module level: the import costs about 1 s, which
    every verb process and pool worker importing this module would pay.  Under
    exchangeable untied means at alpha = 0.05 the Kendall clause alone
    fires with probability 0 at 3 levels (the smallest attainable p is
    1/6) and 1/24 at 4 or 5 levels.  Means of levels that share a Wiener
    path can tie exactly: on demos/configs/estimates.json the n = 4 and
    n = 8 means are equal, giving tau-b = 0.913 and an asymptotic
    p = 0.0355 < alpha, so that run passes through the rise-beyond-noise
    clause alone.
    """
    from scipy.stats import kendalltau

    ns = sorted(stats.per_n)
    if len(ns) < 3:
        raise ValueError("need at least 3 Galerkin levels")
    series = {
        f"sup_H_{p:g}": [
            (stats.per_n[n]["sup_H_p"][p].mean, stats.per_n[n]["sup_H_p"][p].se) for n in ns
        ],
        "int_dirichlet2": [
            (stats.per_n[n]["int_dirichlet2"].mean, stats.per_n[n]["int_dirichlet2"].se)
            for n in ns
        ],
    }
    ratios = {}
    kendall = {}
    passed = True
    for name, pairs in series.items():
        vals = np.asarray([m for m, _ in pairs])
        ses = np.asarray([s for _, s in pairs])
        if np.any(vals <= 0):
            raise ValueError(f"nonpositive functional {name}; cannot form ratios")
        ratios[name] = float(np.max(vals) / np.min(vals))
        tau, pval = kendalltau(ns, vals, alternative="greater")
        kendall[name] = (float(tau), float(pval))
        rise = vals[-1] - vals[0]
        noise = 1.645 * math.sqrt(ses[0] ** 2 + ses[-1] ** 2)
        trending_up = pval < alpha and rise > noise
        if ratios[name] > ratio_bound or trending_up:
            passed = False
    return UniformityVerdict(
        ratios=ratios, kendall=kendall, ratio_bound=ratio_bound, alpha=alpha, passed=passed
    )


def gronwall_eval(a, theta, y0: float, grid) -> np.ndarray:
    """Discrete Gronwall envelope for y' <= a(t) + theta(t) y on the grid:

        y(t_j) <= y0 exp(int_0^tj theta) + sum_{l<j} a_l dl exp(int_{tl}^{tj} theta)

    with left-endpoint quadrature of the exponents; dominates the forward
    Euler solution of y' = a + theta y.
    """
    grid = np.asarray(grid, dtype=float)
    a = np.asarray(a, dtype=float)
    theta = np.asarray(theta, dtype=float)
    m = len(grid)
    if len(a) < m - 1 or len(theta) < m - 1:
        raise ValueError("a and theta must be given on every step of the grid")
    if np.any(a[: m - 1] < 0) or np.any(theta[: m - 1] < 0):
        raise ValueError("gronwall_eval requires nonnegative inputs")
    dt = np.diff(grid)
    Theta = np.concatenate([[0.0], np.cumsum(theta[: m - 1] * dt)])
    out = np.zeros(m)
    out[0] = y0
    for j in range(1, m):
        acc = y0 * math.exp(Theta[j])
        acc += float(np.sum(a[:j] * dt[:j] * np.exp(Theta[j] - Theta[:j])))
        out[j] = acc
    return out
