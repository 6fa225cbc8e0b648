"""The brute-force lag reductions of a path's snapshots: every increment's
U' norm at every lag for the maxima, the independent reference for the
stepper's pruned `galerkin._lag_maxima`, and every increment gathered as a
(start, end) pair of states, the reference for its recorded increment
norms (`galerkin._lag_increments`)."""

import numpy as np


def brute_lag_maxima(coords: np.ndarray, w: np.ndarray, max_lag: int) -> np.ndarray:
    """m[r, l-1] = max_s |x_r(s + l) - x_r(s)|_{U'} for lags 1..max_lag, from
    coords (R, S, n) and the U'-weights w, forming every increment's norm."""
    out = np.zeros((len(coords), max_lag))
    for lag in range(1, max_lag + 1):
        d = coords[:, lag:] - coords[:, :-lag]
        out[:, lag - 1] = np.max(np.sqrt(np.einsum("rsn,n->rs", d * d, w)), axis=1)
    return out


def pair_increment_norms(coords: np.ndarray, w: np.ndarray, lags) -> np.ndarray:
    """d[r, i, s] = |x_r(min(s + lags[i], S - 1)) - x_r(s)|_{U'} from coords
    (R, S, n) and the U'-weights w: for each lag, the states of every start
    and its clipped end gathered as pairs (R, S, 2, n) of all rows at once,
    the later less the earlier, squared and summed against w."""
    R, S, _ = coords.shape
    out = np.empty((R, len(lags), S))
    starts = np.arange(S)
    for i, lag in enumerate(lags):
        pair = coords[:, np.stack([starts, np.minimum(starts + lag, S - 1)], axis=1)]
        d = pair[:, :, 1:] - pair[:, :, :-1]
        d *= d
        out[:, i] = np.sqrt(np.einsum("...n,n->...", d, w))[..., 0]
    return out
