"""The brute-force lag maxima: every increment's U' norm at every lag, the
independent reference for the stepper's pruned `galerkin._lag_maxima`."""

import numpy as np


def brute_lag_maxima(coords: np.ndarray, w: np.ndarray, max_lag: int) -> np.ndarray:
    """m[r, l-1] = max_s |x_r(s + l) - x_r(s)|_{U'} for lags 1..max_lag, from
    coords (R, S, n) and the U'-weights w, forming every increment's norm."""
    out = np.zeros((len(coords), max_lag))
    for lag in range(1, max_lag + 1):
        d = coords[:, lag:] - coords[:, :-lag]
        out[:, lag - 1] = np.max(np.sqrt(np.einsum("rsn,n->rs", d * d, w)), axis=1)
    return out
