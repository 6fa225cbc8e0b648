"""The brute-force lag reductions of a path's snapshots: every increment's
U' norm at every lag for the modulus, the independent reference for the
stepper's pruned, chunk by chunk modulus (`galerkin._LagReducer`), and
every increment gathered as a (start, end) pair of states, the reference
for its recorded increment norms; and the running-maximum record, by a
loop over every step of each row's norms."""

import numpy as np

from sgns.galerkin import RunningMaxima


def brute_modulus(coords: np.ndarray, w: np.ndarray, max_lag: int) -> np.ndarray:
    """m[r, l-1] = max over lags l' <= l and starts s of |x_r(s + l') -
    x_r(s)|_{U'} for l = 1..max_lag, from coords (R, S, n) and the
    U'-weights w, forming every increment's norm: the running maximum over
    the lags of each lag's largest."""
    out = np.zeros((len(coords), max_lag))
    for lag in range(1, max_lag + 1):
        d = coords[:, lag:] - coords[:, :-lag]
        out[:, lag - 1] = np.max(np.sqrt(np.einsum("rsn,n->rs", d * d, w)), axis=1)
    return np.maximum.accumulate(out, axis=1)


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


def running_maxima(norm_H: np.ndarray, increments: np.ndarray) -> RunningMaxima:
    """The running-maximum record of the norms norm_H (R, S), by a loop over
    each row's steps: every step whose norm exceeds all before it, from
    step 0 on, with its norm and its column of the increments (R, L, S)
    of every start."""
    offsets, steps, norms, incs = [0], [], [], []
    for r, row in enumerate(norm_H):
        top = -np.inf
        for j, value in enumerate(row):
            if value > top:
                top = value
                steps.append(j)
                norms.append(value)
                incs.append(increments[r, :, j])
        offsets.append(len(steps))
    L = increments.shape[1]
    return RunningMaxima(np.array(offsets, dtype=np.int64), np.array(steps, dtype=np.int64),
                         np.array(norms, dtype=float), np.array(incs, dtype=float).reshape(len(steps), L))
