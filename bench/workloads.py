"""The four CLI workloads, as JSON run configurations built from a seed.

Each config is a copy of one of ``demos/configs`` (as of the commit that
added this benchmark), with the changes named in ``WORKLOADS``.  The seed
becomes ``ensemble.base_seed`` and is the only input that varies between
runs; the initial condition keeps its fixed demo seed.  Copies are kept here
rather than read from ``demos/`` so that a later change to the demos does
not change what the benchmark measures.
"""

from __future__ import annotations

import copy

WORKERS = 2

_NOISE_1 = {"directions": [{"b": {"const": [1.0, 0.0]}, "c": None}]}
_NOISE_2 = {"directions": [
    {"b": {"const": [1.0, 0.0]}, "c": None},
    {"b": {"harmonics": [{"k": [2, 2], "cos": [0.1, 0.0]}]}, "c": None},
]}

# demos/configs/default.json
DEFAULT = {
    "domain": {"d": 2, "K": 8},
    "scale": {"s": 2.5, "s_U": 4.5},
    "noise": {"eps": 0.5, **_NOISE_1},
    "galerkin": {
        "n": 16, "dt": 0.001, "T": 1.0, "snapshot_stride": 100,
        "u0": {"kind": "random", "modes": 8, "amplitude": 1.0, "seed": 7, "decay": 0.5},
        "forcing": {"kind": "zero"},
    },
    "ensemble": {"trajectories": 200, "base_seed": 42, "workers": 2},
}
# demos/configs/tightness.json
TIGHTNESS = {
    "domain": {"d": 2, "K": 8},
    "noise": _NOISE_2,
    "galerkin": {
        "n_list": [8, 16, 32], "dt": 0.0009765625, "T": 1.0,
        "u0": {"kind": "random", "modes": 8, "seed": 315, "decay": 0.5},
    },
    "ensemble": {"trajectories": 100, "base_seed": 77, "workers": 2},
    "experiment": {"integral_stride": 8, "slope_threshold": 0.4, "eta_quantile": 60.0},
}
# demos/configs/uniqueness.json
UNIQUENESS = {
    "domain": {"d": 2, "K": 8},
    "noise": _NOISE_1,
    "galerkin": {
        "n": 16, "dt": 0.001, "T": 0.5,
        "u0": {"kind": "random", "modes": 8, "seed": 1100, "decay": 0.5},
    },
    "ensemble": {"trajectories": 100, "base_seed": 2468, "workers": 2},
    "experiment": {"gamma": 1e-08, "median_ratio_bound": 1.1, "certify_samples": 2000},
}

# |z| bound of the ensemble verb's Ito gate.  The verb's default of 3 suits
# one run; this benchmark runs the verb at hundreds of seeds, and at 32 paths
# |z| > 3 comes up at about 0.6% of them (z = -3.24 at base_seed 946746093).
# 5 is the Bonferroni bound for ~1500 runs at a 5% family-wise rate: 12,000
# paths at n = 16, T = 0.25 resampled into 32-path groups gave |z| > 5 at a
# rate of 3.3e-5.  The energy-residual gate keeps its 1e-10.
Z_BOUND = 5.0

# The tightness verb's demo gates are set for one run, too.  Over base seeds
# 5000-5199 (the three levels read the same slope and Aldous table) the
# modulus slope read 0.464 +- 0.026, and 1 run fell below the demo threshold
# of 0.4; the Aldous table at the default thetas 2^-8..2^-4 came out
# non-monotone in 2 runs.  0.3 is 6 SDs below the mean slope.  With thetas 4x
# apart (every second default one; T = 1) each step of the table averages
# 4.4 or more SDs above zero, and no run failed.
SLOPE_THRESHOLD = 0.3
ALDOUS_THETAS = [2.0**-8, 2.0**-6, 2.0**-4]

# name -> (verb, base config, overrides as {(section, key): value})
WORKLOADS = {
    "ensemble-n16": ("ensemble", DEFAULT, {("experiment", "z_bound"): Z_BOUND}),
    "ensemble-n128": ("ensemble", DEFAULT, {
        ("galerkin", "n"): 128, ("galerkin", "T"): 0.25, ("ensemble", "trajectories"): 32,
        ("experiment", "z_bound"): Z_BOUND,
    }),
    "tightness-levels": ("tightness", TIGHTNESS, {
        ("experiment", "slope_threshold"): SLOPE_THRESHOLD, ("experiment", "thetas"): ALDOUS_THETAS,
    }),
    "uniqueness-twins": ("uniqueness", UNIQUENESS, {}),
}

# invocations a run makes at least. uniqueness runs on one CPU, so one
# invocation of it spreads about twice as much run to run as a pooled one
REPEATS = {"uniqueness-twins": 3}

# tiny sizes for the benchmark's own tests: same verbs and code paths
SMOKE = {
    "ensemble-n16": {("galerkin", "T"): 0.05, ("ensemble", "trajectories"): 16},
    "ensemble-n128": {
        ("galerkin", "n"): 48, ("galerkin", "T"): 0.01, ("ensemble", "trajectories"): 16,
    },
    "tightness-levels": {("galerkin", "n_list"): [4, 8], ("ensemble", "trajectories"): 32},
    "uniqueness-twins": {
        ("galerkin", "T"): 0.02, ("ensemble", "trajectories"): 4,
        ("experiment", "certify_samples"): 200,
    },
}


def build(name: str, seed: int, smoke: bool = False) -> tuple:
    """(verb, config dict) of a workload; the seed is its base_seed."""
    verb, base, overrides = WORKLOADS[name]
    cfg = copy.deepcopy(base)
    for (section, key), value in {**overrides, **(SMOKE[name] if smoke else {})}.items():
        cfg.setdefault(section, {})[key] = copy.deepcopy(value)
    cfg["ensemble"]["base_seed"] = int(seed)
    cfg["ensemble"]["workers"] = WORKERS
    return verb, cfg


def path_steps(verb: str, cfg: dict) -> int:
    """Euler-Maruyama steps one invocation integrates: paths x steps x levels,
    with both twins of a uniqueness pair counted."""
    gal = cfg["galerkin"]
    steps = int(round(gal["T"] / gal["dt"]))
    levels = len(gal.get("n_list") or [gal["n"]])
    paths = cfg["ensemble"]["trajectories"]
    if verb == "uniqueness":
        # one gamma = 0 twin check (3 pairs by default) plus the gamma > 0 pairs
        twins = int(cfg.get("experiment", {}).get("twin_trajectories", 3))
        return 2 * (twins + paths) * steps
    return paths * steps * levels

