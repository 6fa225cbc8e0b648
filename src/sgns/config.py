"""Run configuration: JSON schema, validation with full violation lists,
canonical hashing, and construction of the library objects a run needs.

Unknown keys are rejected with their dotted path; every value is converted
to its kind and every module-level precondition (admissible smoothness
indices, Galerkin levels, the Euler-Maruyama stability gate, a horizon of
whole steps, noise shapes) is checked at load time so a bad config fails
before any work starts.  The hash is taken over the canonicalized merged
document, so two runs agree on it independently of key order or platform.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimates import admissible_eta
from .galerkin import GalerkinConfig, horizon_violations, level_violations
from .noise import HarmonicField, NoiseModel, coercivity_constant
from .spectral import Basis, SpaceScale, SpectralField, TorusDomain, random_field
from .tightness import admissible_eta0


class ConfigError(ValueError):
    """Carries every violation found, not just the first."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("invalid configuration:\n" + "\n".join(f"  - {v}" for v in self.violations))


DEFAULTS = {
    "domain": {"d": 2, "K": 8, "period": None},
    "scale": {"s": None, "s_U": None},
    "noise": {
        "eps": None,
        "directions": [{"b": {"const": [1.0, 0.0], "harmonics": []}, "c": None}],
    },
    "galerkin": {
        "n": 16,
        "n_list": None,
        "dt": 1e-3,
        "T": 1.0,
        "cutoff_level": None,
        "snapshot_stride": 0,
        "forcing": {"kind": "zero"},
        "u0": {"kind": "random", "modes": 8, "amplitude": 1.0, "seed": 1, "decay": 0.5},
    },
    "ensemble": {"trajectories": 100, "base_seed": 42, "workers": 1},
    "experiment": {},
}


# value kinds: each returns a JSON value checked and converted, or raises
# ValueError(what the value must be)
def _number(v):
    """v as written if finite: list entries and eta print as given (2, not 2.0)."""
    if isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max:
        return v
    raise ValueError("a finite number")


def _real(v) -> float:
    return float(_number(v))


def _within(lo, hi):
    """The kind of real values in (lo, hi)."""
    def check(v):
        x = _real(v)
        if lo < x < hi:
            return x
        raise ValueError(f"a number in ({lo}, {hi})")
    return check


def _count(v, least=1) -> int:
    v = int(v) if isinstance(v, float) and v.is_integer() else v  # 1e4 reads as 10000
    if isinstance(v, int) and not isinstance(v, bool) and v >= least:
        return v
    raise ValueError(f"an integer >= {least}")


def _list_of(kind, what: str):
    """The kind of non-empty lists of values of `kind`."""
    def check(v) -> list:
        try:
            if isinstance(v, list) and v:
                return [kind(x) for x in v]
        except ValueError:
            pass
        raise ValueError(f"a non-empty list of {what}")
    return check


def _positive(v):
    """v as written if finite and > 0."""
    if _number(v) > 0:
        return v
    raise ValueError("a positive number")


_reals = _list_of(_number, "finite numbers")
# the Galerkin levels of galerkin.n_list
_levels = _list_of(_count, "integers >= 1")
# the windows of a tightness table (a window of 0 or less has no increment)
# and the Phi-norms of a nested space (a radius divides by each)
_positives = _list_of(_positive, "positive finite numbers")


def _index(v) -> int:
    return _count(v, least=0)


# the kinds of the scalar settings and the period; n and the fields are
# checked where they are built
_SCALARS = {
    "domain": {"d": _count, "K": _count, "period": _list_of(_within(0, math.inf), "positive numbers")},
    "scale": {"s": _real, "s_U": _real},
    "noise": {"eps": _real},
    "galerkin": {"dt": _real, "T": _real, "cutoff_level": _within(0, math.inf),
                 "snapshot_stride": _index},
    "ensemble": {"trajectories": _count, "base_seed": _index, "workers": _count},
}

# every knob a verb reads from the experiment table: key -> (kind, default).
# A default of None means the verb derives the value from the run.
# "certify_samples" is the count of random pairs of the uniqueness verb's
# sampled Lipschitz witness, drawn on the stepped level n; the verb gates on
# the exact L.  The ranges of eta and eta0 are checked by the modules that
# use them.
EXPERIMENT = {
    "samples": (_count, 100), "tolerance": (_real, 1e-12),  # verify-operators
    "residual_tolerance": (_real, 1e-10), "z_bound": (_real, 3.0),  # ensemble
    "p_list": (_reals, [2.0]), "eta": (lambda v: admissible_eta(_number(v)), None),  # estimates
    "ratio_bound": (_real, 1.5), "alpha": (_within(0, 1), 0.05),
    "deltas": (_positives, None), "thetas": (_positives, None), "integral_stride": (_count, 8),  # tightness
    "slope_threshold": (_real, 0.4), "eta_quantile": (_real, 60.0),
    "scaling_anchors": (_reals, None), "scaling_windows": (_positives, None),
    "certify_samples": (_count, 2000), "twin_trajectories": (_count, 3),  # uniqueness
    "gamma": (_real, 1e-8), "median_ratio_bound": (_real, 1.1),
    "levels": (_count, 30), "phi_norms": (_positives, None),  # spaces
    "eta0": (lambda v: admissible_eta0(_real(v)), 0.5),
}

# the scalars of each field kind: key -> (kind, default)
_FIELD_SPECS = {
    "zero": {},
    "mode": {"mode_id": (_index, 0), "amplitude": (_real, 1.0)},
    "random": {"modes": (_index, 8), "amplitude": (_real, 1.0), "seed": (_index, 0),
               "decay": (_real, 0.0)},
}


# the entries of a harmonic of a noise coefficient: key -> (kind, default)
_HARMONIC = {"k": (_list_of(lambda v: _count(v, least=-sys.maxsize), "integers"), []),
             "cos": (_reals, None), "sin": (_reals, None)}


def _coefficient(spec, d: int, ncomp: int, path: str, violations) -> HarmonicField | None:
    """The HarmonicField of one coefficient spec (None if absent or bad), each
    amplitude and wavevector converted by its kind and every failure named
    at its dotted key."""
    if spec is None:
        return None
    if not isinstance(spec, dict):
        violations.append(f"{path} must be a table")
        return None
    clean = len(violations)
    _check_keys(spec, ("const", "harmonics"), f"{path}.", violations)
    const = _typed(spec.get("const"), _reals, f"{path}.const", violations, None)
    harmonics = spec.get("harmonics") or []
    if not isinstance(harmonics, list):
        violations.append(f"{path}.harmonics must be a list")
        harmonics = []
    terms = []
    for j, h in enumerate(harmonics):
        hpath = f"{path}.harmonics[{j}]"
        if not isinstance(h, dict):
            violations.append(f"{hpath} must be a table")
            continue
        _check_keys(h, _HARMONIC, f"{hpath}.", violations)
        terms.append(tuple(_typed(h.get(key, default), kind, f"{hpath}.{key}", violations, default)
                           for key, (kind, default) in _HARMONIC.items()))
    if len(violations) > clean:
        return None
    try:
        return HarmonicField.build(d, ncomp, const=const, harmonics=terms)
    except ValueError as e:  # a shape, or a zero wavevector
        violations.append(f"{path}: {e}")


def _noise_model(dirs, d: int, violations) -> NoiseModel | None:
    """The NoiseModel of noise.directions (None if empty or bad): config is
    the one reader of this schema."""
    if not isinstance(dirs, list):
        violations.append("noise.directions must be a list")
        return None
    clean = len(violations)
    directions = []
    for i, entry in enumerate(dirs):
        path = f"noise.directions[{i}]"
        if not isinstance(entry, dict):
            violations.append(f"{path} must be a table")
            continue
        _check_keys(entry, ("b", "c"), f"{path}.", violations)
        directions.append(tuple(_coefficient(entry.get(coef), d, ncomp, f"{path}.{coef}", violations)
                                for coef, ncomp in (("b", d), ("c", 1))))
    if not directions or len(violations) > clean:
        return None
    return NoiseModel(d=d, directions=tuple(directions))


def _typed(value, kind, name: str, violations, default):
    """value converted by its kind, or None (a None default, or a violation)."""
    if value is None and default is None:
        return None
    try:
        return kind(value)
    except ValueError as e:
        violations.append(f"{name} must be {e}")


def _check_keys(user, allowed, path, violations):
    for key in user:
        if key not in allowed:
            violations.append(f"unknown key {path}{key}")


def _merge(user: dict, violations) -> dict:
    merged = copy.deepcopy(DEFAULTS)
    _check_keys(user, DEFAULTS, "", violations)
    for section, content in user.items():
        if section not in DEFAULTS:
            continue
        if not isinstance(content, dict):
            violations.append(f"section {section} must be a table")
            continue
        allowed = EXPERIMENT if section == "experiment" else DEFAULTS[section]
        _check_keys(content, allowed, f"{section}.", violations)
        for key, val in content.items():
            if key in allowed:
                merged[section][key] = copy.deepcopy(val)
    return merged


def _field_from_spec(spec, basis: Basis, path: str, violations) -> SpectralField | None:
    if not isinstance(spec, dict):
        violations.append(f"{path} must be a table")
        return None
    kind = spec.get("kind", "zero")
    if kind not in _FIELD_SPECS:
        violations.append(f"{path}.kind must be one of {sorted(_FIELD_SPECS)}, got {kind!r}")
        return None
    extra = set(spec) - set(_FIELD_SPECS[kind]) - {"kind"}
    for key in sorted(extra):
        violations.append(f"unknown key {path}.{key}")
    v = {key: _typed(spec.get(key, default), vkind, f"{path}.{key}", violations, default)
         for key, (vkind, default) in _FIELD_SPECS[kind].items()}
    if None in v.values():
        return None
    if kind == "zero":
        return basis.zero_field()
    if kind == "mode":
        if not v["mode_id"] < basis.n_modes:
            violations.append(f"{path}.mode_id outside [0, {basis.n_modes})")
            return None
        return v["amplitude"] * basis.basis_field(v["mode_id"])
    return random_field(basis, np.random.default_rng(v["seed"]), n=v["modes"],
                        amplitude=v["amplitude"], decay=v["decay"])


@dataclass
class RunConfig:
    """A validated run; `galerkin` is its problem at level n_list[0]."""

    galerkin: GalerkinConfig
    noise_eps: float | None
    n_list: tuple
    trajectories: int
    workers: int
    experiment: dict  # every EXPERIMENT key, converted; None where the verb derives it
    config_hash: str

    @property
    def basis(self) -> Basis:
        return self.galerkin.basis

    @property
    def n(self) -> int:
        return self.n_list[0]

    @property
    def base_seed(self) -> int:
        """ensemble.base_seed: the seed of the run's problem."""
        return self.galerkin.seed


def config_hash(merged: dict) -> str:
    canon = json.dumps(merged, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def load_config(path_or_dict) -> RunConfig:
    """Parse, validate and build a run configuration.

    Accepts a JSON file path or an already-parsed dict; raises ConfigError
    listing every violation.
    """
    if isinstance(path_or_dict, (str, Path)):
        text = Path(path_or_dict).read_text()
        try:
            user = json.loads(text)
        except json.JSONDecodeError as e:
            raise ConfigError([f"cannot parse JSON: {e}"]) from e
    else:
        user = path_or_dict
    if not isinstance(user, dict):
        raise ConfigError(["top-level document must be a JSON object"])

    violations: list = []
    merged = _merge(user, violations)

    scalars = {
        sec: {key: _typed(merged[sec][key], kind, f"{sec}.{key}", violations, DEFAULTS[sec][key])
              for key, kind in kinds.items()}
        for sec, kinds in _SCALARS.items()
    }
    dom, sc, g, ens = (scalars[sec] for sec in ("domain", "scale", "galerkin", "ensemble"))
    noise_eps = scalars["noise"]["eps"]

    domain = scale = basis = None
    if dom["period"] and dom["d"] is not None and len(dom["period"]) != dom["d"]:
        violations.append(f"domain.period must be {dom['d']} positive numbers, got {len(dom['period'])}")
    elif None not in (dom["d"], dom["K"]):
        try:
            domain = TorusDomain(d=dom["d"], K=dom["K"], period=tuple(dom["period"] or ()))
        except (ValueError, TypeError) as e:
            violations.append(f"domain: {e}")
    if domain is not None:
        try:
            scale = SpaceScale(d=domain.d, s=sc["s"] or 0.0, s_U=sc["s_U"] or 0.0)
        except ValueError as e:
            violations.append(f"scale: {e}")
    if scale is not None:
        basis = Basis(domain, scale)

    model = None
    if basis is not None:
        model = _noise_model(merged["noise"]["directions"] or [], basis.domain.d, violations)
    if model is not None and noise_eps is not None:
        a = coercivity_constant(model, basis.domain)
        if not 0.0 < noise_eps < a:
            violations.append(f"noise.eps = {noise_eps} outside (0, a) with coercivity margin a = {a:.6g}")

    gal = merged["galerkin"]
    if gal["n_list"] is None:
        n = _typed(gal["n"], _count, "galerkin.n", violations, DEFAULTS["galerkin"]["n"])
        n_list = () if n is None else (n,)
    else:
        n_list = tuple(_typed(gal["n_list"], _levels, "galerkin.n_list", violations, None) or ())
    for level in sorted({n for n in n_list if n_list.count(n) > 1}):
        violations.append(f"galerkin.n_list repeats level {level}")
    u0 = forcing = None
    if basis is not None:
        errs = level_violations(basis, n_list)
        if g["dt"] is not None and g["T"] is not None:
            errs += horizon_violations(basis, n_list, g["dt"], g["T"], "em")
        violations += [f"galerkin: {v}" for v in errs]
        u0 = _field_from_spec(gal["u0"] or {}, basis, "galerkin.u0", violations)
        f_spec = gal["forcing"] or {"kind": "zero"}
        forcing = _field_from_spec(f_spec, basis, "galerkin.forcing", violations)
        if forcing is not None and f_spec.get("kind") == "zero":
            forcing = None

    exp = merged["experiment"]
    experiment = {key: _typed(exp.get(key, default), kind, f"experiment.{key}", violations, default)
                  for key, (kind, default) in EXPERIMENT.items()}
    # the Phi-norms fix the level count; a levels that disagrees is named, not ignored
    levels, phi_norms = experiment["levels"], experiment["phi_norms"]
    if "levels" in exp and phi_norms is not None and levels is not None and levels != len(phi_norms):
        violations.append(f"experiment.levels must be {len(phi_norms)}, the length of "
                          f"experiment.phi_norms, got {levels}")

    if violations:
        raise ConfigError(violations)

    return RunConfig(
        galerkin=GalerkinConfig(basis=basis, n=n_list[0], u0=u0, model=model, forcing=forcing,
                                seed=ens["base_seed"], **g),
        noise_eps=noise_eps,
        n_list=n_list,
        trajectories=ens["trajectories"],
        workers=ens["workers"],
        experiment=experiment,
        config_hash=config_hash(merged),
    )
