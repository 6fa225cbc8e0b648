"""Run configuration: JSON schema, validation with full violation lists,
canonical hashing, and construction of the library objects a run needs.

Unknown keys are rejected with their dotted path; every module-level
precondition (admissible smoothness indices, the explicit-scheme stability
gate, a horizon of whole steps, noise shapes) is checked at load time so a
bad config fails before any work starts.  The hash is taken over the
canonicalized merged document, so two runs agree on it independently of key
order or platform.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .galerkin import GalerkinConfig, horizon_violations
from .noise import NoiseModel, coercivity_constant, noise_model_from_spec
from .spectral import Basis, SpaceScale, SpectralField, TorusDomain, random_field


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
        "scheme": "em",
        "snapshot_stride": 0,
        "integral_snapshot_stride": None,
        "forcing": {"kind": "zero"},
        "u0": {"kind": "random", "modes": 8, "amplitude": 1.0, "seed": 1, "decay": 0.5},
    },
    "ensemble": {"trajectories": 100, "base_seed": 42, "workers": 1},
    "experiment": {},
}

# every key a verb reads from the experiment table
EXPERIMENT_KEYS = frozenset({
    "samples", "tolerance",  # verify-operators, certify-noise, spaces
    "residual_tolerance", "z_bound",  # ensemble
    "p_list", "eta", "ratio_bound", "alpha",  # estimates
    "deltas", "thetas", "slope_threshold", "integral_stride", "eta_quantile",
    "scaling_anchors", "scaling_windows",  # tightness
    "certify_samples", "twin_trajectories", "gamma", "median_ratio_bound",  # uniqueness
    "levels", "eta0", "phi_norms",  # spaces
})

_FIELD_SPEC_KEYS = {
    "zero": set(),
    "mode": {"mode_id", "amplitude"},
    "random": {"modes", "amplitude", "seed", "decay"},
}


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
        if section == "experiment":
            _check_keys(content, EXPERIMENT_KEYS, "experiment.", violations)
            merged["experiment"] = copy.deepcopy(content)
            continue
        _check_keys(content, DEFAULTS[section], f"{section}.", violations)
        for key, val in content.items():
            if key in DEFAULTS[section]:
                merged[section][key] = copy.deepcopy(val)
    return merged


def _field_from_spec(spec: dict, basis: Basis, path: str, violations) -> SpectralField | None:
    kind = spec.get("kind", "zero")
    if kind not in _FIELD_SPEC_KEYS:
        violations.append(f"{path}.kind must be one of {sorted(_FIELD_SPEC_KEYS)}, got {kind!r}")
        return None
    extra = set(spec) - _FIELD_SPEC_KEYS[kind] - {"kind"}
    for key in sorted(extra):
        violations.append(f"unknown key {path}.{key}")
    if kind == "zero":
        return basis.zero_field()
    if kind == "mode":
        mode_id = spec.get("mode_id", 0)
        if not 0 <= mode_id < basis.n_modes:
            violations.append(f"{path}.mode_id outside [0, {basis.n_modes})")
            return None
        return float(spec.get("amplitude", 1.0)) * basis.basis_field(mode_id)
    rng = np.random.default_rng(int(spec.get("seed", 0)))
    return random_field(
        basis,
        rng,
        n=int(spec.get("modes", 8)),
        amplitude=float(spec.get("amplitude", 1.0)),
        decay=float(spec.get("decay", 0.0)),
    )


@dataclass
class RunConfig:
    raw: dict
    basis: Basis
    model: NoiseModel | None
    noise_eps: float | None
    n_list: tuple
    dt: float
    T: float
    cutoff_level: float | None
    scheme: str
    snapshot_stride: int
    integral_snapshot_stride: int | None
    u0: SpectralField
    forcing: SpectralField | None
    trajectories: int
    base_seed: int
    workers: int
    experiment: dict
    config_hash: str

    @property
    def n(self) -> int:
        return self.n_list[0]


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

    dom_sec = merged["domain"]
    basis = None
    try:
        period = dom_sec["period"]
        domain = TorusDomain(
            d=int(dom_sec["d"]),
            K=int(dom_sec["K"]),
            period=tuple(period) if period else (),
        )
    except (ValueError, TypeError) as e:
        violations.append(f"domain: {e}")
        domain = None

    scale = None
    if domain is not None:
        try:
            sc = merged["scale"]
            scale = SpaceScale(
                d=domain.d,
                s=float(sc["s"]) if sc["s"] is not None else 0.0,
                s_U=float(sc["s_U"]) if sc["s_U"] is not None else 0.0,
            )
        except (ValueError, TypeError) as e:
            violations.append(f"scale: {e}")
    if domain is not None and scale is not None:
        basis = Basis(domain, scale)

    model = None
    noise_eps = None
    if basis is not None:
        nz = merged["noise"]
        try:
            dirs = nz.get("directions") or []
            model = noise_model_from_spec({"directions": dirs}, basis.domain.d) if dirs else None
            noise_eps = float(nz["eps"]) if nz.get("eps") is not None else None
            if model is not None and noise_eps is not None:
                a = coercivity_constant(model, basis.domain)
                if not 0.0 < noise_eps < a:
                    violations.append(
                        f"noise.eps = {noise_eps} outside (0, a) with coercivity margin a = {a:.6g}"
                    )
        except (ValueError, TypeError, KeyError) as e:
            violations.append(f"noise: {e}")

    gal = merged["galerkin"]
    n_list: tuple = ()
    u0 = forcing = None
    if basis is not None:
        raw_list = gal["n_list"] if gal["n_list"] else [gal["n"]]
        try:
            n_list = tuple(int(v) for v in raw_list)
        except (TypeError, ValueError):
            violations.append("galerkin.n_list must be a list of integers")
            n_list = ()
        for n in n_list:
            if not 1 <= n <= basis.n_modes:
                violations.append(f"galerkin.n = {n} outside [1, {basis.n_modes}]")
        if gal["scheme"] not in ("em", "exponential"):
            violations.append(f"galerkin.scheme must be 'em' or 'exponential', got {gal['scheme']!r}")
        levels = [n for n in n_list if 1 <= n <= basis.n_modes]
        violations += [
            f"galerkin: {v}"
            for v in horizon_violations(basis, levels, float(gal["dt"]), float(gal["T"]), gal["scheme"])
        ]
        u0 = _field_from_spec(gal["u0"] or {}, basis, "galerkin.u0", violations)
        f_spec = gal["forcing"] or {"kind": "zero"}
        forcing = _field_from_spec(f_spec, basis, "galerkin.forcing", violations)
        if forcing is not None and f_spec.get("kind") == "zero":
            forcing = None

    ens = merged["ensemble"]
    try:
        trajectories = int(ens["trajectories"])
        base_seed = int(ens["base_seed"])
        workers = int(ens["workers"])
        if trajectories < 1 or workers < 1:
            violations.append("ensemble: trajectories and workers must be >= 1")
    except (TypeError, ValueError):
        violations.append("ensemble: trajectories, base_seed and workers must be integers")
        trajectories, base_seed, workers = 1, 0, 1

    if violations:
        raise ConfigError(violations)

    return RunConfig(
        raw=merged,
        basis=basis,
        model=model,
        noise_eps=noise_eps,
        n_list=n_list,
        dt=float(gal["dt"]),
        T=float(gal["T"]),
        cutoff_level=float(gal["cutoff_level"]) if gal["cutoff_level"] is not None else None,
        scheme=gal["scheme"],
        snapshot_stride=int(gal["snapshot_stride"]),
        integral_snapshot_stride=(
            int(gal["integral_snapshot_stride"]) if gal["integral_snapshot_stride"] is not None else None
        ),
        u0=u0,
        forcing=forcing,
        trajectories=trajectories,
        base_seed=base_seed,
        workers=workers,
        experiment=merged["experiment"],
        config_hash=config_hash(merged),
    )


def galerkin_config(run: RunConfig, n: int | None = None, **overrides):
    """GalerkinConfig for one level of a run (probes etc. via overrides)."""
    kw = dict(
        basis=run.basis,
        n=run.n if n is None else n,
        dt=run.dt,
        T=run.T,
        u0=run.u0,
        model=run.model,
        forcing=run.forcing,
        cutoff_level=run.cutoff_level,
        seed=run.base_seed,
        snapshot_stride=run.snapshot_stride,
        integral_snapshot_stride=run.integral_snapshot_stride,
        scheme=run.scheme,
    )
    kw.update(overrides)
    return GalerkinConfig(**kw)
