import hashlib
import json
import math
import os
import re
import struct
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from sgns import cli, galerkin, noise, tightness, twodim
from sgns.cli import VERBS, main, run_command
from sgns.config import EXPERIMENT, ConfigError, load_config
from sgns.io import read_snapshot, write_snapshot
from sgns.noise import HarmonicField, NoiseModel
from sgns.spectral import Basis, SpaceScale, SpectralField, TorusDomain, random_field

DEMOS = Path(__file__).resolve().parents[1] / "demos" / "configs"

TINY = {
    "domain": {"d": 2, "K": 3},
    "galerkin": {"n": 8, "dt": 1e-3, "T": 0.02, "snapshot_stride": 10,
                 "u0": {"kind": "random", "modes": 6, "seed": 3}},
    "ensemble": {"trajectories": 8, "base_seed": 5},
}


def write_cfg(tmp_path, extra=None, name="cfg.json"):
    cfg = json.loads(json.dumps(TINY))
    for key, val in (extra or {}).items():
        if isinstance(val, dict):
            cfg.setdefault(key, {}).update(val)
        else:
            cfg[key] = val
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def assert_float_cells(rows):
    # every data cell is a plain number, e.g. not np.float64(0.5)
    for row in rows:
        for cell in row.split(","):
            float(cell)


def test_defaults_fill_in(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("{}")
    run = load_config(path)
    assert run.basis.domain.d == 2
    assert run.basis.domain.K == 8
    assert abs(run.basis.scale.s - 2.5) < 1e-15
    assert abs(run.basis.scale.s_U - 4.5) < 1e-15
    assert run.galerkin.model is not None and run.galerkin.model.M == 1
    assert run.n == 16


def test_unknown_key_rejected(tmp_path):
    path = write_cfg(tmp_path, {"galerkin": {"dt_max": 1.0}})
    with pytest.raises(ConfigError, match=r"galerkin\.dt_max"):
        load_config(path)


def test_unknown_experiment_key_rejected(tmp_path):
    path = write_cfg(tmp_path, {"experiment": {"z_bnd": 5.0}})
    with pytest.raises(ConfigError, match=r"unknown key experiment\.z_bnd"):
        load_config(path)


def test_experiment_not_a_table_rejected(tmp_path):
    path = write_cfg(tmp_path, {"experiment": [5.0]})
    with pytest.raises(ConfigError, match="section experiment must be a table"):
        load_config(path)


_B_CONST = HarmonicField.build(2, 2, const=[1.0, 0.0])
_B_K22 = HarmonicField.build(2, 2, harmonics=[((2, 2), [0.1, 0.0], None)])
# each demo config's noise model, built by hand (spaces.json takes the default)
DEMO_MODELS = {
    "default.json": NoiseModel(d=2, directions=((_B_CONST, None),)),
    "estimates.json": NoiseModel(d=2, directions=((_B_CONST, None), (_B_K22, None))),
    "spaces.json": NoiseModel(d=2, directions=((_B_CONST, None),)),
    "threed.json": NoiseModel(d=3, directions=(
        (HarmonicField.build(3, 3, const=[0.5, 0.5, 0.5]), None),
        (HarmonicField.build(3, 3, harmonics=[((1, 1, 0), [0.1, -0.1, 0.0], None)]), None),
    )),
    "tightness.json": NoiseModel(d=2, directions=((_B_CONST, None), (_B_K22, None))),
    "uniqueness.json": NoiseModel(d=2, directions=((_B_CONST, None),)),
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.json")))
def test_demo_configs_load(name):
    assert load_config(DEMOS / name).galerkin.model == DEMO_MODELS[name]


def test_cli_start_up_loads_no_scipy():
    # a fresh interpreter, since the trend tests load scipy here.  Nor the
    # shared-memory module, whose first segment starts a tracker process
    code = ("import sys, sgns.cli\n"
            "from sgns.config import load_config\n"
            "for path in sys.argv[1:]:\n"
            "    load_config(path)\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy') or m in\n"
            "             ('multiprocessing.shared_memory', 'multiprocessing.resource_tracker')))")
    configs = sorted(str(p) for p in DEMOS.glob("*.json"))
    assert configs
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, *configs], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_uniqueness_loads_no_numpy_ma(tmp_path):
    # np.median imports numpy.ma for its NaN check; the verb's medians do not
    path = write_cfg(tmp_path, {"experiment": {"certify_samples": 200}})
    code = ("import sys\n"
            "from sgns.cli import main\n"
            "code = main(['uniqueness', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print(code, 'numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["median_ratio_T"] > 0.0


@pytest.mark.parametrize("verb", ["uniqueness", "ensemble", "certify-noise", "spaces"])
def test_verb_loads_no_numpy_ma_nor_scipy(tmp_path, verb):
    # a first call that imports a module costs milliseconds: a bare np.unique
    # or np.median imports numpy.ma, and none of these verbs needs scipy
    # (certify-noise polishes a sup with scipy only for variable coefficients)
    path = write_cfg(tmp_path, {"experiment": {"certify_samples": 200}})
    code = ("import sys\n"
            "from sgns.cli import run_command\n"
            "from sgns.config import load_config\n"
            "code = run_command(sys.argv[1], load_config(sys.argv[2]), sys.argv[3], workers=1)\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.ma'))")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, verb, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


def test_tightness_loads_no_numpy_ma(tmp_path):
    # np.percentile imports numpy.ma on its first call; the Aldous
    # threshold and hitting levels take `estimates.percentile`
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"].update(n_list=[4], T=0.25)
    cfg["ensemble"].update(trajectories=8, workers=1)
    cfg["experiment"]["deltas"] = [2.0**-10, 2.0**-8, 2.0**-6]
    path = tmp_path / "tightness.json"
    path.write_text(json.dumps(cfg))
    code = ("import sys\n"
            "from sgns.cli import main\n"
            "code = main(['tightness', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "print('numpy.ma' in sys.modules)")
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run([sys.executable, "-c", code, str(path), str(tmp_path / "out")],
                          capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-1] == "False"
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "aldous_passed" in summary["levels"]["4"]


@pytest.mark.parametrize("section, key, value", [
    ("galerkin", "dt", "abc"),
    ("galerkin", "T", None),
    ("galerkin", "snapshot_stride", "x"),
    ("galerkin", "cutoff_level", "abc"),
    ("galerkin", "cutoff_level", 0),
    ("galerkin", "cutoff_level", -1.0),
    ("ensemble", "trajectories", 1.5),
    ("ensemble", "base_seed", "x"),
    ("experiment", "z_bound", "three"),
    ("experiment", "z_bound", True),
    ("experiment", "samples", 1.5),
    ("experiment", "p_list", 2.0),
    ("experiment", "gamma", None),
    ("experiment", "integral_stride", 0),
    ("experiment", "eta0", 1),
    ("experiment", "eta0", 0.0),
    ("experiment", "eta", 2.5),
    ("experiment", "eta", 0),
    ("experiment", "alpha", 1.5),
    ("experiment", "alpha", 0.0),
    ("domain", "K", 3.7),
    ("domain", "d", "2"),
    ("scale", "s", "2.5"),
    ("scale", "s_U", "4.5"),
    ("noise", "eps", "0.5"),
    pytest.param("experiment", "deltas", [0.01, -0.01], id="experiment-deltas-negative"),
    pytest.param("experiment", "thetas", [0.0625, 0.0], id="experiment-thetas-zero"),
    pytest.param("experiment", "scaling_windows", [-0.008], id="experiment-scaling_windows-negative"),
    pytest.param("experiment", "scaling_windows", [0.0, 0.008], id="experiment-scaling_windows-zero"),
    pytest.param("experiment", "phi_norms", [1.0, 0.0, 2.0], id="experiment-phi_norms-zero"),
    pytest.param("experiment", "phi_norms", [-1.0], id="experiment-phi_norms-negative"),
])
def test_bad_value_rejected_at_load(tmp_path, section, key, value):
    path = write_cfg(tmp_path, {section: {key: value}})
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field, key, value", [
    ("u0", "seed", 1.5),
    ("u0", "seed", -1),
    ("u0", "modes", "4"),
    ("u0", "amplitude", None),
    ("u0", "decay", "0.5"),
    ("forcing", "mode_id", 2.5),
    ("forcing", "amplitude", "1"),
])
def test_bad_field_spec_rejected_at_load(tmp_path, field, key, value):
    kind = "random" if field == "u0" else "mode"
    path = write_cfg(tmp_path, {"galerkin": {field: {"kind": kind, key: value}}})
    with pytest.raises(ConfigError, match=rf"galerkin\.{field}\.{key} must be"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def assert_load_names(tmp_path, extra, key):
    """The config loads as a ConfigError naming `key`, and sgns exits 2."""
    path = write_cfg(tmp_path, extra)
    with pytest.raises(ConfigError, match=re.escape(key) + " must be"):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("period", [[True, True], [float("nan"), 6.0], [float("inf"), 6.0], "6", [1, 2, 3], [6]])
def test_bad_period_rejected_at_load(tmp_path, period):
    assert_load_names(tmp_path, {"domain": {"period": period}}, "domain.period")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "1"])
@pytest.mark.parametrize("key", ["const", "cos", "sin"])
def test_bad_noise_amplitude_rejected_at_load(tmp_path, key, value):
    if key == "const":
        b, name = {"const": [value, 0.0]}, "noise.directions[0].b.const"
    else:
        b = {"const": [1.0, 0.0], "harmonics": [{"k": [1, 0], key: [0.1, value]}]}
        name = f"noise.directions[0].b.harmonics[0].{key}"
    assert_load_names(tmp_path, {"noise": {"directions": [{"b": b}]}}, name)


def test_fractional_harmonic_wavevector_rejected_at_load(tmp_path):
    b = {"const": [1.0, 0.0], "harmonics": [{"k": [1.5, 0], "cos": [0.1, 0.0]}]}
    assert_load_names(tmp_path, {"noise": {"directions": [{"b": b}]}},
                      "noise.directions[0].b.harmonics[0].k")


def test_noise_direction_that_is_not_a_table_rejected_at_load(tmp_path):
    path = write_cfg(tmp_path, {"noise": {"directions": [5]}})
    with pytest.raises(ConfigError, match=re.escape("noise.directions[0] must be a table")):
        load_config(path)
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_every_bad_noise_coefficient_named_at_its_key(tmp_path):
    # a shape error, a zero wavevector, a non-table entry and an unknown key,
    # each at its dotted key and all in one error
    path = write_cfg(tmp_path, {"noise": {"directions": [
        {"b": {"const": [1.0, 0.0, 0.0]}},
        {"b": {"const": [1.0, 0.0]}, "c": {"harmonics": [{"k": [0, 0], "cos": [0.1]}]}},
        "b",
        {"b": {"const": [1.0, 0.0], "harmonic": []}},
    ]}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert exc.value.violations == [
        "noise.directions[0].b: constant term must have 2 components",
        "noise.directions[1].c: harmonic wavevector (0, 0) must be nonzero of length 2",
        "noise.directions[2] must be a table",
        "unknown key noise.directions[3].b.harmonic",
    ]
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


def test_typed_noise_and_period_build_the_same_run(tmp_path):
    b = {"const": [1, 0], "harmonics": [{"k": [1.0, 2], "cos": [0.1, 0], "sin": [0, 0.2]}]}
    run = load_config(write_cfg(tmp_path, {"domain": {"period": [6, 6.5]},
                                           "noise": {"directions": [{"b": b, "c": {"const": [0.3]}}]}}))
    assert run.basis.domain.period == (6.0, 6.5)
    (bf, cf), = run.galerkin.model.directions
    assert bf.const == (1.0, 0.0) and bf.harmonics == (((1, 2), (0.1, 0.0), (0.0, 0.2)),)
    assert cf.const == (0.3,)


def test_mode_field_spec(tmp_path):
    mode = {"kind": "mode", "mode_id": 2, "amplitude": 0.5}
    run = load_config(write_cfg(tmp_path, {"galerkin": {"u0": mode, "forcing": mode}}))
    expect = 0.5 * run.basis.basis_field(2)
    assert np.array_equal(run.galerkin.u0.coeffs, expect.coeffs)
    assert np.array_equal(run.galerkin.forcing.coeffs, expect.coeffs)
    n_modes = run.basis.n_modes
    path = write_cfg(tmp_path, {"galerkin": {"u0": {**mode, "mode_id": n_modes}}})
    with pytest.raises(ConfigError, match=rf"galerkin\.u0\.mode_id outside \[0, {n_modes}\)"):
        load_config(path)


def test_level_and_scheme_violations_listed(tmp_path):
    # the stepper has one scheme, and the schema no scheme key: a config that
    # asks for another scheme is rejected with the other violations, not run
    # under Euler-Maruyama.  Nor has it an integral snapshot stride, which
    # no verb reads: tightness takes experiment.integral_stride, and no
    # other verb records a running integral
    path = write_cfg(tmp_path, {"galerkin": {"n_list": [4, 99], "scheme": "exponential", "dt": 3e-3,
                                             "integral_snapshot_stride": 3}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    text = "\n".join(exc.value.violations)
    assert "galerkin: n = 99 outside [1, " in text
    assert "unknown key galerkin.scheme" in text
    assert "unknown key galerkin.integral_snapshot_stride" in text
    assert "whole number of steps" in text
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("verb", ["estimates", "tightness"])
def test_repeated_levels_are_rejected_at_load(tmp_path, verb):
    # estimates would count [4, 4, 8] as three levels and tightness would
    # step n = 4 twice: each repeated level is named before any work starts
    path = write_cfg(tmp_path, {"galerkin": {"n_list": [4, 8, 4, 8, 8, 2]}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    repeats = [v for v in exc.value.violations if "n_list" in v]
    assert repeats == ["galerkin.n_list repeats level 4", "galerkin.n_list repeats level 8"]
    out = tmp_path / "out"
    assert main([verb, "--config", str(path), "--out", str(out)]) == 2
    assert not (out / "summary.json").exists()


def test_experiment_defaults_and_kinds(tmp_path):
    run = load_config(write_cfg(tmp_path, {"experiment": {"samples": 1e4, "z_bound": 5}}))
    assert set(run.experiment) == set(EXPERIMENT)
    assert run.experiment["samples"] == 10000 and type(run.experiment["samples"]) is int
    assert run.experiment["z_bound"] == 5.0 and type(run.experiment["z_bound"]) is float
    for key, (_, default) in EXPERIMENT.items():
        if key not in ("samples", "z_bound"):
            assert run.experiment[key] == default


def test_estimates_writes_integral_exponents_as_given(tmp_path):
    path = write_cfg(tmp_path, {"galerkin": {"n_list": [2, 4, 6]},
                                "experiment": {"p_list": [2, 3], "eta": 1}})
    assert load_config(path).experiment["p_list"] == [2, 3]
    main(["estimates", "--config", str(path), "--out", str(tmp_path / "out")])
    rows = (tmp_path / "out" / "moment_estimates.csv").read_text().splitlines()[1:]
    assert {row.split(",")[1] for row in rows} == {"2", "3"}
    warnings = json.loads((tmp_path / "out" / "summary.json").read_text())["warnings"]
    assert warnings == ["p = 3 outside the admissible range [2.0, 3.0) for eta = 1"]


class _RecordingDict(dict):
    def __init__(self, data, reads):
        super().__init__(data)
        self.reads = reads

    def __getitem__(self, key):
        self.reads.add(key)
        return super().__getitem__(key)


def test_verbs_read_exactly_the_experiment_table(tmp_path):
    tightness = json.loads((DEMOS / "tightness.json").read_text())
    tightness["galerkin"].update(n_list=[4], T=0.25)
    tightness["ensemble"]["trajectories"] = 8
    # the default windows T 2^-10.. reach below one step at T = 0.25
    tightness["experiment"]["deltas"] = [2.0**-10, 2.0**-8, 2.0**-6]
    configs = {
        "verify-operators": {"experiment": {"samples": 3}},
        "certify-noise": {"noise": {"eps": 0.5}, "experiment": {"samples": 50}},
        "estimates": {"galerkin": {"n_list": [2, 4, 6]}},
        "tightness": tightness,
        "uniqueness": {"experiment": {"certify_samples": 50, "twin_trajectories": 1}},
        "spaces": {"experiment": {"levels": 4, "samples": 50}},
    }
    reads = set()
    for verb in VERBS:
        cfg = configs.get(verb, {})
        run = load_config(cfg if verb == "tightness" else write_cfg(tmp_path, cfg, f"{verb}.json"))
        run.experiment = _RecordingDict(run.experiment, reads)
        run_command(verb, run, tmp_path / verb, workers=1)
    assert reads == set(EXPERIMENT)


def test_only_the_energy_verbs_record_the_ledger(tmp_path, monkeypatch):
    # each verb records what it reads: `energy_budget_check` reads the
    # energy ledger, and only simulate and ensemble call it; the tightness
    # scaling table reads the noise integral; no verb reads another
    # running integral
    tight = json.loads((DEMOS / "tightness.json").read_text())
    tight["galerkin"].update(n_list=[4], T=0.25)
    tight["ensemble"]["trajectories"] = 8
    tight["experiment"]["deltas"] = [2.0**-10, 2.0**-8, 2.0**-6]
    configs = {
        "simulate": write_cfg(tmp_path, name="simulate.json"),
        "ensemble": write_cfg(tmp_path, name="ensemble.json"),
        "estimates": write_cfg(tmp_path, {"galerkin": {"n_list": [2, 4, 6]}}, "estimates.json"),
        "tightness": tight,
        "uniqueness": write_cfg(tmp_path, {"experiment": {"certify_samples": 50, "twin_trajectories": 1}},
                                "uniqueness.json"),
    }
    walk, seen = galerkin.step_chunks, []

    def spy(config, *args, **kwargs):
        seen.append(config.records)
        return walk(config, *args, **kwargs)

    # the one stepper, at the Ensemble writer's and the uniqueness twins' call
    monkeypatch.setattr(galerkin, "step_chunks", spy)
    monkeypatch.setattr(twodim, "step_chunks", spy)
    records = {}
    for verb, cfg in configs.items():
        seen.clear()
        run_command(verb, load_config(cfg), tmp_path / verb, workers=1)
        records[verb] = set(seen)
    ledger, noise = frozenset({"ledger"}), frozenset({"integral_noise"})
    assert records == {"simulate": {ledger | {"states"}}, "ensemble": {ledger}, "estimates": {frozenset()},
                       "tightness": {noise}, "uniqueness": {frozenset()}}


def test_seed_override_matches_configured_seed(tmp_path):
    base = write_cfg(tmp_path)
    seeded = write_cfg(tmp_path, {"ensemble": {"base_seed": 9}}, "seeded.json")
    codes = [main(["ensemble", "--config", str(path), "--out", str(tmp_path / out), *extra])
             for path, out, extra in ((base, "o5", []), (base, "cli", ["--seed", "9"]),
                                      (seeded, "cfg", []))]
    assert codes[1] == codes[2]
    csv = [(tmp_path / d / "functionals.csv").read_bytes() for d in ("cli", "cfg", "o5")]
    assert csv[0] == csv[1] != csv[2]
    summaries = [json.loads((tmp_path / d / "summary.json").read_text()) for d in ("cli", "cfg")]
    assert summaries[0]["seed"] == 9
    # the hash is over the config document, which differs in base_seed alone
    assert summaries[0].pop("config_hash") != summaries[1].pop("config_hash")
    assert summaries[0] == summaries[1]
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--config", str(base), "--out", str(tmp_path / "neg"), "--seed", "-1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_worker_count_below_one_rejected(tmp_path, capsys, workers):
    # as `ensemble.workers` below 1 is refused at load
    with pytest.raises(SystemExit) as exc:
        main(["ensemble", "--config", str(write_cfg(tmp_path)), "--out", str(tmp_path / "out"),
              "--workers", workers])
    assert exc.value.code == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("workers", [0, -3])
def test_run_command_rejects_a_worker_count_below_one(tmp_path, workers):
    run = load_config(write_cfg(tmp_path))
    with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
        run_command("ensemble", run, tmp_path / "out", workers=workers)
    assert not (tmp_path / "out").exists()


def test_cfl_gate_rejected(tmp_path):
    path = write_cfg(tmp_path, {"galerkin": {"dt": 0.1, "T": 1.0, "n": 48}})
    with pytest.raises(ConfigError, match="stability gate"):
        load_config(path)


def test_partial_last_step_rejected(tmp_path):
    path = write_cfg(tmp_path, {"galerkin": {"dt": 3e-3, "T": 1.0}})
    with pytest.raises(ConfigError, match="whole number of steps"):
        load_config(path)


def test_all_violations_reported(tmp_path):
    path = write_cfg(tmp_path, {"galerkin": {"dt_max": 1.0, "dt": 0.5},
                                "ensemble": {"trajectories": 0},
                                "experiment": {"levels": 4, "phi_norms": [1.0, 2.0, 0.5]}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert len(exc.value.violations) >= 4
    # spaces takes one level per Phi-norm: an explicit count that disagrees
    # is named, not ignored
    assert "experiment.levels must be 3, the length of experiment.phi_norms, got 4" in exc.value.violations


def test_config_hash_key_order_invariant(tmp_path):
    p1 = tmp_path / "a.json"
    p1.write_text('{"domain": {"d": 2, "K": 3}, "galerkin": {"n": 8, "T": 0.02}}')
    p2 = tmp_path / "b.json"
    p2.write_text('{"galerkin": {"T": 0.02, "n": 8}, "domain": {"K": 3, "d": 2}}')
    assert load_config(p1).config_hash == load_config(p2).config_hash


def test_snapshot_roundtrip(basis2d_small, rng, tmp_path):
    u = random_field(basis2d_small, rng)
    path = tmp_path / "field.bin"
    write_snapshot(path, u, n=10)
    v, n = read_snapshot(path, basis2d_small)
    assert n == 10
    assert np.array_equal(u.coeffs, v.coeffs)


def test_snapshot_bytes_are_pinned(tmp_path):
    # a fixed field on the 2D K = 2 basis: 12 lattice rows, one polarization,
    # so 12 real modes and 6 slots
    basis = Basis(TorusDomain(d=2, K=2), SpaceScale(d=2))
    s = np.arange(basis.n_slots)
    u = SpectralField(basis, (s + 1) / 8 - 1j * (s - 3) / 4)
    path = tmp_path / "snap.bin"
    write_snapshot(path, u, n=5)
    raw = path.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == "95c8965add956a734bf6be1986c24dd7bcc952b27971936d9eb7b28fa06d7f61"
    # the layout of README's "Snapshot binary layout", little-endian
    assert raw[:8] == b"SGNSNAP1"
    d, K, n, n_modes, n_slots = struct.unpack_from("<5I", raw, 8)
    assert (d, K, n, n_modes, n_slots) == (2, 2, 5, 24, 12)
    off = 28
    assert np.frombuffer(raw, "<f8", d, off).tolist() == [2 * math.pi] * 2
    off += 8 * d
    table = np.frombuffer(raw, "<i8", n_modes * (d + 1), off).reshape(n_modes, d + 1)
    off += table.nbytes
    # (k, p) for each mode, in mode order: lattice rows by (|k|^2, k), each
    # row's one polarization p = 0
    ks = sorted(((i, j) for i in range(-2, 3) for j in range(-2, 3) if (i, j) != (0, 0)),
                key=lambda k: (k[0] ** 2 + k[1] ** 2, k))
    assert table.tolist() == [[i, j, 0] for i, j in ks]
    amps = np.frombuffer(raw, "<f8", 2 * n_slots, off).reshape(n_slots, 2)
    assert off + amps.nbytes == len(raw)
    assert np.array_equal(amps[:, 0] + 1j * amps[:, 1], u.coeffs)


def test_snapshot_rejects_mismatched_basis(basis2d_small, basis3d_small, rng, tmp_path):
    u = random_field(basis2d_small, rng)
    path = tmp_path / "field.bin"
    write_snapshot(path, u)
    with pytest.raises(ValueError):
        read_snapshot(path, basis3d_small)


def test_verify_operators_verb(tmp_path):
    path = write_cfg(tmp_path, {"experiment": {"samples": 25}})
    run = load_config(path)
    code = run_command("verify-operators", run, tmp_path / "out")
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is True
    assert summary["config_hash"] == run.config_hash
    assert (tmp_path / "out" / "operator_identities.csv").exists()


def test_certify_noise_verb(tmp_path):
    path = write_cfg(tmp_path, {"noise": {"eps": 0.5}, "experiment": {"samples": 300}})
    run = load_config(path)
    code = run_command("certify-noise", run, tmp_path / "out")
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert abs(summary["eta"] - 0.5) < 1e-12
    assert abs(summary["lam0"] - 1.5) < 1e-12
    # the exact values: b = (1, 0) has L = 1 and, at K = 3, the growth sup
    # 3^2 / (1 + 3^2) = 0.9; no sampled value or count is reported
    assert summary["lipschitz_L"] == 1.0
    assert abs(summary["gstar_constant"] - 0.9) < 1e-12
    assert summary["gstar_margin"] == summary["gstar_analytic_bound"] - summary["gstar_constant"]
    assert summary["coercivity_margin"] > 0.0
    assert summary["passed"] is True
    for key in ("rho", "gstar_sampled", "gstar_violations", "lipschitz_L_sampled", "coercivity_violations",
                "samples"):
        assert key not in summary


@pytest.mark.parametrize("gstar, margin", [(4.0 + 1e-6, 2.0), (0.9, -1e-6)], ids=["growth", "coercivity"])
def test_certify_noise_verb_gates_on_the_exact_margins(tmp_path, monkeypatch, gstar, margin):
    # an exact growth sup above the analytic bound 4, or a negative
    # coercivity margin, fails the verb, which reports the value it read
    monkeypatch.setattr(cli, "exact_constants", lambda *a: noise.ExactConstants(1.0, gstar, margin))
    path = write_cfg(tmp_path, {"noise": {"eps": 0.5}, "experiment": {"samples": 100}})
    assert run_command("certify-noise", load_config(path), tmp_path / "out") == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["gstar_constant"] == gstar and summary["gstar_margin"] == 4.0 - gstar
    assert summary["coercivity_margin"] == margin
    assert "coercivity_violations" not in summary and "gstar_violations" not in summary
    assert summary["passed"] is False


@pytest.mark.parametrize("verb, name", [("certify-noise", "default.json"), ("certify-noise", "threed.json"),
                                        ("spaces", "spaces.json")])
def test_exact_certificates_make_no_generator(tmp_path, monkeypatch, verb, name):
    # both verdicts rest on exact values, so neither verb draws a random
    # number; verify-operators, which samples its fields, shows the spy works
    run = load_config(DEMOS / name)
    calls = []
    make = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a, **k: calls.append(a) or make(*a, **k))
    run.experiment["samples"] = 3
    run_command("verify-operators", run, tmp_path / "control")
    assert calls
    calls.clear()
    assert run_command(verb, run, tmp_path / "out", workers=1) == 0
    assert calls == []


def test_certify_noise_rejects_degenerate(tmp_path):
    bad = {
        "noise": {"directions": [
            {"b": {"const": [1.4142135623730951, 0.0]}, "c": None},
            {"b": {"const": [0.0, 1.4142135623730951]}, "c": None},
        ]},
        "experiment": {"samples": 50},
    }
    path = write_cfg(tmp_path, bad)
    run = load_config(path)
    code = run_command("certify-noise", run, tmp_path / "out")
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert "coercivity" in summary["failure"]


def test_simulate_verb_writes_snapshots(tmp_path):
    path = write_cfg(tmp_path)
    run = load_config(path)
    code = run_command("simulate", run, tmp_path / "out")
    assert code == 0
    snaps = sorted((tmp_path / "out" / "snapshots").glob("*.bin"))
    assert len(snaps) == 3  # steps 0, 10, 20
    field, n = read_snapshot(snaps[0], run.basis)
    assert n == 8


def test_ensemble_verb_and_worker_determinism(tmp_path):
    path = write_cfg(tmp_path)
    run = load_config(path)
    assert run_command("ensemble", run, tmp_path / "o1", workers=1) == 0
    assert run_command("ensemble", run, tmp_path / "o2", workers=2) == 0
    b1 = (tmp_path / "o1" / "summary.json").read_bytes()
    b2 = (tmp_path / "o2" / "summary.json").read_bytes()
    assert b1 == b2
    c1 = (tmp_path / "o1" / "functionals.csv").read_bytes()
    c2 = (tmp_path / "o2" / "functionals.csv").read_bytes()
    assert c1 == c2


@pytest.mark.parametrize("workers", [1, 2])
def test_ensemble_energy_report_keeps_its_bits(tmp_path, workers):
    # `sgns ensemble` on the default demo config: the energy residual and
    # the Ito z-score are the bits of the per-step ledger arrays this
    # ensemble was checked with before the stepper reduced them per path
    out = tmp_path / "out"
    assert main(["ensemble", "--config", str(DEMOS / "default.json"), "--out", str(out),
                 "--workers", str(workers)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert float(summary["energy_residual"]).hex() == "0x1.01053b7fe7270p-50"
    assert float(summary["ito_zscore"]).hex() == "-0x1.1eaf45f4dc9d6p-1"


def test_tightness_verb_and_worker_determinism(tmp_path):
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["n_list"] = [4, 8]
    cfg["ensemble"]["trajectories"] = 32
    run = load_config(cfg)
    # 3 workers split 32 paths unevenly: blocks of 11, 11 and 10
    codes = [run_command("tightness", run, tmp_path / f"w{w}", workers=w) for w in (1, 2, 3)]
    assert codes[0] == codes[1] == codes[2]
    names = ["summary.json", "modulus.csv", "aldous.csv", "noise_increment_scaling.csv"]
    for name in names:
        for w in (2, 3):
            assert (tmp_path / "w1" / name).read_bytes() == (tmp_path / f"w{w}" / name).read_bytes()
    summary = json.loads((tmp_path / "w1" / "summary.json").read_text())
    assert summary["verb"] == "tightness"
    assert set(summary["levels"]) == {"4", "8"}
    for name in names[1:]:
        rows = (tmp_path / "w1" / name).read_text().splitlines()[1:]
        assert {row.split(",")[0] for row in rows} == {"4", "8"}
        assert_float_cells(rows)


def test_tightness_verb_reads_its_windows_in_any_order(tmp_path):
    # the Aldous threshold is calibrated at the smallest window, so the
    # windows in ascending and in descending order write one bundle
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["n_list"] = [8]
    cfg["ensemble"]["trajectories"] = 40
    thetas = [cfg["galerkin"]["T"] * 2.0**-j for j in range(8, 3, -1)]
    for name, order in (("up", thetas), ("down", thetas[::-1])):
        cfg["experiment"]["thetas"] = order
        run_command("tightness", load_config(cfg), tmp_path / name, workers=1)
    up, down = (json.loads((tmp_path / name / "summary.json").read_text()) for name in ("up", "down"))
    assert up.pop("config_hash") != down.pop("config_hash")
    assert up == down
    for name in ("modulus.csv", "aldous.csv", "noise_increment_scaling.csv"):
        assert (tmp_path / "up" / name).read_bytes() == (tmp_path / "down" / name).read_bytes()


def test_tightness_verb_records_the_lag_maxima_it_reads(tmp_path, monkeypatch):
    # the pool workers record the lag maxima of the largest window, which the
    # modulus table reads
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["n_list"] = [4, 8]
    cfg["ensemble"]["trajectories"] = 16
    run = load_config(cfg)
    recorded, read = [], tightness.FunctionFamily.lag_maxima

    def spy(fam, max_lag):
        recorded.append(fam.ens.lag_maxima.shape)
        return read(fam, max_lag)

    monkeypatch.setattr(tightness.FunctionFamily, "lag_maxima", spy)
    run_command("tightness", run, tmp_path / "stored", workers=2)
    # the demo's largest window is T / 16 = 64 steps
    assert recorded == [(16, 64), (16, 64)]


def test_tightness_verb_records_on_one_snapshot_grid(tmp_path, monkeypatch):
    # each level's ensemble is snapshotted every experiment.integral_stride
    # steps and records the noise integral alone, on that one grid, and no
    # state; the increments it reads are of every step
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["n_list"] = [4, 8]
    cfg["ensemble"]["trajectories"] = 16
    run = load_config(cfg)
    seen, integrate = [], cli.integrate_ensemble

    def spy(config, n_traj, workers=1):
        ens = integrate(config, n_traj, workers=workers)
        seen.append((config, ens.snap_integrals["noise"].shape, ens.snap_u.shape, ens.increment_norms.shape))
        return ens

    monkeypatch.setattr(cli, "integrate_ensemble", spy)
    run_command("tightness", run, tmp_path / "out", workers=2)
    steps = run.galerkin.steps
    assert run.experiment["integral_stride"] == 8 and steps == 1024
    assert [config.n for config, *_ in seen] == [4, 8]
    for config, noise, states, increments in seen:
        assert config.snapshot_stride == run.experiment["integral_stride"]
        assert config.records == {"integral_noise"}
        assert noise == (16, steps // 8 + 1, config.n)
        assert states == (16, 0, config.n)
        assert increments == (16, len(config.increment_lags), steps + 1)


def tightness_failure(tmp_path, cfg, monkeypatch) -> str:
    """The failure text of a tightness run that must stop before it
    integrates a level; its exit status is 1 and its summary is written."""
    def integrate(*args, **kwargs):
        raise AssertionError("the tightness verb integrated a level")

    monkeypatch.setattr(cli, "integrate_ensemble", integrate)
    assert run_command("tightness", load_config(cfg), tmp_path / "out", workers=1) == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["verb"] == "tightness" and summary["passed"] is False
    return summary["failure"]


@pytest.mark.parametrize("name, anchor", [("default", "0.125"), ("spaces", "0.00125"),
                                          ("uniqueness", "0.0625"), ("estimates", "0.125")])
def test_tightness_verb_rejects_anchors_off_the_integral_grid(tmp_path, monkeypatch, name, anchor):
    # the default anchors T/8.. off the snapshot grid, every 8 steps of
    # dt = 1e-3
    failure = tightness_failure(tmp_path, DEMOS / f"{name}.json", monkeypatch)
    assert f"experiment.scaling_anchors: anchor {anchor} is not on the snapshot grid" in failure


def test_tightness_verb_rejects_windows_off_the_integral_grid(tmp_path, monkeypatch):
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["experiment"].update(scaling_anchors=[0.125], scaling_windows=[0.0078125, 0.01])
    failure = tightness_failure(tmp_path, cfg, monkeypatch)
    assert failure.startswith("experiment.scaling_windows: anchor 0.125 + window 0.01 = 0.135 is not on")


@pytest.mark.parametrize("deltas, short", [(None, "0.000244140625, 0.00048828125"),
                                           ([0.0009, 0.01], "0.0009")])
def test_tightness_verb_rejects_windows_below_one_step(tmp_path, monkeypatch, deltas, short):
    # dt = 2^-10: at T = 0.25 the default windows start at T 2^-10 = 2^-12
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["T"] = 0.25
    cfg["experiment"]["deltas"] = deltas
    failure = tightness_failure(tmp_path, cfg, monkeypatch)
    assert failure == f"experiment.deltas: window(s) {short} shorter than one step 0.0009765625"


def test_tightness_verb_rejects_thetas_below_one_step(tmp_path, monkeypatch):
    # an Aldous window below one step reads no increment: every exceedance
    # probability would be 0 and the gate would pass
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["T"] = 0.25
    cfg["experiment"].update(deltas=[0.0009, 0.01], thetas=[1e-4, 2e-4, 3e-4, 0.001])
    failure = tightness_failure(tmp_path, cfg, monkeypatch)
    assert failure == ("experiment.deltas: window(s) 0.0009 shorter than one step 0.0009765625; "
                       "experiment.thetas: window(s) 0.0001, 0.0002, 0.0003 shorter than one step "
                       "0.0009765625")


def test_tightness_verb_rejects_a_threshold_window_past_the_horizon(tmp_path, monkeypatch):
    # the Aldous threshold is calibrated at the smallest window, which must
    # hold an increment: 0.5 is 512 steps of dt = 2^-10, past T = 0.25; a
    # larger window alone is clipped to the horizon
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["T"] = 0.25
    cfg["experiment"].update(deltas=[2.0**-10, 2.0**-8, 2.0**-6], thetas=[1.0, 0.5])
    failure = tightness_failure(tmp_path, cfg, monkeypatch)
    assert failure == ("experiment.thetas: the smallest window 0.5, at which the Aldous threshold is "
                       "calibrated, is 512 steps, more than the 256 steps up to T = 0.25")
    grid = load_config(cfg).galerkin
    assert tightness.window_violations(grid, [2.0**-10], [0.25, 1.0], [], []) == []


def test_verbs_name_an_all_aborting_run(tmp_path):
    # u0 of amplitude 1e13 overflows at the first step of every path: each
    # verb that steps paths exits 1 with a failure named in its summary
    cfg = json.loads(json.dumps(TINY))
    cfg["galerkin"].update(n_list=[2, 4, 6], T=0.008)
    cfg["galerkin"]["u0"]["amplitude"] = 1e13
    cfg["ensemble"]["trajectories"] = 3
    cfg["experiment"] = {"integral_stride": 1, "deltas": [0.001, 0.002], "thetas": [0.002, 0.004],
                         "scaling_anchors": [0.002], "scaling_windows": [0.001, 0.002],
                         "certify_samples": 10, "twin_trajectories": 1}
    failures = {}
    for verb in ("simulate", "ensemble", "estimates", "tightness", "uniqueness"):
        assert run_command(verb, load_config(cfg), tmp_path / verb, workers=1) == 1, verb
        failures[verb] = json.loads((tmp_path / verb / "summary.json").read_text())["failure"]
    assert failures == {
        "simulate": "trajectory 0 aborted at step 1 of 8",
        "ensemble": "need at least 2 live trajectories at every level: n = 2 has 0",
        "estimates": "need at least 2 live trajectories at every level: n = 2 has 0, n = 4 has 0, n = 6 has 0",
        "tightness": "all 3 trajectories aborted at n = 2",
        "uniqueness": "trajectory 0 aborted during the uniqueness experiment",
    }


def test_ensemble_verb_names_too_few_paths(tmp_path, capsys):
    # spaces.json runs one trajectory, which has no standard error: the verb
    # writes a named failure and exits 1, with no traceback
    code = main(["ensemble", "--config", str(DEMOS / "spaces.json"), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert code == 1 and summary["passed"] is False and summary["trajectories"] == 1
    assert summary["failure"] == "need at least 2 live trajectories at every level: n = 8 has 1"
    assert "Traceback" not in capsys.readouterr().err


def test_estimates_verb_names_too_few_paths(tmp_path, capsys):
    # three levels of one trajectory each
    path = write_cfg(tmp_path, {"galerkin": {"n_list": [2, 4, 6]}, "ensemble": {"trajectories": 1}})
    code = main(["estimates", "--config", str(path), "--out", str(tmp_path / "out")])
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert code == 1 and summary["passed"] is False
    assert summary["failure"] == ("need at least 2 live trajectories at every level: "
                                  "n = 2 has 1, n = 4 has 1, n = 6 has 1")
    assert "Traceback" not in capsys.readouterr().err


def test_tightness_verb_names_a_level_the_noise_misses(tmp_path):
    # constant noise along e_1 alone: P_n G is zero on the first 8 modes of
    # the 3D lattice, so level 8 is one deterministic path and fails Aldous
    cfg = json.loads((DEMOS / "threed.json").read_text())
    cfg["noise"]["directions"] = [{"b": {"const": [1.0, 0.0, 0.0]}, "c": None}]
    cfg["galerkin"]["n_list"] = [8, 16]
    cfg["ensemble"]["trajectories"] = 8
    assert run_command("tightness", load_config(cfg), tmp_path, workers=1) == 1
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["levels"]["8"]["aldous_passed"] is False
    assert summary["failure"].startswith("no noise reaches level(s) n = 8:")
    # with the demo's noise every level passes and no failure is named
    cfg = json.loads((DEMOS / "threed.json").read_text())
    cfg["galerkin"]["n_list"] = [8]
    cfg["ensemble"]["trajectories"] = 8
    run_command("tightness", load_config(cfg), tmp_path / "noisy", workers=1)
    assert "failure" not in json.loads((tmp_path / "noisy" / "summary.json").read_text())


def test_spaces_verb(tmp_path):
    path = write_cfg(tmp_path, {"experiment": {"levels": 12, "samples": 500}})
    run = load_config(path)
    code = run_command("spaces", run, tmp_path / "out")
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    # the exact sup (1 - eta0)/(2 sqrt 3) sqrt(1 - 4^-N) and its margins;
    # no sample count nor violation count
    sup = 0.5 / (2.0 * math.sqrt(3.0)) * math.sqrt(1.0 - 4.0**-12)
    assert abs(summary["max_embedding_norm"] - sup) <= 1e-12 * sup
    assert summary["embedding_margin"] == summary["embedding_norm_bound"] - summary["max_embedding_norm"]
    assert summary["embedding_norm_bound"] == 0.5 and summary["tail_margin"] > 0.0
    for key in ("samples", "embedding_violations", "tail_violations"):
        assert key not in summary


def test_spaces_verb_reports_the_levels_phi_norms_give(tmp_path):
    # five Phi-norms fix five levels, over the default experiment.levels
    path = write_cfg(tmp_path, {"experiment": {"phi_norms": [1.0, 2.0, 0.5, 1.0, 3.0], "samples": 200}})
    assert run_command("spaces", load_config(path), tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["levels"] == 5
    rows = (tmp_path / "out" / "nested_space.csv").read_text().splitlines()
    assert len(rows) == 1 + 5


def test_uniqueness_verb(tmp_path):
    path = write_cfg(tmp_path, {
        "ensemble": {"trajectories": 10},
        "experiment": {"certify_samples": 200, "gamma": 1e-8, "twin_trajectories": 2},
    })
    run = load_config(path)
    code = run_command("uniqueness", run, tmp_path / "out")
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["twins_identical"] is True
    assert summary["median_ratio_T"] <= 1.1
    assert_float_cells((tmp_path / "out" / "weighted_ratios.csv").read_text().splitlines()[1:])


def test_uniqueness_verb_gates_max_L_L2_below_2(tmp_path):
    # b = (1, 0) with a constant c = 1.2 has the exact L = sqrt(1 + c^2)
    # = 1.56 in [sqrt 2, 2): it passes L < 2 but not L^2 < 2, so no Young
    # split eps > 0 exists; the verb fails on the gate, with a summary and
    # no traceback
    path = write_cfg(tmp_path, {
        "noise": {"directions": [{"b": {"const": [1.0, 0.0]}, "c": {"const": [1.2]}}]},
        "experiment": {"certify_samples": 200},
    })
    code = run_command("uniqueness", load_config(path), tmp_path / "out")
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert math.sqrt(2.0) <= summary["lipschitz_L"] < 2.0
    assert summary["passed"] is False
    assert summary["failure"] == f"noise Lipschitz gate max(L, L^2) < 2 failed at L = {summary['lipschitz_L']}"
    assert not (tmp_path / "out" / "weighted_ratios.csv").exists()


def test_uniqueness_verb_reports_the_exact_L_and_its_witness(tmp_path, monkeypatch):
    # the verb gates on the exact L and forms no coercivity pair; its
    # witness is drawn on the stepped level n, and a witness above L fails
    # the verb by name
    calls = []
    conditions = noise.noise_conditions
    for owner in (noise, cli):
        monkeypatch.setattr(owner, "noise_conditions", lambda *a, **k: calls.append(a) or conditions(*a, **k))
    path = write_cfg(tmp_path, {"experiment": {"certify_samples": 200, "twin_trajectories": 1}})
    assert run_command("uniqueness", load_config(path), tmp_path / "out") == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["lipschitz_L"] == 1.0
    assert 0.0 < summary["lipschitz_L_sampled"] <= 1.0
    assert summary["C_eps"] == 4.0
    assert calls == []
    monkeypatch.setattr(cli, "sampled_lipschitz", lambda *a: 1.0 + 1e-6)
    assert run_command("uniqueness", load_config(path), tmp_path / "high") == 1
    summary = json.loads((tmp_path / "high" / "summary.json").read_text())
    assert summary["failure"] == "sampled Lipschitz quotient 1.000001 exceeds the exact L = 1.0"
    assert not (tmp_path / "high" / "weighted_ratios.csv").exists()


def test_uniqueness_verb_peaks_below_one_sample_array(tmp_path):
    # K = 8: n_modes = 288, so one (certify_samples, n_modes) float64 array
    # of the demo's 2000 samples is 4.6 MB; the verb's traced peak stays
    # below it (the field sampler it no longer calls peaked at 10 MB)
    cfg = json.loads((DEMOS / "uniqueness.json").read_text())
    cfg["galerkin"]["T"] = 0.05
    cfg["ensemble"]["trajectories"] = 10
    run = load_config(cfg)
    tracemalloc.start()
    try:
        assert run_command("uniqueness", run, tmp_path / "out", workers=1) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.basis.n_modes == 288
    assert peak < run.experiment["certify_samples"] * run.basis.n_modes * 8


def test_uniqueness_verb_without_noise(tmp_path):
    path = write_cfg(tmp_path, {"noise": {"directions": []}})
    run = load_config(path)
    code = run_command("uniqueness", run, tmp_path / "out")
    assert code == 1
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["passed"] is False
    assert "no noise" in summary["failure"]


def test_cli_main_smoke(tmp_path):
    path = write_cfg(tmp_path, {"experiment": {"samples": 10}})
    code = main(["verify-operators", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_cli_bad_config_exit_code(tmp_path):
    path = write_cfg(tmp_path, {"galerkin": {"dt_max": 1.0}})
    code = main(["simulate", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 2


def test_console_entry_point(tmp_path):
    path = write_cfg(tmp_path, {"experiment": {"samples": 5}})
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sgns.cli", "verify-operators",
         "--config", str(path), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
