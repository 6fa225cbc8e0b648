import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sgns import cli, galerkin, tightness
from sgns.cli import VERBS, main, run_command
from sgns.config import EXPERIMENT, ConfigError, load_config
from sgns.io import read_snapshot, write_snapshot
from sgns.spectral import random_field

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


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.json")))
def test_demo_configs_load(name):
    load_config(DEMOS / name)


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
    with pytest.raises(ConfigError, match="noise: "):
        load_config(path)
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
    path = write_cfg(tmp_path, {"galerkin": {"n_list": [4, 99], "scheme": "rk4", "dt": 3e-3}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    text = "\n".join(exc.value.violations)
    assert "galerkin: n = 99 outside [1, " in text
    assert "galerkin.scheme must be 'em' or 'exponential'" in text
    assert "whole number of steps" in text


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
    integrate, seen = galerkin._integrate_rows, []

    def spy(ens, *args, **kwargs):
        seen.append(ens.config.records)
        return integrate(ens, *args, **kwargs)

    monkeypatch.setattr(galerkin, "_integrate_rows", spy)
    records = {}
    for verb, cfg in configs.items():
        seen.clear()
        run_command(verb, load_config(cfg), tmp_path / verb, workers=1)
        records[verb] = set(seen)
    ledger, noise = frozenset({"ledger"}), frozenset({"integral_noise"})
    assert records == {"simulate": {ledger}, "ensemble": {ledger}, "estimates": {frozenset()},
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
                                "ensemble": {"trajectories": 0}})
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert len(exc.value.violations) >= 3


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


def test_tightness_verb_records_the_lag_maxima_it_reads(tmp_path, monkeypatch):
    # the pool workers record the lag maxima of the largest window, which the
    # family reads
    cfg = json.loads((DEMOS / "tightness.json").read_text())
    cfg["galerkin"]["n_list"] = [4, 8]
    cfg["ensemble"]["trajectories"] = 16
    run = load_config(cfg)
    recorded = []

    class Family(tightness.FunctionFamily):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            recorded.append(self.stored_lag_maxima.shape)

    monkeypatch.setattr(tightness, "FunctionFamily", Family)
    run_command("tightness", run, tmp_path / "stored", workers=2)
    # the demo's largest window is T / 16 = 64 steps
    assert recorded == [(16, 64), (16, 64)]


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
    # the default anchors T/8.. off the grid of integral snapshots, every
    # 8 steps of dt = 1e-3
    failure = tightness_failure(tmp_path, DEMOS / f"{name}.json", monkeypatch)
    assert f"experiment.scaling_anchors: anchor {anchor} is not on the integral snapshot grid" in failure


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
    assert failure == f"experiment.deltas: window(s) {short} shorter than one snapshot spacing 0.0009765625"


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
    assert summary["embedding_violations"] == 0
    assert summary["max_embedding_norm"] <= 0.5


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
