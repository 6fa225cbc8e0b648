"""Tests of the benchmark itself, on the tiny --smoke sizes.

    python3 -m pytest bench/test_bench.py -q

Run from the repository root.  Each benchmark run spawns a few processes,
so the whole file takes about two minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

EXACT_COUNTERS = (
    "galerkin.steps", "galerkin.convection_calls",
    "galerkin.compile_tensor_calls", "galerkin.wiener_calls",
)


def bench(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, lines


def result_of(lines):
    return json.loads(lines[-1])


def trace_records(workload):
    work = ROOT / ".bench_work" / f"{workload}-smoke"
    (trace_dir,) = work.glob("trace-*")
    return spans.load(trace_dir)


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def traced(request):
    proc, lines = bench(request.param, trace=1)
    assert proc.returncode == 0, proc.stderr
    return request.param, lines, trace_records(request.param)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("smoke", [False, True])
def test_generated_configs_load(name, smoke):
    from sgns.config import load_config

    verb, cfg = workloads.build(name, seed=11, smoke=smoke)
    rc = load_config(cfg)
    assert rc.base_seed == 11
    assert rc.workers == workloads.WORKERS
    assert workloads.path_steps(verb, cfg) > 0


def test_end_to_end_metrics_printed_with_units():
    proc, lines = bench("ensemble-n16", trace=0)
    assert proc.returncode == 0, proc.stderr
    res = result_of(lines)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    assert list(res["metrics"]) == [name for name, _ in run.END_TO_END]
    for name, unit in run.END_TO_END:
        assert res["metrics"][name]["unit"] == unit
        assert res["metrics"][name]["value"] > 0
        assert any(line.startswith(f"metric {name} = ") and f" {unit} " in line for line in lines)
    assert any(line.startswith("metric failed_frac = 0 1 ") for line in lines)
    assert any(line.startswith("digest ensemble-n16 seed=3 sha256=") for line in lines)
    assert any(line.startswith("machine ") and '"blas"' in line for line in lines)
    results = [json.loads(p.read_text())
               for p in (ROOT / ".bench_work" / "ensemble-n16-smoke").glob("result-*.json")]
    (verb,) = [r for r in results if "verdict_s" in r]
    assert len(verb["worker_peaks_mb"]) == workloads.WORKERS
    assert verb["peak_rss_mb"] > sum(verb["worker_peaks_mb"]) > 0


def test_per_layer_metrics_printed_with_units(traced):
    name, lines, _ = traced
    res = result_of(lines)
    assert res["correct"] and res["attempted"] == workloads.REPEATS.get(name, 1) + 1, lines[-3:]
    assert list(res["metrics"]) == [m for m, _ in layers.PER_LAYER]
    for metric, unit in layers.PER_LAYER:
        assert res["metrics"][metric]["unit"] == unit
        assert any(line.startswith(f"layer {metric} = ") and line.endswith(f" {unit}")
                   for line in lines)
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert m["galerkin.steps"] > 0 and m["galerkin.convection_calls"] == m["galerkin.steps"]
    tightness = sum(m[k] for k in m if k.startswith("tightness."))
    assert (tightness > 0) == (name == "tightness-levels")
    if name.startswith("ensemble-"):
        assert m["galerkin.compile_tensor_calls"] == m["galerkin.ensemble_chunks"] > 1


def test_spans_carry_parent_ids(traced):
    _, _, records = traced
    all_spans = [s for r in records for s in r["spans"]]
    ids = {s[0] for s in all_spans}
    roots = [s for s in all_spans if s[4] is None]
    assert {s[1] for s in roots} == {"config.load_config", "cli.run_command"}
    assert all(s[4] in ids for s in all_spans if s[4] is not None)
    assert len({s[5] for s in all_spans}) == 1
    by_id = {s[0]: s for s in all_spans}
    for rec in records:
        if rec["worker"]:
            tops = [s for s in rec["spans"] if s[1] == "galerkin._run_chunk"]
            assert tops and all(by_id[s[4]][1] == "galerkin.integrate_ensemble" for s in tops)


def test_exact_counters_repeat():
    values = []
    for _ in range(2):
        proc, lines = bench("ensemble-n128", trace=1)
        assert proc.returncode == 0, proc.stderr
        metrics = result_of(lines)["metrics"]
        values.append({k: metrics[k]["value"] for k in EXACT_COUNTERS})
    assert values[0] == values[1]
    assert all(v > 0 for v in values[0].values())


def test_digest_mismatch_at_same_seed_fails_the_run():
    proc, lines = bench("uniqueness-twins", trace=0, seed=5)
    assert result_of(lines)["correct"], proc.stderr
    cache_path = ROOT / ".bench_work" / "digests.json"
    cache = json.loads(cache_path.read_text())
    key = next(k for k in cache if k.startswith("uniqueness-twins/5/"))
    cache[key] = "0" * 64
    cache_path.write_text(json.dumps(cache))
    proc, lines = bench("uniqueness-twins", trace=0, seed=5)
    res = result_of(lines)
    assert not res["correct"] and res["failed"] == res["attempted"] and res["metrics"] == {}
    assert "differs" in proc.stderr


def test_benchmark_json_lists_what_is_printed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc, lines = bench("ensemble-n16", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)
