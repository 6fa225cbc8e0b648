"""Per-layer metrics derived from the span records of one traced invocation.

Times are busy times summed over the verb process and its pool workers,
except ``galerkin.ensemble_s`` and the ``trace.*`` entries, which are wall
times in the verb process.  Self time is a call's duration minus the time of
the wrapped calls it made.  Flops and bytes of the convection kernel are
computed from n (a dense n x n^2 matrix-vector product per call: 2 n^3 flops
over 8 n^3 bytes of float64 tensor), not measured.
"""

from __future__ import annotations

import statistics

from spans import MODULES

# (name, unit), in the order they are printed
PER_LAYER = [
    ("config.load_s", "s"),
    ("galerkin.compile_tensor_s", "s"),
    ("galerkin.compile_tensor_calls", "count"),
    ("galerkin.tensor_bytes", "B"),
    ("noise.matrices_s", "s"),
    ("noise.matrices_calls", "count"),
    ("galerkin.convection_s", "s"),
    ("galerkin.convection_calls", "count"),
    ("galerkin.convection_flops", "flop"),
    ("galerkin.convection_bytes", "B"),
    ("galerkin.step_self_s", "s"),
    ("galerkin.steps", "count"),
    ("galerkin.step_self_us", "us"),
    ("galerkin.wiener_s", "s"),
    ("galerkin.wiener_calls", "count"),
    ("galerkin.ensemble_s", "s"),
    ("galerkin.ensemble_chunks", "count"),
    ("galerkin.pool_efficiency", "1"),
    ("galerkin.energy_budget_s", "s"),
    ("estimates.aggregate_s", "s"),
    ("tightness.family_s", "s"),
    ("tightness.lag_maxima_s", "s"),
    ("tightness.aldous_s", "s"),
    ("tightness.increment_scaling_s", "s"),
    ("noise.certify_s", "s"),
    ("twodim.uniqueness_self_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_written", "B"),
    *[(f"{m}.self_s", "s") for m in MODULES],
    ("trace.verdict_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.spans", "count"),
]

COMPILE = ("galerkin.build_convection_tensor", "noise.noise_matrices")
IO_CALLS = ("io.ResultBundle.write_summary", "io.ResultBundle.add_table", "io.write_snapshot")


def merge_agg(records) -> dict:
    out: dict = {}
    for rec in records:
        for name, (calls, total, self_s) in rec["agg"].items():
            a = out.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_s
    return out


def derive(records, bundle_bytes: int, traced_verdict_s: float, untraced_verdicts) -> dict:
    """Every PER_LAYER metric, as {name: value}."""
    agg = merge_agg(records)
    workers_agg = merge_agg(r for r in records if r["worker"])
    spans = [s for r in records for s in r["spans"]]
    n3 = sum(r["convection_n3"] for r in records)

    def calls(name, table=agg):
        return table.get(name, [0, 0.0, 0.0])[0]

    def total(name, table=agg):
        return table.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return agg.get(name, [0, 0.0, 0.0])[2]

    levels = {s[6]["n"] for s in spans if s[1] == "galerkin.build_convection_tensor"}
    steps = sum(s[6]["steps"] for s in spans if s[1] == "galerkin.integrate_trajectory")
    step_self = self_s("galerkin.integrate_trajectory")
    # pool capacity: workers x wall of every pooled ensemble; useful work:
    # trajectory time in the workers, less the compile it had to redo there
    capacity = sum(s[6]["workers"] * (s[3] - s[2]) for s in spans
                   if s[1] == "galerkin.integrate_ensemble" and s[6]["workers"] > 1)
    useful = total("galerkin.integrate_trajectory", workers_agg) - sum(
        total(name, workers_agg) for name in COMPILE)
    m = {
        "config.load_s": total("config.load_config"),
        "galerkin.compile_tensor_s": total("galerkin.build_convection_tensor"),
        "galerkin.compile_tensor_calls": calls("galerkin.build_convection_tensor"),
        "galerkin.tensor_bytes": sum(8 * n**3 for n in levels),
        "noise.matrices_s": total("noise.noise_matrices"),
        "noise.matrices_calls": calls("noise.noise_matrices"),
        "galerkin.convection_s": total("galerkin.CompiledGalerkin.convection"),
        "galerkin.convection_calls": calls("galerkin.CompiledGalerkin.convection"),
        "galerkin.convection_flops": 2 * n3,
        "galerkin.convection_bytes": 8 * n3,
        "galerkin.step_self_s": step_self,
        "galerkin.steps": steps,
        "galerkin.step_self_us": 1e6 * step_self / steps if steps else 0.0,
        "galerkin.wiener_s": total("galerkin.generate_wiener"),
        "galerkin.wiener_calls": calls("galerkin.generate_wiener"),
        "galerkin.ensemble_s": total("galerkin.integrate_ensemble"),
        "galerkin.ensemble_chunks": calls("galerkin._run_chunk"),
        "galerkin.pool_efficiency": useful / capacity if capacity else 0.0,
        "galerkin.energy_budget_s": total("galerkin.energy_budget_check"),
        "estimates.aggregate_s": total("estimates.aggregate"),
        "tightness.family_s": total("tightness.FunctionFamily"),
        "tightness.lag_maxima_s": total("tightness.FunctionFamily.lag_maxima"),
        "tightness.aldous_s": total("tightness.aldous_check") + total("tightness.calibrate_aldous_eta"),
        "tightness.increment_scaling_s": total("tightness.increment_scaling"),
        "noise.certify_s": total("noise.certify_conditions"),
        "twodim.uniqueness_self_s": self_s("twodim.pathwise_uniqueness_experiment"),
        "io.write_s": sum(total(name) for name in IO_CALLS),
        "io.bytes_written": bundle_bytes,
        "trace.verdict_s": traced_verdict_s,
        "trace.overhead_s": traced_verdict_s - statistics.median(untraced_verdicts),
        "trace.spans": len(spans),
    }
    for mod in MODULES:
        m[f"{mod}.self_s"] = sum(a[2] for name, a in agg.items() if name.split(".")[0] == mod)
    return m
