"""Command-line batch harness: one verb per experiment family.

    sgns <verb> --config cfg.json --out outdir [--workers N] [--seed S]

Verbs: verify-operators, certify-noise, simulate, ensemble, estimates,
tightness, uniqueness, spaces.  Exit status is 0 iff every asserted invariant
of the verb passed.  All randomness flows from the configured base seed
through per-trajectory counter streams, so a bundle is byte-identical for any
worker count, per (config, seed, code version).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import estimates as est
from . import tightness as tgt
from . import twodim
from .config import ConfigError, RunConfig, galerkin_config, load_config
from .galerkin import energy_budget_check, integrate_ensemble, integrate_trajectory
from .io import ResultBundle, write_snapshot
from .noise import certify_conditions
from .spectral import apply_operator, inner, norm, project_Pn, random_field


def _rel(err, scale):
    return err / max(scale, 1.0)


def run_verify_operators(run: RunConfig, bundle: ResultBundle) -> int:
    basis = run.basis
    samples = int(run.experiment.get("samples", 100))
    tol = float(run.experiment.get("tolerance", 1e-12))
    rng = np.random.default_rng(run.base_seed)
    n_half = max(1, basis.n_modes // 2)
    errs = {k: 0.0 for k in (
        "A_duality", "L_duality", "A_minus_I", "projection_duality",
        "eigenvalue_U_norm", "norm_tower", "stokes_dual_bound", "pythagoras_V",
    )}
    for _ in range(samples):
        u = random_field(basis, rng)
        v = random_field(basis, rng)
        errs["A_duality"] = max(errs["A_duality"], _rel(
            abs(inner(apply_operator(u, "A"), v, "H") - inner(u, v, "V")), abs(inner(u, v, "V"))))
        errs["L_duality"] = max(errs["L_duality"], _rel(
            abs(inner(apply_operator(u, "L"), v, "H") - inner(u, v, "U")), abs(inner(u, v, "U"))))
        gap = apply_operator(u, "A") - u - apply_operator(u, "Acal")
        errs["A_minus_I"] = max(errs["A_minus_I"], _rel(norm(gap, "H"), norm(u, "V")))
        lhs = inner(project_Pn(u, n_half), v, "H")
        rhs = inner(u, project_Pn(v, n_half), "H")
        errs["projection_duality"] = max(errs["projection_duality"], _rel(abs(lhs - rhs), abs(lhs)))
        errs["pythagoras_V"] = max(errs["pythagoras_V"], _rel(
            abs(norm(u, "V") ** 2 - norm(u, "H") ** 2 - norm(u, "D") ** 2), norm(u, "V") ** 2))
        tower = [norm(u, sp) for sp in ("Udual", "H", "V", "Vs", "U")]
        worst = max((a - b) / max(b, 1e-300) for a, b in zip(tower, tower[1:]))
        errs["norm_tower"] = max(errs["norm_tower"], worst)
        ratio = norm(apply_operator(u, "Acal"), "Vdual") / max(norm(u, "D"), 1e-300)
        errs["stokes_dual_bound"] = max(errs["stokes_dual_bound"], ratio - 1.0)
    for i in range(basis.n_modes):
        e = basis.basis_field(i)
        lam = basis.mode_lambda[i]
        errs["eigenvalue_U_norm"] = max(
            errs["eigenvalue_U_norm"], abs(norm(e, "U") ** 2 - lam) / lam)
    passed = all(e <= tol for e in errs.values())
    bundle.summary.update(identities={k: float(v) for k, v in errs.items()},
                          tolerance=tol, samples=samples, passed=bool(passed))
    bundle.add_table("operator_identities", ["check", "max_relative_error"],
                     sorted(errs.items()))
    return 0 if passed else 1


def run_certify_noise(run: RunConfig, bundle: ResultBundle) -> int:
    if run.model is None:
        bundle.summary.update(passed=False, failure="no noise directions configured")
        return 1
    samples = int(run.experiment.get("samples", 10000))
    rep = certify_conditions(run.model, run.basis, eps=run.noise_eps,
                             samples=samples, seed=run.base_seed)
    bundle.summary.update(
        C1=rep.C1, a=rep.a, eps=rep.eps, eta=rep.eta, lam0=rep.lam0, rho=rep.rho,
        gstar_constant=rep.gstar_constant, gstar_analytic_bound=rep.gstar_analytic,
        gstar_violations=rep.gstar_violations, lipschitz_L=rep.lipschitz_L,
        coercivity_violations=rep.empirical_violations, samples=rep.samples,
        rejected=rep.rejected,
    )
    if rep.rejected:
        bundle.summary.update(
            passed=False,
            failure=f"gradient-coercivity condition failed: margin a = {rep.a:.6g} <= 0",
        )
        return 1
    ok = rep.empirical_violations == 0 and rep.gstar_violations == 0
    bundle.summary["passed"] = bool(ok)
    return 0 if ok else 1


def run_simulate(run: RunConfig, bundle: ResultBundle) -> int:
    cfg = galerkin_config(run)
    rec = integrate_trajectory(cfg, traj_index=0)
    bundle.add_table(
        "trajectory",
        ["t", "norm_H", "norm_D", "norm_Udual"],
        zip(rec.times, rec.norm_H, rec.norm_D, rec.norm_Udual),
    )
    for pos, step in enumerate(rec.snap_idx):
        write_snapshot(bundle.snapshot_path(f"t{int(step):08d}"),
                       rec.snapshot_field(run.basis, pos), n=run.n)
    budget = energy_budget_check(rec)
    bundle.summary.update(
        aborted=rec.aborted, abort_step=rec.abort_step, steps=rec.steps,
        sup_H=rec.sup_H(), int_dirichlet2=rec.integral_dirichlet2(),
        cutoff_min=rec.cutoff_min,
        energy_residual=budget.max_relative_residual,
        passed=bool(not rec.aborted),
    )
    return 0 if not rec.aborted else 1


def run_ensemble(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    cfg = galerkin_config(run)
    recs = integrate_ensemble(cfg, run.trajectories, workers=workers)
    budget = energy_budget_check(recs)
    stats = est.aggregate({run.n: recs}, p_list=(2.0,))
    entry = stats.per_n[run.n]
    bundle.add_table(
        "functionals",
        ["traj", "sup_H2", "int_dirichlet2", "aborted"],
        [(r.traj_index, r.sup_H() ** 2, r.integral_dirichlet2(), int(r.aborted)) for r in recs],
    )
    residual_tol = float(run.experiment.get("residual_tolerance", 1e-10))
    z_bound = float(run.experiment.get("z_bound", 3.0))
    ok = budget.max_relative_residual <= residual_tol and abs(budget.ito_zscore) <= z_bound
    bundle.summary.update(
        trajectories=len(recs),
        aborts=entry["aborts"],
        mean_sup_H2=entry["sup_H_p"][2.0].mean, se_sup_H2=entry["sup_H_p"][2.0].se,
        mean_int_dirichlet2=entry["int_dirichlet2"].mean, se_int_dirichlet2=entry["int_dirichlet2"].se,
        energy_residual=budget.max_relative_residual, ito_zscore=budget.ito_zscore,
        passed=bool(ok),
    )
    return 0 if ok else 1


def run_estimates(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    if len(run.n_list) < 3:
        bundle.summary.update(passed=False, failure="estimates verb needs >= 3 entries in galerkin.n_list")
        return 1
    p_list = tuple(run.experiment.get("p_list", [2.0]))
    eta = run.experiment.get("eta")
    by_n = {}
    for n in run.n_list:
        by_n[n] = integrate_ensemble(galerkin_config(run, n=n), run.trajectories, workers=workers)
    stats = est.aggregate(by_n, p_list=p_list, eta=eta)
    verdict = est.uniformity_report(
        stats,
        p=p_list[0],
        ratio_bound=float(run.experiment.get("ratio_bound", 1.5)),
        alpha=float(run.experiment.get("alpha", 0.05)),
    )
    rows = []
    for n in sorted(stats.per_n):
        e = stats.per_n[n]
        for p in p_list:
            rows.append((n, p, e["sup_H_p"][p].mean, e["sup_H_p"][p].se,
                         e["int_weighted"][p].mean, e["int_weighted"][p].se,
                         e["int_dirichlet2"].mean, e["int_dirichlet2"].se,
                         e["count"], e["aborts"]))
    bundle.add_table(
        "moment_estimates",
        ["n", "p", "sup_H_p_mean", "sup_H_p_se", "int_weighted_mean", "int_weighted_se",
         "int_dirichlet2_mean", "int_dirichlet2_se", "count", "aborts"],
        rows,
    )
    bundle.summary.update(
        ratios=verdict.ratios,
        kendall={k: {"tau": v[0], "p_value": v[1]} for k, v in verdict.kendall.items()},
        warnings=list(stats.warnings),
        passed=bool(verdict.passed),
    )
    return 0 if verdict.passed else 1


def run_tightness(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    T = run.T
    deltas = run.experiment.get("deltas") or [T * 2.0**-j for j in range(10, 3, -1)]
    thetas = run.experiment.get("thetas") or [T * 2.0**-j for j in range(8, 3, -1)]
    slope_threshold = float(run.experiment.get("slope_threshold", 0.4))
    passed = True
    rows_mod, rows_aldous, rows_j = [], [], []
    summary_n = {}
    for n in run.n_list:
        cfg = galerkin_config(run, n=n, snapshot_stride=1,
                              integral_snapshot_stride=int(run.experiment.get("integral_stride", 8)))
        recs = integrate_ensemble(cfg, run.trajectories, workers=workers)
        fam = tgt.FunctionFamily(recs, run.basis)
        dub = tgt.dubinsky_diagnostic(fam, deltas, slope_threshold)
        eta_q = float(run.experiment.get("eta_quantile", 60.0))
        ald = tgt.aldous_check(fam, thetas, tgt.calibrate_aldous_eta(fam, thetas[0], eta_q))
        anchors = run.experiment.get("scaling_anchors") or [T / 8.0, T / 4.0, 3.0 * T / 8.0, T / 2.0]
        windows = run.experiment.get("scaling_windows") or [
            run.dt * int(run.experiment.get("integral_stride", 8)) * 2**j for j in range(5)
        ]
        jrep = tgt.increment_scaling(recs, run.basis, anchors, windows)
        ok = dub.passed and ald.passed and (
            math.isnan(jrep.exponents["noise"]) or 0.4 <= jrep.exponents["noise"] <= 0.6
        )
        passed = passed and ok
        summary_n[str(n)] = {
            "modulus_slope": dub.slope, "dubinsky_passed": dub.passed,
            "aldous_passed": ald.passed, "noise_increment_exponent": jrep.exponents["noise"],
            "sup_V_integral": dub.sup_V_integral, "sup_sup_H": dub.sup_sup_H,
        }
        rows_mod += [(n, d, m) for d, m in zip(dub.deltas, dub.modulus_curve)]
        rows_aldous += [(n, t, p) for t, p in zip(ald.thetas, ald.probabilities)]
        rows_j += [(n, t, jrep.median_norms["noise"][i]) for i, t in enumerate(jrep.thetas)]
    bundle.add_table("modulus", ["n", "delta", "sup_modulus"], rows_mod)
    bundle.add_table("aldous", ["n", "theta", "exceedance_probability"], rows_aldous)
    bundle.add_table("noise_increment_scaling", ["n", "theta", "median_Udual_increment"], rows_j)
    bundle.summary.update(levels=summary_n, passed=bool(passed))
    return 0 if passed else 1


def run_uniqueness(run: RunConfig, bundle: ResultBundle) -> int:
    if run.basis.domain.d != 2:
        bundle.summary.update(passed=False, failure="uniqueness experiment requires d = 2")
        return 1
    if run.model is None:
        bundle.summary.update(passed=False, failure="no noise directions configured")
        return 1
    cert = certify_conditions(run.model, run.basis, eps=run.noise_eps,
                              samples=int(run.experiment.get("certify_samples", 2000)),
                              seed=run.base_seed)
    if cert.rejected or not cert.lipschitz_L < 2.0:
        bundle.summary.update(passed=False, lipschitz_L=cert.lipschitz_L,
                              failure="noise Lipschitz gate L < 2 failed")
        return 1
    cfg = galerkin_config(run)
    twin = twodim.pathwise_uniqueness_experiment(
        cfg, cert.lipschitz_L, gamma=0.0, n_traj=int(run.experiment.get("twin_trajectories", 3)))
    gamma = float(run.experiment.get("gamma", 1e-8))
    rep = twodim.pathwise_uniqueness_experiment(
        cfg, cert.lipschitz_L, gamma=gamma, n_traj=run.trajectories)
    bound = float(run.experiment.get("median_ratio_bound", 1.1))
    ok = twin.identical and rep.median_ratio_T <= bound
    bundle.add_table("weighted_ratios", ["traj", "ratio_T", "sup_ratio"],
                     [(i, rep.ratios_at_T[i], rep.sup_ratios[i]) for i in range(rep.trajectories)])
    bundle.summary.update(
        lipschitz_L=cert.lipschitz_L, eps=rep.eps, C_eps=rep.C_eps, gamma=gamma,
        twins_identical=twin.identical, median_ratio_T=rep.median_ratio_T,
        median_ratio_bound=bound, passed=bool(ok),
    )
    return 0 if ok else 1


def run_spaces(run: RunConfig, bundle: ResultBundle) -> int:
    exp = run.experiment
    levels = int(exp.get("levels", 30))
    eta0 = float(exp.get("eta0", 0.5))
    phi_norms = exp.get("phi_norms") or [1.0] * levels
    samples = int(exp.get("samples", 10000))
    spec, cert = tgt.build_nested_space(phi_norms, eta0, samples=samples, seed=run.base_seed)
    bundle.add_table("nested_space", ["level", "eta", "phi_norm", "radius"],
                     [(i + 1, spec.etas[i + 1], spec.phi_norms[i], spec.radii[i])
                      for i in range(len(spec.radii))])
    ok = cert.embedding_violations == 0 and cert.tail_violations == 0
    bundle.summary.update(
        eta0=eta0, levels=levels, samples=cert.samples,
        embedding_norm_bound=cert.embedding_norm_bound,
        max_embedding_norm=cert.max_embedding_norm,
        embedding_violations=cert.embedding_violations,
        tail_violations=cert.tail_violations,
        passed=bool(ok),
    )
    return 0 if ok else 1


VERBS = (
    "verify-operators", "certify-noise", "simulate", "ensemble",
    "estimates", "tightness", "uniqueness", "spaces",
)


def run_command(verb: str, run: RunConfig, out_dir, workers: int | None = None) -> int:
    """Dispatch one verb; writes the bundle and returns the exit status."""
    if verb not in VERBS:
        raise ValueError(f"unknown verb {verb!r}; expected one of {VERBS}")
    bundle = ResultBundle(out_dir)
    workers = workers if workers is not None else run.workers
    bundle.summary.update(verb=verb, config_hash=run.config_hash, seed=run.base_seed)
    if verb == "verify-operators":
        code = run_verify_operators(run, bundle)
    elif verb == "certify-noise":
        code = run_certify_noise(run, bundle)
    elif verb == "simulate":
        code = run_simulate(run, bundle)
    elif verb == "ensemble":
        code = run_ensemble(run, bundle, workers)
    elif verb == "estimates":
        code = run_estimates(run, bundle, workers)
    elif verb == "tightness":
        code = run_tightness(run, bundle, workers)
    elif verb == "uniqueness":
        code = run_uniqueness(run, bundle)
    else:
        code = run_spaces(run, bundle)
    bundle.write_summary()
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sgns", description=__doc__)
    parser.add_argument("verb", choices=VERBS)
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory for the result bundle")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None, help="override ensemble.base_seed")
    args = parser.parse_args(argv)
    try:
        run = load_config(args.config)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.seed is not None:
        run.base_seed = args.seed
    code = run_command(args.verb, run, args.out, workers=args.workers)
    status = "PASS" if code == 0 else "FAIL"
    print(f"sgns {args.verb}: {status} (bundle in {args.out})")
    return code


if __name__ == "__main__":
    sys.exit(main())
