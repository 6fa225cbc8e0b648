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
from dataclasses import replace

import numpy as np

from . import estimates as est
from . import tightness as tgt
from . import twodim
from .config import ConfigError, RunConfig, load_config
from .galerkin import any_noise, energy_budget_check, float_map, integrate_batch, integrate_ensemble
from .io import ResultBundle, write_snapshot
from .noise import certify_conditions
from .spectral import apply_operator, inner, norm, project_Pn, random_field, stack


def _rel(err, scale):
    return err / np.maximum(scale, 1.0)


def run_verify_operators(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    basis = run.basis
    samples = run.experiment["samples"] or 100
    tol = run.experiment["tolerance"]
    rng = np.random.default_rng(run.galerkin.seed)
    n_half = max(1, basis.n_modes // 2)
    # the samples as two stacks, drawn u then v per sample; squares of norms
    # go through Python's pow, as they did field by field
    u, v = (stack(f) for f in zip(*[(random_field(basis, rng), random_field(basis, rng))
                                    for _ in range(samples)]))
    def sq(x):
        return float_map(lambda s: s**2, x)
    uv_V, uv_U = inner(u, v, "V"), inner(u, v, "U")
    lhs, rhs = inner(project_Pn(u, n_half), v, "H"), inner(u, project_Pn(v, n_half), "H")
    tower = np.stack([norm(u, sp) for sp in ("Udual", "H", "V", "Vs", "U")])
    lam, V2, Acal = basis.mode_lambda, sq(norm(u, "V")), apply_operator(u, "Acal")
    errs = {
        "A_duality": _rel(abs(inner(apply_operator(u, "A"), v, "H") - uv_V), abs(uv_V)),
        "L_duality": _rel(abs(inner(apply_operator(u, "L"), v, "H") - uv_U), abs(uv_U)),
        "A_minus_I": _rel(norm(apply_operator(u, "A") - u - Acal, "H"), norm(u, "V")),
        "projection_duality": _rel(abs(lhs - rhs), abs(lhs)),
        "eigenvalue_U_norm": abs(sq(norm(basis.field_from_real_coords(np.eye(len(lam))), "U")) - lam) / lam,
        "norm_tower": np.max((tower[:-1] - tower[1:]) / np.maximum(tower[1:], 1e-300), axis=0),
        "stokes_dual_bound": norm(Acal, "Vdual") / np.maximum(norm(u, "D"), 1e-300) - 1.0,
        "pythagoras_V": _rel(abs(V2 - sq(norm(u, "H")) - sq(norm(u, "D"))), V2),
    }
    # each check's worst sample, and 0 if none is positive
    errs = {k: max(0.0, float(np.max(e))) for k, e in errs.items()}
    passed = all(e <= tol for e in errs.values())
    bundle.summary.update(identities={k: float(v) for k, v in errs.items()},
                          tolerance=tol, samples=samples, passed=bool(passed))
    bundle.add_table("operator_identities", ["check", "max_relative_error"],
                     sorted(errs.items()))
    return 0 if passed else 1


def run_certify_noise(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    if run.galerkin.model is None:
        bundle.summary.update(passed=False, failure="no noise directions configured")
        return 1
    rep = certify_conditions(run.galerkin.model, run.basis, eps=run.noise_eps,
                             samples=run.experiment["samples"] or 10000, seed=run.galerkin.seed)
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


def run_simulate(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    # the energy budget reads the ledger, and no running integral is read
    one = integrate_batch(replace(run.galerkin, records={"ledger"}), [0])
    bundle.add_table(
        "trajectory",
        ["t", "norm_H", "norm_D", "norm_Udual"],
        zip(one.config.times, one.norm_H[0], one.norm_D[0], one.norm_Udual[0]),
    )
    for pos, step in enumerate(one.config.snap_idx):
        write_snapshot(bundle.snapshot_path(f"t{int(step):08d}"),
                       run.basis.field_from_real_coords(one.snap_u[0, pos]), n=run.n)
    budget = energy_budget_check(one)
    aborted = bool(one.aborted[0])
    bundle.summary.update(
        aborted=aborted, abort_step=int(one.abort_step[0]), steps=one.config.steps,
        sup_H=one.sup_H()[0], int_dirichlet2=one.integral_dirichlet2()[0],
        cutoff_min=float(one.cutoff_min[0]),
        energy_residual=budget.max_relative_residual,
        passed=not aborted,
    )
    return 0 if not aborted else 1


def run_ensemble(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    # the energy budget reads the ledger, and no running integral is read
    ens = integrate_ensemble(replace(run.galerkin, records={"ledger"}), run.trajectories, workers=workers)
    budget = energy_budget_check(ens)
    stats = est.aggregate({run.n: ens}, p_list=(2.0,))
    entry = stats.per_n[run.n]
    bundle.add_table(
        "functionals",
        ["traj", "sup_H2", "int_dirichlet2", "aborted"],
        zip(ens.indices.tolist(), float_map(lambda sup: sup**2, entry["rows"]["sup_H"]).tolist(),
            entry["rows"]["int_dirichlet2"].tolist(), ens.aborted.astype(int).tolist()),
    )
    exp = run.experiment
    ok = (budget.max_relative_residual <= exp["residual_tolerance"]
          and abs(budget.ito_zscore) <= exp["z_bound"])
    bundle.summary.update(
        trajectories=len(ens),
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
    exp = run.experiment
    p_list = exp["p_list"]
    # the moments read norms only, so no ledger and no running integral
    by_n = {n: integrate_ensemble(replace(run.galerkin, n=n, records=()), run.trajectories,
                                  workers=workers)
            for n in run.n_list}
    stats = est.aggregate(by_n, p_list=p_list, eta=exp["eta"])
    verdict = est.uniformity_report(
        stats, p=p_list[0], ratio_bound=exp["ratio_bound"], alpha=exp["alpha"])
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
    exp = run.experiment
    T, dt = run.galerkin.T, run.galerkin.dt
    deltas = exp["deltas"] or [T * 2.0**-j for j in range(10, 3, -1)]
    thetas = exp["thetas"] or [T * 2.0**-j for j in range(8, 3, -1)]
    anchors = exp["scaling_anchors"] or [T / 8.0, T / 4.0, 3.0 * T / 8.0, T / 2.0]
    windows = exp["scaling_windows"] or [dt * exp["integral_stride"] * 2**j for j in range(5)]
    passed = True
    rows_mod, rows_aldous, rows_j = [], [], []
    summary_n, noise_free = {}, []
    # the diagnostics read states, norms and the noise integral only
    grid = replace(run.galerkin, snapshot_stride=1, integral_snapshot_stride=exp["integral_stride"],
                   records={"integral_noise"})
    violations = tgt.window_violations(grid, deltas, anchors, windows)
    if violations:
        bundle.summary.update(passed=False, failure="; ".join(violations))
        return 1
    # each block's process, the verb's own or a pool worker, records the lag
    # maxima of the paths it stepped, which the modulus table reads
    grid = replace(grid, modulus_lags=tgt.modulus_lags(deltas, grid.snap_times))
    for n in run.n_list:
        cfg = replace(grid, n=n)
        ens = integrate_ensemble(cfg, run.trajectories, workers=workers)
        fam = tgt.FunctionFamily(ens)
        dub = tgt.dubinsky_diagnostic(fam, deltas, exp["slope_threshold"])
        eta = tgt.calibrate_aldous_eta(fam, thetas[0], exp["eta_quantile"])
        ald = tgt.aldous_check(fam, thetas, eta)
        jrep = tgt.increment_scaling(ens, anchors, windows)
        ok = dub.passed and ald.passed and (
            math.isnan(jrep.exponents["noise"]) or 0.4 <= jrep.exponents["noise"] <= 0.6
        )
        passed = passed and ok
        if not any_noise(cfg):
            noise_free.append(n)
        summary_n[str(n)] = {
            "modulus_slope": dub.slope, "dubinsky_passed": dub.passed,
            "aldous_passed": ald.passed, "noise_increment_exponent": jrep.exponents["noise"],
            "sup_V_integral": dub.sup_V_integral, "sup_sup_H": dub.sup_sup_H,
        }
        rows_mod += [(n, d, m) for d, m in zip(dub.deltas, dub.modulus_curve)]
        rows_aldous += [(n, t, p) for t, p in zip(ald.thetas, ald.probabilities)]
        rows_j += [(n, t, jrep.median_norms["noise"][i]) for i, t in enumerate(jrep.thetas)]
        # released before the next level's pool forks, so its workers do not
        # inherit them
        del ens, fam
    bundle.add_table("modulus", ["n", "delta", "sup_modulus"], rows_mod)
    bundle.add_table("aldous", ["n", "theta", "exceedance_probability"], rows_aldous)
    bundle.add_table("noise_increment_scaling", ["n", "theta", "median_Udual_increment"], rows_j)
    bundle.summary.update(levels=summary_n, passed=bool(passed))
    if not passed and noise_free:
        bundle.summary["failure"] = (f"no noise reaches level(s) n = {', '.join(map(str, noise_free))}: "
                                     "every compiled noise matrix of P_n G is zero there, so those "
                                     "paths are deterministic")
    return 0 if passed else 1


def run_uniqueness(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    cfg, exp = run.galerkin, run.experiment
    if run.basis.domain.d != 2:
        bundle.summary.update(passed=False, failure="uniqueness experiment requires d = 2")
        return 1
    if cfg.model is None:
        bundle.summary.update(passed=False, failure="no noise directions configured")
        return 1
    cert = certify_conditions(cfg.model, run.basis, eps=run.noise_eps,
                              samples=exp["certify_samples"], seed=cfg.seed)
    if cert.rejected or not cert.lipschitz_L < 2.0:
        bundle.summary.update(passed=False, lipschitz_L=cert.lipschitz_L,
                              failure="noise Lipschitz gate L < 2 failed")
        return 1
    # the twin check pairs ride in the batches of the perturbed pairs
    rep = twodim.pathwise_uniqueness_experiment(
        cfg, cert.lipschitz_L, gamma=exp["gamma"], n_traj=run.trajectories, twins=exp["twin_trajectories"])
    ok = rep.identical and rep.median_ratio_T <= exp["median_ratio_bound"]
    bundle.add_table("weighted_ratios", ["traj", "ratio_T", "sup_ratio"],
                     [(i, rep.ratios_at_T[i], rep.sup_ratios[i]) for i in range(rep.trajectories)])
    bundle.summary.update(
        lipschitz_L=cert.lipschitz_L, eps=rep.eps, C_eps=rep.C_eps, gamma=exp["gamma"],
        twins_identical=rep.identical, median_ratio_T=rep.median_ratio_T,
        median_ratio_bound=exp["median_ratio_bound"], passed=bool(ok),
    )
    return 0 if ok else 1


def run_spaces(run: RunConfig, bundle: ResultBundle, workers: int) -> int:
    exp = run.experiment
    spec, cert = tgt.build_nested_space(exp["phi_norms"] or [1.0] * exp["levels"], exp["eta0"],
                                        samples=exp["samples"] or 10000, seed=run.galerkin.seed)
    bundle.add_table("nested_space", ["level", "eta", "phi_norm", "radius"],
                     [(i + 1, spec.etas[i + 1], spec.phi_norms[i], spec.radii[i])
                      for i in range(len(spec.radii))])
    ok = cert.embedding_violations == 0 and cert.tail_violations == 0
    bundle.summary.update(
        eta0=exp["eta0"], levels=exp["levels"], samples=cert.samples,
        embedding_norm_bound=cert.embedding_norm_bound,
        max_embedding_norm=cert.max_embedding_norm,
        embedding_violations=cert.embedding_violations,
        tail_violations=cert.tail_violations,
        passed=bool(ok),
    )
    return 0 if ok else 1


# verb -> name of its runner(run, bundle, workers) -> exit status, looked up at
# dispatch so that a rebound runner (a tracing wrapper) is the one called
VERBS = {verb: "run_" + verb.replace("-", "_") for verb in ("verify-operators", "certify-noise",
         "simulate", "ensemble", "estimates", "tightness", "uniqueness", "spaces")}


def run_command(verb: str, run: RunConfig, out_dir, workers: int | None = None) -> int:
    """Dispatch one verb; writes the bundle and returns the exit status."""
    if verb not in VERBS:
        raise ValueError(f"unknown verb {verb!r}; expected one of {tuple(VERBS)}")
    workers = workers if workers is not None else run.workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    bundle = ResultBundle(out_dir)
    bundle.summary.update(verb=verb, config_hash=run.config_hash, seed=run.galerkin.seed)
    code = globals()[VERBS[verb]](run, bundle, workers)
    bundle.write_summary()
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="sgns", description=__doc__)
    parser.add_argument("verb", choices=tuple(VERBS))
    parser.add_argument("--config", required=True, help="JSON run configuration")
    parser.add_argument("--out", required=True, help="output directory for the result bundle")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None, help="override ensemble.base_seed")
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workers is not None and args.workers < 1:
        parser.error("--workers must be >= 1")
    try:
        run = load_config(args.config)
    except ConfigError as e:
        print(str(e), file=sys.stderr)
        return 2
    if args.seed is not None:
        run.galerkin = replace(run.galerkin, seed=args.seed)
    code = run_command(args.verb, run, args.out, workers=args.workers)
    status = "PASS" if code == 0 else "FAIL"
    print(f"sgns {args.verb}: {status} (bundle in {args.out})")
    return code


if __name__ == "__main__":
    sys.exit(main())
