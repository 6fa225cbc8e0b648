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
from .galerkin import _compiled, any_noise, energy_budget_check, float_map, integrate_batch, integrate_ensemble
from .io import ResultBundle, write_snapshot
from .noise import SUP_REL_WIDTH, exact_constants, noise_conditions, sampled_lipschitz
from .spectral import apply_operator, inner, norm, project_Pn, random_field, stack


def _rel(err, scale):
    return err / np.maximum(scale, 1.0)


def run_verify_operators(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    basis = run.basis
    samples = run.experiment["samples"]
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


def run_certify_noise(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    if run.galerkin.model is None:
        bundle.summary.update(passed=False, failure="no noise directions configured")
        return
    rep = noise_conditions(run.galerkin.model, run.basis.domain, eps=run.noise_eps)
    # the exact values and margins on the Galerkin space, on which the
    # verdict rests (L alone when rejected: no coercivity pair exists)
    exact = exact_constants(run.galerkin.model, run.basis, rep.eta, rep.lam0)
    gstar_margin = None if rep.rejected else rep.gstar_analytic - exact.gstar_constant
    bundle.summary.update(
        C1=rep.C1, a=rep.a, eps=rep.eps, eta=rep.eta, lam0=rep.lam0,
        gstar_constant=exact.gstar_constant, gstar_analytic_bound=rep.gstar_analytic,
        gstar_margin=gstar_margin, lipschitz_L=exact.lipschitz_L,
        coercivity_margin=exact.coercivity_margin, rejected=rep.rejected, sup_rel_width=SUP_REL_WIDTH,
    )
    if rep.rejected:
        bundle.summary.update(
            passed=False,
            failure=f"gradient-coercivity condition failed: margin a = {rep.a:.6g} <= 0",
        )
        return
    # eigenvalues carry rounding of order the matrices' norm times 1e-16
    ok = (exact.coercivity_margin >= -1e-9 * max(1.0, rep.lam0)
          and gstar_margin >= -1e-9 * max(1.0, rep.gstar_analytic))
    bundle.summary["passed"] = bool(ok)


def run_simulate(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    # the energy budget reads the ledger, the snapshot files the states and
    # the trajectory table every step's norms; no running integral is read
    one = integrate_batch(replace(run.galerkin, records={"ledger", "states", "norms"}), [0])
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
    if aborted:
        bundle.summary["failure"] = f"trajectory 0 aborted at step {int(one.abort_step[0])} of {one.config.steps}"


def run_ensemble(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    # the energy budget reads the ledger, and the functionals the per-path
    # sums the stepper takes; no norm of a step, state or running integral
    # is read
    ens = integrate_ensemble(replace(run.galerkin, records={"ledger"}), run.trajectories, workers=workers)
    failure = est.too_few_live_paths({run.n: ens})
    if failure is not None:
        bundle.summary.update(trajectories=len(ens), passed=False, failure=failure)
        return
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


def run_estimates(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    if len(run.n_list) < 3:
        bundle.summary.update(passed=False, failure="estimates verb needs >= 3 entries in galerkin.n_list")
        return
    exp = run.experiment
    p_list = exp["p_list"]
    # the moments read the per-path sups and the weighted integrals at p = 2
    # and each of p_list, which the stepper sums; no norm of a step, ledger,
    # state or running integral
    grid = replace(run.galerkin, records=(), integral_powers=(2.0, *p_list))
    by_n = {n: integrate_ensemble(replace(grid, n=n), run.trajectories, workers=workers) for n in run.n_list}
    failure = est.too_few_live_paths(by_n)
    if failure is not None:
        bundle.summary.update(passed=False, failure=failure)
        return
    stats = est.aggregate(by_n, p_list=p_list, eta=exp["eta"])
    failure = est.nonpositive_functionals(stats, p_list[0])
    if failure is not None:
        bundle.summary.update(passed=False, failure=failure)
        return
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


def run_tightness(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    exp = run.experiment
    T, dt = run.galerkin.T, run.galerkin.dt
    deltas = exp["deltas"] or [T * 2.0**-j for j in range(10, 3, -1)]
    thetas = exp["thetas"] or [T * 2.0**-j for j in range(8, 3, -1)]
    anchors = exp["scaling_anchors"] or [T / 8.0, T / 4.0, 3.0 * T / 8.0, T / 2.0]
    windows = exp["scaling_windows"] or [dt * exp["integral_stride"] * 2**j for j in range(5)]
    passed = True
    rows_mod, rows_aldous, rows_j = [], [], []
    summary_n, noise_free = {}, []
    # the diagnostics read the noise integral, the norm reductions -- each
    # path's V-integral (the Dubinsky sums) and its running-maximum record
    # (the Aldous hitting rules) -- and the per-path reductions below, and
    # no state, no norm of a step and no weighted integral
    grid = replace(run.galerkin, snapshot_stride=exp["integral_stride"],
                   records={"integral_noise", "norm_reductions"}, integral_powers=())
    violations = tgt.window_violations(grid, deltas, thetas, anchors, windows)
    if violations:
        bundle.summary.update(passed=False, failure="; ".join(violations))
        return
    # each block's process, the verb's own or a pool worker, reduces the
    # paths it stepped to their U' modulus, which the modulus table reads,
    # and to their increments at the lags of the Aldous table and of its
    # threshold, calibrated at the smallest window, both on the step grid:
    # from the grid rules' and the threshold's starts, and from each path's
    # running-maximum steps
    eta_theta = min(thetas)
    grid = replace(grid, modulus_lags=tgt.modulus_lags(deltas, grid.times),
                   increment_lags=tgt.increment_lags(thetas, eta_theta, grid.times),
                   increment_starts=tgt.increment_starts(eta_theta, grid.times))
    for n in run.n_list:
        cfg = replace(grid, n=n)
        ens = integrate_ensemble(cfg, run.trajectories, workers=workers)
        if ens.aborted.all():
            bundle.summary.update(passed=False, failure=f"all {len(ens)} trajectories aborted at n = {n}")
            return
        dub = tgt.dubinsky_diagnostic(ens, deltas, exp["slope_threshold"])
        eta = tgt.calibrate_aldous_eta(ens, eta_theta, exp["eta_quantile"])
        ald = tgt.aldous_check(ens, thetas, eta)
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
        del ens
    bundle.add_table("modulus", ["n", "delta", "sup_modulus"], rows_mod)
    bundle.add_table("aldous", ["n", "theta", "exceedance_probability"], rows_aldous)
    bundle.add_table("noise_increment_scaling", ["n", "theta", "median_Udual_increment"], rows_j)
    bundle.summary.update(levels=summary_n, passed=bool(passed))
    if not passed and noise_free:
        bundle.summary["failure"] = (f"no noise reaches level(s) n = {', '.join(map(str, noise_free))}: "
                                     "every compiled noise matrix of P_n G is zero there, so those "
                                     "paths are deterministic")


def run_uniqueness(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    cfg, exp = run.galerkin, run.experiment
    if run.basis.domain.d != 2:
        bundle.summary.update(passed=False, failure="uniqueness experiment requires d = 2")
        return
    if cfg.model is None:
        bundle.summary.update(passed=False, failure="no noise directions configured")
        return
    # the exact L of the full basis, and a witness drawn on the stepped level
    # n, whose compiled system the twins then step with
    L = exact_constants(cfg.model, run.basis).lipschitz_L
    level = _compiled(cfg.basis, cfg.n, cfg.model, cfg.include_B)
    sampled = sampled_lipschitz(level.G, level.lamD, exp["certify_samples"], cfg.seed)
    bundle.summary.update(lipschitz_L=L, lipschitz_L_sampled=sampled)
    failure = twodim.lipschitz_gate_failure(L)
    if failure is None and sampled > L * (1.0 + 1e-9):
        failure = f"sampled Lipschitz quotient {sampled} exceeds the exact L = {L}"
    if failure is not None:
        bundle.summary.update(passed=False, failure=failure)
        return
    # the twin check pairs ride in the batches of the perturbed pairs
    try:
        rep = twodim.pathwise_uniqueness_experiment(
            cfg, L, gamma=exp["gamma"], n_traj=run.trajectories, twins=exp["twin_trajectories"])
    except RuntimeError as e:  # names the lowest pair with an aborted row
        bundle.summary.update(passed=False, failure=str(e))
        return
    ok = rep.identical and rep.median_ratio_T <= exp["median_ratio_bound"]
    bundle.add_table("weighted_ratios", ["traj", "ratio_T", "sup_ratio"],
                     [(i, rep.ratios_at_T[i], rep.sup_ratios[i]) for i in range(rep.trajectories)])
    bundle.summary.update(
        eps=rep.eps, C_eps=rep.C_eps, gamma=exp["gamma"],
        twins_identical=rep.identical, median_ratio_T=rep.median_ratio_T,
        median_ratio_bound=exp["median_ratio_bound"], passed=bool(ok),
    )


def run_spaces(run: RunConfig, bundle: ResultBundle, workers: int) -> None:
    exp = run.experiment
    spec, cert = tgt.build_nested_space(exp["phi_norms"] or [1.0] * exp["levels"], exp["eta0"])
    bundle.add_table("nested_space", ["level", "eta", "phi_norm", "radius"],
                     [(i + 1, spec.etas[i + 1], spec.phi_norms[i], spec.radii[i])
                      for i in range(len(spec.radii))])
    bundle.summary.update(
        eta0=exp["eta0"], levels=len(spec.radii),
        embedding_norm_bound=cert.embedding_norm_bound,
        max_embedding_norm=cert.max_embedding_norm,
        embedding_margin=cert.embedding_margin,
        tail_margin=cert.tail_margin,
        passed=cert.passed,
    )


# verb -> name of its runner(run, bundle, workers), looked up at dispatch so
# that a rebound runner (a tracing wrapper) is the one called.  A runner fills
# the bundle's summary, whose "passed" is the verb's one verdict
VERBS = {verb: "run_" + verb.replace("-", "_") for verb in ("verify-operators", "certify-noise",
         "simulate", "ensemble", "estimates", "tightness", "uniqueness", "spaces")}


def run_command(verb: str, run: RunConfig, out_dir, workers: int | None = None) -> int:
    """Dispatch one verb; writes the bundle and returns the exit status,
    0 exactly when the summary says the verb passed."""
    if verb not in VERBS:
        raise ValueError(f"unknown verb {verb!r}; expected one of {tuple(VERBS)}")
    workers = workers if workers is not None else run.workers
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    bundle = ResultBundle(out_dir)
    bundle.summary.update(verb=verb, config_hash=run.config_hash, seed=run.galerkin.seed)
    globals()[VERBS[verb]](run, bundle, workers)
    bundle.write_summary()
    return 0 if bundle.summary["passed"] else 1


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
