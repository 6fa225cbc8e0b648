"""Time-to-verdict benchmark of the sgns CLI verbs.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed).  One run of a workload:

1. writes the workload's JSON config with ``ensemble.base_seed = N``;
2. spawns SETUP_SPAWNS processes that only import ``sgns.cli`` and call
   ``load_config``, for set-up time samples;
3. runs the verb in a closed loop, one fresh process at a time, through
   ``sgns.cli.run_command`` with 2 pool workers, until S seconds have passed
   (at least once);
4. with ``--trace 1``, runs the verb once more with every public function of
   the sgns modules wrapped (see spans.py) and derives per-layer metrics.

Each invocation is checked: exit status 0, ``summary.json["passed"]``, and a
SHA-256 digest of ``summary.json`` and the CSV tables that must equal the
digest of every other invocation at this seed, in this run and in earlier
runs of the same checkout and source.  The last line of output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics with ``--trace 0``, per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SPAWNS = 4
CHILD_TIMEOUT_S = 150

END_TO_END = [
    ("verdict_s", "s"),
    ("setup_s", "s"),
    ("path_steps_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    # run_command lets SGNS_WORKERS override the worker count
    env.pop("SGNS_WORKERS", None)
    env.pop("PYTHONPATH", None)
    return env


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def digest(paths) -> str:
    """SHA-256 over the names and bytes of the given files, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def bundle_bytes(bundle: Path) -> int:
    return sum(p.stat().st_size for p in bundle.rglob("*") if p.is_file())


class Run:
    def __init__(self, root: Path, work: Path, name: str, seed: int, smoke: bool):
        self.root, self.work, self.name = root, work, name
        self.verb, cfg = workloads.build(name, seed, smoke)
        self.steps = workloads.path_steps(self.verb, cfg)
        self.config = work / "config.json"
        self.config.write_text(json.dumps(cfg, indent=1) + "\n")
        self.env = child_env()
        self.setup: list = []
        self.invocations: list = []
        self.count = 0

    def spawn(self, extra: list) -> dict:
        """One child process; returns its result file plus spawn-side timings."""
        self.count += 1
        res = self.work / f"result-{self.count}.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--root", str(self.root),
               "--config", str(self.config), "--result", str(res), *extra]
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t_spawn = time.perf_counter()
        # own process group, so that a timeout also ends the pool workers
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.work, stdout=subprocess.DEVNULL,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, stderr = proc.communicate()
            stderr += f"\ntimed out after {CHILD_TIMEOUT_S} s"
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        out = json.loads(res.read_text()) if proc.returncode == 0 and res.exists() else {}
        out["returncode"] = proc.returncode
        out["stderr"] = stderr[-4000:]
        if "loaded" in out:
            out["setup_s"] = out["loaded"] - t_spawn
        out["cpu_s"] = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
        return out

    def setup_only(self):
        out = self.spawn([])
        if "setup_s" not in out:
            raise RuntimeError(f"set-up failed (exit {out['returncode']}):\n{out['stderr']}")
        self.setup.append(out["setup_s"])

    def invoke(self, trace: bool) -> dict:
        i = len(self.invocations) + 1
        bundle = self.work / f"bundle-{i}"
        extra = ["--verb", self.verb, "--out", str(bundle), "--workers", str(workloads.WORKERS)]
        if trace:
            trace_dir = self.work / f"trace-{i}"
            trace_dir.mkdir()
            extra += ["--trace-dir", str(trace_dir), "--invocation", f"{self.name}/{i}"]
        out = self.spawn(extra)
        out.update(traced=trace, bundle=bundle, problems=[])
        if "setup_s" in out and not trace:
            self.setup.append(out["setup_s"])
        if out["returncode"] != 0 or "exit" not in out:
            out["problems"].append(f"child exited {out['returncode']}: {out['stderr']}")
        elif out.get("exception"):
            out["problems"].append(out["exception"])
        else:
            summary = json.loads((bundle / "summary.json").read_text())
            if out["exit"] != 0 or summary.get("passed") is not True:
                out["problems"].append(
                    f"verdict FAIL: exit {out['exit']}, passed={summary.get('passed')}")
            out["digest"] = digest(p for p in sorted(bundle.iterdir())
                                   if p.name == "summary.json" or p.suffix == ".csv")
        self.invocations.append(out)
        return out


def check_digests(run: Run, key: str, cache_path: Path):
    """A digest that differs from another repeat at this seed fails the invocation."""
    cache = json.loads(cache_path.read_text()) if cache_path.exists() else {}
    ref = cache.get(key)
    for inv in run.invocations:
        d = inv.get("digest")
        if d is None:
            continue
        if ref is None:
            ref = d
        elif d != ref:
            inv["problems"].append(f"bundle digest {d[:16]} differs from {ref[:16]} at this seed")
    if ref is not None and key not in cache:
        cache[key] = ref
        tmp = cache_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(cache, indent=1, sort_keys=True) + "\n")
        tmp.replace(cache_path)
    return ref


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for the benchmark's tests")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "sgns" / "cli.py").is_file():
        print(f"error: {root} holds no src/sgns; run from the root of an sgns checkout",
              file=sys.stderr)
        return 2
    sources = sorted((root / "src" / "sgns").rglob("*.py"))
    base = root / ".bench_work"
    work = base / (args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    run = Run(root, work, args.workload, args.seed, args.smoke)
    env_info = machine()
    print("machine " + json.dumps(env_info, sort_keys=True))
    for _ in range(SETUP_SPAWNS // 2):
        run.setup_only()
    start = time.perf_counter()
    while (len(run.invocations) < workloads.REPEATS.get(args.workload, 1)
           or time.perf_counter() - start < args.seconds):
        run.invoke(trace=False)
    for _ in range(SETUP_SPAWNS - SETUP_SPAWNS // 2):
        run.setup_only()
    untraced = list(run.invocations)
    if args.trace:
        traced = run.invoke(trace=True)

    key = f"{args.workload}/{args.seed}/{digest([run.config])[:16]}/{digest(sources)[:16]}"
    ref = check_digests(run, key, base / "digests.json")
    failed = sum(1 for inv in run.invocations if inv["problems"])
    attempted = len(run.invocations)
    for i, inv in enumerate(run.invocations, 1):
        status = "FAIL " + inv["problems"][0].strip().splitlines()[-1] if inv["problems"] else "ok"
        print(f"invocation {i} traced={int(inv['traced'])} verdict_s={inv.get('verdict_s', float('nan')):.4f} "
              f"setup_s={inv.get('setup_s', float('nan')):.4f} cpu_s={inv['cpu_s']:.3f} "
              f"peak_rss_mb={inv.get('peak_rss_mb', float('nan')):.1f} {status}")
        for problem in inv["problems"]:
            print(problem, file=sys.stderr)
    print(f"digest {args.workload} seed={args.seed} sha256={ref}")

    good = [inv for inv in untraced if not inv["problems"]]
    metrics: dict = {}
    if good:
        e2e = {
            "verdict_s": statistics.median(inv["verdict_s"] for inv in good),
            "setup_s": statistics.median(run.setup),
            "path_steps_per_s": statistics.median(run.steps / inv["verdict_s"] for inv in good),
            "cpu_s": statistics.median(inv["cpu_s"] for inv in good),
            "peak_rss_mb": statistics.median(inv["peak_rss_mb"] for inv in good),
        }
        for name, unit in END_TO_END:
            samples = len(run.setup) if name == "setup_s" else len(good)
            print(f"metric {name} = {e2e[name]:.6g} {unit}  (median of {samples})")
        if not args.trace:
            metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END}
    print(f"metric failed_frac = {failed / attempted:.6g} 1  ({failed} of {attempted})")
    if args.trace and not traced["problems"] and good:
        per = layers.derive(spans.load(work / f"trace-{attempted}"), bundle_bytes(traced["bundle"]),
                            traced["verdict_s"], [inv["verdict_s"] for inv in good])
        for name, unit in layers.PER_LAYER:
            print(f"layer {name} = {per[name]:.6g} {unit}")
        metrics = {name: {"value": per[name], "unit": unit} for name, unit in layers.PER_LAYER}
    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (work / "result.json").write_text(json.dumps({**result, "machine": env_info, "seed": args.seed,
                                                  "workload": args.workload}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
