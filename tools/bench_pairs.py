"""A BENCH file: the end-to-end metrics of a change against its parent, in
alternating pairs of ``bench/run.py`` runs, and the change's Tier-1 wall time.

    python3 tools/bench_pairs.py --parent ../parent --seed 41 --pairs 10 --out BENCH_21.json

For every workload of the change's ``BENCHMARK.json`` it runs ``--pairs``
pairs of ``python3 bench/run.py --workload W --seed S --seconds 5 --trace 0``,
one in each checkout (``--parent`` and ``--change``, default this one), the
parent first in even pairs and the change first in odd ones, each from its
checkout's root (``bench/run.py`` pins BLAS to one thread).  Per workload
and metric it writes every run's value, each side's median and quartiles,
and how many pairs the change won (ties count for neither side), with the
metric's direction and bound.  Then it runs the Tier-1 suite once in the
change's checkout, BLAS pinned to one thread, and writes its wall time, its
summary line and its five slowest tests (pytest's ``--durations=5``).  The
``machine`` record is the one ``bench/run.py`` prints.

Beside ``peak_rss_mb``, which adds the verb process's peak to the largest
worker peaks, each workload's ``peak_split`` shows which process's memory
moved: per run, the median over its verb invocations (each run's
``.bench_work/<workload>/result-*.json``) of the verb process's own peak,
``peak_rss_mb`` minus the worker peaks it summed, and of the largest and
the second largest worker peak, compared like the metrics.  In each
invocation the three add up to ``peak_rss_mb``; the second worker matters
where a verb forks one pool per level, as ``tightness-levels`` does, so
that the two summed peaks are workers of different pools.  The ``build``
record says whether the runs start from bytecode: the value of
``PYTHONDONTWRITEBYTECODE``, which every run inherits, and per checkout
whether ``src/sgns/__pycache__`` exists before the first run and after the
last.  Under that flag and with no cache, every start compiles
``src/sgns`` from source, so ``setup_s`` and ``peak_rss_mb`` move with
the size of the modules.  Give both checkouts sibling directories with
names of equal length: on some workloads peak RSS moves with the path.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bundle_digests import checkout_env

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "bench"))
from workloads import WORKERS  # noqa: E402  (the workers each verb run is given)

RUN_SECONDS = 5
# the parts of peak_rss_mb that `peak_split` records per run
PEAK_SPLIT = [{"name": name, "unit": "MB", "better": "lower", "bound": None}
              for name in ("verb_peak_mb", "worker_peak_mb", "second_worker_peak_mb")]


def bench_run(root: Path, workload: str, seed: int) -> tuple:
    """(machine record, final JSON object) of one untraced bench/run.py run."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(RUN_SECONDS), "--trace", "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    machine = next((json.loads(line[len("machine "):]) for line in lines if line.startswith("machine ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):  # the run died before its result line
        result = {}
    return machine, {**result, **peak_split(root, workload), "exit_status": proc.returncode}


def peak_split(root: Path, workload: str) -> dict:
    """Median verb-process peak and medians of the largest and the second
    largest worker peak (0 where there is none), in MB, over the verb
    invocations of the last bench/run.py run of `workload` in `root`:
    ``peak_rss_mb`` is the first plus the largest WORKERS worker peaks,
    which at WORKERS = 2 are the other two."""
    split = {m["name"]: [] for m in PEAK_SPLIT}
    for path in (root / ".bench_work" / workload).glob("result-*.json"):
        res = json.loads(path.read_text())
        if "peak_rss_mb" not in res:  # a set-up spawn, which runs no verb
            continue
        peaks = sorted(res["worker_peaks_mb"], reverse=True) + [0.0, 0.0]
        split["verb_peak_mb"].append(res["peak_rss_mb"] - sum(peaks[:WORKERS]))
        split["worker_peak_mb"].append(peaks[0])
        split["second_worker_peak_mb"].append(peaks[1])
    return {name: float(np.median(v)) if v else float("nan") for name, v in split.items()}


def pycache(roots: dict) -> dict:
    """Per checkout, whether ``src/sgns/__pycache__`` exists."""
    return {side: (root / "src" / "sgns" / "__pycache__").is_dir() for side, root in roots.items()}


def side_summary(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75]) if values else (np.nan,) * 3
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": values}


def metric_value(run: dict, name: str) -> float:
    return run["metrics"][name]["value"]


def compare(parent: list, change: list, metrics: list, value=metric_value) -> dict:
    """Per metric: both sides' runs, medians and quartiles, and the change's
    wins over the pairs where both runs were correct; `value(run, name)`
    reads a run's value."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(value(p, name), value(c, name))
                 for p, c in zip(parent, change) if p.get("correct") and c.get("correct")]
        wins = sum((c < p) if lower else (c > p) for p, c in pairs)
        out[name] = {"unit": m["unit"], "better": m["better"], "bound": m["bound"],
                     "parent": side_summary([p for p, _ in pairs]),
                     "change": side_summary([c for _, c in pairs]),
                     "change_wins": wins, "pairs": len(pairs)}
    return out


def tier1(root: Path) -> dict:
    """Wall time, summary line and five slowest tests of one Tier-1 run."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=root, env=checkout_env(root), capture_output=True, text=True)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    slowest = [{"seconds": float(m.group(1)), "test": m.group(2)}
               for m in (re.match(r"([\d.]+)s \w+\s+(\S+)", line) for line in lines) if m][:5]
    return {"wall_s": round(wall, 1), "exit_status": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else "", "slowest": slowest}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, default=ROOT, help="checkout of the change (default: this one)")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    machine, workloads = {}, {}
    build = {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
             "pycache_before": pycache(roots)}
    for w in (entry["name"] for entry in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                machine, result = bench_run(roots[side], w, args.seed)
                runs[side].append(result)
                print(f"{w} pair {i} {side} correct={result.get('correct')}", file=sys.stderr)
        workloads[w] = {"failed": {s: sum(not r.get("correct") for r in rs) for s, rs in runs.items()},
                        "metrics": compare(runs["parent"], runs["change"], spec["end_to_end"]),
                        "peak_split": compare(runs["parent"], runs["change"], PEAK_SPLIT,
                                             lambda run, name: run[name])}
    build["pycache_after"] = pycache(roots)
    doc = {"seed": args.seed, "pairs": args.pairs, "run_seconds": RUN_SECONDS,
           "command": "python3 bench/run.py --workload W --seed S --seconds 5 --trace 0",
           "machine": machine, "build": build, "workloads": workloads, "tier1": tier1(roots["change"])}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
