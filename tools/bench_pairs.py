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
``machine`` record is the one ``bench/run.py`` prints.  Give both
checkouts sibling directories with names of equal length: on some
workloads peak RSS moves with the path.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from bundle_digests import checkout_env

ROOT = Path(__file__).resolve().parents[1]
RUN_SECONDS = 5


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
    return machine, {**result, "exit_status": proc.returncode}


def side_summary(values: list) -> dict:
    q1, med, q3 = np.percentile(values, [25, 50, 75]) if values else (np.nan,) * 3
    return {"median": float(med), "q1": float(q1), "q3": float(q3), "runs": values}


def compare(parent: list, change: list, metrics: list) -> dict:
    """Per metric: both sides' runs, medians and quartiles, and the change's
    wins over the pairs where both runs were correct."""
    out = {}
    for m in metrics:
        name, lower = m["name"], m["better"] == "lower"
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
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
    for w in (entry["name"] for entry in spec["workloads"]):
        runs = {"parent": [], "change": []}
        for i in range(args.pairs):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                machine, result = bench_run(roots[side], w, args.seed)
                runs[side].append(result)
                print(f"{w} pair {i} {side} correct={result.get('correct')}", file=sys.stderr)
        workloads[w] = {"failed": {s: sum(not r.get("correct") for r in rs) for s, rs in runs.items()},
                        "metrics": compare(runs["parent"], runs["change"], spec["end_to_end"])}
    doc = {"seed": args.seed, "pairs": args.pairs, "run_seconds": RUN_SECONDS,
           "command": "python3 bench/run.py --workload W --seed S --seconds 5 --trace 0",
           "machine": machine, "workloads": workloads, "tier1": tier1(roots["change"])}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
