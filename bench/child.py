"""One timed sgns invocation in a fresh process, started by run.py.

    python3 bench/child.py --root R --config cfg.json --result res.json
        [--verb V --out DIR --workers N] [--trace-dir D --invocation ID]

Without --verb it only sets up (interpreter, ``import sgns.cli``, the
basis built by ``load_config``) and stops.  The result file holds the
monotonic-clock instant at which ``load_config`` returned, so the parent
can subtract its spawn instant, plus the verb's exit status, its wall time
from ``run_command`` entry to return (the bundle is written by then) and
the peak RSS of this process and of each of its pool workers.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing.util
import resource
import sys
import time
import traceback
from pathlib import Path


class WorkerPeaks:
    """Peak RSS of every forked multiprocessing worker, in MB.

    A hook run at each worker's start registers a finalizer that appends the
    worker's ``ru_maxrss`` to a file when the worker exits.  A pool joins its
    workers before ``integrate_ensemble`` returns, so the file is complete
    once the verb has returned.
    """

    def __init__(self, path: Path):
        self.path = path
        multiprocessing.util.register_after_fork(self, WorkerPeaks._started)

    def _started(self):
        multiprocessing.util.Finalize(None, self._report, exitpriority=0)

    def _report(self):
        with open(self.path, "a") as fh:
            fh.write(f"{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss}\n")

    def read(self) -> list:
        if not self.path.exists():
            return []
        return [int(line) / 1024.0 for line in self.path.read_text().split()]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--verb")
    ap.add_argument("--out")
    ap.add_argument("--workers", type=int)
    ap.add_argument("--trace-dir")
    ap.add_argument("--invocation", default="")
    args = ap.parse_args()

    src = Path(args.root, "src")
    sys.path.insert(0, str(src))
    import sgns.cli
    import sgns.config

    if not Path(sgns.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"sgns imported from {sgns.__file__}, not from {src}")
    tracer = None
    if args.trace_dir:
        import spans

        tracer = spans.install(args.trace_dir, args.invocation)
    run = sgns.config.load_config(args.config)
    loaded = time.perf_counter()
    result = {"loaded": loaded}
    if args.verb:
        workers = WorkerPeaks(Path(args.result + ".workers"))
        try:
            t0 = time.perf_counter()
            code = sgns.cli.run_command(args.verb, run, args.out, workers=args.workers)
            result["verdict_s"] = time.perf_counter() - t0
            result["exit"] = int(code)
        except Exception:
            result["exit"] = None
            result["exception"] = traceback.format_exc()
        if tracer is not None:
            tracer.flush()
        # pools run one after another and each has at most --workers processes
        # alive, so the largest --workers worker peaks bound what was resident
        result["worker_peaks_mb"] = workers.read()
        largest = sorted(result["worker_peaks_mb"], reverse=True)[: args.workers]
        result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                                 + sum(largest))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
