"""SHA-256 digests of the result bundles of every CLI verb on every demo
config, and of the stdout of every demo script.

    python3 tools/bundle_digests.py [--root CHECKOUT]

Runs ``python -m sgns.cli <verb> --config <config> --out <dir> --workers <N>``
for every verb of the checkout's ``sgns.cli.VERBS``, every
``demos/configs/*.json`` of the checkout and N = 1, 2 and 3, one at a time,
each in a fresh process that imports the checkout's ``src/`` (nothing is
installed), with BLAS pinned to one thread.  Prints, sorted, one line per
bundle file

    <config> <verb> w<N> <file> <sha256>

and one line ``<config> <verb> w<N> exit_status <code>`` per run, so two
checkouts, say a change and its parent, are compared with ``diff`` on the
outputs.  A verb that does not apply to a config (``estimates`` on a config
with fewer than three levels) still writes its summary and exit status,
which are compared like the rest.

Then it runs every ``demos/*.py`` of the checkout, one at a time, each in a
fresh process of the same environment, and prints, per demo, the lines

    demo <name> exit_status <code>
    demo <name> stdout <sha256>

so a change that only reshapes the demos' calls is checked by the same
``diff``.  The bundles go to a temporary directory, which is also the
demos' working directory, removed at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN_TIMEOUT_S = 900
WORKERS = (1, 2, 3)


def checkout_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def checkout_verbs(root: Path, env: dict) -> list:
    code = "import sgns.cli; print(' '.join(sgns.cli.VERBS))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, capture_output=True,
                          text=True, check=True)
    return proc.stdout.split()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_one(root: Path, env: dict, config: Path, verb: str, workers: int, out: Path) -> list:
    """The digest lines of one verb invocation."""
    proc = subprocess.run(
        [sys.executable, "-m", "sgns.cli", verb, "--config", str(config), "--out", str(out),
         "--workers", str(workers)],
        env=env, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    head = f"{config.stem} {verb} w{workers}"
    lines = [f"{head} exit_status {proc.returncode}"]
    if out.is_dir():
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            lines.append(f"{head} {path.relative_to(out).as_posix()} {sha256(path)}")
    return lines


def run_demo(env: dict, demo: Path, cwd: Path) -> list:
    """The exit status and stdout digest lines of one demo script."""
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=cwd, capture_output=True,
                          timeout=RUN_TIMEOUT_S)
    head = f"demo {demo.stem}"
    return [f"{head} exit_status {proc.returncode}",
            f"{head} stdout {hashlib.sha256(proc.stdout).hexdigest()}"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=ROOT, help="source checkout to run (default: this one)")
    root = parser.parse_args(argv).root.resolve()
    env = checkout_env(root)
    configs = sorted((root / "demos" / "configs").glob("*.json"))
    verbs = checkout_verbs(root, env)
    lines = []
    with tempfile.TemporaryDirectory(prefix="bundle_digests_") as tmp:
        for config in configs:
            for verb in verbs:
                for workers in WORKERS:
                    out = Path(tmp) / f"{config.stem}-{verb}-w{workers}"
                    lines += run_one(root, env, config, verb, workers, out)
        for demo in sorted((root / "demos").glob("*.py")):
            lines += run_demo(env, demo, Path(tmp))
    print("\n".join(sorted(lines)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
