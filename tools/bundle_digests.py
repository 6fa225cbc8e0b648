"""SHA-256 digests of the result bundles of every CLI verb on every demo
config, and of the stdout of every demo script.

    python3 tools/bundle_digests.py [--root CHECKOUT] [--against PARENT_CHECKOUT]

Runs ``python -m sgns.cli <verb> --config <config> --out <dir> --workers <N>``
for every verb of the checkout's ``sgns.cli.VERBS``, every
``demos/configs/*.json`` of the checkout and N = 1, 2 and 3, one at a time,
each in a fresh process that imports the checkout's ``src/`` (nothing is
installed), with BLAS pinned to one thread.  Prints, sorted, one line per
bundle file

    <config> <verb> w<N> <file> <sha256>

and one line ``<config> <verb> w<N> exit_status <code>`` per run, so two
checkouts, say a change and its parent, are compared with ``diff`` on the
outputs.  A ``summary.json`` is printed as two lines: its ``config_hash``
on its own,

    <config> <verb> w<N> summary.json config_hash <hash>

and the digest of the file with that hash's value cut out, so a change to
the config schema, which changes every hash, shows in the ``diff`` as
``config_hash`` lines only.  A verb that does not apply to a config
(``estimates`` on a config with fewer than three levels) still writes its
summary and exit status, which are compared like the rest.

Then it runs every ``demos/*.py`` of the checkout, one at a time, each in a
fresh process of the same environment, and prints, per demo, the lines

    demo <name> exit_status <code>
    demo <name> stdout <sha256>

so a change that only reshapes the demos' calls is checked by the same
``diff``.  The bundles go to a temporary directory, which is also the
demos' working directory, removed at exit.

With ``--against PARENT_CHECKOUT`` it runs both checkouts, the parent
first, and prints only the lines that differ: ``- <line>`` for a line of
the parent's output that the change's lacks, ``+ <line>`` for one of the
change's that the parent's lacks, sorted by the line so that the two
versions of a file stand together.  It exits 1 when any line differs and 0
when none does, and says on stderr how many lines it compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def file_lines(head: str, name: str, data: bytes) -> list:
    """The digest line of one bundle file; a summary's config_hash on a
    line of its own, and the digest of the rest."""
    if name == "summary.json":
        config_hash = json.loads(data).get("config_hash")
        if config_hash:
            rest = data.replace(config_hash.encode(), b"")
            return [f"{head} {name} config_hash {config_hash}", f"{head} {name} {sha256(rest)}"]
    return [f"{head} {name} {sha256(data)}"]


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
            lines += file_lines(head, path.relative_to(out).as_posix(), path.read_bytes())
    return lines


def run_demo(env: dict, demo: Path, cwd: Path) -> list:
    """The exit status and stdout digest lines of one demo script."""
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=cwd, capture_output=True,
                          timeout=RUN_TIMEOUT_S)
    head = f"demo {demo.stem}"
    return [f"{head} exit_status {proc.returncode}",
            f"{head} stdout {sha256(proc.stdout)}"]


def differing_lines(parent: list, change: list) -> list:
    """The lines of `parent` that `change` lacks, as ``- <line>``, and of
    `change` that `parent` lacks, as ``+ <line>``, sorted by the line."""
    out = [(line, f"- {line}") for line in set(parent) - set(change)]
    out += [(line, f"+ {line}") for line in set(change) - set(parent)]
    return [text for _, text in sorted(out)]


def digest_lines(root: Path) -> list:
    """The sorted digest lines of every verb run and demo of the checkout
    `root`."""
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
    return sorted(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", type=Path, default=ROOT, help="source checkout to run (default: this one)")
    parser.add_argument("--against", type=Path, default=None,
                        help="parent checkout: print only the lines that differ from its, exit 1 if any does")
    args = parser.parse_args(argv)
    if args.against is None:
        print("\n".join(digest_lines(args.root.resolve())))
        return 0
    parent = digest_lines(args.against.resolve())
    change = digest_lines(args.root.resolve())
    diff = differing_lines(parent, change)
    if diff:
        print("\n".join(diff))
    print(f"{len(parent)} parent and {len(change)} change lines, {len(diff)} differing", file=sys.stderr)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
