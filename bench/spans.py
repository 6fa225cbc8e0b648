"""In-memory span tracer that wraps the public functions of the sgns modules.

Nothing under ``src/`` is edited: `install` replaces every binding of each
wrapped function (the defining module and every module that imported it by
name) with a timing wrapper.  Each call records a span (id, name, start,
end, parent, invocation id) and feeds a per-process aggregate of calls,
total time and self time (total minus the time of wrapped children).  The
per-step kernel ``CompiledGalerkin.convection`` only feeds the aggregate,
never a span.  Pool workers are forked from the verb process, so they
inherit the wrappers; a fork hook gives each worker fresh state whose
top-level spans point at the parent's open span.  A worker writes its spans
when its top-level call (one pool chunk) returns; the verb process writes
its own when `flush` is called.  Clock: ``time.perf_counter`` (the system
monotonic clock on Linux, so spans of all processes share one time axis).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

MODULES = (
    "config", "spectral", "nonlinear", "noise", "galerkin",
    "estimates", "tightness", "twodim", "io", "cli",
)
# private or method entry points that are layer boundaries too
EXTRA = {
    "galerkin": ("_run_chunk", "CompiledGalerkin.convection"),
    "tightness": ("FunctionFamily.__init__", "FunctionFamily.lag_maxima"),
    "io": ("ResultBundle.write_summary", "ResultBundle.add_table"),
}
HOT = "galerkin.CompiledGalerkin.convection"
# spans kept per name and process; later calls only feed the aggregate
SPAN_CAP = 20000


def _bound(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# work counts the per-layer metrics need, taken at the call boundary:
# name -> f(bound arguments, result) -> span attributes
ATTRS = {
    "galerkin.integrate_trajectory": lambda a, rec: {
        "steps": int(rec.abort_step if rec.aborted else rec.steps)},
    "galerkin.build_convection_tensor": lambda a, _: {"n": int(a["n"])},
    "galerkin.integrate_ensemble": lambda a, _: {
        "workers": int(a["workers"]), "n_traj": int(a["n_traj"])},
}


class Tracer:
    def __init__(self, out_dir, invocation: str):
        self.out_dir = Path(out_dir)
        self.invocation = invocation
        self._reset(remote_parent=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, remote_parent):
        self.pid = os.getpid()
        self.remote_parent = remote_parent
        self.next_id = 0
        self.stack: list = []  # frames: [span id, child seconds]
        self.spans: list = []
        self.per_name: dict = {}  # name -> spans recorded
        self.agg: dict = {}  # name -> [calls, total s, self s]
        self.hot_n3 = 0  # sum of n^3 over convection calls

    def _after_fork(self):
        self._reset(remote_parent=self.stack[-1][0] if self.stack else None)

    def _account(self, name, dur, child):
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = [0, 0.0, 0.0]
        a[0] += 1
        a[1] += dur
        a[2] += dur - child
        if self.stack:
            self.stack[-1][1] += dur

    def wrap(self, name, fn):
        tracer = self
        attrs_of = ATTRS.get(name)
        sig = inspect.signature(fn) if attrs_of else None

        if name == HOT:
            @functools.wraps(fn)
            def hot(sysobj, x):
                t0 = time.perf_counter()
                out = fn(sysobj, x)
                tracer._account(name, time.perf_counter() - t0, 0.0)
                tracer.hot_n3 += sysobj.n ** 3
                return out
            return hot

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            parent = stack[-1][0] if stack else tracer.remote_parent
            sid = f"{tracer.pid}:{tracer.next_id}"
            tracer.next_id += 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer._account(name, t1 - t0, frame[1])
            kept = tracer.per_name.get(name, 0)
            if kept < SPAN_CAP:
                tracer.per_name[name] = kept + 1
                attrs = attrs_of(_bound(sig, args, kwargs), result) if attrs_of else None
                tracer.spans.append([sid, name, t0, t1, parent, tracer.invocation, attrs])
            if not stack and tracer.remote_parent is not None:
                tracer.flush()
            return result

        return traced

    def flush(self):
        """Append this process's spans and aggregate to its file, then clear them."""
        record = {
            "pid": self.pid,
            "worker": self.remote_parent is not None,
            "invocation": self.invocation,
            "spans": self.spans,
            "agg": self.agg,
            "convection_n3": self.hot_n3,
        }
        with open(self.out_dir / f"spans-{self.pid}.jsonl", "a") as fh:
            fh.write(json.dumps(record) + "\n")
        self.spans, self.agg, self.per_name, self.hot_n3 = [], {}, {}, 0


def _targets():
    """(span name, owner object, attribute) for every wrapped function."""
    out = []
    for short in MODULES:
        mod = importlib.import_module(f"sgns.{short}")
        for attr, obj in sorted(vars(mod).items()):
            if (inspect.isfunction(obj) and not attr.startswith("_")
                    and obj.__module__ == mod.__name__):
                out.append((f"{short}.{attr}", mod, attr))
        for dotted in EXTRA.get(short, ()):
            owner = mod
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            label = dotted[: -len(".__init__")] if dotted.endswith(".__init__") else dotted
            out.append((f"{short}.{label}", owner, attr))
    return out


def install(out_dir, invocation: str) -> Tracer:
    """Wrap every public function of the sgns modules, at every binding."""
    tracer = Tracer(out_dir, invocation)
    wrapped = {}
    for name, owner, attr in _targets():
        fn = getattr(owner, attr)
        wrapped[id(fn)] = (fn, tracer.wrap(name, fn))
        setattr(owner, attr, wrapped[id(fn)][1])
    for modname, mod in list(sys.modules.items()):
        if modname == "sgns" or modname.startswith("sgns."):
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
    return tracer


def load(trace_dir) -> list:
    """Every record written under trace_dir, in file then line order."""
    records = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            records.extend(json.loads(line) for line in fh if line.strip())
    return records
