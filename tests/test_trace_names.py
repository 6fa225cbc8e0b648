"""The span tracer of `bench/spans.py` binds sgns functions and methods by
name; a rename would fail every traced benchmark run at install.  These
checks read `bench/` and change nothing there."""

import importlib
import inspect
from pathlib import Path

import pytest

from sgns import galerkin

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("spans")


def test_every_traced_name_resolves(spans):
    targets = spans._targets()
    names = {name for name, _, _ in targets}
    for short, dotted in spans.EXTRA.items():
        for name in dotted:
            assert f"{short}.{name.removesuffix('.__init__')}" in names
    for name, owner, attr in targets:
        assert callable(getattr(owner, attr)), name
    assert spans.HOT in names


def test_ensemble_span_attributes_bind(spans):
    assert "galerkin.integrate_ensemble" in spans.ATTRS
    params = inspect.signature(galerkin.integrate_ensemble).parameters
    assert "n_traj" in params and "workers" in params
