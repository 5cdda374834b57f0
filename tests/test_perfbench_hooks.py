"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracing.py`` replaces mpcost functions by attribute, at each
module that holds them. If mpcost renames or stops importing one of
them, a traced benchmark run fails; this catches it in the fast suite.
"""

import importlib.util
import sys
from pathlib import Path

import mpcost
from mpcost import MatMulSpec, gen_matmul, load_builtin

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's string annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_and_restores_every_hook_site(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    sites = [site for sites in tracing.TIMED.values() for site in sites]
    sites += [(tracing.CostProfile, attr) for attr in tracing.COUNTED]
    originals = [getattr(owner, attr) for owner, attr in sites]
    tracer = tracing.Tracer()
    with tracer.installed("check", 0):
        for (owner, attr), original in zip(sites, originals):
            assert getattr(owner, attr) is not original, f"{owner.__name__}.{attr}"
        mpcost.best_of(gen_matmul(MatMulSpec(2)), load_builtin("inter-m3.medium"))
    for (owner, attr), original in zip(sites, originals):
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"
    assert [s.name for s in tracer.spans] == ["optimizer.best_of"]
