"""The benchmark's layer tracer still finds every function it hooks.

perfbench/tracer.py wraps package functions by name and silently drops the
metrics of any name it cannot find, so renaming or deleting a hooked stage
function would make the traced benchmark result incomplete.  It patches
module attributes, so a stage reached through a reference bound before the
patch (say, a registry holding the function) would record nothing.
"""
from __future__ import annotations

import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_tracer_hooks_resolve_and_cover_benchmark(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import microbench
    from tracer import Tracer, layer_metrics

    tr = Tracer()
    tr.install()
    tr.uninstall()
    assert tr.absent == []

    mul_us = {name: 0.0 for name, _, _ in microbench.SHAPES}
    names = set(layer_metrics(tr, mul_us, 0.0))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert names == {m["name"] for m in declared}


def test_traced_verifier_stages_record_spans(monkeypatch, e10, gs):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from tracer import Tracer

    from ggs import verify_claim

    tr = Tracer()
    tr.install()
    try:
        verify_claim("prop-collision", e10, 2)
        verify_claim("thm-G2", gs, 2)
    finally:
        tr.uninstall()
    names = {s.name for s in tr.spans}
    assert {"verifiers.collision_scan", "verifiers.exponent_check"} <= names
