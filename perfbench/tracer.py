"""Layer tracer for the ggs benchmark, installed from outside the package.

The tracer wraps functions of the `ggs` modules in place for the length of
one traced operation and restores them afterwards; nothing in `src/ggs`
knows about it.  Two kinds of wrapper:

* span wrappers, at layer boundaries that run a bounded number of times per
  claim: each call records a span (name, start, end, parent span) plus the
  counts taken from its arguments and result;
* kernel wrappers, on the hot portrait kernels and `is_generating_pair`,
  which run millions of times: each call only adds to a (parent span, name)
  aggregate of calls and summed time, so memory stays bounded.

Every frame, span or kernel, tracks how much of its duration its children
covered, so each span and aggregate carries a self time.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable


def _elements(args, result):
    return {"elements": len(args[0].elements)}


def _socle_orbits(args, result):
    return {"socle_orbits": result[1]}


def _bytes(args, result):
    return {"bytes": len(result.encode())}


def _length(key: str) -> Callable:
    return lambda args, result: {key: len(result)}


# (module, class or None, attribute, span name, counter).  A private stage
# function that a later version of the package drops is reported as absent.
SPAN_TARGETS: tuple[tuple[str, str | None, str, str, Callable | None], ...] = (
    ("ggs.quotient", "QuotientGroup", "__init__", "quotient.enumerate", _elements),
    ("ggs.quotient", "QuotientGroup", "conjugacy_classes", "quotient.conjugacy_classes", _length("classes")),
    ("ggs.quotient", "QuotientGroup", "derived_subgroup", "quotient.subgroups", None),
    ("ggs.quotient", "QuotientGroup", "maximal_subgroups", "quotient.subgroups", None),
    ("ggs.quotient", "QuotientGroup", "center", "quotient.subgroups", None),
    ("ggs.quotient", "QuotientGroup", "normal_closure", "quotient.subgroups", None),
    ("ggs.beauville", None, "_socle_data", "beauville.socle", _socle_orbits),
    ("ggs.beauville", None, "_signature_table", "beauville.signature_table", _length("signatures")),
    ("ggs.beauville", None, "_witness_hunt", "beauville.witness_hunt", None),
    ("ggs.beauville", None, "subgroup_conjugation_orbit", "beauville.orbit", _length("subgroups")),
    ("ggs.beauville", None, "sigma_set", "beauville.sigma", _length("members")),
    ("ggs.beauville", None, "is_beauville_pair", "beauville.literal_check", None),
    ("ggs.verifiers", None, "_collision_scan", "verifiers.collision_scan", None),
    ("ggs.verifiers", None, "_exponent_check", "verifiers.exponent_check", None),
    ("ggs.parallel", None, "pmap", "parallel.pmap", _length("items")),
    ("ggs.certificate", "Certificate", "canonical_json", "certificate.canonical_json", _bytes),
)

KERNEL_TARGETS: tuple[tuple[str, str | None, str, str], ...] = (
    ("ggs.portrait", "Portrait", "__mul__", "portrait.mul"),
    ("ggs.portrait", "Portrait", "conjugate_by", "portrait.conjugate_by"),
    ("ggs.portrait", "Portrait", "__pow__", "portrait.pow"),
    ("ggs.portrait", "Portrait", "order", "portrait.order"),
    ("ggs.portrait", "Portrait", "inverse", "portrait.inverse"),
    ("ggs.quotient", "QuotientGroup", "is_generating_pair", "quotient.is_generating_pair"),
)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)
    # kernel name -> [calls, total seconds, seconds covered by child frames]
    kernels: defaultdict = field(default_factory=lambda: defaultdict(lambda: [0, 0.0, 0.0]))

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """Span and kernel recorder; `install` patches ggs, `uninstall` restores it."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.installed: set[str] = set()
        self.absent: list[str] = []
        # The time children covered, one entry per open frame.
        self._frames: list[float] = [0.0]
        self._current = Span(-1, "", None, 0.0)  # outside every span
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------------

    def span(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        frames = self._frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._current
            rec = Span(len(self.spans), name, parent.id if parent.id >= 0 else None, 0.0)
            self.spans.append(rec)
            self._current = rec
            frames.append(0.0)
            rec.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end = perf_counter()
                rec.child_s = frames.pop()
                frames[-1] += rec.end - rec.start
                self._current = parent
            if counter is not None:
                rec.counts.update(counter(args, result))
            return result

        return wrapper

    def kernel(self, name: str, fn: Callable) -> Callable:
        frames = self._frames

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frames.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                child = frames.pop()
                frames[-1] += elapsed
                agg = self._current.kernels[name]
                agg[0] += 1
                agg[1] += elapsed
                agg[2] += child

        return wrapper

    # -- patching -------------------------------------------------------------

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap(self, module: str, cls: str | None, attr: str, make: Callable) -> bool:
        mod = importlib.import_module(module)
        owner = getattr(mod, cls) if cls else mod
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        wrapped = make(original)
        self._patch(owner, attr, wrapped)
        if cls is None:
            # `from .x import f` copies the binding into other modules.
            for name, mod in list(sys.modules.items()):
                if name.startswith("ggs.") and mod is not owner:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapped)
        return True

    def install(self) -> None:
        targets = [
            (m, c, a, n, lambda fn, n=n, k=k: self.span(n, fn, k))
            for m, c, a, n, k in SPAN_TARGETS
        ]
        targets += [
            (m, c, a, n, lambda fn, n=n: self.kernel(n, fn)) for m, c, a, n in KERNEL_TARGETS
        ]
        for module, cls, attr, name, make in targets:
            if self._wrap(module, cls, attr, make):
                self.installed.add(name)
            else:
                self.absent.append(".".join(filter(None, (module, cls, attr))))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def self_s(self, name: str) -> float:
        spans = sum(s.self_s for s in self.spans if s.name == name)
        kernels = sum(
            s.kernels[name][1] - s.kernels[name][2] for s in self.spans if name in s.kernels
        )
        return spans + kernels

    def calls(self, name: str, under: str | None = None) -> int:
        """Calls of a kernel, optionally only those directly under spans named `under`."""
        spans = self.spans if under is None else [s for s in self.spans if s.name == under]
        return sum(s.kernels[name][0] for s in spans if name in s.kernels)

    def count(self, span_name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == span_name)

    def inclusive_s(self, name: str) -> float:
        """Wall time inside spans of this name, not counting nested ones twice."""
        ids = {s.id for s in self.spans if s.name == name}
        return sum(
            s.end - s.start for s in self.spans if s.name == name and s.parent not in ids
        )

    def unentered(self) -> list[str]:
        """Installed spans and kernels that recorded no call."""
        entered = {s.name for s in self.spans}
        entered.update(k for s in self.spans for k in s.kernels)
        return sorted(self.installed - entered)

    def dump(self) -> dict:
        """Spans, each with its kernel aggregates, for the results file."""
        return {
            "absent": self.absent,
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                    "counts": s.counts,
                    "kernels": {
                        n: {"calls": c, "total_s": t, "self_s": t - ch}
                        for n, (c, t, ch) in sorted(s.kernels.items())
                    },
                }
                for s in self.spans
            ],
        }


SPAN_COUNTS = (
    ("quotient.enumerate.elements", "quotient.enumerate", "elements"),
    ("quotient.classes", "quotient.conjugacy_classes", "classes"),
    ("beauville.socle_orbits", "beauville.socle", "socle_orbits"),
    ("beauville.signatures", "beauville.signature_table", "signatures"),
    ("beauville.orbit.subgroups", "beauville.orbit", "subgroups"),
    ("beauville.sigma.members", "beauville.sigma", "members"),
    ("parallel.pmap.items", "parallel.pmap", "items"),
    ("certificate.bytes", "certificate.canonical_json", "bytes"),
)


def layer_metrics(tr: Tracer, mul_us: dict[str, float], overhead_s: float) -> dict:
    """Per-layer metrics of one traced operation, as {name: (value, unit)}.

    Times are self times.  Metrics of a function the package no longer has
    are left out rather than reported as zero.
    """
    out: dict[str, tuple[float, str]] = {}

    def put(name: str, value: float, unit: str, source: str) -> None:
        if source in tr.installed:
            out[name] = (value, unit)

    for _, _, _, kernel in KERNEL_TARGETS:
        put(f"{kernel}.calls", tr.calls(kernel), "count", kernel)
        put(f"{kernel}.s", tr.self_s(kernel), "s", kernel)
    for shape, us in mul_us.items():
        put(f"portrait.mul_us.{shape}", us, "us", "portrait.mul")
    for span in dict.fromkeys(t[3] for t in SPAN_TARGETS):
        put(f"{span}.s", tr.self_s(span), "s", span)
    for metric, span, key in SPAN_COUNTS:
        put(metric, tr.count(span, key), "count", span)
    enum = "quotient.enumerate"
    elements, enum_s = tr.count(enum, "elements"), tr.inclusive_s(enum)
    put(f"{enum}.products", tr.calls("portrait.mul", under=enum), "count", enum)
    put(f"{enum}.elements_per_s", elements / enum_s if enum_s else 0.0, "1/s", enum)
    hunt = "beauville.witness_hunt"
    put(f"{hunt}.pair_checks", tr.calls("quotient.is_generating_pair", under=hunt), "count", hunt)
    out["trace.overhead_s"] = (overhead_s, "s")
    return out
