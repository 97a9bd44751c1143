"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Each criterion is measured independently with fresh objects (no shared
fixtures), so the printed timings reflect full cost including enumeration.
"""
from __future__ import annotations

import json
import random
import subprocess
import sys
import time

from ggs import (
    DefiningVector,
    GeneratingTriple,
    analyze_circulant,
    assemble,
    commutator,
    conjugate,
    enumerate_quotient,
    build_special_elements,
    identity,
    inverse,
    is_beauville_pair,
    make_a,
    make_b,
    psi,
    search_beauville,
    tree_shape,
    verify_claim,
)

from reference import random_portrait, shift_multiplicity

GS = DefiningVector(3, (1, -1))
E10 = DefiningVector(3, (1, 0))
P5 = DefiningVector(5, (1, -1, 1, -1))


class _Gate:
    def __init__(self, number: int, name: str, limit: float):
        self.number = number
        self.name = name
        self.limit = limit
        self.start = time.perf_counter()

    def finish(self, ok: bool) -> None:
        elapsed = time.perf_counter() - self.start
        in_time = elapsed < self.limit
        status = "PASS" if (ok and in_time) else "FAIL"
        print(
            f"criterion {self.number:02d} {status} "
            f"({elapsed:.1f}s of {self.limit:.0f}s allowed): {self.name}",
            flush=True,
        )
        assert ok, f"criterion {self.number} failed its content checks"
        assert in_time, (
            f"criterion {self.number} took {elapsed:.1f}s, over the "
            f"{self.limit:.0f}s limit"
        )


def test_criterion_01_quotient_sizes():
    gate = _Gate(1, "quotient sizes 3/27/2187 and 81/59049", 30.0)
    ok = len(enumerate_quotient(GS, 1)) == 3
    ok &= len(enumerate_quotient(GS, 2)) == 27
    ok &= len(enumerate_quotient(GS, 3)) == 2187
    ok &= len(enumerate_quotient(E10, 2)) == 81
    ok &= len(enumerate_quotient(E10, 3)) == 59049
    gate.finish(ok)


def test_criterion_02_level2_structures():
    gate = _Gate(2, "no structure at p=3 level 2; explicit structure at p=5", 600.0)
    g2 = enumerate_quotient(GS, 2)
    exhaustive = search_beauville(g2, "exhaustive")
    pruned = search_beauville(g2, "pruned")
    ok = exhaustive.refuted and pruned.refuted
    cert3 = verify_claim("thm-G2", GS, 2)
    ok &= cert3.verified  # verifies the absence claim
    cert5 = verify_claim("thm-G2", P5, 2)
    ok &= cert5.verified and cert5.element_count == 3125
    ok &= "triple_1" in cert5.witnesses and "triple_2" in cert5.witnesses
    # confirm the returned witness pair literally
    h2 = enumerate_quotient(P5, 2)
    t1 = _decode(h2, cert5.witnesses["triple_1"])
    t2 = _decode(h2, cert5.witnesses["triple_2"])
    ok &= is_beauville_pair(t1, t2, h2).verified
    gate.finish(ok)


def test_criterion_03_level3_structure():
    gate = _Gate(3, "explicit structure at p=3 level 3 with section identities", 120.0)
    cert = verify_claim("thm-G3", GS, 3)
    ok = cert.verified and cert.exhaustive and cert.element_count == 2187
    # independent bit-exact recomputation of the section identities
    group = enumerate_quotient(GS, 3)
    special = build_special_elements(group)
    a, b = group.a, group.b
    sh2 = tree_shape(3, 2)
    a2, b2 = make_a(sh2), make_b(GS, sh2)
    comm2 = commutator(a2, b2)
    av_cubed = (a * special.v) ** 3
    ok &= psi(av_cubed).sections == (comm2, comm2, comm2)
    ab_cubed = (a * b) ** 3
    ok &= psi(ab_cubed).sections == (conjugate(b2, a2), b2, b2)
    # the pair named by the certificate intersects trivially
    t1 = _decode(group, cert.witnesses["triple_1"])
    t2 = _decode(group, cert.witnesses["triple_2"])
    ok &= is_beauville_pair(t1, t2, group).verified
    gate.finish(ok)


def test_criterion_04_order_lemma():
    gate = _Gate(4, "order p^2 for ab^i and a^-1 b at levels 3 and 4, p in {3,5}", 5.0)
    ok = True
    for v in (GS, P5):
        for n in (3, 4):
            cert = verify_claim("lemma-orders", v, n)
            ok &= cert.verified
            ok &= len(cert.checks) == v.p and all(c.passed for c in cert.checks)
    gate.finish(ok)


def test_criterion_05_key_proposition():
    gate = _Gate(5, "no conjugacy between distinct power subgroups, p=3 level 3", 120.0)
    cert = verify_claim("prop-key", GS, 3)
    ok = cert.verified and cert.exhaustive and cert.element_count == 2187
    names = [c.name for c in cert.checks]
    # ordered pairs (i, j) with i != j, i, j in 1..p-1
    ok &= sum(1 for x in names if x.startswith("distinct_")) == 2
    gate.finish(ok)


def test_criterion_06_center_and_commutator_lemmas():
    gate = _Gate(6, "center size and commutator exclusions, p=3 level 3", 120.0)
    ok = True
    for claim in ("lemma-center", "lemma-comms-b", "lemma-comms-a"):
        cert = verify_claim(claim, GS, 3)
        ok &= cert.verified and cert.exhaustive and cert.element_count == 2187
    gate.finish(ok)


def test_criterion_07_collision_proposition():
    gate = _Gate(7, "power collision in maximal subgroups, e=(1,0) levels 2 and 3", 300.0)
    ok = True
    for n in (2, 3):
        cert = verify_claim("prop-collision", E10, n)
        ok &= cert.verified and cert.exhaustive
        names = [c.name for c in cert.checks]
        ok &= any(x.endswith("power_collision") for x in names)
    gate.finish(ok)


def test_criterion_08_level2_dual_route():
    gate = _Gate(8, "proof path and literal oracle agree at e=(1,0) level 2", 600.0)
    cert = verify_claim("thm-B", E10, 2)
    ok = cert.verified and cert.exhaustive
    names = [c.name for c in cert.checks]
    ok &= "no_structure_oracle" in names  # literal search, no pruning
    ok &= "no_structure_signatures" in names  # signature exhaustion
    ok &= "equals_center" in names
    # the two independent search engines agree on the group itself
    group = enumerate_quotient(E10, 2)
    ok &= search_beauville(group, "exhaustive").refuted
    ok &= search_beauville(group, "pruned").refuted
    gate.finish(ok)


def test_criterion_09_property_suites():
    gate = _Gate(9, "randomized property suites", 600.0)
    rng = random.Random(2024)
    ok = True

    # group axioms on 10^4 random triples
    sh = tree_shape(3, 3)
    e = identity(sh)
    failures = 0
    for _ in range(10_000):
        f, g, h = (random_portrait(rng, sh) for _ in range(3))
        if (f * g) * h != f * (g * h):
            failures += 1
        if f * inverse(f) != e:
            failures += 1
    ok &= failures == 0

    # circulant rank: elimination equals p - multiplicity on 200 vectors per p
    for p in (3, 5, 7):
        for _ in range(200):
            coeffs = [rng.randrange(p) for _ in range(p - 1)]
            if not any(coeffs):
                coeffs[0] = 1
            v = DefiningVector(p, tuple(coeffs))
            res = analyze_circulant(v)
            ok &= res.rank_gauss == p - res.multiplicity == res.rank_formula
            ok &= res.multiplicity == shift_multiplicity(list(v.e), p)

    # section identity for the p-th powers, all i, p in {3, 5} at level 3
    for v in (GS, P5):
        cert = verify_claim("eq-3.1", v, 3)
        ok &= cert.verified and all(c.passed for c in cert.checks)

    # split/reassemble round-trip
    for shape in (tree_shape(3, 2), tree_shape(3, 3), tree_shape(5, 2)):
        for _ in range(200):
            f = random_portrait(rng, shape)
            ok &= assemble(psi(f)) == f

    gate.finish(ok)


def test_criterion_10_out_of_scale_honesty():
    gate = _Gate(10, "thm-A at p=5 level 3 is skipped, never fabricated", 120.0)
    res = subprocess.run(
        [sys.executable, "-m", "ggs", "verify", "thm-A", "--p", "5",
         "--level", "3", "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=110,
    )
    ok = res.returncode == 0
    doc = json.loads(res.stdout)
    ok &= doc["verdict"] == "skipped: scale"
    ok &= bool(doc["checks"]) and all(c["passed"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    ok &= any("order" in x for x in names)  # element-wise order subclaims
    ok &= any("section" in x or "eq31" in x for x in names)  # section subclaims
    # the library route agrees
    cert = verify_claim("thm-A", P5, 3)
    ok &= cert.verdict == "skipped: scale"
    gate.finish(ok)


def _decode(group, encoded):
    return GeneratingTriple.make(
        group, group.element(encoded[0]), group.element(encoded[1])
    )
