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
    Portrait,
    analyze_circulant,
    assemble,
    commutator,
    cyclic_subgroup,
    enumerate_quotient,
    is_beauville_pair,
    make_a,
    make_b,
    search_beauville,
    subgroup_conjugation_orbit,
    tree_shape,
    verify_claim,
)
from ggs.verifiers import _special_elements

from reference import random_portrait, search_literal, shift_multiplicity

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
    exhaustive = search_literal(g2)
    pruned = search_beauville(g2)
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
    _, v, _ = _special_elements(group)
    a, b = group.a, group.b
    sh2 = tree_shape(3, 2)
    a2, b2 = make_a(sh2), make_b(GS, sh2)
    comm2 = commutator(a2, b2)
    av_cubed = (a * v) ** 3
    ok &= av_cubed.psi().sections == (comm2, comm2, comm2)
    ab_cubed = (a * b) ** 3
    ok &= ab_cubed.psi().sections == (b2.conjugate_by(a2), b2, b2)
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
    ok = cert.verified
    names = [c.name for c in cert.checks]
    # one check over the ordered pairs (i, j) with i != j, i, j in 1..p-1
    ok &= [x for x in names if x.startswith("key_last_layer")] == ["key_last_layer"]
    ok &= "for each of the 2 pairs (i, j)" in cert.checks[-1].detail
    # exhaustive evidence: the conjugation orbits on all 2,187 elements agree
    group = enumerate_quotient(GS, 3)
    ok &= len(group) == 2187
    bases = {
        i: cyclic_subgroup(group, group.element(((group.a * group.b**i) ** 3).labels)).keys
        for i in (1, 2)
    }
    orbits = {i: set(subgroup_conjugation_orbit(group, bases[i])) for i in (1, 2)}
    passed = {c.name: c.passed for c in cert.checks}
    for i, j in ((1, 2), (2, 1)):
        ok &= bases[i] in orbits[i]
        ok &= (bases[i] in orbits[j]) == (not passed["key_last_layer"])
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
    gate = _Gate(8, "proof path, table oracle and literal search agree at e=(1,0) level 2", 600.0)
    cert = verify_claim("thm-B", E10, 2)
    ok = cert.verified and cert.exhaustive
    names = [c.name for c in cert.checks]
    ok &= "no_structure_oracle" in names  # the signature table, not the proof
    ok &= "equals_center" in names
    # the table and the reference literal search agree on the group itself
    group = enumerate_quotient(E10, 2)
    ok &= search_literal(group).refuted
    ok &= search_beauville(group).refuted
    gate.finish(ok)


def test_criterion_09_property_suites():
    gate = _Gate(9, "randomized property suites", 600.0)
    rng = random.Random(2024)
    ok = True

    # group axioms on 10^4 random triples
    sh = tree_shape(3, 3)
    e = Portrait.identity(sh)
    failures = 0
    for _ in range(10_000):
        f, g, h = (random_portrait(rng, sh) for _ in range(3))
        if (f * g) * h != f * (g * h):
            failures += 1
        if f * f.inverse() != e:
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
            ok &= assemble(f.psi()) == f

    gate.finish(ok)


def test_criterion_10_out_of_scale_honesty():
    gate = _Gate(10, "thm-A at p=5 level 3 is decided by its named checks, never fabricated", 120.0)
    res = subprocess.run(
        [sys.executable, "-m", "ggs", "verify", "thm-A", "--p", "5",
         "--level", "3", "--format", "structured"],
        capture_output=True,
        text=True,
        timeout=110,
    )
    ok = res.returncode == 0
    doc = json.loads(res.stdout)
    ok &= doc["verdict"] == "verified" and doc["exhaustive"] is False
    ok &= bool(doc["checks"]) and all(c["passed"] for c in doc["checks"])
    names = [c["name"] for c in doc["checks"]]
    ok &= {"generates_t1", "generates_t2", "inverse_identity"} <= set(names)
    ok &= sum(x.startswith("order_") for x in names) == 6  # the six members
    ok &= [(c["name"], c["passed"]) for c in doc["checks"]
           if c["name"].startswith("key_last_layer")] == [("key_last_layer", True)]
    # the pair argument leaves i in {1, p-1} against j in {2, 3}
    ok &= any("i in {1, p-1} and j in {2, 3}" in note for note in doc["notes"])
    # the library route agrees
    cert = verify_claim("thm-A", P5, 3)
    ok &= cert.canonical_json() == res.stdout
    # a case this route cannot decide: p = 3 enumerates, and past a small
    # budget it is skipped, not verified
    small = verify_claim("thm-A", GS, 4, budget=100)
    ok &= small.verdict == "skipped: scale" and not small.checks
    gate.finish(ok)


def _decode(group, encoded):
    return GeneratingTriple.make(
        group, group.element(encoded[0]), group.element(encoded[1])
    )
