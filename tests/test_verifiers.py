"""Claim verifiers, certificates, and replay."""
from __future__ import annotations

import json
import random
import re
import time
from itertools import compress, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ggs import (
    CLAIMS,
    SEARCH_ELEMENT_CAP,
    DefiningVector,
    GeneratingTriple,
    Portrait,
    enumerate_quotient,
    is_beauville_pair,
    predicted_order,
    replay_certificate,
    search_beauville,
    sigma_set,
    verify_claim,
)
from ggs import quotient, verifiers
from ggs.certificate import Certificate
from ggs.portrait import PsiDecomposition, assemble, commutator, make_a, make_b, tree_shape

from reference import (
    brute_normal_closure,
    commutator_scan,
    element_collision_scan,
    element_exponent_check,
    naive_compose,
    pair_triple_line_check,
    parent_refuses,
    power_conjugates,
    power_instance_scan,
    rotation_search_meets,
)


def test_claims_table():
    assert len(CLAIMS) == 14
    for claim, record in CLAIMS.items():
        assert record.statement and "p" in record.statement
        assert record.level >= 1


def test_unknown_claim(gs):
    with pytest.raises(ValueError) as err:
        verify_claim("thm-Z", gs, 2)
    assert "thm-A" in str(err.value)


@pytest.mark.parametrize("n", [None, 3])
def test_claim_params_refuses_an_unknown_claim(gs, n):
    # With or without a level, the unknown id is named with the known ones.
    with pytest.raises(ValueError, match="unknown claim 'thm-Z'; known claims: eq-3.1, "):
        verifiers.claim_params("thm-Z", gs, n)
    assert verifiers.claim_params("thm-A", gs, n) == {"p": 3, "e": [1, 2], "n": 3}


def test_statement_copied_into_certificate(gs):
    cert = verify_claim("lemma-orders", gs, 3)
    assert cert.statement == CLAIMS["lemma-orders"].statement
    assert cert.params == {"p": 3, "e": [1, 2], "n": 3}
    assert cert.wall_time > 0


def test_lemma_orders(gs, p5alt):
    for v in (gs, p5alt):
        cert = verify_claim("lemma-orders", v, 3)
        assert cert.verified
        p = v.p
        # one order check per ab^i plus one for a^{-1}b
        assert len(cert.checks) == p
        assert all(c.passed for c in cert.checks)
    with pytest.raises(ValueError):
        verify_claim("lemma-orders", DefiningVector(3, (1, 0)), 3)


def test_eq31(gs, p5alt, e10):
    for v in (gs, p5alt):
        cert = verify_claim("eq-3.1", v, 3)
        assert cert.verified and cert.exhaustive
    with pytest.raises(ValueError):
        verify_claim("eq-3.1", e10, 3)


def test_lemma_conjugates(gs, e10):
    for v in (gs, e10):
        cert = verify_claim("lemma-conjugates", v, 2)
        assert cert.verified
        assert len(cert.witnesses["conjugates"]) == 3
    with pytest.raises(ValueError):
        verify_claim("lemma-conjugates", gs, 3)


def test_gupta_sidki_lemmas(gs, e10):
    for claim in ("lemma-center", "lemma-comms-b", "lemma-comms-a"):
        cert = verify_claim(claim, gs, 3)
        assert cert.verified, claim
        assert cert.exhaustive
        assert cert.element_count == 2187
        with pytest.raises(ValueError):
            verify_claim(claim, e10, 3)
        with pytest.raises(ValueError):
            verify_claim(claim, gs, 2)


@pytest.mark.parametrize("e", [(1, 2), (2, 1)])
def test_commutator_lemmas_match_the_scan(e):
    # Both p = 3 periodic vectors; x = a has central commutators, x = b none.
    v = DefiningVector(3, e)
    group = enumerate_quotient(v, 3)
    center = [z for z in group.center() if not z.is_identity()]
    for x, central in ((group.a, 2), (group.b, 0)):
        scanned = commutator_scan(group, x)
        assert verifiers._commutator_hits(group, x, group.elements) == sorted(scanned)
        hits = verifiers._commutator_hits(group, x, center)
        assert hits == sorted(scanned & {z.labels for z in center})
        assert len(hits) == central
    assert verifiers._special_elements(group)[1].labels not in commutator_scan(group, group.a)
    for claim in ("lemma-comms-a", "lemma-comms-b"):
        assert verify_claim(claim, v, 3).verified, claim


@pytest.mark.parametrize("e", [(1, 2), (2, 1)])
def test_special_elements_match_the_oracles(e):
    # Both p = 3 periodic vectors.  [a, b] = a^-1 b^-1 a b at depth 2 by
    # naive composition (a and b have order 3, so x^-1 = x x); u is the one
    # nontrivial element commuting with a and b, by naive composition, with
    # sections ([a, b], [a, b], [a, b]); v = ([a, b], 1, 1) lies in st(1)',
    # the normal closure of the [b, b^(a^k)], walked by brute force.
    v_def = DefiningVector(3, e)
    group = enumerate_quotient(v_def, 3)
    sub = tree_shape(3, 2)
    sa, sb = make_a(sub), make_b(v_def, sub)
    word = [sa, sa, sb, sb, sa, sb]
    comm = word[0]
    for x in word[1:]:
        comm = naive_compose(comm, x)
    a, b = group.a, group.b
    central = [
        z
        for z in group.elements
        if not z.is_identity()
        and naive_compose(z, a) == naive_compose(a, z)
        and naive_compose(z, b) == naive_compose(b, z)
    ]
    assert len(central) == 2  # |Z| = 3
    sections = PsiDecomposition(0, (comm, comm, comm))
    (u,) = [z for z in central if z.psi() == sections]
    ident = Portrait.identity(sub)
    v = assemble(PsiDecomposition(0, (comm, ident, ident)))
    seeds = [commutator(b, b.conjugate_by(a**k)) for k in range(1, 3)]
    assert v.labels in brute_normal_closure(group, seeds, [a, b])
    assert verifiers._special_elements(group) == (u, v, comm)


def test_central_commutator_is_the_least_hit(monkeypatch, gs, gs_g3):
    # lemma-comms-b run on a in place of b: both nontrivial central elements
    # are commutators [a, g], and the witness is the label-least of them.
    hits = verifiers._commutator_hits
    monkeypatch.setattr(
        verifiers, "_commutator_hits", lambda group, x, zs: hits(group, group.a, zs)
    )
    cert = verify_claim("lemma-comms-b", gs, 3)
    assert cert.verdict == "refuted"
    assert cert.checks[0].detail.endswith("; 2 of the 2 nontrivial central z do")
    central = commutator_scan(gs_g3, gs_g3.a) & gs_g3.center().keys - {gs_g3.identity.labels}
    assert cert.witnesses["central_commutator"] == gs_g3.element(min(central)).encode()


def test_prop_key(gs):
    with pytest.raises(ValueError):
        verify_claim("prop-key", gs, 2)  # power subgroups degenerate below n=3
    cert = verify_claim("prop-key", gs, 3)
    # The last-layer test decides on depth-3 portraits; nothing is enumerated.
    assert cert.verified and not cert.exhaustive and cert.element_count is None
    assert [c.name for c in cert.checks] == [
        "w1_last_layer",
        "w2_last_layer",
        "offset_valuation",
        "key_last_layer",
    ]
    assert "for each of the 2 pairs (i, j)" in cert.checks[-1].detail
    assert cert.notes[0].startswith("last-layer test:")


def test_prop_key_over_budget(gs):
    # No enumeration, so the budget cannot change the certificate.
    cert = verify_claim("prop-key", gs, 3, budget=100)
    assert cert.verified
    assert cert.canonical_json() == verify_claim("prop-key", gs, 3).canonical_json()


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("n", [3, 4])
def test_prop_key_is_decided_at_every_prime(p, n):
    cert = verify_claim("prop-key", DefiningVector(p, (1, p - 1) * ((p - 1) // 2)), n)
    assert cert.verdict == "verified"
    # p - 1 block checks, offset_valuation and one key_last_layer for every pair.
    assert len(cert.checks) == p + 1
    assert [c.name for c in cert.checks[-2:]] == ["offset_valuation", "key_last_layer"]


def _blank_certificate() -> Certificate:
    return Certificate(
        claim="prop-key", statement="", params={"n": 3}, verdict="", exhaustive=False,
        code_version="",
    )


def _draw_periodic(data, primes: list[int]) -> DefiningVector:
    p = data.draw(st.sampled_from(primes))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 2, max_size=p - 2))
    e.append(-sum(e) % p)
    assume(any(e))
    return DefiningVector(p, tuple(e))


def _key_passes(v: DefiningVector, i: int, j: int) -> bool:
    """key_last_layer on the single pair (i, j)."""
    cert = _blank_certificate()
    verifiers._key_last_layer_checks(cert, v, [(i, j)])
    return {c.name: c.passed for c in cert.checks}["key_last_layer"]


@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_last_layer_test_matches_the_orbit_walk(data):
    # Every (i, j), i = j included, against the depth-3 conjugation walk.
    v = _draw_periodic(data, [3, 5])
    p = v.p
    shape = tree_shape(p, 3)
    a, b = make_a(shape), make_b(v, shape)
    for j in range(1, p):
        conjugates = power_conjugates(v, j)
        for i in range(1, p):
            meets = ((a * b**i) ** p).labels in conjugates
            assert _key_passes(v, i, j) == (not meets), (i, j)
            assert meets == (i == j)


@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_last_layer_test_agrees_with_the_rotation_search_and_the_walk(data):
    # Three sources on every (i, j), i = j included: the closed-form checks,
    # the (k, r) rotation search they replace, and at p <= 5 the orbit walk.
    v = _draw_periodic(data, [3, 5, 7])
    p = v.p
    cert = _blank_certificate()
    pairs = [(i, j) for i in range(1, p) for j in range(1, p)]
    verifiers._key_last_layer_checks(cert, v, pairs)
    passed = {c.name: c.passed for c in cert.checks}
    assert passed["offset_valuation"]
    assert all(passed[f"w{i}_last_layer"] for i in range(1, p))
    shape = tree_shape(p, 3)
    a, b = make_a(shape), make_b(v, shape)
    for j in range(1, p):
        conjugates = power_conjugates(v, j) if p <= 5 else None
        for i in range(1, p):
            met = rotation_search_meets(v, i, j)
            assert _key_passes(v, i, j) == (met is None), (i, j, met)
            if conjugates is not None:
                assert (((a * b**i) ** p).labels in conjugates) == (met is not None), (i, j)


def test_last_layer_test_finds_a_subgroup_conjugate_to_itself(p5alt):
    cert = _blank_certificate()
    assert not verifiers._key_last_layer_checks(cert, p5alt, [(2, 2)])
    # w_1 is always checked: offset_valuation reads its blocks.
    assert [(c.name, c.passed) for c in cert.checks] == [
        ("w1_last_layer", True),
        ("w2_last_layer", True),
        ("offset_valuation", True),
        ("key_last_layer", False),
    ]
    assert "(2, 2) has i = j mod 5" in cert.checks[-1].detail


def _edit_power(monkeypatch, v: DefiningVector, i: int, edit) -> None:
    """Make (ab^i)^p at depth 3, as the last-layer test computes it, come out
    with its depth-2 labels replaced by edit(labels)."""
    shape = tree_shape(v.p, 3)
    a, b = make_a(shape), make_b(v, shape)
    ab_i, power, start = a * b**i, Portrait.__pow__, shape.level_starts[2]

    def edited(self, k):
        out = power(self, k)
        if k == v.p and self == ab_i:
            out = Portrait(shape, out.labels[:start] + edit(out.labels[start:]))
        return out

    monkeypatch.setattr(Portrait, "__pow__", edited)


@pytest.mark.parametrize("claim", ["prop-key", "thm-A"])
def test_an_edited_block_of_a_power_is_refuted(monkeypatch, p5alt, claim):
    # One label of block 3 of w_2 = (ab^2)^5 is moved: the block is no
    # longer its predicted rotation of 2E.
    def move(last: bytes) -> bytes:  # block 3 starts at 15
        return last[:16] + bytes([(last[16] + 1) % 5]) + last[17:]

    _edit_power(monkeypatch, p5alt, 2, move)
    cert = verify_claim(claim, p5alt, 3)
    assert cert.verdict == "refuted"
    assert {c.name for c in cert.checks if not c.passed} == {"w2_last_layer"}


def test_zero_offsets_fail_the_valuation_without_raising(monkeypatch, p5alt):
    # Every block of w_1 = (ab)^5 made E itself: the offsets read are all 0,
    # and C = 0 has no valuation below m.
    _edit_power(monkeypatch, p5alt, 1, lambda last: (bytes(p5alt.e) + b"\0") * 5)
    cert = verify_claim("prop-key", p5alt, 3)
    assert cert.verdict == "refuted"
    failed = {c.name for c in cert.checks if not c.passed}
    assert {"w1_last_layer", "offset_valuation", "key_last_layer"} <= failed
    assert "w2_last_layer" not in failed


def test_standard_pair_does_not_verify_at_p3(gs):
    # At p = 3, p - 1 = 2: the socles <(a^-1 b)^3> and <(ab^2)^3> meet, and
    # ab^3 = a has order 3.
    cert = _blank_certificate()
    assert not verifiers._standard_pair_checks(cert, gs, 3)
    assert {c.name for c in cert.checks if not c.passed} == {
        "order_x2y2_ab3",
        "w3_last_layer",
        "key_last_layer",
    }
    assert cert.checks[-1].detail.endswith("; (2, 2) has i = j mod 3")


def test_thm_a_is_refuted_when_every_rotation_lies_in_u(monkeypatch, p5alt):
    # With U taken to be all of F_p^p, the pair's socles meet.
    monkeypatch.setattr(verifiers, "_one_root_multiplicity", lambda coeffs, p: 0)
    cert = verify_claim("thm-A", p5alt, 4)
    assert cert.verdict == "refuted"
    assert {c.name for c in cert.checks if not c.passed} == {"offset_valuation", "key_last_layer"}
    # Every pair has i != j mod 5: the valuation alone fails the check.
    assert "has i = j" not in cert.checks[-1].detail


def test_prop_collision(e10, gs):
    cert = verify_claim("prop-collision", e10, 2)
    assert cert.verified and cert.exhaustive
    with pytest.raises(ValueError):
        verify_claim("prop-collision", gs, 2)


def _least_on_lines(group, *lines: int) -> str:
    """Encoding of the label-least element on the given coordinate lines."""
    key = min(compress(group.label_keys, group.line_mask(*lines)))
    return Portrait(group.shape, key).encode()


def _certificates(monkeypatch, claim, v, n, scan, oracle):
    """Canonical certificates of one run with the package scan and one with
    the element-by-element oracle patched in under the same name."""
    fast = verify_claim(claim, v, n).canonical_json()
    with monkeypatch.context() as patch:
        patch.setattr(verifiers, scan, oracle)
        slow = verify_claim(claim, v, n).canonical_json()
    return fast, slow


NON_PERIODIC_P3 = [e for e in product(range(3), repeat=2) if sum(e) % 3]
NON_PERIODIC_P5 = random.Random(0).sample(
    [e for e in product(range(5), repeat=4) if sum(e) % 5], 4
)


@pytest.mark.parametrize(
    "p, e, n",
    [(3, e, n) for e in NON_PERIODIC_P3 for n in (2, 3)] + [(5, e, 2) for e in NON_PERIODIC_P5],
)
def test_collision_scan_matches_the_element_oracle(monkeypatch, p, e, n):
    fast, slow = _certificates(
        monkeypatch,
        "prop-collision",
        DefiningVector(p, e),
        n,
        "_collision_scan",
        element_collision_scan,
    )
    assert fast == slow
    assert json.loads(fast)["verdict"] == "verified"


def _edit_last_layer(group) -> str:
    """Add 1 to the first depth-(n-1) label of the label-greatest element on
    line 2 and return the edited element's encoding.  Its class is no longer
    a coset of the last layer, and its top power moves off z^(j*alpha).

    The edit goes into the group's label rows, which every scan reads; the
    label keys and the index derived from them are dropped, so that a later
    lookup derives them from the edited rows."""
    i = max(compress(range(len(group)), group.line_mask(2)), key=group.label_keys.__getitem__)
    m = group.shape.internal_count
    at = i * m + group.shape.level_starts[group.shape.n - 1]
    rows = bytearray(group.rows)
    rows[at] = (rows[at] + 1) % group.vector.p
    group.rows = bytes(rows)
    for derived in ("label_keys", "_index"):
        vars(group).pop(derived, None)
    return Portrait(group.shape, group.rows[i * m : (i + 1) * m]).encode()


@pytest.mark.parametrize("broken", ["order", "coords", "power", "labels"])
def test_collision_scan_names_the_least_offender(e10, monkeypatch, broken):
    group = enumerate_quotient(e10, 2)
    if broken == "order":
        # Every order reads one power of p short: all of lines 2 and 3 offend.
        monkeypatch.setattr(
            quotient, "_orders_of", lambda shape, exps: [shape.p ** (e - 1) for e in exps]
        )
        expected = {"order_witness": _least_on_lines(group, 2, 3)}
    elif broken == "coords":
        # The b-coordinates of line 2 move after the lines were read off them,
        # so the scan expects the wrong power of z there.
        lines = group.lines()
        a, b = group.coords
        group.coords = (a, bytes((y + (line == 2)) % 3 for y, line in zip(b, lines)))
        expected = {"power_witness": _least_on_lines(group, 2)}
    elif broken == "labels":
        # One element's depth-(n-1) labels are edited in the group's rows:
        # the premise check must flag its class, and that element alone
        # offends; its top power comes out 1, so its order is short too.
        edited = _edit_last_layer(group)
        cut = group.shape.level_starts[1]
        flagged = quotient.affine_suspects(
            lambda shape, rows, perm: [None] * (len(rows) // shape.internal_count),
            lambda i, result: True,
            group,
            group.line_mask(2, 3),
        )
        tops = {group.label_keys[i][:cut] for i in compress(range(len(group)), flagged)}
        assert tops == {Portrait.decode(edited).labels[:cut]}
        expected = {"order_witness": edited, "power_witness": edited}
    else:
        # z comes out squared: every top power on lines 2 and 3 misses it.
        central_z = verifiers._central_z
        monkeypatch.setattr(verifiers, "_central_z", lambda shape: central_z(shape) ** 2)
        expected = {"power_witness": _least_on_lines(group, 2, 3)}
    monkeypatch.setattr(verifiers, "enumerate_quotient", lambda v, n, budget: group)
    fast, slow = _certificates(
        monkeypatch, "prop-collision", e10, 2, "_collision_scan", element_collision_scan
    )
    assert fast == slow
    cert = json.loads(fast)
    assert cert["verdict"] == "refuted"
    assert {k: w for k, w in cert["witnesses"].items() if k.endswith("_witness")} == expected


def test_exponent_check_names_the_least_offender(gs, monkeypatch):
    # Every order reads one power of p too long: every element but 1 offends.
    group = enumerate_quotient(gs, 2)
    monkeypatch.setattr(
        quotient, "_orders_of", lambda shape, exps: [shape.p ** (e + 1) for e in exps]
    )
    monkeypatch.setattr(verifiers, "enumerate_quotient", lambda v, n, budget: group)
    fast, slow = _certificates(
        monkeypatch, "thm-G2", gs, 2, "_exponent_check", element_exponent_check
    )
    assert fast == slow
    cert = json.loads(fast)
    assert cert["verdict"] == "refuted"
    least = min(key for key in group.label_keys if any(key))
    assert cert["witnesses"]["exponent_witness"] == Portrait(group.shape, least).encode()


@pytest.mark.parametrize("p, e", [(3, (1, 2)), (5, (1, 4, 1, 4))])
def test_exponent_check_matches_the_element_oracle(monkeypatch, p, e):
    fast, slow = _certificates(
        monkeypatch, "thm-G2", DefiningVector(p, e), 2, "_exponent_check", element_exponent_check
    )
    assert fast == slow


def test_collision_scan_runs_chains_on_an_affine_basis_of_each_class(e10, monkeypatch):
    # e=(1,0), n=3: 36 power classes meet the lines 1 + i, each spanned from
    # 7 members, where scanning every element took 26,244 chain rows.
    rows = []
    chains = quotient.p_power_chains

    def counted(shape, batch, perm):
        rows.append(len(batch) // shape.internal_count)
        return chains(shape, batch, perm)

    monkeypatch.setattr(quotient, "p_power_chains", counted)
    assert verify_claim("prop-collision", e10, 3).verified
    assert sum(rows) <= 36 * 7


def test_collision_scan_makes_one_chain_call_over_every_basis(e10, monkeypatch):
    # e=(1,0), n=3: the 36 bases of 7 members each go to the kernel as 36
    # runs of one call, and no class is left for the full scan.
    calls = []
    chains = quotient.p_power_chains

    def recorded(shape, batch, runs):
        calls.append((len(batch) // shape.internal_count, [width for _, width in runs]))
        return chains(shape, batch, runs)

    monkeypatch.setattr(quotient, "p_power_chains", recorded)
    assert verify_claim("prop-collision", e10, 3).verified
    assert calls == [(36 * 7, [7] * 36)]


def test_scans_build_no_per_element_objects(e10, gs, monkeypatch):
    """The collision scan, the centre battery and the Sigma sets read the
    label and permutation rows; none builds the tuple of Portrait elements."""
    groups = []

    def enumerate_and_keep(v, n, budget):
        groups.append(enumerate_quotient(v, n, budget))
        return groups[-1]

    monkeypatch.setattr(verifiers, "enumerate_quotient", enumerate_and_keep)
    for claim, vector in (("prop-collision", e10), ("thm-B", e10), ("lemma-center", gs)):
        assert verify_claim(claim, vector, 3).verified
    assert not any("elements" in vars(group) for group in groups)
    group = enumerate_quotient(gs, 3)
    sigma = sigma_set(GeneratingTriple.make(group, group.a, group.b), group)
    assert len(sigma) > 1
    assert "elements" not in vars(group)


def test_collision_verdict_builds_no_keys_or_index(e10, monkeypatch):
    """prop-collision at e=(1,0), n=3 (59,049 elements) reads the label rows
    alone: it builds neither the label keys nor the index, nor the elements.
    thm-G2 at p=5, whose signature table looks positions up, builds the
    index on demand and still writes the golden certificate."""
    groups = []

    def enumerate_and_keep(v, n, budget):
        groups.append(enumerate_quotient(v, n, budget))
        return groups[-1]

    monkeypatch.setattr(verifiers, "enumerate_quotient", enumerate_and_keep)
    assert verify_claim("prop-collision", e10, 3).verified
    (group,) = groups
    assert len(group) == 3**10
    assert not {"label_keys", "_index", "elements"} & set(vars(group))
    golden = Path(__file__).resolve().parent / "golden" / "thm-G2__p5_e1_4_1_4__n2.json"
    cert = verify_claim("thm-G2", DefiningVector(5, (1, 4, 1, 4)), 2)
    assert cert.canonical_json() == golden.read_text()


def test_thm_b_level_one(e10):
    cert = verify_claim("thm-B", e10, 1)
    assert cert.verified
    assert [c.name for c in cert.checks] == ["level1_cyclic", "no_structure_oracle"]


def test_thm_b_level_two(e10):
    cert = verify_claim("thm-B", e10, 2)
    assert cert.verified and cert.exhaustive
    names = [c.name for c in cert.checks]
    assert "no_structure_oracle" in names
    assert "equals_center" in names
    assert cert.witnesses["common_subgroup"] == [
        "3,2:0,0,0,0",
        "3,2:0,1,1,1",
        "3,2:0,2,2,2",
    ]


PROOF_CHECKS = [
    "alpha_nonzero",
    "b_section_sum",
    "power_closed_form",
    "z_central",
    "triple_meets_power_line",
]


@pytest.mark.parametrize("p", [3, 5])
def test_pruned_search_agrees_at_level_two(p):
    # The signature table on its own, outside thm-B, finds no structure.
    group = enumerate_quotient(DefiningVector(p, (1,) + (0,) * (p - 2)), 2)
    assert search_beauville(group).refuted


def test_thm_b_over_budget(e10):
    # No verdict without a proof: past the budget the power lemma decides.
    cert = verify_claim("thm-B", e10, 3, budget=1000)
    assert cert.verdict == "verified"
    assert cert.exhaustive is False
    assert [c.name for c in cert.checks] == PROOF_CHECKS
    assert all(c.passed for c in cert.checks)
    assert any(note.startswith("power lemma:") for note in cert.notes)


@pytest.mark.parametrize("broken", ["power", "centre"])
def test_thm_b_past_the_budget_is_refuted_when_the_lemma_fails(monkeypatch, broken):
    central_z = verifiers._central_z
    if broken == "power":
        # z^2 in place of z: no power (ab^i)^(k*p^(n-1)) matches.
        fake = lambda shape: central_z(shape) ** 2
    else:
        # z*a: a moves the root, so it is not central and no power matches.
        fake = lambda shape: central_z(shape) * make_a(shape)
    monkeypatch.setattr(verifiers, "_central_z", fake)
    cert = verify_claim("thm-B", DefiningVector(5, (1, 0, 0, 0)), 4)
    assert cert.element_count is None
    assert cert.verdict == "refuted"
    failed = {c.name for c in cert.checks if not c.passed}
    assert "power_closed_form" in failed
    assert ("z_central" in failed) == (broken == "centre")


POWER_VECTORS = [
    (3, (1, 0)),
    (3, (1, 1)),  # symmetric
    (5, (1, 0, 0, 0)),
    (5, (1, 2, 2, 1)),  # symmetric
    (5, (2, 3, 0, 4)),
    (7, (1, 0, 0, 0, 0, 0)),
    (7, (1, 2, 3, 3, 2, 1)),  # symmetric
    (11, (1,) + (0,) * 9),
    (11, (1, 2, 0, 0, 0, 0, 0, 0, 2, 1)),  # symmetric
]


def _power_closed_form(check, v: DefiningVector, n: int):
    cert = _blank_certificate()
    check(cert, v, n)
    (found,) = [c for c in cert.checks if c.name == "power_closed_form"]
    return found.passed, found.detail


@pytest.mark.parametrize("broken", [None, "power", "centre"])
@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p, e", POWER_VECTORS)
def test_power_lemma_matches_the_instance_scan(monkeypatch, broken, p, e, n):
    # p - 1 instances decide what the (p - 1)^2 instances of every (i, k) do,
    # down to the first failure the detail names.
    central_z = verifiers._central_z
    if broken == "power":
        monkeypatch.setattr(verifiers, "_central_z", lambda shape: central_z(shape) ** 2)
    elif broken == "centre":
        monkeypatch.setattr(
            verifiers, "_central_z", lambda shape: central_z(shape) * make_a(shape)
        )
    v = DefiningVector(p, e)
    got = _power_closed_form(verifiers._power_lemma_checks, v, n)
    assert got == _power_closed_form(power_instance_scan, v, n)
    assert got[0] == (broken is None)


def test_power_lemma_forms_one_power_per_line(monkeypatch):
    p, n = 31, 2
    calls = 0
    mul = Portrait.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(Portrait, "__mul__", counted)
    assert verifiers._power_lemma_checks(
        _blank_certificate(), DefiningVector(p, (1,) + (0,) * (p - 2)), n
    )
    assert calls < (p - 1) ** 2


DECIDED = [(p, n) for p in (3, 5, 7) for n in (2, 3, 4, 5)]


@pytest.mark.parametrize("claim", ["thm-B", "prop-collision"])
@pytest.mark.parametrize("p, n", DECIDED + [(p, n) for p in (11, 13) for n in (3, 4)])
@pytest.mark.parametrize("alpha", [1, 2])
def test_non_periodic_claims_are_decided_at_every_level(claim, p, n, alpha):
    v = DefiningVector(p, (alpha,) + (0,) * (p - 2))
    cert = verify_claim(claim, v, n)
    assert cert.verdict == "verified"
    assert cert.exhaustive == (cert.element_count is not None)
    # The scan confirms the lemma exactly while the quotient fits the cap.
    assert cert.exhaustive == (predicted_order(v, n) <= SEARCH_ELEMENT_CAP)


def test_thm_b_past_the_cap_enumerates_nothing():
    # 7^8 = 5,764,801 elements fit the default budget but not the cap.
    cert = verify_claim("thm-B", DefiningVector(7, (1, 0, 0, 0, 0, 0)), 2)
    assert cert.verdict == "verified"
    assert cert.element_count is None
    assert cert.notes[-1] == (
        "the confirming enumeration is not run past min(budget, SEARCH_ELEMENT_CAP) "
        "= 100000 elements: the order is 5764801; the verdict rests on the power "
        "lemma's checks"
    )


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_triple_line_check_matches_pair_walk(monkeypatch, p):
    for check in (verifiers._triple_line_check, pair_triple_line_check):
        assert check(_blank_certificate(), p)
    line = quotient.coordinate_line
    # Lines 2 and 3 (<ab> and <ab^2>) merged under one number.
    merged = lambda a, b, q: 2 if line(a, b, q) == 3 else line(a, b, q)
    monkeypatch.setattr(verifiers, "coordinate_line", merged)
    for check in (verifiers._triple_line_check, pair_triple_line_check):
        cert = _blank_certificate()
        assert not check(cert, p)
        assert cert.checks[0].detail.startswith(
            "every independent coordinate pair has a member on an ab^i line; failed"
        )


def test_thm_b_at_large_p_reads_each_point_once():
    started = time.perf_counter()
    cert = verify_claim("thm-B", DefiningVector(61, (1,) + (0,) * 59), 2)
    assert cert.verdict == "verified"
    assert time.perf_counter() - started < 2.0  # the pair walk takes about 10 s


def test_symmetric_vectors_past_the_budget_rest_on_the_lemma():
    # e = (1, 1) has no order formula past level 2; the enumeration guard
    # refuses level 4 at once, and the lemma still decides.
    cert = verify_claim("thm-B", DefiningVector(3, (1, 1)), 4)
    assert cert.verdict == "verified" and cert.exhaustive is False
    assert [c.name for c in cert.checks] == PROOF_CHECKS
    assert cert.notes[-1] == (
        "the confirming enumeration is not run past min(budget, SEARCH_ELEMENT_CAP) "
        "= 100000 elements: enumeration budget 100000 exceeded (order 3^24 by the "
        "Fernandez-Alcober & Zugadi-Reizabal formula); the verdict rests on the "
        "power lemma's checks"
    )


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_power_lemma_matches_every_enumerated_element(data):
    p = data.draw(st.sampled_from([3, 5]))
    e = data.draw(st.lists(st.integers(0, p - 1), min_size=p - 1, max_size=p - 1))
    assume(sum(e) % p)
    v = DefiningVector(p, tuple(e))
    n = data.draw(st.integers(2, 3))
    assume(p ** quotient._guard_exponent(v, n) <= 3**10)
    group = enumerate_quotient(v, n)
    z = verifiers._central_z(group.shape)
    a_col, b_col = group.coords
    for x, k, j in zip(group.elements, a_col, b_col):
        if k:  # line 0 (j = 0) too, where the power is the identity
            assert x ** p ** (n - 1) == z ** (j * v.alpha % p), x


def test_thm_g2_refutes_structure_at_p3(gs):
    cert = verify_claim("thm-G2", gs, 2)
    assert cert.verified  # the claim at p=3 is that no structure exists
    names = [c.name for c in cert.checks]
    assert "exponent_p" in names and "no_structure" in names
    with pytest.raises(ValueError):
        verify_claim("thm-G2", gs, 3)
    with pytest.raises(ValueError):
        verify_claim("thm-G2", DefiningVector(3, (1, 0)), 2)


LINES_CHECKS = ["generates_t1", "generates_t2", "orders_p", "distinct_lines"]


def test_thm_g2_finds_structure_at_p5(p5alt):
    # The lines argument decides; under SEARCH_ELEMENT_CAP the exponent scan
    # and the literal Sigma check of the argument's own pair confirm it.
    cert = verify_claim("thm-G2", p5alt, 2)
    assert cert.verified
    assert cert.element_count == 3125
    assert [c.name for c in cert.checks] == LINES_CHECKS + [
        "exponent_p",
        "sigma_intersection_trivial",
    ]
    assert cert.checks[3].detail == (
        "x1, y1, x1y1, x2, y2, x2y2 lie on the lines [0, 1, 2, 3, 5, 4] of G/G', "
        "line 6 being G'"
    )
    assert cert.notes[0].startswith("lines argument:")
    group = enumerate_quotient(p5alt, 2)
    a, b = group.a, group.b
    assert cert.witnesses["triple_1"] == GeneratingTriple.make(group, a, b).encode()
    assert cert.witnesses["triple_2"] == GeneratingTriple.make(group, a * b**2, a * b**4).encode()
    assert replay_certificate(json.loads(cert.canonical_json()))


# One periodic vector of each F_5^* class: the first nonzero entry is 1.
P5_PERIODIC = [
    e
    for e in product(range(5), repeat=4)
    if sum(e) % 5 == 0 and any(e) and next(filter(None, e)) == 1
]


def test_thm_g2_checks_the_lines_pair_on_every_p5_class():
    assert len(P5_PERIODIC) == 31
    for e in P5_PERIODIC:
        cert = verify_claim("thm-G2", DefiningVector(5, e), 2)
        assert cert.verified and cert.element_count is not None, e
        assert cert.checks[-1].name == "sigma_intersection_trivial" and cert.checks[-1].passed


def test_thm_g2_pair_check_catches_a_shared_member(monkeypatch, p5alt):
    # T2 = (ab, ab^2, ...) shares ab with T1 = (a, b, ab).  The lines checks
    # still see the argument's pair and pass; the check on the group fails.
    structure_check = verifiers._structure_check

    def shared(cert, group, pairs, names):
        a, b = group.a, group.b
        return structure_check(cert, group, (pairs[0], (a * b, a * b * b)), names)

    monkeypatch.setattr(verifiers, "_structure_check", shared)
    cert = verify_claim("thm-G2", p5alt, 2)
    assert cert.verdict == "refuted"
    assert [c.name for c in cert.checks if not c.passed] == ["sigma_intersection_trivial"]


@pytest.mark.parametrize("p", [7, 11, 13, 31, 127])
def test_thm_g2_past_the_cap_rests_on_the_lines(p):
    vec = DefiningVector(p, (1, p - 1) * ((p - 1) // 2))
    cert = verify_claim("thm-G2", vec, 2)
    assert cert.verdict == "verified"
    assert cert.exhaustive is False
    assert cert.element_count is None
    assert [c.name for c in cert.checks] == LINES_CHECKS
    assert cert.witnesses == {}  # replay re-runs the claim; it enumerates nothing
    assert replay_certificate(json.loads(cert.canonical_json()))


def test_thm_g2_finds_structure_at_p7():
    # The lines argument decides p = 7 with no group; the literal Sigma check
    # of the same pair on all 7^7 enumerated elements must agree with it.
    vec = DefiningVector(7, (1, -1, 1, -1, 1, -1))
    cert = verify_claim("thm-G2", vec, 2)
    group = enumerate_quotient(vec, 2)
    assert len(group) == 823543
    a, b = group.a, group.b
    t1 = GeneratingTriple.make(group, a, b)
    t2 = GeneratingTriple.make(group, a * b**2, a * b**4)
    assert is_beauville_pair(t1, t2, group).verified == cert.verified
    assert cert.verified


@pytest.mark.parametrize(
    "y2, verdict, lines",
    [
        # ab^2 * ab^5 has coordinates (2, 7) = (2, 0): line 0, with a.
        ((1, 5), "refuted", [0, 1, 2, 3, 6, 0]),
        # ab^2 * a^6 b^4 has coordinates (7, 6) = (0, 6): line 1, with b.
        ((6, 4), "refuted", [0, 1, 2, 3, 4, 1]),
        # ab^2 * ab^3 has coordinates (2, 5): line 1 + 5/2 = 7, still distinct.
        ((1, 3), "verified", [0, 1, 2, 3, 4, 7]),
    ],
)
def test_thm_g2_lines_check_catches_a_shared_line(monkeypatch, y2, verdict, lines):
    lines_checks = verifiers._lines_checks
    monkeypatch.setattr(
        verifiers,
        "_lines_checks",
        lambda cert, v, pair: lines_checks(cert, v, (pair[0], ((1, 2), y2))),
    )
    cert = verify_claim("thm-G2", DefiningVector(7, (1, -1, 1, -1, 1, -1)), 2)
    assert cert.verdict == verdict
    assert [c.name for c in cert.checks if not c.passed] == (
        ["distinct_lines"] if verdict == "refuted" else []
    )
    assert f"lie on the lines {lines} of G/G'" in cert.checks[-1].detail


def test_thm_g3_battery(gs):
    cert = verify_claim("thm-G3", gs, 3)
    assert cert.verified and cert.exhaustive
    names = [c.name for c in cert.checks]
    for expected in (
        "u_central",
        "av_cube_sections",
        "ab_cube_sections",
        "ab_cube_not_central",
        "depth2_conjugate_product",
        "sigma_intersection_trivial",
    ):
        assert expected in names, expected
    assert cert.witnesses["u"] and cert.witnesses["v"]
    with pytest.raises(ValueError):
        verify_claim("thm-G3", gs, 2)


PAIR_CHECKS = [
    "generates_t1",
    "generates_t2",
    "order_x1_a-2",
    "order_y1_ab",
    "order_x1y1_A_b",
    "order_x2_ab2",
    "order_y2_b",
    "order_x2y2_ab3",
    "inverse_identity",
    "w1_last_layer",
    "w2_last_layer",
    "w3_last_layer",
    "w4_last_layer",
    "offset_valuation",
    "key_last_layer",
]


def test_thm_g3_large_p_rests_on_the_pair(p5alt):
    cert = verify_claim("thm-G3", p5alt, 3)
    assert cert.verdict == "verified"
    assert not cert.exhaustive and cert.element_count is None
    assert [c.name for c in cert.checks] == PAIR_CHECKS
    # A symmetric vector has no order formula past level 2; it is decided too.
    assert verify_claim("thm-G3", DefiningVector(5, (1, 4, 4, 1)), 3).verified


def test_thm_a_coverage(gs, e10, p5alt):
    with pytest.raises(ValueError):
        verify_claim("thm-A", gs, 2)  # p = 3 starts at level 3
    with pytest.raises(ValueError):
        verify_claim("thm-A", e10, 3)  # periodic vectors only


def test_thm_a_p3(gs):
    cert = verify_claim("thm-A", gs, 3)
    assert cert.verified and cert.exhaustive
    cert4 = verify_claim("thm-A", gs, 4)
    assert cert4.verified
    assert not cert4.exhaustive
    names = [c.name for c in cert4.checks]
    assert any("lift" in name for name in names)


def test_thm_a_p5_level2_delegates(p5alt):
    cert = verify_claim("thm-A", p5alt, 2)
    assert cert.verified
    assert "triple_1" in cert.witnesses


def test_thm_a_p5_rests_on_the_pair(p5alt):
    cert = verify_claim("thm-A", p5alt, 3)
    assert cert.verdict == "verified" and not cert.exhaustive
    assert [c.name for c in cert.checks] == PAIR_CHECKS
    # Past level 3 every member's order is lifted to level n.
    cert = verify_claim("thm-A", p5alt, 4)
    assert cert.verdict == "verified"
    lifted = [c.name for c in cert.checks if c.name.startswith("lift_")]
    assert lifted == [f"lift_order_preserved_{x[6:]}" for x in PAIR_CHECKS[2:8]]


THM_A_DECIDED = [(p, n) for p in (5, 7, 11, 13) for n in (3, 4, 5)] + [(31, 3), (127, 3)]


@pytest.mark.parametrize("p, n", THM_A_DECIDED)
def test_thm_a_is_decided_past_the_budget(p, n):
    cert = verify_claim("thm-A", DefiningVector(p, (1, p - 1) * ((p - 1) // 2)), n)
    assert cert.verdict == "verified"
    assert cert.exhaustive is False and cert.element_count is None


def test_lifting_verified(gs, p5alt):
    for v in (gs, p5alt):
        cert = verify_claim("lifting", v, 3, m=4, x_word="A^2", y_word="ab")
        assert cert.verified
        assert cert.params["m"] == 4


def test_lifting_refuted(gs):
    # order of ab grows from 3 at depth 2 to 9 at depth 3
    cert = verify_claim("lifting", gs, 2, m=3, x_word="ab", y_word="Ab")
    assert cert.refuted


def test_lifting_default_target(gs):
    cert = verify_claim("lifting", gs, 3, x_word="A^2", y_word="ab")
    assert cert.params["m"] == 4


def test_lifting_bad_target(gs):
    with pytest.raises(ValueError):
        verify_claim("lifting", gs, 3, m=3, x_word="a", y_word="b")


def test_order_formula(gs, e10):
    cert = verify_claim("order-formula", gs, 3)
    assert cert.verified
    assert cert.witnesses == {"enumerated_order": 2187, "predicted_order": 2187}
    assert verify_claim("order-formula", e10, 2).verified


def test_order_formula_symmetric_skips():
    sym = DefiningVector(3, (1, 1))
    cert = verify_claim("order-formula", sym, 3)
    assert cert.verdict == "skipped: no formula for symmetric defining vectors"
    assert cert.witnesses["enumerated_order"] == 19683


def test_order_formula_over_budget(gs):
    cert = verify_claim("order-formula", gs, 4, budget=10_000)
    assert cert.verdict == "skipped: scale"


def test_thm_b_runs_the_table_oracle_at_p5():
    # Every group thm-B enumerates at level 2 gets the table as its oracle,
    # the 15,625 elements at p = 5 included.
    cert = verify_claim("thm-B", DefiningVector(5, (1, 0, 0, 0)), 2)
    assert cert.verified and cert.element_count == 15625
    oracle = cert.checks[-1]
    assert oracle.name == "no_structure_oracle" and oracle.passed


def test_default_levels():
    assert CLAIMS["thm-A"].level == 3
    assert CLAIMS["thm-B"].level == 2
    assert CLAIMS["thm-G2"].level == 2
    assert CLAIMS["lifting"].level == 3


def test_default_levels_lie_in_the_domains():
    for claim, record in CLAIMS.items():
        for lo, hi in filter(None, (record.levels, record.p3_levels)):
            assert 1 <= lo <= record.level <= hi <= verifiers.MAX_LEVEL, claim


def _raises_value_error(f, *args, **kwargs) -> bool:
    try:
        f(*args, **kwargs)
    except ValueError:
        return True
    return False


DOMAIN_VECTORS = [
    (3, (1, 2)), (3, (1, 0)), (3, (1, 1)),
    (5, (1, 4, 1, 4)), (5, (1, 0, 0, 0)), (5, (1, 2, 0, 2)),
    (7, (1, 6, 1, 6, 1, 6)),
]


def test_the_registry_gate_refuses_what_the_verifiers_refused():
    # Every claim on periodic and non-periodic vectors at p = 3, 5 and 7,
    # levels on both sides of every domain's bounds, and lifting targets
    # below, at and above n.  verify_claim and claim_params alone each
    # refuse exactly the inputs the verifiers' own guards refused, the
    # guards that depend on p included.
    grid = [
        (claim, DefiningVector(p, e), n, m)
        for claim in sorted(CLAIMS)
        for p, e in DOMAIN_VECTORS
        for n in (0, 1, 2, 3, 4, 65)
        for m in ((None, 2, 3) if claim == "lifting" else (None,))
    ]
    refused = 0
    for claim, v, n, m in grid:
        expected = parent_refuses(claim, v, n, m)
        assert _raises_value_error(verify_claim, claim, v, n, m=m, budget=50) == expected, (
            claim, v, n, m
        )
        gated = _raises_value_error(verifiers.claim_params, claim, v, n, m)
        assert gated == expected, (claim, v, n, m)
        refused += expected
    assert (len(grid), refused) == (672, 517)


def test_the_gate_names_the_claim_and_its_domain(gs, e10, p5alt):
    with pytest.raises(ValueError, match=r"^prop-key concerns levels 3\.\.64, got 2$"):
        verifiers.claim_params("prop-key", gs, 2)
    with pytest.raises(ValueError, match=r"^thm-G2 concerns level 2, got 3$"):
        verifiers.claim_params("thm-G2", gs, 3)
    with pytest.raises(ValueError, match=r"^thm-B concerns non-periodic vectors; "):
        verifiers.claim_params("thm-B", gs, 2)
    with pytest.raises(ValueError, match=r"^eq-3.1 concerns periodic vectors; "):
        verifiers.claim_params("eq-3.1", e10, 2)
    with pytest.raises(ValueError, match=r"^lifting needs a target depth m in 4\.\.64, got 3$"):
        verifiers.claim_params("lifting", gs, 3, 3)
    with pytest.raises(ValueError, match=r"^lifting needs a target depth m in 2\.\.64, got 65$"):
        verifiers.claim_params("lifting", gs, 1, 65)
    with pytest.raises(ValueError, match=r"^thm-A concerns levels 3\.\.64 at p = 3, got 2$"):
        verifiers.claim_params("thm-A", gs, 2)
    for claim in ("lemma-center", "lemma-comms-a", "lemma-comms-b"):
        with pytest.raises(ValueError, match=rf"^{claim} concerns p = 3, got p = 5$"):
            verifiers.claim_params(claim, p5alt, 3)


@pytest.mark.parametrize("n, m", [("3", None), (3.0, None), (True, None), (3, "4")])
def test_the_gate_refuses_a_level_that_is_not_an_int(gs, n, m):
    with pytest.raises(ValueError, match="got"):
        verifiers.claim_params("lifting", gs, n, m)


@pytest.mark.parametrize(
    "edit",
    [
        lambda params: params.pop("p"),
        lambda params: params.pop("e"),
        lambda params: params.pop("n"),
        lambda params: params.update(p="3"),
        lambda params: params.update(n="3"),
        lambda params: params.update(e=[1, "x"]),
        lambda params: params.update(p=3.0),
        lambda params: params.update(e=[1.0, 2]),
    ],
    ids=["no-p", "no-e", "no-n", "text-p", "text-n", "text-in-e", "float-p", "float-in-e"],
)
def test_replay_refuses_malformed_params(gs, edit):
    # A document whose params lack p, e or n, or carry them as the wrong
    # type, is refused as replay's docstring says: ValueError.
    doc = json.loads(verify_claim("lemma-orders", gs, 3).canonical_json())
    edit(doc["params"])
    with pytest.raises(ValueError):
        replay_certificate(doc)


def test_readme_claims_table_matches_the_registry():
    # Each row of the README "Claims" table states its claim's vectors,
    # prime, levels (at p = 3 too, where they differ) and default level as
    # the registry does.
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = re.findall(
        r"^\| `([\w.-]+)` \| .* \| (periodic|non-periodic|every)(?:, p = (\d+))?; "
        r"n = (\d+)(?:\.\.(\d+))?(?:, (\d+)\.\.(\d+) at p = 3)? \| (\d+) \|$",
        text,
        re.M,
    )
    kinds = {"periodic": True, "non-periodic": False, "every": None}
    table = {
        c: (kinds[k], int(p) if p else None, (int(lo), int(hi or lo)),
            (int(lo3), int(hi3)) if lo3 else None, int(d))
        for c, k, p, lo, hi, lo3, hi3, d in rows
    }
    assert table == {
        c: (r.periodic, r.only_p, r.levels, r.p3_levels, r.level) for c, r in CLAIMS.items()
    }


def test_replay_witness_path(gs):
    cert = verify_claim("thm-G3", gs, 3)
    assert replay_certificate(json.loads(cert.canonical_json()))


def test_replay_witnesses_at_their_own_level(gs):
    # thm-A at p = 3 keeps its level-3 witnesses for every n.  Replay re-runs
    # the claim, which enumerates level 3 only: never the level-4 quotient
    # (3^19 elements, past the budget).
    cert = verify_claim("thm-A", gs, 4)
    assert cert.verified
    assert replay_certificate(json.loads(cert.canonical_json()))


def test_replay_rerun_path(e10, gs):
    for claim, v, n in (("thm-B", e10, 2), ("lemma-orders", gs, 3)):
        cert = verify_claim(claim, v, n)
        assert replay_certificate(json.loads(cert.canonical_json()))


def test_replay_detects_tampering(gs):
    cert = verify_claim("lemma-orders", gs, 3)
    doc = json.loads(cert.canonical_json())
    doc["verdict"] = "refuted"
    assert not replay_certificate(doc)


def test_replay_refuses_an_unknown_claim(gs):
    doc = json.loads(verify_claim("lemma-orders", gs, 3).canonical_json())
    doc["claim"] = "thm-Z"
    with pytest.raises(ValueError, match="unknown claim 'thm-Z'"):
        replay_certificate(doc)


def test_replay_rejects_corrupt_witness(gs):
    # Replay re-runs the claim, so a tampered witness is a byte mismatch.
    cert = verify_claim("thm-G3", gs, 3)
    doc = json.loads(cert.canonical_json())
    doc["witnesses"]["triple_1"][2] = doc["witnesses"]["triple_1"][0]
    assert replay_certificate(doc) is not True
    # Two labels flipped: still a well-formed portrait, but not an element
    # of the quotient.
    doc = json.loads(cert.canonical_json())
    head, body = doc["witnesses"]["triple_1"][0].split(":")
    labels = [int(x) for x in body.split(",")]
    labels[-2:] = [(x + 1) % 3 for x in labels[-2:]]
    doc["witnesses"]["triple_1"][0] = f"{head}:{','.join(map(str, labels))}"
    assert replay_certificate(doc) is not True


EDITS = {
    "failed_check": lambda doc: doc["checks"][0].update(passed=False),
    "deeper": lambda doc: doc["params"].update(n=5),
    "opposite_claim": lambda doc: doc.update(claim="thm-B"),
    "other_code_version": lambda doc: doc.update(code_version="0.0.0"),
}


@pytest.mark.parametrize("edit", EDITS.values(), ids=EDITS)
def test_replay_never_accepts_an_edited_witness_certificate(gs, edit):
    # thm-A at p = 3, n = 4 stores witness triples; replay must still notice
    # an edit anywhere else in the document.
    cert = verify_claim("thm-A", gs, 4)
    doc = json.loads(cert.canonical_json())
    assert "triple_1" in doc["witnesses"] and replay_certificate(doc)
    edit(doc)
    try:
        assert replay_certificate(doc) is not True
    except ValueError:
        pass  # the edited parameters are refused, as verify_claim refuses them


SWEEP_VECTORS = (
    (3, (1, 2)),
    (3, (1, 1)),
    (3, (1, 0)),
    (5, (1, 4, 1, 4)),
    (5, (1, 4, 4, 1)),
    (5, (1, 0, 0, 0)),
    (7, (1, 2, 4, 4, 2, 1)),
)


@pytest.mark.parametrize("claim", sorted(CLAIMS))
@pytest.mark.parametrize("p, e", SWEEP_VECTORS)
def test_budget_refusals_never_escape_a_verifier(claim, p, e):
    # At the default budget and a user's small one, a claim ends in a
    # certificate or a ValueError; an enumeration's BudgetExceeded (symmetric
    # vectors included) becomes a note, never the outcome.
    v = DefiningVector(p, e)
    for n, budget in product(range(1, 6), (quotient.DEFAULT_BUDGET, 100)):
        try:
            cert = verify_claim(claim, v, n, budget=budget)
        except ValueError:
            continue
        assert cert.verdict
