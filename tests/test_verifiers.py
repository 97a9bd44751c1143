"""Claim verifiers, certificates, and replay."""
from __future__ import annotations

import json

import pytest

from ggs import (
    CLAIMS,
    DefiningVector,
    replay_certificate,
    verify_claim,
)
from ggs import beauville, verifiers
from ggs.verifiers import default_level


def test_claims_table():
    assert len(CLAIMS) == 14
    for claim, record in CLAIMS.items():
        assert record.statement and "p" in record.statement
        assert default_level(claim) >= 1


def test_unknown_claim(gs):
    with pytest.raises(ValueError) as err:
        verify_claim("thm-Z", gs, 2)
    assert "thm-A" in str(err.value)


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


def test_prop_key(gs):
    with pytest.raises(ValueError):
        verify_claim("prop-key", gs, 2)  # power subgroups degenerate below n=3
    cert = verify_claim("prop-key", gs, 3)
    assert cert.verified and cert.exhaustive
    names = [c.name for c in cert.checks]
    assert any(name.startswith("self_conjugate") for name in names)
    assert any(name.startswith("distinct") for name in names)


def test_prop_key_over_budget(gs):
    cert = verify_claim("prop-key", gs, 3, budget=100)
    assert cert.verdict == "skipped: scale"
    assert cert.checks and all(c.passed for c in cert.checks)
    assert not cert.exhaustive


def test_prop_collision(e10, gs):
    cert = verify_claim("prop-collision", e10, 2)
    assert cert.verified and cert.exhaustive
    with pytest.raises(ValueError):
        verify_claim("prop-collision", gs, 2)


def test_thm_b_level_one(e10):
    cert = verify_claim("thm-B", e10, 1)
    assert cert.verified
    assert [c.name for c in cert.checks] == ["level1_cyclic", "no_structure_oracle"]


def test_thm_b_level_two(e10):
    cert = verify_claim("thm-B", e10, 2)
    assert cert.verified and cert.exhaustive
    names = [c.name for c in cert.checks]
    assert "no_structure_oracle" in names
    assert "no_structure_signatures" in names
    assert "equals_center" in names
    assert cert.witnesses["common_subgroup"] == [
        "3,2:0,0,0,0",
        "3,2:0,1,1,1",
        "3,2:0,2,2,2",
    ]


def test_thm_b_over_budget(e10):
    cert = verify_claim("thm-B", e10, 3, budget=1000)
    assert cert.verdict == "skipped: scale"
    assert cert.checks and all(c.passed for c in cert.checks)


def test_thm_g2_refutes_structure_at_p3(gs):
    cert = verify_claim("thm-G2", gs, 2)
    assert cert.verified  # the claim at p=3 is that no structure exists
    names = [c.name for c in cert.checks]
    assert "exponent_p" in names and "no_structure" in names
    with pytest.raises(ValueError):
        verify_claim("thm-G2", gs, 3)
    with pytest.raises(ValueError):
        verify_claim("thm-G2", DefiningVector(3, (1, 0)), 2)


def test_thm_g2_finds_structure_at_p5(p5alt):
    cert = verify_claim("thm-G2", p5alt, 2)
    assert cert.verified
    assert cert.element_count == 3125
    assert "triple_1" in cert.witnesses and "triple_2" in cert.witnesses
    assert replay_certificate(json.loads(cert.canonical_json()))


def test_thm_g2_finds_structure_at_p7():
    # 7^7 elements exceed the search cap, so the verifier switches to a
    # fixed candidate pair and confirms it literally.
    vec = DefiningVector(7, (1, -1, 1, -1, 1, -1))
    cert = verify_claim("thm-G2", vec, 2)
    assert cert.verified
    assert not cert.exhaustive
    assert cert.element_count == 823543
    assert [c.name for c in cert.checks] == ["structure_found"]
    assert "triple_1" in cert.witnesses and "triple_2" in cert.witnesses


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


def test_thm_g3_large_p_skips(p5alt):
    cert = verify_claim("thm-G3", p5alt, 3)
    assert cert.verdict == "skipped: scale"
    assert cert.checks and all(c.passed for c in cert.checks)
    names = [c.name for c in cert.checks]
    assert "inverse_identity" in names


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


def test_thm_a_p5_level3_skips(p5alt):
    cert = verify_claim("thm-A", p5alt, 3)
    assert cert.verdict == "skipped: scale"
    assert cert.checks and all(c.passed for c in cert.checks)


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


def test_thm_b_skips_literal_oracle_above_its_cap(monkeypatch, e10):
    # The level-2 quotient of e = (1, 0) has 81 elements, so a cap of 80
    # takes the path that p >= 5 takes with the real cap.
    monkeypatch.setattr(beauville, "LITERAL_SEARCH_CAP", 80)
    monkeypatch.setattr(verifiers, "LITERAL_SEARCH_CAP", 80)
    cert = verify_claim("thm-B", e10, 2)
    assert cert.verified and cert.element_count == 81
    names = [c.name for c in cert.checks]
    assert "no_structure_oracle" not in names
    assert names[-1] == "no_structure_signatures"
    assert cert.notes[-1] == (
        "group order 81 exceeds the literal search cap 80; "
        "the independent literal search is not run"
    )


def test_default_levels():
    assert default_level("thm-A") == 3
    assert default_level("thm-B") == 2
    assert default_level("thm-G2") == 2
    assert default_level("lifting") == 3


def test_replay_witness_path(gs):
    cert = verify_claim("thm-G3", gs, 3)
    assert replay_certificate(json.loads(cert.canonical_json()))


def test_replay_witnesses_at_their_own_level(gs):
    # thm-A at p = 3 keeps its level-3 witnesses for every n; replaying them
    # in the level-4 quotient (3^19 elements) would exceed the budget.
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


def test_replay_rejects_corrupt_witness(gs):
    cert = verify_claim("thm-G3", gs, 3)
    doc = json.loads(cert.canonical_json())
    doc["witnesses"]["triple_1"][2] = doc["witnesses"]["triple_1"][0]
    with pytest.raises(ValueError):
        replay_certificate(doc)
    # Two labels flipped: still a well-formed portrait, but not an element
    # of the quotient.
    doc = json.loads(cert.canonical_json())
    head, body = doc["witnesses"]["triple_1"][0].split(":")
    labels = [int(x) for x in body.split(",")]
    labels[-2:] = [(x + 1) % 3 for x in labels[-2:]]
    tampered = f"{head}:{','.join(map(str, labels))}"
    doc["witnesses"]["triple_1"][0] = tampered
    with pytest.raises(ValueError, match=f"not an element of this quotient: {tampered}"):
        replay_certificate(doc)
