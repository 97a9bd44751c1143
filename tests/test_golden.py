"""Golden certificates: every claim replays to the exact stored bytes.

Each file under tests/golden/ holds the canonical JSON of one certificate.
The set covers every claim at its default level for three defining vectors
(wherever the claim accepts the vector), plus a few deeper levels.  A kernel
rewrite or a refactor must leave all of them byte-identical.

Replay alone shows only that the code is deterministic: a stable kernel bug
reproduces its own bytes.  So every golden is also replayed with the
portrait kernels swapped for the slow oracles of tests/reference.py
(differential testing, McKeeman 1998): products by naive_compose, which
composes vertex maps, and orders by leaf_cycle_order, which reads the
cycles of the leaf permutation.  Every golden that reaches a verifier
stage is replayed once more with the stages swapped for their oracles:
the collision and exponent scans by the element-by-element scans, the
triple-line check by the walk over every pair of coordinates, and the
power lemma by every instance (i, k).  Every golden that runs the Beauville
search is replayed with its signature table swapped for an oracle table:
the one that looks up x*y for every element y from level 2 on, and the
pair-by-pair one at level 1, which has no coordinates.

A golden may change only together with a CODE_VERSION bump
(src/ggs/certificate.py) recorded in CHANGES.md.  To regenerate after such
a bump, run

    PYTHONPATH=src python tests/test_golden.py

which rewrites every file from the current code.
"""
from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from ggs import DefiningVector, Portrait, beauville, verifiers
from ggs.verifiers import CLAIMS, verify_claim

from reference import (
    element_collision_scan,
    element_exponent_check,
    leaf_cycle_order,
    naive_compose,
    pair_triple_line_check,
    power_instance_scan,
    reference_signature_table,
    whole_group_signature_table,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

VECTORS = ((3, (1, -1)), (3, (1, 0)), (5, (1, 4, 1, 4)))

EXTRA = (
    ("prop-collision", 3, (1, 0), 3),
    ("thm-B", 3, (1, 0), 3),
    ("order-formula", 3, (1, 0), 3),
    ("thm-A", 3, (1, -1), 4),
    ("prop-collision", 3, (1, 0), 4),
    ("thm-B", 3, (1, 0), 4),
    ("thm-B", 3, (1, 0), 1),
    ("order-formula", 5, (1, 4, 1, 4), 3),
    ("order-formula", 3, (1, 1), 3),
    ("thm-B", 5, (1, 2, 0, 0), 3),
    ("thm-G2", 5, (2, 3, 2, 3), 2),
    ("thm-G2", 5, (1, 2, 0, 2), 2),
    ("thm-A", 7, (1, 6, 1, 6, 1, 6), 4),
    ("thm-G2", 7, (4, 6, 3, 6, 5, 4), 2),
    ("thm-B", 5, (1, 0, 0, 0), 2),
    ("thm-B", 13, (1,) + (0,) * 11, 3),
    ("eq-3.1", 7, (1, 6, 1, 6, 1, 6), 3),
    ("lemma-orders", 7, (1, 6, 1, 6, 1, 6), 3),
    ("prop-collision", 3, (1, 1), 3),
)


def _name(claim: str, p: int, e: tuple[int, ...], n: int) -> str:
    return f"{claim}__p{p}_e{'_'.join(str(x % p) for x in e)}__n{n}.json"


def _golden_files() -> list[Path]:
    return sorted(GOLDEN.glob("*.json"))


def _parse(path: Path) -> tuple[str, int, tuple[int, ...], int]:
    claim, vec, level = path.stem.split("__")
    p_part, e_part = vec.split("_e")
    return claim, int(p_part[1:]), tuple(int(x) for x in e_part.split("_")), int(level[1:])


def test_golden_set_is_complete():
    assert len(_golden_files()) == 45


@pytest.mark.parametrize("path", _golden_files(), ids=lambda path: path.stem)
def test_certificate_matches_golden(path: Path):
    claim, p, e, n = _parse(path)
    cert = verify_claim(claim, DefiningVector(p, e), n)
    assert cert.canonical_json() == path.read_text()


# Goldens decided before any portrait product: a "skipped: scale" from the
# predicted order alone.
KERNEL_FREE = {"order-formula__p5_e1_4_1_4__n3"}


def _counted(calls: Counter, name: str, oracle):
    """oracle, counting its calls in calls[name]."""

    def swapped(*args):
        calls[name] += 1
        return oracle(*args)

    return swapped


def _swap_kernels(monkeypatch, mul) -> Counter:
    """Patch Portrait.__mul__ to mul and Portrait.order to leaf_cycle_order,
    counting the calls of each."""
    calls: Counter = Counter()
    monkeypatch.setattr(Portrait, "__mul__", _counted(calls, "mul", mul))
    monkeypatch.setattr(Portrait, "order", _counted(calls, "order", leaf_cycle_order))
    return calls


def _replays(path: Path) -> bool:
    claim, p, e, n = _parse(path)
    return verify_claim(claim, DefiningVector(p, e), n).canonical_json() == path.read_text()


@pytest.mark.parametrize("path", _golden_files(), ids=lambda path: path.stem)
def test_golden_replays_under_the_reference_kernels(monkeypatch, path):
    calls = _swap_kernels(monkeypatch, naive_compose)
    assert _replays(path)
    # A swap that is never called tests nothing; only the kernel-free
    # goldens may call neither oracle.
    assert (sum(calls.values()) == 0) == (path.stem in KERNEL_FREE), calls


# The verifier stages and their oracles in tests/reference.py.
STAGE_ORACLES = {
    "_collision_scan": element_collision_scan,
    "_exponent_check": element_exponent_check,
    "_triple_line_check": pair_triple_line_check,
    "_power_lemma_checks": power_instance_scan,
}

COLLISION, EXPONENT, TRIPLE, POWER = STAGE_ORACLES

# The goldens that reach a verifier stage, each with the stages it runs.
STAGE_GOLDENS = {
    "prop-collision__p3_e1_0__n2": {POWER, COLLISION},
    "prop-collision__p3_e1_0__n3": {POWER, COLLISION},
    "prop-collision__p3_e1_0__n4": {POWER},  # past the budget: no group
    "prop-collision__p3_e1_1__n3": {POWER, COLLISION},
    "thm-B__p13_e1_0_0_0_0_0_0_0_0_0_0_0__n3": {POWER, TRIPLE},
    "thm-B__p3_e1_0__n2": {POWER, TRIPLE, COLLISION},
    "thm-B__p3_e1_0__n3": {POWER, TRIPLE, COLLISION},
    "thm-B__p3_e1_0__n4": {POWER, TRIPLE},
    "thm-B__p5_e1_0_0_0__n2": {POWER, TRIPLE, COLLISION},
    "thm-B__p5_e1_2_0_0__n3": {POWER, TRIPLE},
    "thm-G2__p3_e1_2__n2": {EXPONENT},
    "thm-G2__p5_e1_2_0_2__n2": {EXPONENT},
    "thm-G2__p5_e1_4_1_4__n2": {EXPONENT},
    "thm-G2__p5_e2_3_2_3__n2": {EXPONENT},
    "thm-G2__p7_e4_6_3_6_5_4__n2": {EXPONENT},
}


@pytest.mark.parametrize("stem", sorted(STAGE_GOLDENS))
def test_golden_replays_under_the_reference_stages(monkeypatch, stem):
    calls: Counter = Counter()
    for name, oracle in STAGE_ORACLES.items():
        monkeypatch.setattr(verifiers, name, _counted(calls, name, oracle))
    assert _replays(GOLDEN / f"{stem}.json")
    # Each stage the golden reaches ran as its oracle, once.
    assert calls == Counter(STAGE_GOLDENS[stem]), calls


def test_every_stage_oracle_runs_in_some_golden():
    assert set().union(*STAGE_GOLDENS.values()) == set(STAGE_ORACLES)
    assert {path.stem for path in _golden_files()} >= set(STAGE_GOLDENS)


# The goldens that run the Beauville search, each with the oracle for its
# signature table: the whole-group table needs the coordinates of level 2 on.
SEARCH_GOLDENS = {
    "thm-B__p3_e1_0__n1": reference_signature_table,
    "thm-B__p3_e1_0__n2": whole_group_signature_table,
    "thm-B__p5_e1_0_0_0__n2": whole_group_signature_table,
    "thm-G2__p3_e1_2__n2": whole_group_signature_table,
}


@pytest.mark.parametrize("stem", sorted(SEARCH_GOLDENS))
def test_golden_replays_under_the_reference_signature_tables(monkeypatch, stem):
    # Both oracles keep the table's order, so the witness and the bytes agree.
    calls: Counter = Counter()
    oracle = SEARCH_GOLDENS[stem]
    monkeypatch.setattr(beauville, "_signature_table", _counted(calls, "table", oracle))
    assert _replays(GOLDEN / f"{stem}.json")
    assert calls == Counter(table=1), calls  # the search ran on the oracle's table, once


def test_a_wrong_kernel_changes_some_golden(monkeypatch):
    # Composition in the opposite order is the wrong group law for the
    # right action: the replay must notice it.
    _swap_kernels(monkeypatch, lambda f, g: naive_compose(g, f))
    assert not all(map(_replays, _golden_files()))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    defaults = [(c, p, e, CLAIMS[c].level) for c in sorted(CLAIMS) for p, e in VECTORS]
    for claim, p, e, n in defaults + list(EXTRA):
        try:
            cert = verify_claim(claim, DefiningVector(p, e), n)
        except ValueError:  # the claim does not accept this vector
            continue
        (GOLDEN / _name(claim, p, e, n)).write_text(cert.canonical_json())
        print(claim, p, e, n, cert.verdict)
