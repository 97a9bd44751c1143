"""One verifier per documented claim, each returning a replayable certificate.

`CLAIMS` is the claim registry: one record per claim id with its statement,
its default level and its verifier.

Claims about enumerable quotients are checked exhaustively.  Claims whose
quotient exceeds the element budget degrade to the element-wise sub-checks
that portraits support directly (orders, section identities, power
collisions of the standard coset representatives) and report the verdict
"skipped: scale" rather than pretending the full statement was checked.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, NamedTuple

from .beauville import (
    GeneratingTriple,
    LITERAL_SEARCH_CAP,
    SEARCH_ELEMENT_CAP,
    build_special_elements,
    cyclic_powers,
    cyclic_subgroup,
    is_beauville_pair,
    search_beauville,
    subgroup_conjugation_orbit,
)
from .certificate import CODE_VERSION, Certificate
from .generators import DefiningVector, make_a, make_b
from .parallel import pmap
from .portrait import Portrait, TreeShape, commutator, tree_shape
from .quotient import (
    BudgetExceeded,
    DEFAULT_BUDGET,
    QuotientGroup,
    SubgroupHandle,
    coordinate_line,
    enumerate_quotient,
    exceeds_budget,
    map_power_classes,
    p_power_chains,
    predicted_exponent,
    predicted_order,
    written_order,
)
from .words import evaluate_word

__all__ = ["CLAIMS", "claim_params", "default_level", "verify_claim", "replay_certificate"]

SCALE = "skipped: scale"
ELEMENT_WISE = "element-wise portrait computation; no group enumeration"
LEVEL_ONLY = "certificate covers the stated level only, not the statement for all levels"


class Claim(NamedTuple):
    """A registry record; `verify` fills in the certificate and returns the verdict."""

    statement: str
    level: int
    verify: Callable[[Certificate, DefiningVector, int, int], str]


def default_level(claim: str) -> int:
    return CLAIMS[claim].level


def claim_params(
    claim: str,
    v: DefiningVector,
    n: int | None = None,
    m: int | None = None,
    x_word: str = "a",
    y_word: str = "b",
) -> dict:
    """Certificate params of one run: p, e and the level n (default: the
    claim's); lifting adds the target depth m (default n + 1) and its words."""
    if n is None:
        n = default_level(claim)
    params: dict = {"p": v.p, "e": list(v.e), "n": n}
    if claim == "lifting":
        params.update(m=n + 1 if m is None else m, x=x_word, y=y_word)
    return params


# -- certificate skeleton --------------------------------------------------------


def _verdict(ok: bool, passed: str = "verified") -> str:
    return passed if ok else "refuted"


def _enumerate(
    cert: Certificate, v: DefiningVector, n: int, budget: int, exhaustive: bool = True
) -> QuotientGroup:
    """Enumerate the level-n quotient and record its size on the certificate."""
    group = enumerate_quotient(v, n, budget)
    cert.element_count = len(group)
    cert.exhaustive = exhaustive
    return group


def _over_budget(
    cert: Certificate, v: DefiningVector, n: int, budget: int, fallback: str = ""
) -> bool:
    """Whether the formula order exceeds the budget; if so, say so in a note."""
    if not exceeds_budget(v, n, budget):
        return False
    cert.notes.append(
        f"predicted order {written_order(v, n)} exceeds the budget {budget}"
        + (f"; {fallback}" if fallback else "")
    )
    return True


def _orders_of(shape: TreeShape, exps: bytes) -> list[int]:
    """The orders p^e for order exponents e."""
    return list(map([shape.p**k for k in range(shape.n + 1)].__getitem__, exps))


def _orders(batch: list[Portrait]) -> list[int]:
    """Orders of a power class, from its batched p-power chains."""
    exps, _ = p_power_chains(batch)
    return _orders_of(batch[0].shape, exps)


def _orders_and_tops(batch: list[Portrait]) -> list[tuple[int, bytes]]:
    """Order of each x of a power class and the labels of x^(p^(n-1))."""
    exps, levels = p_power_chains(batch)
    return list(zip(_orders_of(batch[0].shape, exps), levels[-1]))


def _generator_portraits(v: DefiningVector, n: int) -> tuple[Portrait, Portrait]:
    shape = tree_shape(v.p, n)
    return make_a(shape), make_b(v, shape)


def _require_periodic(cert: Certificate, v: DefiningVector) -> None:
    if not v.periodic:
        raise ValueError(f"{cert.claim} concerns periodic vectors; {v} has nonzero sum")


def _require_non_periodic(cert: Certificate, v: DefiningVector) -> None:
    if v.periodic:
        raise ValueError(f"{cert.claim} concerns non-periodic vectors; {v} sums to zero")


# -- element-wise sub-check builders (no enumeration) ---------------------------


def _order_checks(
    cert: Certificate,
    n: int,
    items: list[tuple[str, Portrait, int]],
    prefix: str = "",
) -> bool:
    """Check order(x) == expected for (name, portrait, expected) triples."""
    ok = True
    for name, x, expected in items:
        got = x.order()
        ok &= cert.check(
            f"{prefix}order_{name}",
            got == expected,
            f"order {got} at depth {n}, expected {expected}",
        )
    return ok


def _standard_order_items(
    v: DefiningVector, n: int
) -> list[tuple[str, Portrait, int]]:
    """Orders of a^-1 b and all a b^i: p^2 each for periodic vectors, n >= 3."""
    a, b = _generator_portraits(v, n)
    p = v.p
    items = [("A_b", a.inverse() * b, p * p)]
    for i in range(1, p):
        items.append((f"a_b{i}", a * b**i, p * p))
    return items


def _eq31_checks(cert: Certificate, v: DefiningVector, n: int, prefix: str = "") -> bool:
    """Section identity for psi((ab^i)^p), all i, at depth n (n >= 2)."""
    p = v.p
    a, b = _generator_portraits(v, n)
    sub_a, sub_b = _generator_portraits(v, n - 1)
    prefix_sums = [0]
    for e in v.e:
        prefix_sums.append((prefix_sums[-1] + e) % p)
    ok = True
    for i in range(1, p):
        d = ((a * b**i) ** p).psi()
        bi = sub_b**i
        expected = tuple(
            bi.conjugate_by(sub_a ** ((i * prefix_sums[j]) % p)) for j in range(1, p)
        ) + (bi,)
        passed = d.root_label == 0 and d.sections == expected
        ok &= cert.check(
            f"{prefix}pth_power_sections_i{i}",
            passed,
            f"sections of (ab^{i})^{p} at depth {n} match the prefix-sum formula",
        )
    return ok


def _lifting_checks(
    cert: Certificate,
    v: DefiningVector,
    triple: list[tuple[str, str]],
    n: int,
    m: int,
    prefix: str = "",
) -> bool:
    """order at depth m == order at depth n for words (name, word)."""
    a_n, b_n = _generator_portraits(v, n)
    a_m, b_m = _generator_portraits(v, m)
    ok = True
    for name, word in triple:
        low = evaluate_word(word, a_n, b_n).order()
        high = evaluate_word(word, a_m, b_m).order()
        ok &= cert.check(
            f"{prefix}order_preserved_{name}",
            low == high,
            f"order of {word} is {high} at depth {m} and {low} at depth {n}",
        )
    return ok


# -- enumerated sub-check builders ----------------------------------------------


def _exponent_check(cert: Certificate, group: QuotientGroup) -> bool:
    """Exhaustive scan: every element's order divides p (periodic level 2)."""
    p = group.vector.p
    orders = map_power_classes(_orders, group.elements)
    bad = [x for x, o in zip(group.elements, orders) if o > p]
    if bad:
        cert.witnesses["exponent_witness"] = min(bad).encode()
    return cert.check(
        "exponent_p",
        not bad,
        f"all {len(group)} elements have order dividing {p}",
    )


def _collision_scan(cert: Certificate, group: QuotientGroup) -> bool:
    """Power-collision battery over every <ab^i, derived> coset element.

    Adds checks for: order p^n outside the derived subgroup, the coordinate
    decomposition g = (ab^i)^k * derived, the power collision
    g^(p^(n-1)) = (ab^i)^(k*p^(n-1)), and the single common cyclic subgroup.
    At level 2 it also checks that the common subgroup is the center.
    """
    p, n = group.vector.p, group.shape.n
    derived = group.derived_subgroup()
    maxes = group.maximal_subgroups()
    all_ok = True
    z_keysets: set[frozenset] = set()
    total = 0
    order_bad: list[Portrait] = []
    power_bad: list[Portrait] = []
    coords_bad: list[Portrait] = []
    for i in range(1, p):
        outside = [x for x in maxes[1 + i].elements if x.labels not in derived.keys]
        total += len(outside)
        step = (group.a * group.b**i) ** (p ** (n - 1))
        if step.is_identity() or not (step**p).is_identity():
            cert.check(f"rep_power_order_i{i}", False, "step is not of order p")
            all_ok = False
            continue
        step_powers = cyclic_powers(step)  # step^k at index k - 1
        z_keysets.add(cyclic_subgroup(group, step).keys)
        for x, (o, top) in zip(outside, map_power_classes(_orders_and_tops, outside)):
            if o != p**n:
                order_bad.append(x)
            k, ki = group.coords_of(x)
            if not (1 <= k <= p - 1) or ki != (k * i) % p:
                coords_bad.append(x)
            elif top != step_powers[k - 1].labels:
                power_bad.append(x)
    all_ok &= cert.check(
        "orders_p_to_n",
        not order_bad,
        f"all {total} coset elements across {p - 1} subgroups have order {p}^{n}",
    )
    all_ok &= cert.check(
        "coset_coordinates",
        not coords_bad,
        "every coset element decomposes as (ab^i)^k times a derived element",
    )
    all_ok &= cert.check(
        "power_collision",
        not power_bad,
        f"g^({p}^{n - 1}) equals (ab^i)^(k*{p}^{n - 1}) for every such g",
    )
    all_ok &= cert.check(
        "single_power_subgroup",
        len(z_keysets) == 1,
        f"{len(z_keysets)} distinct cyclic subgroups from the collision powers",
    )
    for name, bad in (
        ("order", order_bad),
        ("coords", coords_bad),
        ("power", power_bad),
    ):
        if bad:
            cert.witnesses[f"{name}_witness"] = min(bad).encode()
    if not all_ok:
        return False
    z_keys = z_keysets.pop()
    cert.witnesses["common_subgroup"] = sorted(group.element(k).encode() for k in z_keys)
    return n != 2 or cert.check(
        "equals_center",
        z_keys == group.center().keys,
        "the common subgroup is the center of the level-2 quotient",
    )


def _collision_stage(
    cert: Certificate, v: DefiningVector, n: int, budget: int
) -> tuple[QuotientGroup | None, bool]:
    """The power-collision checks of the non-periodic claims.

    Returns the enumerated group (None when it is over budget and only the
    representatives ab^i were checked) and whether the checks passed.
    """
    if _over_budget(
        cert, v, n, budget, "checking the coset representatives ab^i element-wise only"
    ):
        return None, _rep_collision_checks(cert, v, n)
    group = _enumerate(cert, v, n, budget)
    return group, _collision_scan(cert, group)


def _pigeonhole_checks(cert: Certificate, group: QuotientGroup) -> bool:
    """Every generating pair's triple meets some <ab^i, derived> coset.

    Works on generator-exponent coordinates: the three members of a triple
    have pairwise independent coordinates, so they span three distinct lines,
    of which at most two are the a-line and the b-line.
    """
    p = group.vector.p
    assert group.coords is not None
    realized = {c for c in group.coords if c != (0, 0)}
    ok = cert.check(
        "coords_realized",
        len(realized) == p * p - 1,
        f"{len(realized)} of {p * p - 1} nonzero coordinate classes are realized",
    )
    nonzero = sorted(realized)
    bad = None
    for c1 in nonzero:
        for c2 in nonzero:
            if (c1[0] * c2[1] - c1[1] * c2[0]) % p == 0:
                continue
            c3 = (c1[0] + c2[0], c1[1] + c2[1])
            spanned = {coordinate_line(*c, p) for c in (c1, c2, c3)}
            if len(spanned) != 3 or not (spanned - {0, 1}):
                bad = (c1, c2)
                break
        if bad:
            break
    ok &= cert.check(
        "triple_meets_power_coset",
        bad is None,
        "every independent coordinate pair has a member on an ab^i line"
        + (f"; failed at {bad}" if bad else ""),
    )
    derived = group.derived_subgroup()
    maxes = group.maximal_subgroups()
    lines = group.lines()
    counts_ok = all(
        lines.count(1 + i) == len(maxes[1 + i]) - len(derived) for i in range(1, p)
    )
    ok &= cert.check(
        "line_coset_bijection",
        counts_ok,
        "elements with coordinates on line i are exactly the i-th coset elements",
    )
    return ok


# -- p = 3 level-3 structure battery ---------------------------------------------


def _center_checks(cert: Certificate, group: QuotientGroup) -> tuple[bool, SubgroupHandle]:
    """|Z| = 3, and Z lies in the derived subgroup of the first-level stabilizer."""
    center = group.center()
    stab = group.level_stabilizer(1)
    stab_derived = group.subgroup_commutator(stab, stab)
    ok = cert.check("center_order", len(center) == 3, f"|Z| = {len(center)}")
    ok &= cert.check(
        "center_in_stabilizer_derived",
        all(z in stab_derived for z in center),
        "Z lies in the derived subgroup of the first-level stabilizer",
    )
    return ok, center


def _gupta_sidki_structure(cert: Certificate, group: QuotientGroup) -> bool:
    """Full exhaustive battery for the level-3 structure at p = 3."""
    special = build_special_elements(group)
    u, v_el = special.u, special.v
    a, b = group.a, group.b
    ok, center = _center_checks(cert, group)
    ok &= cert.check("u_central", u.labels in center.keys, "u generates Z")
    ok &= cert.check("u_order", u.order() == 3, f"order of u is {u.order()}")
    cert.witnesses["u"] = u.encode()
    cert.witnesses["v"] = v_el.encode()

    sub_a, sub_b = _generator_portraits(group.vector, 2)
    comm = commutator(sub_a, sub_b)
    triple_comm = (comm, comm, comm)

    av = a * v_el
    d = (av**3).psi()
    ok &= cert.check(
        "av_cube_sections",
        d.root_label == 0 and d.sections == triple_comm,
        "sections of (av)^3 are ([a,b], [a,b], [a,b])",
    )
    ok &= cert.check(
        "av_cube_central", (av**3).labels in center.keys, "(av)^3 lies in Z"
    )

    ab = a * b
    d2 = (ab**3).psi()
    expected_ab = (sub_b.conjugate_by(sub_a), sub_b, sub_b)
    ok &= cert.check(
        "ab_cube_sections",
        d2.root_label == 0 and d2.sections == expected_ab,
        "sections of (ab)^3 are (b^a, b, b)",
    )
    ok &= cert.check(
        "ab_cube_not_central",
        (ab**3).labels not in center.keys,
        "(ab)^3 is outside Z",
    )

    b0b1b2 = sub_b * sub_b.conjugate_by(sub_a) * sub_b.conjugate_by(sub_a * sub_a)
    ok &= cert.check(
        "depth2_conjugate_product",
        b0b1b2.is_identity(),
        "b * b^a * b^(a^2) is trivial at depth 2",
    )

    y = av * b * b * u
    d3 = (y**3).psi()
    sub_b_inv = sub_b.inverse()
    expected_y = (sub_b_inv, sub_b_inv.conjugate_by(sub_a), sub_b_inv.conjugate_by(sub_a))
    ok &= cert.check(
        "second_product_cube_sections",
        d3.root_label == 0 and d3.sections == expected_y,
        "sections of (av b^2 u)^3 are (b^-1, (b^-1)^a, (b^-1)^a)",
    )

    t1 = GeneratingTriple.make(group, a, b)
    t2 = GeneratingTriple.make(group, av, b * b * u)
    pair = is_beauville_pair(t1, t2, group)
    ok &= cert.check(
        "sigma_intersection_trivial",
        pair.verified,
        "the Sigma sets of (a, b) and (av, b^2 u) meet only in the identity",
    )
    cert.witnesses["triple_1"] = t1.encode()
    cert.witnesses["triple_2"] = t2.encode()
    return ok


# -- per-claim verifiers ----------------------------------------------------------


def verify_lemma_orders(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_periodic(cert, v)
    if n < 3:
        raise ValueError("the order claim concerns levels n >= 3")
    cert.exhaustive = True
    cert.notes.append(ELEMENT_WISE)
    return _verdict(_order_checks(cert, n, _standard_order_items(v, n)))


def verify_eq31(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_periodic(cert, v)
    if n < 2:
        raise ValueError("the section identity needs depth n >= 2")
    cert.exhaustive = True
    cert.notes.append(ELEMENT_WISE)
    return _verdict(_eq31_checks(cert, v, n))


def verify_lemma_conjugates(
    cert: Certificate, v: DefiningVector, n: int, budget: int
) -> str:
    if n != 2:
        raise ValueError("the conjugate-distinctness claim concerns depth 2")
    cert.exhaustive = True
    a, b = _generator_portraits(v, 2)
    conjugates = [b.conjugate_by(a**i) for i in range(v.p)]
    collisions = [
        (i, j)
        for i in range(v.p)
        for j in range(i + 1, v.p)
        if conjugates[i] == conjugates[j]
    ]
    ok = cert.check(
        "pairwise_distinct",
        not collisions,
        f"the {v.p} conjugates of b are pairwise distinct as depth-2 portraits"
        + (f"; collisions at {collisions}" if collisions else ""),
    )
    cert.witnesses["conjugates"] = [x.encode() for x in conjugates]
    return _verdict(ok)


def _require_gupta_sidki_level3(cert: Certificate, v: DefiningVector, n: int) -> None:
    _require_periodic(cert, v)
    if v.p != 3:
        raise ValueError(f"{cert.claim} is specific to p = 3")
    if n != 3:
        raise ValueError(f"{cert.claim} concerns the level-3 quotient")


def verify_lemma_center(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_gupta_sidki_level3(cert, v, n)
    group = _enumerate(cert, v, 3, budget)
    special = build_special_elements(group)
    ok, center = _center_checks(cert, group)
    ok &= cert.check(
        "generator_sections",
        special.u.labels in center.keys and special.u.order() == 3,
        "a generator of Z has sections ([a,b], [a,b], [a,b])",
    )
    cert.witnesses["u"] = special.u.encode()
    return _verdict(ok)


def verify_lemma_comms_b(
    cert: Certificate, v: DefiningVector, n: int, budget: int
) -> str:
    _require_gupta_sidki_level3(cert, v, n)
    group = _enumerate(cert, v, 3, budget)
    center_keys = group.center().keys
    comms = pmap(partial(commutator, group.b), group.elements)
    hits = sorted(
        c.labels for c in comms if not c.is_identity() and c.labels in center_keys
    )
    ok = cert.check(
        "no_central_commutator",
        not hits,
        f"scanned all {len(group)} commutators [b, g]; "
        f"{len(hits)} nontrivial central hits",
    )
    if hits:
        cert.witnesses["central_commutator"] = group.element(hits[0]).encode()
    return _verdict(ok)


def verify_lemma_comms_a(
    cert: Certificate, v: DefiningVector, n: int, budget: int
) -> str:
    _require_gupta_sidki_level3(cert, v, n)
    group = _enumerate(cert, v, 3, budget)
    special = build_special_elements(group)
    comms = pmap(partial(commutator, group.a), group.elements)
    ok = cert.check(
        "not_a_commutator",
        all(c != special.v for c in comms),
        f"scanned all {len(group)} commutators [a, g]; none equals v",
    )
    cert.witnesses["v"] = special.v.encode()
    return _verdict(ok)


def verify_prop_key(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_periodic(cert, v)
    if n < 3:
        raise ValueError(
            "the power-subgroup claim needs n >= 3, where ab^i has order p^2"
        )
    p = v.p
    if _over_budget(cert, v, n, budget, "running element-wise sub-checks only"):
        ok = _order_checks(cert, n, _standard_order_items(v, n), prefix="partial_")
        ok &= _eq31_checks(cert, v, n, prefix="partial_")
        return _verdict(ok, SCALE)
    group = _enumerate(cert, v, n, budget)
    cert.notes.append(
        "conjugates of <(ab^j)^p> are exhausted via conjugation-orbit closure, "
        "which reaches the orbit under the full group"
    )
    bases, orbits = {}, {}
    for i in range(1, p):
        w = group.element(((group.a * group.b**i) ** p).labels)
        cert.witnesses[f"w{i}"] = w.encode()
        bases[i] = cyclic_subgroup(group, w).keys
        orbits[i] = set(subgroup_conjugation_orbit(group, bases[i]))
    ok = True
    for i in range(1, p):
        ok &= cert.check(
            f"self_conjugate_i{i}",
            bases[i] in orbits[i],
            "the subgroup is in its own conjugation orbit (identity conjugator)",
        )
        for j in range(1, p):
            if i == j:
                continue
            ok &= cert.check(
                f"distinct_i{i}_j{j}",
                bases[i] not in orbits[j],
                f"no conjugate of <(ab^{j})^{p}> equals <(ab^{i})^{p}> "
                f"(orbit of {len(orbits[j])} subgroups)",
            )
    return _verdict(ok)


def verify_prop_collision(
    cert: Certificate, v: DefiningVector, n: int, budget: int
) -> str:
    _require_non_periodic(cert, v)
    if n < 2:
        raise ValueError("the collision claim concerns levels n >= 2")
    group, ok = _collision_stage(cert, v, n, budget)
    return _verdict(ok, SCALE if group is None else "verified")


def _rep_collision_checks(cert: Certificate, v: DefiningVector, n: int) -> bool:
    """Collision checks on the representatives ab^i alone (no enumeration)."""
    p = v.p
    a, b = _generator_portraits(v, n)
    ok = True
    steps = []
    for i in range(1, p):
        rep = a * b**i
        got = rep.order()
        ok &= cert.check(
            f"partial_order_rep{i}", got == p**n, f"order of ab^{i} is {got}"
        )
        steps.append(rep ** (p ** (n - 1)))
    first = {s.labels for s in cyclic_powers(steps[0])}
    for i, s in enumerate(steps[1:], start=2):
        ok &= cert.check(
            f"partial_common_subgroup_rep{i}",
            {x.labels for x in cyclic_powers(s)} == first,
            f"<(ab^{i})^({p}^{n - 1})> matches the first representative's subgroup",
        )
    return ok


def verify_thm_B(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_non_periodic(cert, v)
    if n < 1:
        raise ValueError("levels start at 1")
    cert.notes.append(LEVEL_ONLY)
    if n == 1:
        group = _enumerate(cert, v, 1, budget)
        cyclic = any(
            len(cyclic_subgroup(group, x)) == len(group) for x in group.elements
        )
        ok = cert.check("level1_cyclic", cyclic, f"the {len(group)}-element quotient is cyclic")
        oracle = search_beauville(group, "exhaustive")
        ok &= cert.check(
            "no_structure_oracle",
            oracle.refuted,
            "the literal no-pruning search finds no structure",
        )
        return _verdict(ok)
    group, ok = _collision_stage(cert, v, n, budget)
    if group is None:
        return _verdict(ok, SCALE)
    ok = _pigeonhole_checks(cert, group) and ok
    if ok:
        cert.notes.append(
            "conclusion: every generating triple has a member inside some "
            "<ab^i, derived> coset, that member's high power generates the one "
            "common cyclic subgroup, so every Sigma set contains it and no two "
            "Sigma sets meet trivially"
        )
    if n == 2 and ok:
        if len(group) <= LITERAL_SEARCH_CAP:
            oracle = search_beauville(group, "exhaustive")
            ok &= cert.check(
                "no_structure_oracle",
                oracle.refuted,
                "independent literal search (no pruning) also finds no structure",
            )
        else:
            cert.notes.append(
                f"group order {len(group)} exceeds the literal search cap "
                f"{LITERAL_SEARCH_CAP}; the independent literal search is not run"
            )
        pruned = search_beauville(group, "pruned")
        ok &= cert.check(
            "no_structure_signatures",
            pruned.refuted,
            "the signature-exhaustion search agrees",
        )
    return _verdict(ok)


def verify_thm_G2(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_periodic(cert, v)
    if n != 2:
        raise ValueError("this claim concerns the level-2 quotient")
    p = v.p
    group = _enumerate(cert, v, 2, budget)
    if len(group) <= SEARCH_ELEMENT_CAP:
        _exponent_check(cert, group)
        search = search_beauville(group, "pruned")
        if p == 3:
            ok = cert.check(
                "no_structure",
                search.refuted,
                "the signature-exhaustion search finds no structure at p = 3",
            )
        else:
            ok = cert.check(
                "structure_found",
                search.verified,
                "the search finds and confirms a structure",
            )
            cert.witnesses.update(search.witnesses)  # the two triples, if found
        cert.notes.extend(f"search: {note}" for note in search.notes)
        return _verdict(ok)
    # Beyond the signature-search cap (p >= 7): confirm a fixed candidate whose
    # six members lie on six distinct maximal-subgroup lines, literally.
    cert.exhaustive = False
    cert.notes.append(
        f"group order {len(group)} exceeds the search cap {SEARCH_ELEMENT_CAP}; "
        "verifying a fixed candidate pair literally instead of searching"
    )
    t1 = GeneratingTriple.make(group, group.a, group.b)
    t2 = GeneratingTriple.make(
        group, group.a * group.b**2, group.a * group.b**4
    )
    pair = is_beauville_pair(t1, t2, group)
    ok = cert.check(
        "structure_found",
        pair.verified,
        "the candidate pair (a, b) / (ab^2, ab^4) verifies literally",
    )
    cert.witnesses["triple_1"] = t1.encode()
    cert.witnesses["triple_2"] = t2.encode()
    return _verdict(ok)


def verify_thm_G3(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_periodic(cert, v)
    if n != 3:
        raise ValueError("this claim concerns the level-3 quotient")
    if v.p == 3:
        group = _enumerate(cert, v, 3, budget)
        return _verdict(_gupta_sidki_structure(cert, group))
    over = _over_budget(
        cert, v, 3, budget, "running the element-wise sub-checks for the standard triples"
    )
    ok = _standard_triples_checks(cert, v, 3)
    if over or predicted_exponent(v, 3) is None:
        return _verdict(ok, SCALE)
    # Small enough after all: confirm the standard triple pair literally.
    group = _enumerate(cert, v, 3, budget)
    a, b = group.a, group.b
    t1 = GeneratingTriple.make(group, a.inverse() * a.inverse(), a * b)
    t2 = GeneratingTriple.make(group, a * b**2, b)
    pair = is_beauville_pair(t1, t2, group)
    ok &= cert.check(
        "sigma_intersection_trivial", pair.verified, "the standard pair verifies"
    )
    cert.witnesses["triple_1"] = t1.encode()
    cert.witnesses["triple_2"] = t2.encode()
    return _verdict(ok)


def _standard_triples_checks(cert: Certificate, v: DefiningVector, n: int) -> bool:
    """Element-wise checks for the triples (a^-2, ab, a^-1 b) / (ab^2, b, ab^3)."""
    p = v.p
    a, b = _generator_portraits(v, n)
    items = [
        ("x1_a-2", a.inverse() * a.inverse(), p),
        ("y1_ab", a * b, p * p),
        ("x1y1_A_b", a.inverse() * b, p * p),
        ("x2_ab2", a * b**2, p * p),
        ("y2_b", b, p),
        ("x2y2_ab3", a * b**3, p * p),
    ]
    ok = _order_checks(cert, n, items)
    ok &= _eq31_checks(cert, v, n)
    lhs = (a.inverse() * b).inverse()
    rhs = (a * b ** (p - 1)).conjugate_by(b)
    ok &= cert.check(
        "inverse_identity",
        lhs == rhs,
        "(a^-1 b)^-1 equals (a b^(p-1)) conjugated by b",
    )
    cert.notes.append(
        "the second triple's third member is the literal product (ab^2)(b) = ab^3"
    )
    return ok


def verify_thm_A(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    _require_periodic(cert, v)
    p = v.p
    if not ((p >= 5 and n >= 2) or (p == 3 and n >= 3)):
        raise ValueError(
            "the claim covers p >= 5 with n >= 2, or p = 3 with n >= 3; "
            f"got p={p}, n={n}"
        )
    cert.notes.append(LEVEL_ONLY)
    if p >= 5 and n == 2:
        k = len(cert.notes)
        verdict = verify_thm_G2(cert, v, 2, budget)
        cert.notes[k:] = [f"level-2: {x}" for x in cert.notes[k:]]
        return verdict
    if p == 3:
        if n == 3:
            return verify_thm_G3(cert, v, 3, budget)
        ok = _gupta_sidki_structure(cert, enumerate_quotient(v, 3, budget))
        triple = [("x1_a", "a"), ("y1_b", "b"), ("x1y1_ab", "ab")]
        ok &= _lifting_checks(cert, v, triple, 3, n, prefix="lift_")
        cert.notes.append(
            "conclusion: the structure verified exhaustively at depth 3 lifts to "
            f"depth {n} because the first triple's element orders are preserved"
        )
        return _verdict(ok)
    # p >= 5, n >= 3: the level-3 quotient has order p^(4p+1), far out of scale.
    ok = _standard_triples_checks(cert, v, 3)
    triple = [("x1_a-2", "A^2"), ("y1_ab", "ab"), ("x1y1_A_b", "Ab")]
    if n > 3:
        ok &= _lifting_checks(cert, v, triple, 3, n, prefix="lift_")
    cert.notes.append(
        "the full Sigma-intersection check at this scale is not run; "
        "the element-wise sub-checks above are exhaustive over the stated elements"
    )
    return _verdict(ok, SCALE)


def verify_lifting(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    m, x_word, y_word = (cert.params[k] for k in ("m", "x", "y"))
    if m <= n:
        raise ValueError("the target depth m must exceed the source depth n")
    cert.exhaustive = True
    cert.notes.append(ELEMENT_WISE)
    xy = f"({x_word})({y_word})"
    triple = [("x", x_word), ("y", y_word), ("xy", xy)]
    return _verdict(_lifting_checks(cert, v, triple, n, m))


def verify_order_formula(
    cert: Certificate, v: DefiningVector, n: int, budget: int
) -> str:
    if predicted_exponent(v, n) is None:
        try:
            group = _enumerate(cert, v, n, budget, exhaustive=False)
        except BudgetExceeded as exc:
            cert.notes.append(str(exc))
            return SCALE
        cert.witnesses["enumerated_order"] = len(group)
        cert.notes.append(
            "no order formula applies to symmetric defining vectors at n >= 3; "
            "the enumerated size is reported without a cross-check"
        )
        return "skipped: no formula for symmetric defining vectors"
    if _over_budget(cert, v, n, budget):
        return SCALE
    group = _enumerate(cert, v, n, budget)
    predicted = predicted_order(v, n)
    ok = cert.check(
        "order_matches",
        len(group) == predicted,
        f"enumerated {len(group)}, formula gives {predicted} (t = {v.rank})",
    )
    cert.witnesses["enumerated_order"] = len(group)
    cert.witnesses["predicted_order"] = predicted
    return _verdict(ok)


# -- registry and dispatch --------------------------------------------------------

CLAIMS: dict[str, Claim] = {
    "thm-A": Claim(
        "the level-n quotient of a periodic GGS group is a Beauville group "
        "(covered range: p >= 5 with n >= 2, or p = 3 with n >= 3)",
        3,
        verify_thm_A,
    ),
    "thm-B": Claim(
        "no level-n quotient of a non-periodic GGS group is a Beauville group",
        2,
        verify_thm_B,
    ),
    "thm-G2": Claim(
        "the level-2 quotient of a periodic GGS group is a Beauville group "
        "exactly when p >= 5",
        2,
        verify_thm_G2,
    ),
    "thm-G3": Claim(
        "the level-3 quotient of a periodic GGS group is a Beauville group",
        3,
        verify_thm_G3,
    ),
    "lemma-orders": Claim(
        "a^-1 b and every a b^i have order p^2 in the level-n quotient (n >= 3, "
        "periodic vector)",
        3,
        verify_lemma_orders,
    ),
    "lemma-conjugates": Claim(
        "the conjugates of b by powers of a are pairwise distinct at tree depth 2",
        2,
        verify_lemma_conjugates,
    ),
    "lemma-center": Claim(
        "at p = 3 (periodic) the level-3 center has order 3, lies in the derived "
        "subgroup of the first-level stabilizer, and its generator has sections "
        "([a,b], [a,b], [a,b])",
        3,
        verify_lemma_center,
    ),
    "lemma-comms-b": Claim(
        "at p = 3 (periodic) no nontrivial central element of the level-3 "
        "quotient is a commutator [b, g]",
        3,
        verify_lemma_comms_b,
    ),
    "lemma-comms-a": Claim(
        "at p = 3 (periodic) the element with sections ([a,b], 1, 1) is not a "
        "commutator [a, g] in the level-3 quotient",
        3,
        verify_lemma_comms_a,
    ),
    "prop-key": Claim(
        "<(ab^i)^p> equals a conjugate of <(ab^j)^p> in the level-n quotient "
        "only when i = j (periodic vector)",
        3,
        verify_prop_key,
    ),
    "prop-collision": Claim(
        "in the level-n quotient of a non-periodic GGS group, every element of "
        "<ab^i, derived> outside the derived subgroup has order p^n, its "
        "p^(n-1)-th power is the matching power of ab^i, and all such powers "
        "generate one cyclic subgroup",
        2,
        verify_prop_collision,
    ),
    "eq-3.1": Claim(
        "psi((ab^i)^p) = ((b^i)^(a^(i*s_1)), ..., (b^i)^(a^(i*s_(p-1))), b^i) "
        "where s_j are the prefix sums of the defining vector (periodic case)",
        3,
        verify_eq31,
    ),
    "order-formula": Claim(
        "the level-n quotient has order p^(t*p^(n-2) + 1) for n >= 2 and "
        "non-symmetric vectors, where t is the circulant rank; level 1 has order p",
        2,
        verify_order_formula,
    ),
    "lifting": Claim(
        "the orders of x, y and xy at tree depth m equal their orders at depth n "
        "(order-preservation hypothesis for lifting a structure from depth n)",
        3,
        verify_lifting,
    ),
}


def verify_claim(
    claim: str,
    v: DefiningVector,
    n: int | None = None,
    *,
    m: int | None = None,
    x_word: str = "a",
    y_word: str = "b",
    budget: int = DEFAULT_BUDGET,
    workers: int = 1,
) -> Certificate:
    """Run the verifier for one claim id and stamp the wall time.

    Every verifier runs in this process.  `workers` accepts only 1: the
    benchmark harness under perfbench/ still passes workers=1, and the
    keyword goes once that harness stops passing it.
    """
    if workers != 1:
        raise ValueError(f"verifiers run in one process; workers must be 1, got {workers}")
    if claim not in CLAIMS:
        known = ", ".join(sorted(CLAIMS))
        raise ValueError(f"unknown claim {claim!r}; known claims: {known}")
    start = time.perf_counter()
    params = claim_params(claim, v, n, m, x_word, y_word)
    cert = Certificate(
        claim=claim,
        statement=CLAIMS[claim].statement,
        params=params,
        verdict="",
        exhaustive=False,
        code_version=CODE_VERSION,
    )
    cert.verdict = CLAIMS[claim].verify(cert, v, params["n"], budget)
    cert.wall_time = time.perf_counter() - start
    return cert


def replay_certificate(doc: dict, budget: int = DEFAULT_BUDGET) -> bool:
    """Re-verify a stored certificate.

    Verified certificates carrying witness triples are replayed by checking
    the witnesses directly (no search); everything else re-runs the claim and
    must reproduce the stored canonical document byte for byte.
    """
    cert = Certificate.from_dict(doc)
    params = cert.params
    v = DefiningVector(params["p"], tuple(params["e"]))
    if (
        cert.verified
        and "triple_1" in cert.witnesses
        and "triple_2" in cert.witnesses
    ):
        # The witnesses may live below params["n"] (thm-A at p = 3 checks
        # them at level 3 for every n): replay at the level they encode.
        level = Portrait.decode(cert.witnesses["triple_1"][0]).shape.n
        group = enumerate_quotient(v, level, budget)
        t1 = _decode_triple(group, cert.witnesses["triple_1"])
        t2 = _decode_triple(group, cert.witnesses["triple_2"])
        return is_beauville_pair(t1, t2, group).verified
    fresh = verify_claim(
        cert.claim,
        v,
        params["n"],
        m=params.get("m"),
        x_word=params.get("x", "a"),
        y_word=params.get("y", "b"),
        budget=budget,
    )
    return fresh.canonical_json() == cert.canonical_json()


def _decode_triple(group: QuotientGroup, encoded: list[str]) -> GeneratingTriple:
    x = group.element(encoded[0])
    y = group.element(encoded[1])
    t = GeneratingTriple.make(group, x, y)
    if t.xy.encode() != encoded[2]:
        raise ValueError("stored triple product does not match x*y")
    return t
