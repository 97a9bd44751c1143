"""One verifier per documented claim, each returning a replayable certificate.

`CLAIMS` is the claim registry: one record per claim id with its statement,
its default level, its verifier and its domain (the vectors, primes and
levels it concerns), which `claim_params` enforces before any work.

Which proof each claim rests on:

- `thm-B` and `prop-collision` (n >= 2): the power lemma, checked on
  portraits at every level; `thm-B` at level 1 enumerates the cyclic C_p.
- `thm-G2` at p >= 5: the lines argument, on depth-2 portraits, and the
  argument's own pair checked as a Beauville structure on the group; at
  p = 3 an exhaustive exponent scan and signature search.
- `thm-A` and `thm-G3` at p >= 5 (n >= 3): the pair argument, with
  element orders at level n and the last-layer test at level 3.
- `prop-key` (n >= 3): the last-layer test at level 3 by one valuation, every p.
- `thm-A` and `thm-G3` at p = 3, the three p = 3 lemmas and `order-formula`:
  exhaustive enumeration; `thm-A` lifts level 3 to level n by element orders.
- `lemma-orders`, `eq-3.1`, `lemma-conjugates` and `lifting`: portraits
  alone, no group.

Where a proof decides, enumeration only confirms, up to min(budget,
SEARCH_ELEMENT_CAP) elements.  Where the enumeration is the proof and
refuses the budget, the claim is reported as "skipped: scale", with the
refusal as a note, rather than pretending the statement was checked.
"""

from __future__ import annotations

import time
from itertools import accumulate
from typing import Callable, NamedTuple, Sequence

from . import metrics
from .beauville import (
    GeneratingTriple,
    SEARCH_ELEMENT_CAP,
    is_beauville_pair,
    search_beauville,
)
from .certificate import CODE_VERSION, Certificate
from .generators import (
    DEFAULT_BUDGET,
    MAX_LEVEL,
    BudgetExceeded,
    DefiningVector,
    _one_root_multiplicity,
    exceeds_budget,
    predicted_order,
    written_order,
)
from .portrait import Portrait, PsiDecomposition, TreeShape, assemble, commutator
from .portrait import make_a, make_b, tree_shape
from .quotient import (
    QuotientGroup,
    SubgroupHandle,
    coordinate_line,
    enumerate_quotient,
    failures,
    orders,
    orders_and_tops,
)
from .words import evaluate_word

__all__ = ["CLAIMS", "claim_params", "verify_claim", "replay_certificate"]

SCALE = "skipped: scale"
ELEMENT_WISE = "element-wise portrait computation; no group enumeration"
LEVEL_ONLY = "certificate covers the stated level only, not the statement for all levels"
POWER_LEMMA = (
    "power lemma: for alpha = sum(e) != 0 and g with coordinates (k, j), k != 0, "
    "g^(p^(n-1)) = z^(j*alpha), where z has label 1 at every depth-(n-1) vertex "
    "and 0 elsewhere; by induction on n, as every section of g^p has coordinates "
    "j*(alpha, 1) when the sections of b sum to (alpha, 1)"
)
LAST_LAYER_TEST = (
    "last-layer test: w_i = (ab^i)^p lies in st(2), and G/st(2) = {(r, u) : u in U} "
    "moves its depth-2 block x to block x + r rotated by u_x, U = ((X-1)^m) in "
    "F_p[X]/(X^p - 1), m the multiplicity of 1 as a root of e.  Block x of w_i is iE "
    "rotated by i*c_x, E = (e_1, ..., e_(p-1), 0), c_x = -(e_1 + ... + e_(x+1)), and "
    "no non-trivial rotation of E is a multiple of E, so w_j^k meets w_i only for "
    "k = i/j, with u = (i*X^-r - j)*C, C = sum c_x X^x.  For i != j mod p that factor "
    "is a unit, so u has the valuation of C at X - 1, which is below m: u is not in "
    "U; a conjugacy at level n >= 3 maps onto one at level 3"
)
LINES_ARGUMENT = (
    "lines argument: the six members have order p and lie on six distinct lines of "
    "G/G' = F_p^2; an order-p member's powers stay on its line and conjugation keeps "
    "lines, so the two Sigma sets meet only in 1; a triple generates when x and y "
    "have independent coordinates (Burnside basis theorem)"
)


class Claim(NamedTuple):
    """A registry record; `verify` fills in the certificate and returns the verdict."""

    statement: str
    level: int
    verify: Callable[[Certificate, DefiningVector, int, int], str]
    periodic: bool | None = None  # the kind of vector concerned; None: every vector
    levels: tuple[int, int] = (1, MAX_LEVEL)  # the least and greatest level concerned
    p3_levels: tuple[int, int] | None = None  # the levels at p = 3, where they differ
    only_p: int | None = None  # the one prime concerned; None: every prime


def claim_params(
    claim: str,
    v: DefiningVector,
    n: int | None = None,
    m: int | None = None,
    x_word: str = "a",
    y_word: str = "b",
) -> dict:
    """Certificate params of one run: p, e and the level n (default: the
    claim's); lifting adds the target depth m (default n + 1) and its words.
    The one domain gate: a level, a vector or a prime the claim does not
    concern, and a lifting target m outside n + 1..MAX_LEVEL, raise ValueError."""
    if claim not in CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; known claims: {', '.join(sorted(CLAIMS))}")
    record = CLAIMS[claim]
    n = record.level if n is None else n
    if record.only_p not in (None, v.p):
        raise ValueError(f"{claim} concerns p = {record.only_p}, got p = {v.p}")
    at_p3 = v.p == 3 and record.p3_levels is not None
    lo, hi = record.p3_levels if at_p3 else record.levels
    if type(n) is not int or not lo <= n <= hi:
        span = f"level {lo}" if lo == hi else f"levels {lo}..{hi}"
        raise ValueError(f"{claim} concerns {span}{' at p = 3' if at_p3 else ''}, got {n!r}")
    if record.periodic is not None and v.periodic != record.periodic:
        kind, has = ("", "has nonzero sum") if record.periodic else ("non-", "sums to zero")
        raise ValueError(f"{claim} concerns {kind}periodic vectors; {v} {has}")
    params: dict = {"p": v.p, "e": list(v.e), "n": n}
    if claim == "lifting":
        m = n + 1 if m is None else m
        if type(m) is not int or not n < m <= hi:
            raise ValueError(f"lifting needs a target depth m in {n + 1}..{hi}, got {m!r}")
        params.update(m=m, x=x_word, y=y_word)
    return params


# -- certificate skeleton --------------------------------------------------------


def _verdict(ok: bool) -> str:
    return "verified" if ok else "refuted"


def _group_within(
    cert: Certificate, v: DefiningVector, n: int, budget: int, proof: str = ""
) -> QuotientGroup | None:
    """The level-n quotient, or None with a note when the enumeration refuses
    the budget.  The note names the predicted order when that is known to
    exceed the budget, and the refusal's own text otherwise.  An enumeration
    at the certificate's own level records its size and makes it exhaustive.

    With `proof`, the enumeration only confirms a verdict that proof has
    decided, and is not run past min(budget, SEARCH_ELEMENT_CAP) elements.
    """
    limit = min(budget, SEARCH_ELEMENT_CAP) if proof else budget
    try:
        group = enumerate_quotient(v, n, limit)
    except BudgetExceeded as exc:
        order = written_order(v, n) if exceeds_budget(v, n, limit) else None
        if proof:
            cert.notes.append(
                "the confirming enumeration is not run past min(budget, SEARCH_ELEMENT_CAP)"
                f" = {limit} elements: {f'the order is {order}' if order else exc}; "
                f"the verdict rests on {proof}"
            )
        else:
            stop = f"predicted order {order} exceeds the budget {limit}"
            cert.notes.append(stop if order else str(exc))
        return None
    if n == cert.params["n"]:
        cert.element_count = len(group)
        cert.exhaustive = True
    return group


def _generator_portraits(v: DefiningVector, n: int) -> tuple[Portrait, Portrait]:
    shape = tree_shape(v.p, n)
    return make_a(shape), make_b(v, shape)


# -- element-wise sub-check builders (no enumeration) ---------------------------


def _order_checks(cert: Certificate, n: int, items: list[tuple[str, Portrait, int]]) -> bool:
    """Check order(x) == expected for (name, portrait, expected) triples."""
    ok = True
    for name, x, expected in items:
        got = x.order()
        ok &= cert.check(
            f"order_{name}",
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
    items, ab_i = [("A_b", a.inverse() * b, p * p)], a
    for i in range(1, p):
        ab_i = ab_i * b  # ab^i from ab^(i-1)
        items.append((f"a_b{i}", ab_i, p * p))
    return items


def _eq31_checks(cert: Certificate, v: DefiningVector, n: int) -> bool:
    """Section identity for psi((ab^i)^p), all i, at depth n (n >= 2)."""
    p = v.p
    a, b = _generator_portraits(v, n)
    sub_a, sub_b = _generator_portraits(v, n - 1)
    prefix_sums = [0, *accumulate(v.e)]
    sub_a_powers = [sub_a**t for t in range(p)]
    ok, ab_i, bi = True, a, Portrait.identity(sub_b.shape)
    for i in range(1, p):
        ab_i, bi = ab_i * b, bi * sub_b  # ab^i and b^i from the previous i
        d = (ab_i**p).psi()
        expected = tuple(
            bi.conjugate_by(sub_a_powers[i * prefix_sums[j] % p]) for j in range(1, p)
        ) + (bi,)
        passed = d.root_label == 0 and d.sections == expected
        ok &= cert.check(
            f"pth_power_sections_i{i}",
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


def _central_z(shape: TreeShape) -> Portrait:
    """z: label 1 at every depth-(n-1) vertex and 0 elsewhere."""
    last = shape.level_starts[-2]
    return Portrait(shape, bytes(last) + bytes([1]) * (shape.internal_count - last))


def _power_lemma_checks(cert: Certificate, v: DefiningVector, n: int) -> bool:
    """The power lemma's inputs and its instances on the ab^i, on portraits
    alone (n >= 2): alpha != 0, psi(b), (ab^i)^(k*p^(n-1)) = z^(k*i*alpha)
    and z central.  Every g on line 1 + i then has order p^n and <g> holds z.
    Only k = 1 is formed: z has order p, so instance k is the k-th power of
    instance 1, and a failing line i is (i, 1), the full (i, k) scan's first failure.
    """
    p, alpha = v.p, v.alpha
    a, b = _generator_portraits(v, n)
    sub_a, sub_b = _generator_portraits(v, n - 1)
    z = _central_z(a.shape)
    cert.notes.append(POWER_LEMMA)
    ok = cert.check("alpha_nonzero", alpha != 0, f"alpha = sum(e) = {alpha} mod {p}")
    d = b.psi()
    ok &= cert.check(
        "b_section_sum",
        d.root_label == 0 and d.sections == tuple(sub_a**x for x in v.e) + (sub_b,),
        "psi(b) = (a^e_1, ..., a^e_(p-1), b), whose coordinates sum to (alpha, 1)",
    )
    bad, ab_i = [], a
    for i in range(1, p):
        ab_i = ab_i * b  # ab^i from ab^(i-1)
        if ab_i ** (p ** (n - 1)) != z ** (i * alpha % p):
            bad.append((i, 1))
    ok &= cert.check(
        "power_closed_form",
        not bad,
        f"(ab^i)^(k*{p}^{n - 1}) = z^(k*i*{alpha}) for i, k = 1..{p - 1}"
        + (f"; failed at (i, k) = {bad[0]}" if bad else ""),
    )
    ok &= cert.check(
        "z_central",
        z.conjugate_by(a) == z and z.conjugate_by(b) == z,
        "z^a = z^b = z",
    )
    return ok


def _triple_line_check(cert: Certificate, p: int) -> bool:
    """Every generating triple has a member on some line 1 + i, i != 0.

    On coordinates in F_p^2 = G/G', with no group.  If x and y are
    independent, so are any two of x, y and x + y (x + y = c*x would give
    y = (c - 1)*x), so the three lie on three distinct lines through the
    origin.  So it suffices that coordinate_line gives every point of a
    line the same number, distinct lines distinct numbers, and <(1, 0)> =
    <a>G' and <(0, 1)> = <b>G' the numbers 0 and 1: then at most two of the
    three members are on lines 0 and 1.  Every nonzero point is k*d for
    exactly one k in 1..p-1 and direction d in (1, 0), (0, 1), (1, i) with
    i = 1..p-1, so the check reads each of the p^2 - 1 points once.
    """
    directions = [(1, 0), (0, 1)] + [(1, i) for i in range(1, p)]
    numbers = [{coordinate_line(k * x, k * y, p) for k in range(1, p)} for x, y in directions]
    bad = None
    if any(len(line) != 1 for line in numbers):
        bad = "two points of one line get different numbers"
    elif len(set().union(*numbers)) != p + 1:
        bad = "two lines get one number"
    elif numbers[:2] != [{0}, {1}]:
        bad = "<a>G' and <b>G' are not lines 0 and 1"
    return cert.check(
        "triple_meets_power_line",
        bad is None,
        "every independent coordinate pair has a member on an ab^i line"
        + (f"; failed: {bad}" if bad else ""),
    )


def _generates_checks(cert: Certificate, p: int, pair: tuple) -> bool:
    """Each triple (x, y, xy), x = a^k b^j and y given by their coordinates
    (k, j), generates when x and y have independent coordinates."""
    ok = True
    for t, ((k1, j1), (k2, j2)) in enumerate(pair, 1):
        det = (k1 * j2 - j1 * k2) % p
        ok &= cert.check(
            f"generates_t{t}",
            det != 0,
            f"x{t} = a^{k1} b^{j1}, y{t} = a^{k2} b^{j2}: coordinate determinant {det} mod {p}",
        )
    return ok


def _lines_checks(cert: Certificate, v: DefiningVector, pair: tuple) -> bool:
    """The lines argument at level 2 for the triples of `pair`, on depth-2
    portraits with no group."""
    p = v.p
    a, b = _generator_portraits(v, 2)
    cert.notes.append(LINES_ARGUMENT)
    ok, members, coords = _generates_checks(cert, p, pair), [], []
    for (k1, j1), (k2, j2) in pair:
        x, y = a**k1 * b**j1, a**k2 * b**j2
        members += [x, y, x * y]
        coords += [(k1, j1), (k2, j2), (k1 + k2, j1 + j2)]
    orders = [x.order() for x in members]
    lines = [coordinate_line(k, j, p) for k, j in coords]
    names = "x1, y1, x1y1, x2, y2, x2y2"
    ok &= cert.check("orders_p", orders == [p] * 6, f"{names} have orders {orders} at depth 2")
    return ok & cert.check(
        "distinct_lines",
        len(set(lines)) == 6 and p + 1 not in lines,
        f"{names} lie on the lines {lines} of G/G', line {p + 1} being G'",
    )


def _key_last_layer_checks(cert: Certificate, v: DefiningVector, pairs: list) -> bool:
    """<w_i> is conjugate to no <w_j>, w_i = (ab^i)^p, for each (i, j) in
    `pairs`: the last-layer test at level 3, onto which every level n >= 3
    maps, on depth-3 portraits with no group.  w_1 is always checked, as
    offset_valuation reads the offsets c_x from its blocks.  One key_last_layer
    check covers every pair: a match forces u = (i*X^-r - j)*C, a unit multiple
    of C when i != j mod p, so the one valuation decides all such pairs, and
    i = j mod p (as (2, 2) of the pair argument at p = 3) is the only other failure."""
    p = v.p
    a, b = _generator_portraits(v, 3)
    start = a.shape.level_starts[2]
    cert.notes.append(LAST_LAYER_TEST)
    row = bytes(v.e) + b"\0"  # E
    offsets = [-s % p for s in accumulate(row)]  # c_x = -(e_1 + ... + e_(x+1))
    ok, ab_i, done = True, a, 0
    for i in sorted({1, *(x for pair in pairs for x in pair)}):
        ab_i, done = ab_i * b ** (i - done), i  # ab^i from the previous ab^done
        labels = (ab_i**p).labels
        blocks = [labels[start + x * p : start + x * p + p] for x in range(p)]
        doubled = bytes(i * y % p for y in row) * 2
        ok &= cert.check(
            f"w{i}_last_layer",
            not any(labels[:start]) and all(len(set(block)) > 1 for block in blocks)
            and blocks == [doubled[i * c % p :][:p] for c in offsets],
            f"(ab^{i})^{p} lies in st(2) at depth 3; its {p} depth-2 blocks are "
            f"non-constant, block x being {i}E rotated by {i}*c_x",
        )
        if i == 1:
            read = [(row * 2).find(block) for block in blocks]
    m = _one_root_multiplicity(v.e, p)
    valued = -1 not in read and any(read) and _one_root_multiplicity(read, p) < m
    ok &= cert.check(
        "offset_valuation",
        valued,
        f"the blocks of (ab)^{p} are E rotated by c = {read}, and "
        f"C = sum c_x X^x has valuation below m = {m} at X - 1",
    )
    same = next((f"; ({i}, {j}) has i = j mod {p}" for i, j in pairs if (i - j) % p == 0), "")
    return ok & cert.check(
        "key_last_layer",
        valued and not same,
        f"for each of the {len(pairs)} pairs (i, j), no conjugate of a generator of "
        f"<(ab^j)^{p}> equals (ab^i)^{p} at depth 3 when i != j mod {p} and "
        f"offset_valuation holds{same}",
    )


def _standard_pair_checks(cert: Certificate, v: DefiningVector, n: int) -> bool:
    """The pair argument at level n >= 3 for T1 = (a^-2, ab, a^-1 b) and
    T2 = (ab^2, b, ab^3), on portraits with no group."""
    p = v.p
    a, b = _generator_portraits(v, 3)
    ok = _generates_checks(cert, p, (((-2, 0), (1, 1)), ((1, 2), (0, 1))))
    cert.notes.append(
        "pair argument: in a p-group two Sigma sets meet exactly when some members "
        "have conjugate socles; a^-2 and b are their own socles, on the lines 0 and 1 "
        "of G/G', and the other four have order p^2, so their socles are generated by "
        "their p-th powers, in G'; as <(a^-1 b)^p> ~ <w_(p-1)>, w_i = (ab^i)^p, only "
        "<w_i> ~ <w_j> for i in {1, p-1} and j in {2, 3} can remain"
    )
    members = [("x1_a-2", "A^2", p), ("y1_ab", "ab", p * p), ("x1y1_A_b", "Ab", p * p),
               ("x2_ab2", "ab^2", p * p), ("y2_b", "b", p), ("x2y2_ab3", "ab^3", p * p)]
    ok &= _order_checks(cert, 3, [(name, evaluate_word(w, a, b), o) for name, w, o in members])
    if n > 3:
        ok &= _lifting_checks(cert, v, [(name, w) for name, w, _ in members], 3, n, prefix="lift_")
    ok &= cert.check(
        "inverse_identity",
        (a.inverse() * b).inverse() == (a * b ** (p - 1)).conjugate_by(b),
        "(a^-1 b)^-1 equals (a b^(p-1)) conjugated by b, so <(a^-1 b)^p> ~ <(ab^(p-1))^p>",
    )
    return ok & _key_last_layer_checks(cert, v, [(1, 2), (1, 3), (p - 1, 2), (p - 1, 3)])


# -- enumerated sub-check builders ----------------------------------------------


def _exponent_check(cert: Certificate, group: QuotientGroup) -> bool:
    """Every element's order divides p (periodic level 2).  x^p is affine on
    each power class, so x^p = 1 on an affine basis of a class decides it,
    and the classes it leaves open are scanned in full (failures).  At
    level 2 every class is its own conjugation orbit (G_1 = C_p is
    abelian), so each class's basis is checked.  Like _collision_scan it
    reads the label columns and builds no label keys or index."""
    p = group.vector.p
    with metrics.stage("exponent check", elements=len(group)) as counts:
        bad = [group._key(i) for i, _ in failures(orders, lambda i, o: o <= p, group)]
        counts["offenders"] = len(bad)
    if bad:
        cert.witnesses["exponent_witness"] = Portrait(group.shape, min(bad)).encode()
    return cert.check(
        "exponent_p",
        not bad,
        f"all {len(group)} elements have order dividing {p}",
    )


def _collision_scan(cert: Certificate, group: QuotientGroup) -> bool:
    """Power-collision battery over every <ab^i, derived> coset element: the
    elements on line 1 + i of the coordinate plane.

    Confirms the power lemma on every such g: it has order p^n and
    g^(p^(n-1)) = z^(j*alpha) for its b-coordinate j.  Within a power class
    (a coset of the last layer L) both sides are affine in the depth-(n-1)
    labels, so the power identity holds on the class once it holds on an
    affine basis of its selected members; there j != 0, so a top equal to
    z^(j*alpha) != 1 also gives the order (affine_suspects, which also
    checks that every class is a coset of L).  Both sides are invariant
    under conjugation (z is central and the coordinates are a class
    function), so a class's basis decides its whole conjugation orbit of
    classes: at e = (1, 0), n = 3 the 36 selected classes fall into 4
    orbits, 4 bases of 7 members.  Only the classes it leaves open are
    scanned element by element (failures), for the verdict and the least
    offenders, so the certificate is the one a full scan writes.
    At level 2 it also checks that <z> is the center.

    The scan reads the label columns and gathers keys only for the elements it
    scans in full, so it builds neither the group's label keys nor its
    index.  The common_subgroup witness encodes the powers of z from their
    labels with no membership lookup: it is written only once the scan has
    passed, when every z^(j*alpha) with j != 0 is the top power of the
    members with b-coordinate j (every j != 0 occurs on the lines 1 + i),
    and z^0 = 1.
    """
    v, n = group.vector, group.shape.n
    p = v.p
    z = _central_z(group.shape)
    expected = [(z ** (j * v.alpha)).labels for j in range(p)]  # by b-coordinate
    b_coords = group.coords[1]

    def passes(i: int, result: tuple[int, bytes]) -> bool:
        return result == (p**n, expected[b_coords[i]])

    on_lines = group.line_mask(*range(2, p + 1))  # the lines 1 + i, i = 1..p-1
    total = on_lines.count(1)
    with metrics.stage("collision scan", elements=total) as counts:
        failed = failures(orders_and_tops, passes, group, on_lines)
        counts["offenders"] = len(failed)
    order_bad = [group._key(i) for i, (o, _) in failed if o != p**n]  # label keys
    power_bad = [group._key(i) for i, (_, top) in failed if top != expected[b_coords[i]]]
    ok = cert.check(
        "orders_p_to_n",
        not order_bad,
        f"all {total} coset elements across {p - 1} subgroups have order {p}^{n}",
    )
    ok &= cert.check(
        "power_collision",
        not power_bad,
        f"g^({p}^{n - 1}) equals z^(j*alpha) for every such g with b-coordinate j",
    )
    for name, bad in (("order", order_bad), ("power", power_bad)):
        if bad:
            cert.witnesses[f"{name}_witness"] = Portrait(group.shape, min(bad)).encode()
    if not ok:
        return False
    z_keys = frozenset(expected)
    cert.witnesses["common_subgroup"] = sorted(Portrait(group.shape, k).encode() for k in z_keys)
    return n != 2 or cert.check(
        "equals_center",
        z_keys == group.center().keys,
        "the common subgroup is the center of the level-2 quotient",
    )


# -- p = 3 level-3 structure battery ---------------------------------------------


def _special_elements(group: QuotientGroup) -> tuple[Portrait, Portrait, Portrait]:
    """The pair (u, v) used by the level-3 structure at p = 3, and [a, b]
    at depth 2.

    u is the central element whose sections one level down are three copies
    of [a, b]; v has sections ([a, b], 1, 1) and lies in the derived
    subgroup of the first-level stabilizer.
    """
    comm = commutator(*_generator_portraits(group.vector, 2))
    sections = PsiDecomposition(0, (comm, comm, comm))
    u = next((z for z in group.center() if not z.is_identity() and z.psi() == sections), None)
    if u is None:
        raise RuntimeError("no central element has sections ([a,b],[a,b],[a,b])")
    ident = Portrait.identity(comm.shape)
    v = group.element(assemble(PsiDecomposition(0, (comm, ident, ident))).labels)
    if v not in group.stabilizer_derived():
        raise RuntimeError("([a,b],1,1) is not in the stabilizer derived subgroup")
    return u, v, comm


def _center_checks(cert: Certificate, group: QuotientGroup) -> tuple[bool, SubgroupHandle]:
    """|Z| = 3, and Z lies in the derived subgroup of the first-level stabilizer."""
    center = group.center()
    stab_derived = group.stabilizer_derived()
    ok = cert.check("center_order", len(center) == 3, f"|Z| = {len(center)}")
    ok &= cert.check(
        "center_in_stabilizer_derived",
        all(z in stab_derived for z in center),
        "Z lies in the derived subgroup of the first-level stabilizer",
    )
    return ok, center


def _gupta_sidki_structure(cert: Certificate, group: QuotientGroup) -> bool:
    """Full exhaustive battery for the level-3 structure at p = 3."""
    u, v_el, comm = _special_elements(group)
    a, b = group.a, group.b
    ok, center = _center_checks(cert, group)
    u_order = u.order()
    ok &= cert.check("u_central", u.labels in center.keys, "u generates Z")
    ok &= cert.check("u_order", u_order == 3, f"order of u is {u_order}")
    cert.witnesses["u"] = u.encode()
    cert.witnesses["v"] = v_el.encode()

    sub_a, sub_b = _generator_portraits(group.vector, 2)

    av = a * v_el
    av_cube = av**3
    d = av_cube.psi()
    ok &= cert.check(
        "av_cube_sections",
        d.root_label == 0 and d.sections == (comm, comm, comm),
        "sections of (av)^3 are ([a,b], [a,b], [a,b])",
    )
    ok &= cert.check("av_cube_central", av_cube.labels in center.keys, "(av)^3 lies in Z")

    ab_cube = (a * b) ** 3
    d2 = ab_cube.psi()
    expected_ab = (sub_b.conjugate_by(sub_a), sub_b, sub_b)
    ok &= cert.check(
        "ab_cube_sections",
        d2.root_label == 0 and d2.sections == expected_ab,
        "sections of (ab)^3 are (b^a, b, b)",
    )
    ok &= cert.check(
        "ab_cube_not_central", ab_cube.labels not in center.keys, "(ab)^3 is outside Z"
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

    return ok & _structure_check(cert, group, ((a, b), (av, b * b * u)), "(a, b) and (av, b^2 u)")


def _structure_check(
    cert: Certificate, group: QuotientGroup, pairs: Sequence[tuple[Portrait, Portrait]], names: str
) -> bool:
    """An argument's own two generating pairs form a Beauville structure on
    the enumerated group: the literal Sigma check, with both triples recorded."""
    t1, t2 = (GeneratingTriple.make(group, x, y) for x, y in pairs)
    ok = cert.check(
        "sigma_intersection_trivial",
        is_beauville_pair(t1, t2, group).verified,
        f"the Sigma sets of {names} meet only in the identity",
    )
    cert.witnesses["triple_1"] = t1.encode()
    cert.witnesses["triple_2"] = t2.encode()
    return ok


def _no_structure_oracle(cert: Certificate, group: QuotientGroup) -> bool:
    """Check that the signature-table search finds no structure."""
    return cert.check(
        "no_structure_oracle",
        search_beauville(group).refuted,
        "the signature-table search, independent of the proof, finds no structure",
    )


# -- per-claim verifiers ----------------------------------------------------------


def verify_lemma_orders(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    cert.exhaustive = True
    cert.notes.append(ELEMENT_WISE)
    return _verdict(_order_checks(cert, n, _standard_order_items(v, n)))


def verify_eq31(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    cert.exhaustive = True
    cert.notes.append(ELEMENT_WISE)
    return _verdict(_eq31_checks(cert, v, n))


def verify_lemma_conjugates(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
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


def verify_lemma_center(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    group = _group_within(cert, v, 3, budget)
    if group is None:
        return SCALE
    u, _, _ = _special_elements(group)
    ok, center = _center_checks(cert, group)
    ok &= cert.check(
        "generator_sections",
        u.labels in center.keys and u.order() == 3,
        "a generator of Z has sections ([a,b], [a,b], [a,b])",
    )
    cert.witnesses["u"] = u.encode()
    return _verdict(ok)


def _commutator_hits(group: QuotientGroup, x: Portrait, candidates) -> list[bytes]:
    """The sorted keys of the candidates z that are commutators [x, g]: as
    [x, g] = x^-1 x^g, those with x z in the conjugacy class of x."""
    conjugates = {y.labels for y in group.conjugacy_class(x)}
    return sorted(z.labels for z in candidates if (x * z).labels in conjugates)


def verify_lemma_comms_b(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    group = _group_within(cert, v, 3, budget)
    if group is None:
        return SCALE
    center = [z for z in group.center() if not z.is_identity()]
    hits = _commutator_hits(group, group.b, center)
    ok = cert.check(
        "no_central_commutator",
        not hits,
        f"[b, g] = b^-1 b^g, so a central z is some [b, g] exactly when b z lies in "
        f"the class of b; {len(hits)} of the {len(center)} nontrivial central z do",
    )
    if hits:
        cert.witnesses["central_commutator"] = group.element(hits[0]).encode()
    return _verdict(ok)


def verify_lemma_comms_a(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    group = _group_within(cert, v, 3, budget)
    if group is None:
        return SCALE
    _, v_el, _ = _special_elements(group)
    ok = cert.check(
        "not_a_commutator",
        not _commutator_hits(group, group.a, [v_el]),
        "[a, g] = a^-1 a^g, so v is some [a, g] exactly when a v lies in the class of a",
    )
    cert.witnesses["v"] = v_el.encode()
    return _verdict(ok)


def verify_prop_key(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    pairs = [(i, j) for i in range(1, v.p) for j in range(1, v.p) if i != j]
    return _verdict(_key_last_layer_checks(cert, v, pairs))


def verify_prop_collision(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    ok = _power_lemma_checks(cert, v, n)
    group = _group_within(cert, v, n, budget, proof="the power lemma's checks")
    return _verdict(ok & (group is None or _collision_scan(cert, group)))


def verify_thm_B(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    cert.notes.append(LEVEL_ONLY)
    if n == 1:
        group = _group_within(cert, v, 1, budget)
        if group is None:
            return SCALE
        # b is trivial at depth 1, so G_1 = <a>.
        cyclic = group.a.order() == len(group)
        ok = cert.check("level1_cyclic", cyclic, f"the {len(group)}-element quotient is cyclic")
        return _verdict(ok & _no_structure_oracle(cert, group))
    ok = _power_lemma_checks(cert, v, n)
    ok &= _triple_line_check(cert, v.p)
    if ok:
        cert.notes.append(
            "conclusion: every generating triple has a member on some line "
            "1 + i, i != 0; that member's p^(n-1)-th power generates <z>, so "
            "every Sigma set contains z and no two Sigma sets meet trivially"
        )
    group = _group_within(cert, v, n, budget, proof="the power lemma's checks")
    if group is None:
        return _verdict(ok)
    ok &= _collision_scan(cert, group)
    if n == 2 and ok:
        ok &= _no_structure_oracle(cert, group)
    return _verdict(ok)


def verify_thm_G2(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    if v.p == 3:
        group = _group_within(cert, v, 2, budget)
        if group is None:
            return SCALE
        ok = _exponent_check(cert, group)
        search = search_beauville(group)
        ok &= cert.check(
            "no_structure",
            search.refuted,
            "the signature-exhaustion search finds no structure at p = 3",
        )
        cert.notes.extend(f"search: {note}" for note in search.notes)
        return _verdict(ok)
    pair = (((1, 0), (0, 1)), ((1, 2), (1, 4)))  # (a, b) and (ab^2, ab^4) as a^k b^j
    ok = _lines_checks(cert, v, pair)
    group = _group_within(cert, v, 2, budget, proof="the lines argument")
    if group is None:
        return _verdict(ok)
    ok &= _exponent_check(cert, group)
    a, b = group.a, group.b
    pairs = [(a**k1 * b**j1, a**k2 * b**j2) for (k1, j1), (k2, j2) in pair]
    return _verdict(ok & _structure_check(cert, group, pairs, "(a, b) and (ab^2, ab^4)"))


def verify_thm_G3(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    if v.p > 3:
        return _verdict(_standard_pair_checks(cert, v, 3))
    group = _group_within(cert, v, 3, budget)
    return SCALE if group is None else _verdict(_gupta_sidki_structure(cert, group))


def verify_thm_A(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    p = v.p
    cert.notes.append(LEVEL_ONLY)
    if p >= 5 and n == 2:
        k = len(cert.notes)
        verdict = verify_thm_G2(cert, v, 2, budget)
        cert.notes[k:] = [f"level-2: {x}" for x in cert.notes[k:]]
        return verdict
    if p >= 5:
        return _verdict(_standard_pair_checks(cert, v, n))
    verdict = verify_thm_G3(cert, v, 3, budget)
    if n == 3 or verdict == SCALE:
        return verdict
    triple = [("x1_a", "a"), ("y1_b", "b"), ("x1y1_ab", "ab")]
    ok = _lifting_checks(cert, v, triple, 3, n, prefix="lift_")
    cert.notes.append(
        "conclusion: the structure verified exhaustively at depth 3 lifts to "
        f"depth {n} because the first triple's element orders are preserved"
    )
    return _verdict(ok and verdict == "verified")


def verify_lifting(cert: Certificate, v: DefiningVector, n: int, budget: int) -> str:
    m, x_word, y_word = (cert.params[k] for k in ("m", "x", "y"))
    cert.exhaustive = True
    cert.notes.append(ELEMENT_WISE)
    xy = f"({x_word})({y_word})"
    triple = [("x", x_word), ("y", y_word), ("xy", xy)]
    return _verdict(_lifting_checks(cert, v, triple, n, m))


def verify_order_formula(
    cert: Certificate, v: DefiningVector, n: int, budget: int
) -> str:
    group = _group_within(cert, v, n, budget)
    if group is None:
        return SCALE
    cert.witnesses["enumerated_order"] = len(group)
    predicted = predicted_order(v, n)
    if predicted is None:
        cert.exhaustive = False
        cert.notes.append(
            "no order formula applies to symmetric defining vectors at n >= 3; "
            "the enumerated size is reported without a cross-check"
        )
        return "skipped: no formula for symmetric defining vectors"
    ok = cert.check(
        "order_matches",
        len(group) == predicted,
        f"enumerated {len(group)}, formula gives {predicted} (t = {v.rank})",
    )
    cert.witnesses["predicted_order"] = predicted
    return _verdict(ok)


# -- registry and dispatch --------------------------------------------------------

CLAIMS: dict[str, Claim] = {
    "thm-A": Claim(
        "the level-n quotient of a periodic GGS group is a Beauville group "
        "(covered range: p >= 5 with n >= 2, or p = 3 with n >= 3)",
        3,
        verify_thm_A,
        periodic=True, levels=(2, MAX_LEVEL), p3_levels=(3, MAX_LEVEL),
    ),
    "thm-B": Claim(
        "no level-n quotient of a non-periodic GGS group is a Beauville group",
        2,
        verify_thm_B,
        periodic=False,
    ),
    "thm-G2": Claim(
        "the level-2 quotient of a periodic GGS group is a Beauville group "
        "exactly when p >= 5",
        2,
        verify_thm_G2,
        periodic=True, levels=(2, 2),
    ),
    "thm-G3": Claim(
        "the level-3 quotient of a periodic GGS group is a Beauville group",
        3,
        verify_thm_G3,
        periodic=True, levels=(3, 3),
    ),
    "lemma-orders": Claim(
        "a^-1 b and every a b^i have order p^2 in the level-n quotient (n >= 3, "
        "periodic vector)",
        3,
        verify_lemma_orders,
        periodic=True, levels=(3, MAX_LEVEL),
    ),
    "lemma-conjugates": Claim(
        "the conjugates of b by powers of a are pairwise distinct at tree depth 2",
        2,
        verify_lemma_conjugates,
        levels=(2, 2),
    ),
    "lemma-center": Claim(
        "at p = 3 (periodic) the level-3 center has order 3, lies in the derived "
        "subgroup of the first-level stabilizer, and its generator has sections "
        "([a,b], [a,b], [a,b])",
        3,
        verify_lemma_center,
        periodic=True, levels=(3, 3), only_p=3,
    ),
    "lemma-comms-b": Claim(
        "at p = 3 (periodic) no nontrivial central element of the level-3 "
        "quotient is a commutator [b, g]",
        3,
        verify_lemma_comms_b,
        periodic=True, levels=(3, 3), only_p=3,
    ),
    "lemma-comms-a": Claim(
        "at p = 3 (periodic) the element with sections ([a,b], 1, 1) is not a "
        "commutator [a, g] in the level-3 quotient",
        3,
        verify_lemma_comms_a,
        periodic=True, levels=(3, 3), only_p=3,
    ),
    "prop-key": Claim(
        "<(ab^i)^p> equals a conjugate of <(ab^j)^p> in the level-n quotient "
        "only when i = j (periodic vector)",
        3,
        verify_prop_key,
        periodic=True, levels=(3, MAX_LEVEL),
    ),
    "prop-collision": Claim(
        "in the level-n quotient of a non-periodic GGS group, every element of "
        "<ab^i, derived> outside the derived subgroup has order p^n, its "
        "p^(n-1)-th power is the matching power of ab^i, and all such powers "
        "generate one cyclic subgroup",
        2,
        verify_prop_collision,
        periodic=False, levels=(2, MAX_LEVEL),
    ),
    "eq-3.1": Claim(
        "psi((ab^i)^p) = ((b^i)^(a^(i*s_1)), ..., (b^i)^(a^(i*s_(p-1))), b^i) "
        "where s_j are the prefix sums of the defining vector (periodic case)",
        3,
        verify_eq31,
        periodic=True, levels=(2, MAX_LEVEL),
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
    """Run the verifier for one claim id and stamp the wall time and the
    stage metrics (ggs.metrics).

    Every verifier runs in this process.  `workers` accepts only 1: the
    benchmark harness under perfbench/ still passes workers=1, and the
    keyword goes once that harness stops passing it.
    """
    if workers != 1:
        raise ValueError(f"verifiers run in one process; workers must be 1, got {workers}")
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
    with metrics.collect() as cert.metrics:
        cert.verdict = CLAIMS[claim].verify(cert, v, params["n"], budget)
    cert.wall_time = time.perf_counter() - start
    return cert


def replay_certificate(doc: dict, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether re-running a stored certificate's claim, under `budget` and this
    CODE_VERSION, reproduces the document byte for byte.

    Every certificate replays the same way: its witnesses are not trusted on
    their own, and any edit (to a check, a parameter, the claim, the verdict,
    a witness or the code version) makes replay False.  A certificate computed
    under another budget replays only where the budget did not change it.
    Parameters the claim does not accept raise ValueError, as in verify_claim.
    """
    cert = Certificate.from_dict(doc)
    params = cert.params if isinstance(cert.params, dict) else {}
    p, e = params.get("p"), params.get("e")
    ints = type(p) is int and type(e) is list and all(type(x) is int for x in e)
    if not ints or "n" not in params:
        raise ValueError(f"certificate params need an int p, a list of int e and n: {cert.params}")
    fresh = verify_claim(
        cert.claim,
        DefiningVector(p, tuple(e)),
        params["n"],
        m=params.get("m"),
        x_word=params.get("x", "a"),
        y_word=params.get("y", "b"),
        budget=budget,
    )
    return fresh.canonical_json() == cert.canonical_json()
