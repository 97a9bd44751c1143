"""Defining vectors, the two standard generators, and circulant classification.

A GGS group over the p-adic tree is determined by a nonzero vector
e = (e_1, ..., e_{p-1}) of residues mod p: the rooted generator a cycles
the level-1 subtrees, and the recursive generator b acts on the subtree
below vertex i as a^{e_i} for i < p and as b again below vertex p.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .portrait import Portrait, PsiDecomposition, TreeShape, assemble, identity, tree_shape

__all__ = [
    "DefiningVector",
    "CirculantAnalysis",
    "Classification",
    "parse_vector",
    "analyze_circulant",
    "classify",
    "make_a",
    "make_b",
    "conjugate_generator",
]


@dataclass(frozen=True)
class DefiningVector:
    """Nonzero vector of p-1 residues mod p defining a GGS group."""

    p: int
    e: tuple[int, ...]

    def __post_init__(self) -> None:
        shape_check = tree_shape(self.p, 1)  # validates that p is an odd prime
        del shape_check
        if len(self.e) != self.p - 1:
            raise ValueError(
                f"defining vector needs {self.p - 1} entries for p={self.p}, "
                f"got {len(self.e)}"
            )
        reduced = tuple(x % self.p for x in self.e)
        if not any(reduced):
            raise ValueError("defining vector must be nonzero mod p")
        object.__setattr__(self, "e", reduced)

    @property
    def alpha(self) -> int:
        """Sum of the entries mod p."""
        return sum(self.e) % self.p

    @property
    def periodic(self) -> bool:
        return self.alpha == 0

    @property
    def symmetric(self) -> bool:
        return all(self.e[i] == self.e[self.p - 2 - i] for i in range(self.p - 1))

    @cached_property
    def rank(self) -> int:
        """Rank t of the p x p circulant built from (e_1, ..., e_{p-1}, 0)."""
        return analyze_circulant(self).rank_gauss

    def __str__(self) -> str:
        return ",".join(str(x) for x in self.e)


def parse_vector(p: int, text: str) -> DefiningVector:
    """Parse a comma-separated integer vector, reduced mod p."""
    try:
        entries = tuple(int(x) for x in text.split(","))
    except ValueError as err:
        raise ValueError(f"malformed defining vector {text!r}") from err
    return DefiningVector(p, entries)


@dataclass(frozen=True)
class CirculantAnalysis:
    rank_gauss: int
    multiplicity: int
    rank_formula: int


def _echelon_mod_p(rows: Iterable[Sequence[int]], p: int) -> list[list[int]]:
    """A row echelon form over F_p of the rows: one row per pivot column,
    in pivot order, each zero before its pivot and 1 there.

    Rows are taken one at a time and reduced against the pivots found so
    far, so a long list of dependent rows costs one reduction each.
    """
    basis: dict[int, list[int]] = {}  # pivot column -> its row
    for row in rows:
        row = [x % p for x in row]
        for col in sorted(basis):
            c = row[col]
            if c:
                row = [(x - c * y) % p for x, y in zip(row, basis[col])]
        lead = next((col for col, x in enumerate(row) if x), None)
        if lead is not None:
            inv = pow(row[lead], -1, p)
            basis[lead] = [x * inv % p for x in row]
    return [basis[col] for col in sorted(basis)]


def _rank_mod_p(rows: list[list[int]], p: int) -> int:
    return len(_echelon_mod_p(rows, p))


def _one_root_multiplicity(coeffs: Sequence[int], p: int) -> int:
    """Multiplicity of 1 as a root of a polynomial over F_p (ascending coeffs)."""
    work = [c % p for c in coeffs]
    while work and work[-1] == 0:
        work.pop()
    if not work:
        raise ValueError("zero polynomial")
    m = 0
    while True:
        # Synthetic division by (X - 1).
        quotient: list[int] = []
        carry = 0
        for c in reversed(work):
            carry = (carry + c) % p
            quotient.append(carry)
        remainder = quotient.pop()
        if remainder:
            return m
        m += 1
        work = list(reversed(quotient))
        if not work:
            return m


def analyze_circulant(v: DefiningVector) -> CirculantAnalysis:
    """Rank of the circulant of (e_1, ..., e_{p-1}, 0), by two routes.

    Route one is Gaussian elimination mod p.  Route two is p minus the
    multiplicity of 1 as a root of e_1 + e_2 X + ... + e_{p-1} X^{p-2}.
    Both are computed and must agree.
    """
    p = v.p
    first = list(v.e) + [0]
    rows = [[first[(j - i) % p] for j in range(p)] for i in range(p)]
    rank_gauss = _rank_mod_p(rows, p)
    m = _one_root_multiplicity(v.e, p)
    rank_formula = p - m
    if rank_gauss != rank_formula:
        raise RuntimeError(
            f"circulant rank disagreement: elimination {rank_gauss}, "
            f"root multiplicity gives {rank_formula}"
        )
    return CirculantAnalysis(rank_gauss, m, rank_formula)


@dataclass(frozen=True)
class Classification:
    p: int
    e: tuple[int, ...]
    alpha: int
    periodic: bool
    symmetric: bool
    rank: int
    gupta_sidki: bool


def classify(v: DefiningVector) -> Classification:
    """Classification record for a defining vector."""
    return Classification(
        p=v.p,
        e=v.e,
        alpha=v.alpha,
        periodic=v.periodic,
        symmetric=v.symmetric,
        rank=v.rank,
        gupta_sidki=(v.p == 3 and v.periodic),
    )


def make_a(shape: TreeShape) -> Portrait:
    """Rooted generator: label 1 at the root, 0 elsewhere."""
    return Portrait(shape, bytes([1]) + bytes(shape.internal_count - 1))


def make_b(v: DefiningVector, shape: TreeShape) -> Portrait:
    """Recursive generator at the given truncation depth.

    At depth 1 the portrait is the identity; at depth d the sections are
    (a^{e_1}, ..., a^{e_{p-1}}, b) one level shallower.
    """
    if v.p != shape.p:
        raise ValueError(f"vector is mod {v.p} but the tree has arity {shape.p}")
    b = identity(tree_shape(v.p, 1))
    for depth in range(2, shape.n + 1):
        sub = tree_shape(v.p, depth - 1)
        a_sub = make_a(sub)
        sections = tuple(a_sub**exp for exp in v.e) + (b,)
        b = assemble(PsiDecomposition(0, sections))
    return b


def conjugate_generator(v: DefiningVector, shape: TreeShape, i: int) -> Portrait:
    """b^(a^i), computed by honest conjugation in the tree."""
    if not 0 <= i <= v.p - 1:
        raise ValueError(f"conjugation exponent must lie in 0..{v.p - 1}, got {i}")
    return make_b(v, shape).conjugate_by(make_a(shape) ** i)
