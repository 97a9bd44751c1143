"""Defining vectors, the arity rule, circulant classification, and the
predicted quotient orders with the element budget they guard.

A GGS group over the p-adic tree is determined by a nonzero vector
e = (e_1, ..., e_{p-1}) of residues mod p: the rooted generator a cycles
the level-1 subtrees, and the recursive generator b acts on the subtree
below vertex i as a^{e_i} for i < p and as b again below vertex p.

Everything here is arithmetic on vectors of residues and needs no portrait
code: the generators a and b themselves are built in portrait.py.  So
`ggs classify` and the budget checks load this module alone.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

__all__ = [
    "MAX_PRIME",
    "check_arity",
    "DefiningVector",
    "CirculantAnalysis",
    "Classification",
    "parse_vector",
    "analyze_circulant",
    "classify",
    "DEFAULT_BUDGET",
    "MAX_LEVEL",
    "BudgetExceeded",
    "predicted_exponent",
    "predicted_order",
    "exceeds_budget",
    "written_order",
]


# Products add two labels in one byte before reducing them mod p, so
# 2 * (p - 1) must stay below 256.
MAX_PRIME = 127


def check_arity(p: int) -> None:
    """Raise ValueError unless p is an odd prime of at most MAX_PRIME."""
    # The bound comes first: trial division of a huge p would not end.
    if p > MAX_PRIME:
        raise ValueError(
            f"arity must be at most {MAX_PRIME}, got {p}: products sum two "
            "labels in one byte before reducing them mod p"
        )
    if p < 3 or p % 2 == 0 or any(p % d == 0 for d in range(3, int(p**0.5) + 1, 2)):
        raise ValueError(f"arity must be an odd prime, got {p}")


class DefiningVector:
    """Nonzero vector of p-1 residues mod p defining a GGS group; immutable."""

    def __init__(self, p: int, e: tuple[int, ...]) -> None:
        check_arity(p)
        if len(e) != p - 1:
            raise ValueError(f"defining vector needs {p - 1} entries for p={p}, got {len(e)}")
        reduced = tuple(x % p for x in e)
        if not any(reduced):
            raise ValueError("defining vector must be nonzero mod p")
        self.__dict__.update(p=p, e=reduced)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DefiningVector) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash((self.p, self.e))

    def __repr__(self) -> str:
        return f"DefiningVector(p={self.p}, e={self.e})"

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


class CirculantAnalysis(NamedTuple):
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


class Classification(NamedTuple):
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


# -- order and budget --------------------------------------------------------------


DEFAULT_BUDGET = 10_000_000

# Deepest level accepted anywhere.  Portraits stop well before it (see
# MAX_INTERNAL_VERTICES); past it even the exponent k of the predicted order
# p^k grows too long to compute.
MAX_LEVEL = 64

# Orders p^k with k up to this bound are written in digits, larger ones as
# "p^k": past it a decimal expansion is long to read, and past a few thousand
# digits Python refuses to convert it to text at all.
WRITTEN_EXPONENT_MAX = 64


class BudgetExceeded(RuntimeError):
    """Raised when an enumeration would pass the element budget, or is
    refused outright because its tree is too large to walk."""

    def __init__(
        self,
        budget: int,
        partial: int,
        predicted: int | str | None = None,
        reason: str | None = None,
    ):
        self.budget = budget
        self.partial = partial
        self.predicted = predicted
        if reason is None:
            detail = (
                f"predicted order {predicted}" if predicted else f"stopped at {partial} elements"
            )
            reason = f"enumeration budget {budget} exceeded ({detail})"
        super().__init__(reason)


def predicted_exponent(v: DefiningVector, n: int) -> int | None:
    """The k with |G_n| = p^k when a closed form is known, else None.

    Level 1 is cyclic of order p.  Level 2 has order p^(t+1) with t the
    circulant rank.  For non-symmetric vectors and n >= 2 the order is
    p^(t*p^(n-2)+1); no closed form is used for symmetric vectors past
    level 2.
    """
    if not 1 <= n <= MAX_LEVEL:
        raise ValueError(f"level must lie in 1..{MAX_LEVEL}, got {n}")
    if n == 1:
        return 1
    if n == 2:
        return v.rank + 1
    if v.symmetric:
        return None
    return v.rank * v.p ** (n - 2) + 1


def predicted_order(v: DefiningVector, n: int) -> int | None:
    """Order of the level-n quotient when a closed form is known, else None.

    The exponent grows like p^(n-2), so at deep levels the order itself is
    too large to compute or print; code that may see such levels uses
    exceeds_budget and written_order.
    """
    k = predicted_exponent(v, n)
    return None if k is None else v.p**k


def _exceeds(p: int, k: int, budget: int) -> bool:
    """Whether p^k > budget, decided on the exponent: p >= 3, so p^k > budget
    once 2^k > budget."""
    return k >= budget.bit_length() or p**k > budget


def exceeds_budget(v: DefiningVector, n: int, budget: int) -> bool:
    """Whether the predicted order is known and larger than the budget."""
    k = predicted_exponent(v, n)
    return k is not None and _exceeds(v.p, k, budget)


def _guard_exponent(v: DefiningVector, n: int) -> int:
    """The k with |G_n| = p^k by the formula of Fernandez-Alcober and
    Zugadi-Reizabal (Trans. AMS 366, 2014): k = t*p^(n-2) + 1 -
    delta*(p^(n-2) - 1)/(p - 1) for n >= 2, with delta = 1 for symmetric
    vectors and 0 otherwise, so it is predicted_exponent wherever that is
    defined.

    Only the resource guard of the enumeration uses it, to refuse symmetric
    vectors past level 2 before walking: no claim rests on the delta term,
    and were it wrong the walk would still stop at the budget.
    """
    if n == 1:
        return 1
    q = v.p ** (n - 2)
    return v.rank * q + 1 - v.symmetric * (q - 1) // (v.p - 1)


def written_order(v: DefiningVector, n: int) -> int | str | None:
    """The predicted order in digits, or as "p^k" when k is large."""
    k = predicted_exponent(v, n)
    if k is None:
        return None
    return v.p**k if k <= WRITTEN_EXPONENT_MAX else f"{v.p}^{k}"
