"""Automorphisms of truncated p-adic trees, stored as label portraits.

The tree of shape (p, n) has vertices the words of length <= n over the
alphabet {1..p}; the words of length < n are internal.  A portrait assigns
one residue mod p to every internal vertex, listed in breadth-first order
(root first, children of each vertex ordered 1..p).  The label at a vertex
is the power of the cycle (1 2 ... p) by which the automorphism rotates the
p subtrees hanging there, indexed by the vertex in *domain* coordinates.
The label vector is the canonical encoding: two portraits describe the same
automorphism exactly when their label vectors coincide.

Composition follows the right-action convention v^(fg) = (v^f)^g, which
gives the label rule label_fg(u) = label_f(u) + label_g(u^f) mod p.

Portraits multiply, invert, power and conjugate; psi splits one into its
root label and its p sections, and assemble rebuilds it.  The two standard
generators of a GGS group, the rooted a and the recursive b of a defining
vector, are built here as portraits (make_a, make_b).
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, itemgetter
from typing import Iterable, NamedTuple

# MAX_PRIME stays importable here, beside the byte sums it bounds.
from .generators import MAX_PRIME, DefiningVector, check_arity

__all__ = [
    "TreeShape",
    "tree_shape",
    "Portrait",
    "PsiDecomposition",
    "commutator",
    "assemble",
    "make_a",
    "make_b",
]

# A portrait holds one label byte per internal vertex; deeper trees than
# this allows are refused before any label vector is allocated.
MAX_INTERNAL_VERTICES = 1 << 24

# Takes every label of a depth-1 portrait, whose one internal vertex is
# fixed; itemgetter with a single index would return a scalar instead.
_TAKE_ALL = itemgetter(slice(None))


class TreeShape:
    """Truncated p-regular rooted tree: odd prime arity p, n levels of edges."""

    __slots__ = ("p", "n", "level_starts", "internal_count", "zero_labels", "reduce")

    def __init__(self, p: int, n: int):
        check_arity(p)
        if n < 1:
            raise ValueError(f"tree depth must be >= 1, got {n}")
        self.p = p
        self.n = n
        starts = [0]
        width = 1
        for _ in range(n):
            starts.append(starts[-1] + width)
            width *= p
            if starts[-1] > MAX_INTERNAL_VERTICES:
                raise ValueError(
                    f"a depth-{n} tree at p={p} has more than "
                    f"{MAX_INTERNAL_VERTICES} internal vertices, one label each"
                )
        # level_starts[d] is the breadth-first index of the first depth-d vertex;
        # level_starts[n] is the total number of internal vertices.
        self.level_starts = tuple(starts)
        self.internal_count = starts[n]
        self.zero_labels = bytes(self.internal_count)
        # Translation table reducing a byte sum of two labels mod p.
        self.reduce = bytes(v % p for v in range(256))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, TreeShape) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self) -> int:
        return hash((self.p, self.n))

    def __repr__(self) -> str:
        return f"TreeShape(p={self.p}, n={self.n})"


@lru_cache(maxsize=None)
def tree_shape(p: int, n: int) -> TreeShape:
    """Shared TreeShape instance for (p, n)."""
    return TreeShape(p, n)


class Portrait:
    """One automorphism of a truncated tree; immutable and hashable."""

    __slots__ = ("shape", "labels", "_perm")

    def __init__(self, shape: TreeShape, labels: Iterable[int] | bytes):
        lab = bytes(x % shape.p for x in labels)
        if len(lab) != shape.internal_count:
            raise ValueError(
                f"expected {shape.internal_count} labels for shape "
                f"({shape.p},{shape.n}), got {len(lab)}"
            )
        self.shape = shape
        self.labels = lab
        self._perm: tuple[int, ...] | None = None

    @classmethod
    def _raw(cls, shape: TreeShape, labels: bytes) -> "Portrait":
        # Internal constructor: labels already reduced mod p.
        self = object.__new__(cls)
        self.shape = shape
        self.labels = labels
        self._perm = None
        return self

    @classmethod
    def identity(cls, shape: TreeShape) -> "Portrait":
        return cls._raw(shape, shape.zero_labels)

    @property
    def root_label(self) -> int:
        return self.labels[0]

    def is_identity(self) -> bool:
        return not any(self.labels)

    def vertex_perm(self) -> tuple[int, ...]:
        """Images of the internal vertices under this automorphism, by index."""
        if self._perm is not None:
            return self._perm
        shape = self.shape
        p, ls, lab = shape.p, shape.level_starts, self.labels
        perm = [0] * shape.internal_count
        for depth in range(shape.n - 1):
            start, stop = ls[depth], ls[depth + 1]
            for u in range(start, stop):
                base = ls[depth + 1] + (u - start) * p
                target = ls[depth + 1] + (perm[u] - start) * p
                shift = lab[u]
                for x in range(p):
                    perm[base + x] = target + (x + shift) % p
        self._perm = tuple(perm)
        return self._perm

    def __mul__(self, other: "Portrait") -> "Portrait":
        """Composition self*other, acting on vertices as self first.

        The labels are lf + lg o pf, summed bytewise and reduced by one
        translate.  When other's vertex permutation is known, the product's
        is composed from both operands' instead of being rebuilt later.
        """
        shape = self.shape
        if shape is not other.shape and shape != other.shape:
            raise ValueError("cannot compose portraits of different shapes")
        pf = self._perm or self.vertex_perm()
        take = itemgetter(*pf) if len(pf) > 1 else _TAKE_ALL
        out = Portrait._raw(
            shape, bytes(map(add, self.labels, take(other.labels))).translate(shape.reduce)
        )
        if other._perm is not None:
            out._perm = take(other._perm)
        return out

    def inverse(self) -> "Portrait":
        p = self.shape.p
        lf = self.labels
        pf = self.vertex_perm()
        out = bytearray(len(lf))
        for u, v in enumerate(pf):
            out[v] = (p - lf[u]) % p
        return Portrait._raw(self.shape, bytes(out))

    def __pow__(self, k: int) -> "Portrait":
        if k < 0:
            return self.inverse() ** (-k)
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Portrait.identity(self.shape) if result is None else result

    def conjugate_by(self, g: "Portrait") -> "Portrait":
        """self^g = g^-1 * self * g."""
        return g.inverse() * self * g

    def psi(self) -> "PsiDecomposition":
        """Split into the root label and the p sections one level down."""
        shape = self.shape
        if shape.n < 2:
            raise ValueError("portraits of depth-1 trees have no sections")
        p, ls, lab = shape.p, shape.level_starts, self.labels
        child = tree_shape(p, shape.n - 1)
        sections = []
        for s in range(p):
            parts = []
            width = 1
            for d in range(1, shape.n):
                start = ls[d] + s * width
                parts.append(lab[start : start + width])
                width *= p
            sections.append(Portrait._raw(child, b"".join(parts)))
        return PsiDecomposition(lab[0], tuple(sections))

    def p_powers(self) -> list["Portrait"]:
        """x, x^p, x^(p^2), ... up to and including the first identity.

        The order of x is p^(len - 1), and for x != 1 the second-to-last
        entry generates the order-p subgroup of <x>.
        """
        shape = self.shape
        chain = [self]
        g = self
        while any(g.labels):
            if len(chain) > shape.n:
                raise RuntimeError("order exceeded the exponent bound of the tree")
            g = g**shape.p
            chain.append(g)
        return chain

    def order(self) -> int:
        """Order of the automorphism, always a power of p."""
        return self.shape.p ** (len(self.p_powers()) - 1)

    def encode(self) -> str:
        """Canonical text form 'p,n:l0,l1,...'."""
        body = ",".join(str(x) for x in self.labels)
        return f"{self.shape.p},{self.shape.n}:{body}"

    @classmethod
    def decode(cls, text: str) -> "Portrait":
        head, sep, body = text.partition(":")
        if not sep:
            raise ValueError(f"malformed portrait encoding {text!r}")
        try:
            p_str, n_str = head.split(",")
            shape = tree_shape(int(p_str), int(n_str))
            labels = [int(x) % shape.p for x in body.split(",")]
        except ValueError as err:
            raise ValueError(f"malformed portrait encoding {text!r}") from err
        return cls(shape, labels)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Portrait)
            and self.labels == other.labels
            and self.shape == other.shape
        )

    def __hash__(self) -> int:
        return hash(self.labels)

    def __lt__(self, other: "Portrait") -> bool:
        # Label-vector order; used for deterministic witness selection.
        return self.labels < other.labels

    def __repr__(self) -> str:
        return f"Portrait({self.encode()})"


class PsiDecomposition(NamedTuple):
    """Root label plus the p sections of a portrait, one level shallower."""

    root_label: int
    sections: tuple[Portrait, ...]


def commutator(f: Portrait, g: Portrait) -> Portrait:
    """[f, g] = f^-1 g^-1 f g."""
    return f.inverse() * g.inverse() * f * g


def assemble(decomposition: PsiDecomposition) -> Portrait:
    """Inverse of psi: rebuild a portrait from root label and sections."""
    sections = decomposition.sections
    if not sections:
        raise ValueError("cannot assemble a portrait without sections")
    child = sections[0].shape
    p = child.p
    if len(sections) != p:
        raise ValueError(f"expected {p} sections, got {len(sections)}")
    if any(s.shape != child for s in sections):
        raise ValueError("sections must all share one shape")
    if not 0 <= decomposition.root_label < p:
        raise ValueError(f"root label must lie in 0..{p - 1}")
    shape = tree_shape(p, child.n + 1)
    parts = [bytes([decomposition.root_label])]
    start = 0
    width = 1
    for _ in range(child.n):
        for s in range(p):
            parts.append(sections[s].labels[start : start + width])
        start += width
        width *= p
    return Portrait._raw(shape, b"".join(parts))


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
    b = Portrait.identity(tree_shape(v.p, 1))
    for depth in range(2, shape.n + 1):
        sub = tree_shape(v.p, depth - 1)
        a_sub = make_a(sub)
        sections = tuple(a_sub**exp for exp in v.e) + (b,)
        b = assemble(PsiDecomposition(0, sections))
    return b

