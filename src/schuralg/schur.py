"""Schur algebras realized as place-permutation-equivariant endomorphisms.

The degree-r tensor space over an n-letter alphabet has basis indexed by
words of length r over {1, .., n}.  The symmetric group permutes tensor
positions; the algebra of equivariant endomorphisms has the orbit basis:
one element per margin matrix A (an n x n count matrix of total degree r),
acting by

    e_k  |->  sum of e_l over words l with pair_to_matrix(l, k) = A,

which is zero unless weight_of(k) equals the column sums of A.  A
SchurElement is an exact rational combination of orbit-basis elements;
multiplication composes the endomorphisms and reads the product back off
the orbits, verifying on the way that coefficients are constant on each
orbit (a built-in correctness check, not just a decode).

Weight idempotents are the diagonal matrices: they project onto the span
of words of one fixed weight.  All arithmetic is exact (Fraction); all
operations are pure functions safe for concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .errors import ResourceLimitError
from .exact_linalg import SparseCombination
from .weights import (
    Matrix,
    Perm,
    Weight,
    Word,
    col_sums,
    compositions,
    is_composition,
    margin_matrices,
    matrix_degree,
    orbit_size,
    pair_to_matrix,
    perm_compose,
    row_sums,
    transpose,
    weight_of,
    words_of_weight,
)

__all__ = [
    "TENSOR_SPACE_LIMIT",
    "TensorEndo",
    "SchurElement",
    "orbit_endo",
    "endo_of",
    "element_from_endo",
    "schur_multiply",
    "idempotent",
    "identity_element",
    "hom_basis",
    "involution",
    "weyl_relabel",
    "perm_matrix",
    "SymmetricGroupTable",
    "symmetric_group_iso",
]

TENSOR_SPACE_LIMIT = 10 ** 6


def check_tensor_scale(n: int, r: int) -> None:
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    if n ** r > TENSOR_SPACE_LIMIT:
        raise ResourceLimitError(
            f"tensor space has {n}^{r} basis words, above the limit {TENSOR_SPACE_LIMIT}"
        )


class TensorEndo(SparseCombination):
    """Sparse endomorphism of degree-r tensor space over n letters: its
    entries map (output word, input word) to a nonzero Fraction."""

    __slots__ = ("n", "r")
    _space_attrs = ("n", "r")

    def __init__(self, n: int, r: int, entries: Mapping[tuple[Word, Word], Fraction]):
        self.n = n
        self.r = r
        super().__init__(entries)

    @property
    def entries(self) -> dict[tuple[Word, Word], Fraction]:
        return self.terms

    def compose(self, other: "TensorEndo") -> "TensorEndo":
        """self after other (matrix product self . other)."""
        self._check_space(other)
        by_input: dict[Word, list[tuple[Word, Fraction]]] = {}
        for (l, j), c in self.terms.items():
            by_input.setdefault(j, []).append((l, c))
        out: dict[tuple[Word, Word], Fraction] = {}
        for (j, k), c in other.terms.items():
            for l, d in by_input.get(j, ()):
                key = (l, k)
                out[key] = out.get(key, Fraction(0)) + d * c
        return self._new(out)

    def truncate(self, left: Weight | None = None, right: Weight | None = None) -> "TensorEndo":
        """Restrict to entries whose output weight is `left` and input
        weight is `right` (either may be None to keep all)."""
        out = {}
        for (l, k), c in self.terms.items():
            if left is not None and weight_of(l, self.n) != left:
                continue
            if right is not None and weight_of(k, self.n) != right:
                continue
            out[(l, k)] = c
        return self._new(out)

    def apply(self, vec: Mapping[Word, Fraction]) -> dict[Word, Fraction]:
        by_input: dict[Word, list[tuple[Word, Fraction]]] = {}
        for (l, j), c in self.terms.items():
            by_input.setdefault(j, []).append((l, c))
        out: dict[Word, Fraction] = {}
        for k, c in vec.items():
            for l, d in by_input.get(k, ()):
                out[l] = out.get(l, Fraction(0)) + d * c
        return {k: v for k, v in out.items() if v != 0}

    def __repr__(self) -> str:
        return f"TensorEndo(n={self.n}, r={self.r}, {len(self.terms)} entries)"


def _validate_margin_matrix(a: Matrix) -> tuple[int, int]:
    n = len(a)
    if n < 1 or any(len(row) != n for row in a):
        raise ValueError("margin matrix must be square")
    if any(e < 0 for row in a for e in row):
        raise ValueError("margin matrix entries must be nonnegative")
    return n, matrix_degree(a)


def _column_fillings(values: Sequence[int], positions: Sequence[int], counts: Sequence[int]):
    """All assignments of the multiset {values[a] with multiplicity counts[a]}
    onto the given positions; yields dicts position -> value."""
    if not positions:
        yield {}
        return
    pos = positions[0]
    for a, v in enumerate(values):
        if counts[a] > 0:
            counts = list(counts)
            counts[a] -= 1
            for rest in _column_fillings(values, positions[1:], counts):
                rest[pos] = v
                yield rest
            counts[a] += 1


@lru_cache(maxsize=None)
def orbit_endo(a: Matrix) -> TensorEndo:
    """Endomorphism of the orbit-basis element for margin matrix a.

    Input words of weight col_sums(a) map to the sum of all words pairing
    with them via matrix a; everything else maps to zero.
    """
    n, r = _validate_margin_matrix(a)
    check_tensor_scale(n, r)
    mu = col_sums(a)
    entries: dict[tuple[Word, Word], Fraction] = {}
    one = Fraction(1)
    cols = {b: [a_row[b] for a_row in a] for b in range(n)}
    for k in words_of_weight(mu):
        pos_by_letter: dict[int, list[int]] = {b: [] for b in range(n)}
        for p, v in enumerate(k):
            pos_by_letter[v - 1].append(p)
        partial: list[dict[int, int]] = [{}]
        for b in range(n):
            nxt = []
            for assignment in _column_fillings(
                list(range(1, n + 1)), pos_by_letter[b], cols[b]
            ):
                for acc in partial:
                    merged = dict(acc)
                    merged.update(assignment)
                    nxt.append(merged)
            partial = nxt
        for placing in partial:
            l = tuple(placing[p] for p in range(r))
            entries[(l, k)] = one
    return TensorEndo(n, r, entries)


class SchurElement(SparseCombination):
    """Exact rational combination of orbit-basis elements of one Schur
    algebra, stored as a mapping margin matrix -> Fraction."""

    __slots__ = ("n", "r")
    _space_attrs = ("n", "r")

    def __init__(self, n: int, r: int, terms: Mapping[Matrix, Fraction] | None = None):
        check_tensor_scale(n, r)
        self.n = n
        self.r = r
        for a in terms or ():
            if _validate_margin_matrix(a) != (n, r):
                raise ValueError(f"matrix {a} does not index S({n},{r})")
        super().__init__(terms)

    def __mul__(self, other: "SchurElement") -> "SchurElement":
        return schur_multiply(self, other)

    def __repr__(self) -> str:
        return f"SchurElement(n={self.n}, r={self.r}, {len(self.terms)} terms)"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for a in sorted(self.terms, key=lambda m: tuple(e for row in m for e in row)):
            c = self.terms[a]
            terms.append(
                {
                    "matrix": [list(row) for row in a],
                    "coeff_num": c.numerator,
                    "coeff_den": c.denominator,
                }
            )
        return {"n": self.n, "r": self.r, "terms": terms}

    @staticmethod
    def from_json(payload: Mapping) -> "SchurElement":
        terms = {}
        for t in payload["terms"]:
            a = tuple(tuple(int(e) for e in row) for row in t["matrix"])
            terms[a] = Fraction(int(t["coeff_num"]), int(t.get("coeff_den", 1)))
        return SchurElement(int(payload["n"]), int(payload["r"]), terms)


def endo_of(x: SchurElement) -> TensorEndo:
    """Faithful action of an element on tensor space."""
    out = TensorEndo(x.n, x.r, {})
    for a, c in x.terms.items():
        out = out + orbit_endo(a).scale(c)
    return out


def element_from_endo(endo: TensorEndo) -> SchurElement:
    """Read an equivariant endomorphism off in the orbit basis.

    Groups entries by their pair matrix, requiring the coefficient to be
    constant on each orbit and the orbit to be fully present.  Raises
    ValueError when the endomorphism is not in the orbit-basis span, so a
    successful decode doubles as an equivariance check.
    """
    n = endo.n
    seen: dict[Matrix, tuple[int, Fraction]] = {}
    for (l, k), c in endo.terms.items():
        a = pair_to_matrix(l, k, n)
        count, val = seen.get(a, (0, c))
        if val != c:
            raise ValueError(f"coefficient not constant on orbit of {a}")
        seen[a] = (count + 1, val)
    terms = {}
    for a, (count, val) in seen.items():
        if count != orbit_size(a):
            raise ValueError(f"orbit of {a} only partially present")
        terms[a] = val
    return SchurElement(n, endo.r, terms)


def schur_multiply(x: SchurElement, y: SchurElement) -> SchurElement:
    """Product in the Schur algebra, computed in the faithful tensor
    representation and decoded back into the orbit basis."""
    x._check_space(y)
    return element_from_endo(endo_of(x).compose(endo_of(y)))


def idempotent(lam: Sequence[int]) -> SchurElement:
    """Weight idempotent: the orbit element of the diagonal matrix diag(lam),
    projecting tensor space onto words of weight lam."""
    if not is_composition(lam):
        raise ValueError("weight idempotents need a composition")
    n = len(lam)
    a = tuple(
        tuple(lam[i] if i == j else 0 for j in range(n)) for i in range(n)
    )
    return SchurElement(n, sum(lam), {a: Fraction(1)})


def identity_element(n: int, r: int) -> SchurElement:
    """Sum of all weight idempotents: the unit of S(n, r)."""
    out = SchurElement(n, r, {})
    for lam in compositions(n, r):
        out = out + idempotent(lam)
    return out


def hom_basis(lam: Sequence[int], mu: Sequence[int]) -> list[SchurElement]:
    """Orbit-basis elements spanning the (lam, mu) weight block, one per
    margin matrix, in margin-matrix enumeration order."""
    r = sum(lam)
    n = len(lam)
    return [
        SchurElement(n, r, {a: Fraction(1)}) for a in margin_matrices(lam, mu)
    ]


def involution(x: SchurElement) -> SchurElement:
    """Transpose on margin matrices; an anti-automorphism swapping the
    (lam, mu) and (mu, lam) blocks."""
    return SchurElement(
        x.n, x.r, {transpose(a): c for a, c in x.terms.items()}
    )


def weyl_relabel(x: SchurElement, w: Perm) -> SchurElement:
    """Relabel letters by i -> w(i); an algebra isomorphism sending the
    (lam, mu) block to the (w lam, w mu) block."""
    if len(w) != x.n or sorted(w) != list(range(1, x.n + 1)):
        raise ValueError(f"need a permutation of 1..{x.n}")
    out = {}
    for a, c in x.terms.items():
        b = [[0] * x.n for _ in range(x.n)]
        for i in range(x.n):
            for j in range(x.n):
                b[w[i] - 1][w[j] - 1] = a[i][j]
        out[tuple(tuple(row) for row in b)] = c
    return SchurElement(x.n, x.r, out)


def perm_matrix(p: Perm) -> Matrix:
    """Margin matrix of a permutation: entry (a, b) is 1 when a = p(b)."""
    n = len(p)
    m = [[0] * n for _ in range(n)]
    for b in range(1, n + 1):
        m[p[b - 1] - 1][b - 1] = 1
    return tuple(tuple(row) for row in m)


@dataclass(frozen=True)
class SymmetricGroupTable:
    """Correspondence between the symmetric group on r letters and the
    all-ones-weight block of S(r, r): permutation p maps to the orbit
    element of its permutation matrix, and this is an algebra isomorphism
    onto the integral group algebra."""

    r: int
    permutations: tuple[Perm, ...]

    def to_element(self, p: Perm) -> SchurElement:
        return SchurElement(self.r, self.r, {perm_matrix(p): Fraction(1)})

    def from_matrix(self, a: Matrix) -> Perm:
        n = len(a)
        p = [0] * n
        for b in range(n):
            col = [a[i][b] for i in range(n)]
            if sorted(col) != [0] * (n - 1) + [1]:
                raise ValueError("not a permutation matrix")
            p[b] = col.index(1) + 1
        return tuple(p)

    def cayley_mismatch(self) -> tuple[Perm, Perm] | None:
        """First pair (p, q) whose Schur product differs from the element
        of p o q, or None when Schur products reproduce the group table."""
        for p in self.permutations:
            for q in self.permutations:
                product = schur_multiply(self.to_element(p), self.to_element(q))
                if product != self.to_element(perm_compose(p, q)):
                    return p, q
        return None

    def group_algebra_element(self, coeffs: Mapping[Perm, Fraction]) -> SchurElement:
        return SchurElement(self.r, self.r, {perm_matrix(p): c for p, c in coeffs.items()})


def symmetric_group_iso(r: int) -> SymmetricGroupTable:
    """Correspondence for the block 1_omega S(r, r) 1_omega with omega the
    all-ones weight; its orbit basis is exactly the permutation matrices."""
    if r < 1:
        raise ValueError("need r >= 1")
    check_tensor_scale(r, r)
    perms = tuple(itertools.permutations(range(1, r + 1)))
    return SymmetricGroupTable(r, perms)


def weight_components(x: SchurElement) -> dict[tuple[Weight, Weight], SchurElement]:
    """Split an element into its weight-block components."""
    out: dict[tuple[Weight, Weight], dict] = {}
    for a, c in x.terms.items():
        key = (row_sums(a), col_sums(a))
        out.setdefault(key, {})[a] = c
    return {k: SchurElement(x.n, x.r, v) for k, v in out.items()}
