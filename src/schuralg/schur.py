"""Schur algebras realized as place-permutation-equivariant endomorphisms.

The degree-r tensor space over an n-letter alphabet has basis indexed by
words of length r over {1, .., n}.  The symmetric group permutes tensor
positions; the algebra of equivariant endomorphisms has the orbit basis:
one element per margin matrix A (an n x n count matrix of total degree r),
acting by

    e_k  |->  sum of e_l over words l with pair_to_matrix(l, k) = A,

which is zero unless weight_of(k) equals the column sums of A.  A
SchurElement is an exact rational combination of orbit-basis elements.

Every word of weight mu is a place permutation of the weakly increasing
weight_word(mu), so an element is fixed by its columns at those words,
one per right weight (Green, Polynomial Representations of GL_n, 2.3).
act applies an element to a vector on words; read_column reads an
element back off one column, verifying on the way that coefficients are
constant on each orbit (a built-in correctness check, not just a
decode).  Multiplication applies both factors to one word per column
weight of the right factor and reads the product off the result.  Full
tensor-space endomorphisms (TensorEndo, orbit_endo, endo_of,
element_from_endo) remain as an independent oracle.

Weight idempotents are the diagonal matrices: they project onto the span
of words of one fixed weight.  All arithmetic is exact (Fraction); all
operations are pure functions safe for concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

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
    weight_word,
    words_of_weight,
)

__all__ = [
    "TENSOR_SPACE_LIMIT",
    "TensorEndo",
    "SchurElement",
    "orbit_endo",
    "endo_of",
    "element_from_endo",
    "act",
    "read_column",
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


def check_column_scale(mu: Sequence[int]) -> None:
    """Refuse a weight with more than TENSOR_SPACE_LIMIT words.

    The words of weight mu number r! / prod mu_j!.  The multinomial is
    built one letter at a time, largest part first, so every factor is at
    least 2 and the loop stops within about log2(TENSOR_SPACE_LIMIT) steps.
    """
    parts = sorted(mu, reverse=True)
    words, total = 1, parts[0] if parts else 0
    for m in parts[1:]:
        for t in range(1, m + 1):
            total += 1
            words = words * total // t
            if words > TENSOR_SPACE_LIMIT:
                raise ResourceLimitError(
                    f"weight {tuple(mu)} has more than {TENSOR_SPACE_LIMIT} words"
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

    def __repr__(self) -> str:
        return f"TensorEndo(n={self.n}, r={self.r}, {len(self.terms)} entries)"


def _validate_margin_matrix(a: Matrix) -> tuple[int, int]:
    n = len(a)
    if n < 1 or any(len(row) != n for row in a):
        raise ValueError("margin matrix must be square")
    if any(e < 0 for row in a for e in row):
        raise ValueError("margin matrix entries must be nonnegative")
    return n, matrix_degree(a)


def _orbit_images(a: Matrix, k: Word) -> list[Word]:
    """Words l with pair_to_matrix(l, k) = a: the image of e_k under the
    orbit element of a (none unless k has weight col_sums(a))."""
    positions: list[list[int]] = [[] for _ in a]
    for p, v in enumerate(k):
        positions[v - 1].append(p)
    columns = transpose(a)
    if any(len(ps) != sum(col) for ps, col in zip(positions, columns)):
        return []
    out = []
    l = list(k)
    for fills in itertools.product(*map(words_of_weight, columns)):
        for ps, fill in zip(positions, fills):
            for p, v in zip(ps, fill):
                l[p] = v
        out.append(tuple(l))
    return out


@lru_cache(maxsize=None)
def orbit_endo(a: Matrix) -> TensorEndo:
    """Endomorphism of the orbit-basis element for margin matrix a."""
    n, r = _validate_margin_matrix(a)
    check_tensor_scale(n, r)
    one = Fraction(1)
    return TensorEndo(
        n, r, {(l, k): one for k in words_of_weight(col_sums(a)) for l in _orbit_images(a, k)}
    )


class SchurElement(SparseCombination):
    """Exact rational combination of orbit-basis elements of one Schur
    algebra, stored as a mapping margin matrix -> Fraction."""

    __slots__ = ("n", "r")
    _space_attrs = ("n", "r")

    def __init__(self, n: int, r: int, terms: Mapping[Matrix, Fraction] | None = None):
        if n < 1 or r < 0:
            raise ValueError("need n >= 1 and r >= 0")
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
    check_tensor_scale(x.n, x.r)
    out = TensorEndo(x.n, x.r, {})
    for a, c in x.terms.items():
        out = out + orbit_endo(a).scale(c)
    return out


def element_from_endo(endo: TensorEndo) -> SchurElement:
    """Read an equivariant endomorphism off in the orbit basis.

    Reads one column per input weight, then requires the element found to
    act as endo does on all of tensor space.  Raises ValueError when the
    endomorphism is not in the orbit-basis span, so a successful decode
    doubles as an equivariance check.
    """
    columns: dict[Word, dict[Word, Fraction]] = {}
    for (l, k), c in endo.terms.items():
        columns.setdefault(k, {})[l] = c
    out = SchurElement(endo.n, endo.r)
    for mu in dict.fromkeys(weight_of(k, endo.n) for k in columns):
        k = weight_word(mu)
        out = out + read_column(endo.n, endo.r, columns.get(k, {}), k)
    if endo_of(out) != endo:
        raise ValueError("endomorphism is not in the orbit-basis span")
    return out


def act(x: SchurElement, vec: Mapping[Word, Fraction]) -> dict[Word, Fraction]:
    """x applied to a vector on words of length x.r, nonzero entries only.

    Raises ResourceLimitError before writing into a weight with more
    than TENSOR_SPACE_LIMIT words.
    """
    by_weight: dict[Weight, list[tuple[Word, Fraction]]] = {}
    for k, v in vec.items():
        by_weight.setdefault(weight_of(k, x.n), []).append((k, v))
    out: dict[Word, Fraction] = {}
    for a, c in x.terms.items():
        inputs = by_weight.get(col_sums(a), ())
        if inputs:
            check_column_scale(row_sums(a))
        for k, v in inputs:
            cv = c * v
            for l in _orbit_images(a, k):
                out[l] = out[l] + cv if l in out else cv
    return {l: c for l, c in out.items() if c}


def read_column(n: int, r: int, vec: Mapping[Word, Fraction], k: Word) -> SchurElement:
    """The element of S(n, r) supported on column weight weight_of(k)
    that sends e_k to vec.

    Groups the words of vec by their pair matrix with k.  Raises
    ValueError when a coefficient is not constant on an orbit (a missing
    word counts as coefficient 0): then no element has this column.
    """
    mu = weight_of(k, n)
    check_column_scale(mu)
    seen: dict[Matrix, tuple[int, Fraction]] = {}
    for l, c in vec.items():
        a = pair_to_matrix(l, k, n)
        count, val = seen.get(a, (0, c))
        if val != c:
            raise ValueError(f"coefficient not constant on orbit of {a}")
        seen[a] = (count + 1, val)
    column_words = orbit_size((mu,))
    for a, (count, _) in seen.items():
        if count * column_words != orbit_size(a):
            raise ValueError(f"coefficient not constant on orbit of {a}")
    return SchurElement(n, r, {a: val for a, (_, val) in seen.items()})


def schur_multiply(x: SchurElement, y: SchurElement) -> SchurElement:
    """Product in the Schur algebra: both factors act on weight_word(mu)
    for each column weight mu of y, and the product is read off there."""
    x._check_space(y)
    out = SchurElement(x.n, x.r)
    for mu in dict.fromkeys(col_sums(b) for b in y.terms):
        check_column_scale(mu)
        k = weight_word(mu)
        out = out + read_column(x.n, x.r, act(x, act(y, {k: Fraction(1)})), k)
    return out


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
