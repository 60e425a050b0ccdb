"""Schur algebras realized as place-permutation-equivariant endomorphisms.

The degree-r tensor space over an n-letter alphabet has basis indexed by
words of length r over {1, .., n}.  The symmetric group permutes tensor
positions; the algebra of equivariant endomorphisms has the orbit basis:
one element xi_A per margin matrix A (an n x n count matrix of total
degree r), acting by

    e_k  |->  sum of e_l over words l with pair_to_matrix(l, k) = A,

which is zero unless weight_of(k) equals the column sums of A.  A
SchurElement is an exact rational combination of orbit-basis elements.

Products follow Green's rule (Green, Polynomial Representations of GL_n,
LNM 830, 2.3; the q = 1 case of Beilinson-Lusztig-MacPherson 1990): the
coefficient of xi_C in xi_A xi_B is

    sum over T of  prod_{i,k} C_ik! / prod_{i,j,k} T_ijk!

over n x n x n tables T of nonnegative integers with margins
sum_k T_ijk = A_ij, sum_i T_ijk = B_jk and sum_j T_ijk = C_ik.  The
tables are built one middle index j at a time: slice j is a matrix with
row sums column j of A and column sums row j of B, and the weight is a
product of binomials, one per entry, as the slices are summed up.  Tables
with equal partial sums are merged, all arithmetic is integer, and no
word is written.  Before enumerating, each product of two orbit elements
bounds its table count by a closed form per slice and refuses more than
TENSOR_SPACE_LIMIT tables.

Tensor space itself enters only as an oracle, behind one guard
(check_tensor_scale: at most TENSOR_SPACE_LIMIT words): orbit_endo
writes the orbit element of one margin matrix as a full tensor-space
endomorphism (TensorEndo), endo_of sums those, and element_from_endo
reads an endomorphism back in the orbit basis.  The tests compare the
products against them, and the gbasis and gl2 suites take exact ranks of
their entries.

Weight idempotents are the diagonal matrices: they project onto the span
of words of one fixed weight.  All arithmetic is exact (integers inside
a product, Fraction coefficients on elements); all operations are pure
functions safe for concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Mapping, Sequence

from .errors import TENSOR_SPACE_LIMIT, ResourceLimitError
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
    pair_to_matrix,
    perm_compose,
    row_sums,
    transpose,
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


@lru_cache(maxsize=512)
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

    Takes each orbit's coefficient from any one of its entries, then
    requires the element found to act as endo does on all of tensor
    space.  Raises ValueError when the endomorphism is not in the
    orbit-basis span (a coefficient not constant on an orbit, or an orbit
    only partly present), so a successful decode doubles as an
    equivariance check.
    """
    terms: dict[Matrix, Fraction] = {}
    for (l, k), c in endo.terms.items():
        terms.setdefault(pair_to_matrix(l, k, endo.n), c)
    out = SchurElement(endo.n, endo.r, terms)
    if endo_of(out) != endo:
        raise ValueError("endomorphism is not in the orbit-basis span")
    return out


@lru_cache(maxsize=4096)
def _slices(rows: Weight, cols: Weight) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Matrices with row sums rows and column sums cols (equal totals), in
    margin_matrices order, each as its nonzero entries (i, k, value)."""
    return tuple(
        tuple((i, k, v) for i, row in enumerate(m) for k, v in enumerate(row) if v)
        for m in margin_matrices(rows, cols)
    )


def _slice_bound(rows: Sequence[int], cols: Sequence[int]) -> int:
    # matrices with these margins are fixed by all rows but the largest,
    # each a composition of its sum into one part per nonzero column (and
    # likewise with rows and columns swapped); zero rows and columns drop
    rows = sorted(x for x in rows if x)
    cols = sorted(x for x in cols if x)
    by_rows = by_cols = 1
    for x in rows[:-1]:
        by_rows *= comb(x + len(cols) - 1, x)
    for x in cols[:-1]:
        by_cols *= comb(x + len(rows) - 1, x)
    return min(by_rows, by_cols)


@lru_cache(maxsize=4096)
def _pair_product(a: Matrix, b: Matrix) -> tuple[tuple[Matrix, int], ...]:
    """xi_a xi_b by Green's rule, as (margin matrix, integer coefficient)
    pairs; the inner weights must agree.

    Raises ResourceLimitError, before enumerating, when the closed-form
    bound on the number of tables exceeds TENSOR_SPACE_LIMIT.
    """
    n = len(a)
    margins = [(tuple(row[j] for row in a), b[j]) for j in range(n)]
    tables = 1
    for rows, cols in margins:
        tables *= _slice_bound(rows, cols)
        if tables > TENSOR_SPACE_LIMIT:
            raise ResourceLimitError(
                f"product of orbit elements {a} and {b} may sum over more than "
                f"{TENSOR_SPACE_LIMIT} tables"
            )
    # partial sums C of the slices so far -> summed weight of the tables
    states: dict[tuple[int, ...], int] = {(0,) * (n * n): 1}
    for rows, cols in margins:
        nxt: dict[tuple[int, ...], int] = {}
        for c, weight in states.items():
            for entries in _slices(rows, cols):
                c2 = list(c)
                w2 = weight
                for i, k, v in entries:
                    c2[i * n + k] += v
                    w2 *= comb(c2[i * n + k], v)
                key = tuple(c2)
                nxt[key] = nxt.get(key, 0) + w2
        states = nxt
    return tuple(
        (tuple(c[i * n:(i + 1) * n] for i in range(n)), weight) for c, weight in states.items()
    )


def schur_multiply(x: SchurElement, y: SchurElement) -> SchurElement:
    """Product in the Schur algebra, by Green's rule on each pair of
    orbit elements whose inner weights agree."""
    x._check_space(y)
    by_row: dict[Weight, list[tuple[Matrix, Fraction]]] = {}
    for b, d in y.terms.items():
        by_row.setdefault(row_sums(b), []).append((b, d))
    return _chain_sum(
        x.n,
        x.r,
        [(c * d, (a, b)) for a, c in x.terms.items() for b, d in by_row.get(col_sums(a), ())],
    )


def _chain_sum(n: int, r: int, chains: Sequence[tuple[Fraction, Sequence[Matrix]]]) -> SchurElement:
    """sum of c * xi_L1 xi_L2 .. xi_Lm over the (c, (L1, .., Lm)) in chains,
    where the column weight of each L equals the row weight of the next.
    The products are taken right to left with integer coefficients over
    a common denominator."""
    den = lcm(*(c.denominator for c, _ in chains))
    out: dict[Matrix, int] = {}
    for c, letters in chains:
        part = {letters[-1]: c.numerator * (den // c.denominator)}
        for a in reversed(letters[:-1]):
            nxt: dict[Matrix, int] = {}
            for b, v in part.items():
                for m, k in _pair_product(a, b):
                    nxt[m] = nxt[m] + v * k if m in nxt else v * k
            part = nxt
        for m, v in part.items():
            out[m] = out[m] + v if m in out else v
    return SchurElement(n, r)._new({m: Fraction(v, den) for m, v in out.items() if v})


def _diagonal(w: Sequence[int]) -> Matrix:
    """The diagonal margin matrix diag(w)."""
    return tuple(tuple(x if i == j else 0 for j in range(len(w))) for i, x in enumerate(w))


def idempotent(lam: Sequence[int]) -> SchurElement:
    """Weight idempotent: the orbit element of the diagonal matrix diag(lam),
    projecting tensor space onto words of weight lam."""
    if not is_composition(lam):
        raise ValueError("weight idempotents need a composition")
    return SchurElement(len(lam), sum(lam), {_diagonal(lam): Fraction(1)})


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
    all-ones weight; its orbit basis is exactly the permutation matrices.
    Its full table check multiplies all (r!)^2 pairs, so r is bounded at 4,
    the bound of the symmetric-group quotient check."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r > 4:
        raise ResourceLimitError(f"full table check is bounded at r <= 4 (got r={r})")
    perms = tuple(itertools.permutations(range(1, r + 1)))
    return SymmetricGroupTable(r, perms)


def weight_components(x: SchurElement) -> dict[tuple[Weight, Weight], SchurElement]:
    """Split an element into its weight-block components."""
    out: dict[tuple[Weight, Weight], dict] = {}
    for a, c in x.terms.items():
        key = (row_sums(a), col_sums(a))
        out.setdefault(key, {})[a] = c
    return {k: SchurElement(x.n, x.r, v) for k, v in out.items()}
