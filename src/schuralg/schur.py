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

A divided power e_ab^(m) acts on xi_B as the single orbit element
diag(w) + m (E_ab - E_bb), w the row weight of B, and there the rule is
a move of rows a and b alone: the sum over compositions t of m with
t <= B_b of prod_k binom(B_ak + t_k, t_k) xi_{B + t (E_a - E_b)}.  PBW
images and truncations are words of divided powers applied this way to
an idempotent, in integers (_move per letter, _apply_runs per word).

Tensor space itself enters only as an oracle, behind one guard
(check_tensor_scale: at most TENSOR_SPACE_LIMIT words): orbit_endo
writes the orbit element of one margin matrix as a full tensor-space
endomorphism (TensorEndo), endo_of sums those, and element_from_endo
reads an endomorphism back in the orbit basis.  The tests compare the
products against them; the gbasis and gl2 suites rank, under the same
guard, only the images of e_k for one word k of a block's right weight.

Weight idempotents are the diagonal matrices: they project onto the span
of words of one fixed weight.  All arithmetic is exact and in integers
(an element holds integer numerators over one denominator); all
operations are pure functions safe for concurrent use.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from operator import add, sub
from typing import Mapping, Sequence

from .errors import SYMMETRIC_GROUP_MAX_R, TENSOR_SPACE_LIMIT, ResourceLimitError, check_budget, count_text
from .exact_linalg import SparseCombination
from .weights import (
    Matrix,
    Perm,
    Weight,
    Word,
    _bounded_rows,
    _margin_fillings,
    _slice_bound,
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
    check_budget(n ** r, lambda: f"tensor space has {n}^{r} basis words")


class TensorEndo(SparseCombination):
    """Sparse endomorphism of degree-r tensor space over n letters, keyed
    by (output word, input word), checked on entry; entries is the Fraction view."""

    __slots__ = ("n", "r")
    _space_attrs = ("n", "r")

    def __init__(self, n: int, r: int, entries: Mapping[tuple[Word, Word], Fraction]):
        self.n = n
        self.r = r
        for key in entries:
            if len(key) != 2 or any(len(w) != r or not all(0 < x <= n for x in w) for w in key):
                raise ValueError(f"key {key} is not a pair of words of length {r} over 1..{n}")
        super().__init__(entries)

    @property
    def entries(self) -> dict[tuple[Word, Word], Fraction]:
        return self.terms

    def compose(self, other: "TensorEndo") -> "TensorEndo":
        """self after other (matrix product self . other)."""
        self._check_space(other)
        by_input: dict[Word, list[tuple[Word, int]]] = {}
        for (l, j), c in self.num.items():
            by_input.setdefault(j, []).append((l, c))
        out: dict[tuple[Word, Word], int] = {}
        for (j, k), c in other.num.items():
            for l, d in by_input.get(j, ()):
                key = (l, k)
                out[key] = out.get(key, 0) + d * c
        return self._new(out, self.den * other.den)

    def __repr__(self) -> str:
        return f"TensorEndo(n={self.n}, r={self.r}, {len(self.num)} entries)"


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
    for fills in itertools.product(*map(_column_words, columns)):
        for ps, fill in zip(positions, fills):
            for p, v in zip(ps, fill):
                l[p] = v
        out.append(tuple(l))
    return out


@lru_cache(maxsize=4096)
def _column_words(column: Weight) -> tuple[Word, ...]:
    """The words of weight column, listed once for every _orbit_images call."""
    return tuple(words_of_weight(column))


@lru_cache(maxsize=512)
def orbit_endo(a: Matrix) -> TensorEndo:
    """Endomorphism of the orbit-basis element for margin matrix a."""
    n, r = _validate_margin_matrix(a)
    check_tensor_scale(n, r)
    entries = {(l, k): 1 for k in words_of_weight(col_sums(a)) for l in _orbit_images(a, k)}
    return TensorEndo._build((n, r), entries)


class SchurElement(SparseCombination):
    """Exact rational combination of orbit-basis elements of one Schur
    algebra: integer numerators by margin matrix over one denominator."""

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
        return f"SchurElement(n={self.n}, r={self.r}, {len(self.num)} terms)"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> dict:
        terms = []
        for a, c in sorted(self.terms.items(), key=lambda t: tuple(e for row in t[0] for e in row)):
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
            a = tuple(tuple(_json_int(e) for e in row) for row in t["matrix"])
            terms[a] = Fraction(_json_int(t["coeff_num"]), _json_int(t.get("coeff_den", 1)))
        return SchurElement(_json_int(payload["n"]), _json_int(payload["r"]), terms)


def _json_int(x: object) -> int:
    """x itself when it is a JSON integer; a float, a bool or a string is
    refused, not truncated."""
    if type(x) is not int:
        raise ValueError(f"expected an integer, got {x!r}")
    return x


def endo_of(x: SchurElement) -> TensorEndo:
    """Faithful action of an element on tensor space (orbits are disjoint)."""
    check_tensor_scale(x.n, x.r)
    entries = {key: c for a, c in x.num.items() for key in orbit_endo(a).num}
    return TensorEndo._build((x.n, x.r), entries, x.den)


def element_from_endo(endo: TensorEndo) -> SchurElement:
    """Read an equivariant endomorphism off in the orbit basis.

    Takes each orbit's coefficient from any one of its entries, then
    requires the element found to act as endo does on all of tensor
    space.  Raises ValueError when the endomorphism is not in the
    orbit-basis span (a coefficient not constant on an orbit, or an orbit
    only partly present), so a successful decode doubles as an
    equivariance check.
    """
    terms: dict[Matrix, int] = {}
    for (l, k), c in endo.num.items():
        terms.setdefault(pair_to_matrix(l, k, endo.n), c)
    out = SchurElement._build((endo.n, endo.r), terms, endo.den)
    if endo_of(out) != endo:
        raise ValueError("endomorphism is not in the orbit-basis span")
    return out


@lru_cache(maxsize=4096)
def _slices(rows: Weight, cols: Weight) -> tuple[tuple[tuple[int, int, int], ...], ...]:
    """Matrices with row sums rows and column sums cols (equal totals), in
    margin_matrices order, each as its nonzero entries (i, k, value)."""
    return tuple(
        tuple((i, k, v) for i, row in enumerate(m) for k, v in enumerate(row) if v)
        for m in _margin_fillings(rows, cols)
    )


@lru_cache(maxsize=4096)
def _pair_product(a: Matrix, b: Matrix) -> tuple[tuple[Matrix, int], ...]:
    """xi_a xi_b by Green's rule, as (margin matrix, integer coefficient)
    pairs; the inner weights must agree.

    Raises ResourceLimitError, before enumerating, when the closed-form
    bound on the number of tables exceeds TENSOR_SPACE_LIMIT.
    """
    n = len(a)
    margins = list(zip(zip(*a), b))
    tables = prod(_slice_bound(rows, cols) for rows, cols in margins)
    check_budget(tables, lambda: f"a product of two {n}x{n} orbit elements may sum over {count_text(tables)} tables")
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
    return tuple((tuple(zip(*[iter(c)] * n)), weight) for c, weight in states.items())


def schur_multiply(x: SchurElement, y: SchurElement) -> SchurElement:
    """Product in the Schur algebra, by Green's rule on each pair of
    orbit elements whose inner weights agree, in integer numerators over
    the product of the denominators."""
    x._check_space(y)
    by_row: dict[Weight, list[tuple[Matrix, int]]] = {}
    for b, d in y.num.items():
        by_row.setdefault(row_sums(b), []).append((b, d))
    out: dict[Matrix, int] = {}
    for a, c in x.num.items():
        for b, d in by_row.get(col_sums(a), ()):
            v = c * d
            for m, k in _pair_product(a, b):
                out[m] = out[m] + v * k if m in out else v * k
    return x._new(out, x.den * y.den)


# a divided power e_ab^(m) as (a, b, m), 0-based rows a != b
Run = tuple[int, int, int]


@lru_cache(maxsize=4096)
def _row_move(m: int, row_a: Weight, row_b: Weight) -> tuple[tuple[Weight, Weight, int], ...]:
    """e_ab^(m) xi_B on rows a and b of B, as (row a, row b, coefficient)
    triples; refused like _pair_product on the orbit element of e_ab^(m),
    whose one two-row slice has margins (sum(row_b) - m, m) and row_b."""
    tables = _slice_bound((sum(row_b) - m, m), row_b)
    n = len(row_b)
    check_budget(tables, lambda: f"a product of two {n}x{n} orbit elements may sum over {count_text(tables)} tables")
    return tuple(
        (tuple(map(add, row_a, t)), tuple(map(sub, row_b, t)), prod(map(comb, map(add, row_a, t), t)))
        for t in _bounded_rows(m, row_b)
    )


def _runs_weight(runs: Sequence[Run], w: Sequence[int]) -> Weight | None:
    """The weight the runs reach from w, rightmost first; None when a
    weight on the way is not a composition."""
    w = list(w)
    if min(w, default=0) < 0:
        return None
    for a, b, m in runs:
        if w[b] < m:
            return None
        w[a] += m
        w[b] -= m
    return tuple(w)


def _move(vec: Mapping[Matrix, int], a: int, b: int, m: int) -> dict[Matrix, int]:
    """e_ab^(m) on an integer orbit vector: a _row_move on every term."""
    out: dict[Matrix, int] = {}
    for rows, v in vec.items():
        new = list(rows)
        for new[a], new[b], k in _row_move(m, rows[a], rows[b]):
            key = tuple(new)
            out[key] = out[key] + v * k if key in out else v * k
    return out


def _apply_runs(runs: Sequence[Run], w: Weight) -> dict[Matrix, int]:
    """The integer image of the runs acting on 1_w, rightmost first: one
    _move per run, from xi_diag(w); zero, before any move, when
    _runs_weight refuses."""
    if _runs_weight(runs, w) is None:
        return {}
    vec = {_diagonal(w): 1}
    for a, b, m in runs:
        vec = _move(vec, a, b, m)
    return vec


def _diagonal(w: Sequence[int]) -> Matrix:
    """The diagonal margin matrix diag(w)."""
    return tuple((0,) * i + (x,) + (0,) * (len(w) - i - 1) for i, x in enumerate(w))


def idempotent(lam: Sequence[int]) -> SchurElement:
    """Weight idempotent: the orbit element of the diagonal matrix diag(lam),
    projecting tensor space onto words of weight lam."""
    if not is_composition(lam):
        raise ValueError("weight idempotents need a composition")
    return SchurElement(len(lam), sum(lam), {_diagonal(lam): 1})


def identity_element(n: int, r: int) -> SchurElement:
    """Sum of all weight idempotents: the unit of S(n, r)."""
    return SchurElement._build((n, r), {_diagonal(lam): 1 for lam in compositions(n, r)})


def hom_basis(lam: Sequence[int], mu: Sequence[int]) -> list[SchurElement]:
    """Orbit-basis elements spanning the (lam, mu) weight block, one per
    margin matrix, in margin-matrix enumeration order."""
    matrices = margin_matrices(lam, mu)
    if not lam:
        raise ValueError("need n >= 1 and r >= 0")
    return [SchurElement._build((len(lam), sum(lam)), {a: 1}) for a in matrices]


def involution(x: SchurElement) -> SchurElement:
    """Transpose on margin matrices; an anti-automorphism swapping the
    (lam, mu) and (mu, lam) blocks."""
    return x._new({transpose(a): c for a, c in x.num.items()}, x.den)


def weyl_relabel(x: SchurElement, w: Perm) -> SchurElement:
    """Relabel letters by i -> w(i); an algebra isomorphism sending the
    (lam, mu) block to the (w lam, w mu) block."""
    if len(w) != x.n or sorted(w) != list(range(1, x.n + 1)):
        raise ValueError(f"need a permutation of 1..{x.n}")
    out = {}
    for a, c in x.num.items():
        b = [[0] * x.n for _ in range(x.n)]
        for i in range(x.n):
            for j in range(x.n):
                b[w[i] - 1][w[j] - 1] = a[i][j]
        out[tuple(tuple(row) for row in b)] = c
    return x._new(out, x.den)


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
        return SchurElement(self.r, self.r, {perm_matrix(p): 1})

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
    Its full table check multiplies all (r!)^2 pairs, so r is bounded by
    SYMMETRIC_GROUP_MAX_R, the bound of the symmetric-group quotient check."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r > SYMMETRIC_GROUP_MAX_R:
        raise ResourceLimitError(f"full table check is bounded at r <= {SYMMETRIC_GROUP_MAX_R} (got r={r})")
    perms = tuple(itertools.permutations(range(1, r + 1)))
    return SymmetricGroupTable(r, perms)


def weight_components(x: SchurElement) -> dict[tuple[Weight, Weight], SchurElement]:
    """Split an element into its weight-block components."""
    out: dict[tuple[Weight, Weight], dict] = {}
    for a, c in x.num.items():
        key = (row_sums(a), col_sums(a))
        out.setdefault(key, {})[a] = c
    return {k: x._new(v, x.den) for k, v in out.items()}
