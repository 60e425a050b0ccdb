"""Exact linear algebra over the rationals for sparse vectors.

Vectors are mappings from hashable keys to Fractions (or ints).  Ranks and
determinants use Bareiss fraction-free elimination on integer matrices
after clearing denominators, so every answer is exact.  Sizes here are
desk scale (hundreds of rows at most); nothing is tuned beyond that.

SparseCombination is the shared vector type of the algebra elements: a
mapping from basis keys to nonzero Fractions inside one fixed space, with
the linear structure (sums, scaling, equality) defined once here.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Hashable, Mapping, Sequence

__all__ = [
    "SparseCombination",
    "exact_rank",
    "unimodular_change",
    "integer_det",
    "CoordinateSolver",
]


class SparseCombination:
    """Exact rational combination of hashable basis keys in one space.

    `terms` maps keys to nonzero Fractions; zero coefficients are dropped
    on construction, so equality is plain dict equality.  A subclass lists
    the attributes that fix its space in `_space_attrs`, validates keys
    where terms enter from outside (its own constructor), and adds its
    type-specific operations.  Elements are values, but not hashable.
    """

    __slots__ = ("terms",)
    _space_attrs: tuple[str, ...] = ()

    def __init__(self, terms: Mapping[Hashable, object] | None = None):
        clean: dict[Hashable, Fraction] = {}
        for k, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[k] = c
        self.terms = clean

    @property
    def space(self) -> tuple:
        return tuple(getattr(self, name) for name in self._space_attrs)

    def _new(self, terms: Mapping[Hashable, Fraction]) -> "SparseCombination":
        """Element of the same space from Fraction terms computed
        internally (keys already valid); only zeros are dropped."""
        out = object.__new__(type(self))
        for name in self._space_attrs:
            setattr(out, name, getattr(self, name))
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def _check_space(self, other: "SparseCombination") -> None:
        if type(other) is not type(self) or self.space != other.space:
            raise ValueError(f"operands do not live in the same {type(self).__name__} space")

    def __add__(self, other: "SparseCombination") -> "SparseCombination":
        self._check_space(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out[k] + c if k in out else c
        return self._new(out)

    def __sub__(self, other: "SparseCombination") -> "SparseCombination":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "SparseCombination":
        c = Fraction(c)
        return self._new({k: v * c for k, v in self.terms.items()})

    def __rmul__(self, c: Fraction | int) -> "SparseCombination":
        return self.scale(c)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self.space == other.space and self.terms == other.terms

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def integral(self) -> bool:
        return all(c.denominator == 1 for c in self.terms.values())


def _canonical_keys(vectors: Sequence[Mapping[Hashable, Fraction]]) -> list:
    keys = set()
    for v in vectors:
        keys.update(k for k, c in v.items() if c != 0)
    return sorted(keys, key=repr)


def _integer_rows(vectors: Sequence[Mapping[Hashable, Fraction]]) -> list[list[int]]:
    # scale each row by the lcm of denominators; scaling preserves rank
    keys = _canonical_keys(vectors)
    rows = []
    for v in vectors:
        denom = 1
        for c in v.values():
            c = Fraction(c)
            denom = denom * c.denominator // gcd(denom, c.denominator)
        rows.append([int(Fraction(v.get(k, 0)) * denom) for k in keys])
    return rows


def _bareiss(rows: list[list[int]]) -> tuple[int, int]:
    """Fraction-free elimination; returns (rank, det-of-leading-block).

    The determinant is meaningful only for square full-rank input; it is
    reported as 0 otherwise.
    """
    m = [row[:] for row in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    prev = 1
    rank = 0
    sign = 1
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((i for i in range(rank, nrows) if m[i][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        p = m[rank][col]
        for i in range(rank + 1, nrows):
            for j in range(col + 1, ncols):
                m[i][j] = (p * m[i][j] - m[i][col] * m[rank][j]) // prev
            m[i][col] = 0
        prev = p
        rank += 1
    if nrows == ncols and rank == nrows:
        return rank, sign * prev
    return rank, 0


def exact_rank(vectors: Sequence[Mapping[Hashable, Fraction]]) -> int:
    """Rank of the span of the given sparse vectors."""
    vectors = [v for v in vectors if any(c != 0 for c in v.values())]
    if not vectors:
        return 0
    rank, _ = _bareiss(_integer_rows(vectors))
    return rank


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1
    _, det = _bareiss([list(map(int, r)) for r in rows])
    return det


class CoordinateSolver:
    """Solves for coordinates of vectors in the span of a fixed basis.

    Basis vectors must be linearly independent (checked).  coords(v)
    returns the Fraction list with v == sum coords[i] * basis[i], or None
    when v lies outside the span.  The basis is factored once: Gauss-Jordan
    elimination of [basis columns | identity] turns the identity block
    into an invertible E whose first len(basis) rows map v to its
    coordinates and whose other rows vanish on v exactly when v is in the
    span, so each solve is one sparse product.
    """

    def __init__(self, basis: Sequence[Mapping[Hashable, Fraction]]):
        nb = len(basis)
        keys = _canonical_keys(basis)
        index = {k: i for i, k in enumerate(keys)}
        # row i holds the basis entries at keys[i] in columns 0..nb-1 and
        # the identity in column nb + i
        rows: list[dict[int, Fraction]] = [{nb + i: Fraction(1)} for i in range(len(keys))]
        for j, b in enumerate(basis):
            for k, c in b.items():
                if c:
                    rows[index[k]][j] = Fraction(c)
        for col in range(nb):
            pivot = next((i for i in range(col, len(rows)) if col in rows[i]), None)
            if pivot is None:
                raise ValueError("basis vectors are linearly dependent")
            rows[col], rows[pivot] = rows[pivot], rows[col]
            inv = 1 / rows[col][col]
            prow = rows[col] = {j: x * inv for j, x in rows[col].items()}
            for i, row in enumerate(rows):
                f = row.get(col)
                if f is None or i == col:
                    continue
                for j, x in prow.items():
                    y = row.get(j, 0) - f * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
        self._nb = nb
        self._nrows = len(rows)
        # the columns of E, by key: (row, entry) pairs
        self._columns: dict[Hashable, list[tuple[int, Fraction]]] = {k: [] for k in keys}
        for i, row in enumerate(rows):
            for j, x in row.items():
                if j >= nb:
                    self._columns[keys[j - nb]].append((i, x))

    def coords(self, v: Mapping[Hashable, Fraction]) -> list[Fraction] | None:
        out = [Fraction(0)] * self._nrows
        for k, c in v.items():
            if c == 0:
                continue
            if k not in self._columns:
                return None
            for i, x in self._columns[k]:
                out[i] += x * c
        if any(out[self._nb:]):
            return None
        return out[: self._nb]

    def in_span(self, v: Mapping[Hashable, Fraction]) -> bool:
        return self.coords(v) is not None


def unimodular_change(
    basis_a: Sequence[Mapping[Hashable, Fraction]],
    basis_b: Sequence[Mapping[Hashable, Fraction]],
) -> bool:
    """True when basis_a expressed in basis_b coordinates is an integer
    matrix of determinant +-1.  False when the sizes differ, some vector
    falls outside the span, or a coordinate is non-integral."""
    if len(basis_a) != len(basis_b):
        return False
    if not basis_a:
        return True
    try:
        solver = CoordinateSolver(basis_b)
    except ValueError:
        return False
    rows = []
    for v in basis_a:
        c = solver.coords(v)
        if c is None or any(x.denominator != 1 for x in c):
            return False
        rows.append([int(x) for x in c])
    return abs(integer_det(rows)) == 1
