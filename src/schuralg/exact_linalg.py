"""Exact linear algebra over the rationals for sparse vectors.

Vectors are mappings from hashable keys to Fractions (or ints).  One
fraction-free elimination (Bareiss) serves every operation: each vector
is scaled to integers by its common denominator, and the elimination
divides exactly, so no Fraction is built inside it.  Ranks and
determinants stop at echelon form; CoordinateSolver takes the
Gauss-Jordan form of [basis | identity] once and keeps an integer matrix
with one common denominator, so a coordinate becomes a Fraction only when
it is returned.  Sizes here are desk scale (hundreds of rows at most);
nothing is tuned beyond that.

SparseCombination is the shared vector type of the algebra elements: a
mapping from basis keys to nonzero Fractions inside one fixed space, with
the linear structure (sums, scaling, equality) defined once here.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
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


def _clear_denominators(v: Mapping[Hashable, Fraction]) -> tuple[dict[Hashable, int], int]:
    """(w, s) with v == w / s, w integral and s the lcm of the denominators;
    zero entries are dropped.  Entries may be ints or Fractions."""
    v = {k: c for k, c in v.items() if c}
    s = lcm(*(c.denominator for c in v.values()))
    return {k: c.numerator * (s // c.denominator) for k, c in v.items()}, s


def _eliminate(rows: list[list[int]], ncols: int, jordan: bool = False) -> tuple[int, int]:
    """Fraction-free elimination of integer rows, in place (Bareiss 1968).

    Works through the first ncols columns; each pivot is the first nonzero
    entry at or below the current row.  The update
    row <- (p * row - f * pivot_row) // prev divides exactly, since every
    entry stays a minor of the input (Sylvester's identity), so the
    arithmetic is integer throughout.  In echelon form only the rows below
    a pivot are reduced.  In Gauss-Jordan form (jordan=True) every other
    row is, and the pivot block ends as d times the identity, d the last
    pivot.  Returns (rank, last pivot signed by the row swaps): for a
    square matrix of full rank that is its determinant.
    """
    nrows = len(rows)
    prev, sign, rank = 1, 1, 0
    for col in range(ncols):
        if rank == nrows:
            break
        pivot = next((i for i in range(rank, nrows) if rows[i][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            rows[rank], rows[pivot] = rows[pivot], rows[rank]
            sign = -sign
        prow = rows[rank]
        p = prow[col]
        for i in range(0 if jordan else rank + 1, nrows):
            if i != rank:
                f = rows[i][col]
                rows[i] = [(p * a - f * b) // prev for a, b in zip(rows[i], prow)]
        prev = p
        rank += 1
    return rank, sign * prev


def exact_rank(vectors: Sequence[Mapping[Hashable, Fraction]]) -> int:
    """Rank of the span of the given sparse vectors."""
    # scaling a vector by its common denominator preserves the rank
    rows = [_clear_denominators(v)[0] for v in vectors]
    keys = list(dict.fromkeys(k for w in rows for k in w))
    rank, _ = _eliminate([[w.get(k, 0) for k in keys] for w in rows], len(keys))
    return rank


def integer_det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    rank, det = _eliminate([list(map(int, r)) for r in rows], n)
    return det if rank == n else 0


class CoordinateSolver:
    """Solves for coordinates of vectors in the span of a fixed basis.

    Basis vectors must be linearly independent (checked).  coords(v)
    returns the Fraction list with v == sum coords[i] * basis[i], or None
    when v lies outside the span.  The basis is factored once, by the
    Gauss-Jordan form of the same fraction-free elimination that ranks and
    determinants use: on [basis columns | identity], each column scaled to
    integers, it leaves d times the identity on top of zero rows and turns
    the identity block into an integer matrix E.  The first len(basis)
    rows of E, rescaled by the column scales, map v to d times its
    coordinates; the other rows vanish on v exactly when v is in the span.
    Each solve is one sparse integer product, and a Fraction is built only
    for each returned coordinate.
    """

    def __init__(self, basis: Sequence[Mapping[Hashable, Fraction]]):
        nb = len(basis)
        columns = [_clear_denominators(b) for b in basis]
        keys = list(dict.fromkeys(k for w, _ in columns for k in w))
        # row i holds the scaled basis entries at keys[i] in columns 0..nb-1
        # and the identity in column nb + i
        rows = [[w.get(k, 0) for w, _ in columns] + [0] * len(keys) for k in keys]
        for i, row in enumerate(rows):
            row[nb + i] = 1
        if _eliminate(rows, nb, jordan=True)[0] < nb:
            raise ValueError("basis vectors are linearly dependent")
        self._nb = nb
        self._nrows = len(rows)
        self._den = rows[0][0] if nb else 1
        scales = [s for _, s in columns] + [1] * (len(rows) - nb)
        # the columns of E, by key: (row, entry) pairs
        self._columns: dict[Hashable, list[tuple[int, int]]] = {
            k: [(i, row[nb + m] * scales[i]) for i, row in enumerate(rows) if row[nb + m]]
            for m, k in enumerate(keys)
        }

    def coords(self, v: Mapping[Hashable, Fraction]) -> list[Fraction] | None:
        w, t = _clear_denominators(v)
        out = [0] * self._nrows
        for k, c in w.items():
            if k not in self._columns:
                return None
            for i, x in self._columns[k]:
                out[i] += x * c
        if any(out[self._nb:]):
            return None
        den = self._den * t
        return [Fraction(x, den) for x in out[: self._nb]]

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
    try:
        solver = CoordinateSolver(basis_b)
    except ValueError:
        return False
    rows = [solver.coords(v) for v in basis_a]
    if any(c is None or any(x.denominator != 1 for x in c) for c in rows):
        return False
    return abs(integer_det(rows)) == 1
