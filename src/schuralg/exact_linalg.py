"""Exact linear algebra over the rationals for sparse vectors.

Vectors are mappings from hashable keys to Fractions (or ints), or
elements, read as their numerators over their denominator.  Each vector
is scaled to integers by its common denominator, and no Fraction is built
inside an elimination.  Ranks come from a sparse echelon that takes one
vector at a time (echelon_add), reducing it by gcd-scaled row operations and
dividing out its content.  Determinants and CoordinateSolver use one
dense fraction-free elimination (Bareiss), which divides exactly;
CoordinateSolver takes the Gauss-Jordan form of [basis | identity] once
and keeps an integer matrix with one common denominator, so a coordinate
becomes a Fraction only when it is returned.  Sizes here are desk scale
(hundreds of rows at most); nothing is tuned beyond that.

SparseCombination is the one coefficient format of the algebra elements:
integer numerators over one denominator in one fixed space, with the
linear structure defined once here.  Only this module clears denominators.
Constructors check outside input; _build makes what the library computes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Mapping, Sequence

__all__ = [
    "SparseCombination",
    "echelon_add",
    "exact_rank",
    "integer_rank",
    "unimodular_change",
    "integer_det",
    "CoordinateSolver",
]


class SparseCombination:
    """Exact rational combination of hashable basis keys in one space.

    Key k has coefficient num[k] / den: nonzero integer numerators over one
    positive denominator, with gcd 1, so equality is plain comparison and
    `terms` is a read-only Fraction view.  A subclass lists the attributes
    that fix its space in `_space_attrs`, checks input from outside in its
    own constructor, sets those attributes before calling this one, and
    adds its type-specific operations; `_build` is the one unchecked way to
    make an element.  Either way `space`, the tuple of those attributes'
    values, is fixed once per element.  Elements are values, not hashable.
    """

    __slots__ = ("num", "den", "space")
    _space_attrs: tuple[str, ...] = ()

    def __init__(self, terms: Mapping[Hashable, object] | None = None):
        self.space = tuple(getattr(self, name) for name in self._space_attrs)
        terms = terms or {}
        if all(type(c) is int for c in terms.values()):
            self._set(terms, 1)
        else:
            self._set(*_clear_denominators({k: Fraction(c) for k, c in terms.items()}))

    def _set(self, num: Mapping[Hashable, int], den: int) -> None:
        num = {k: c for k, c in num.items() if c}
        g = gcd(den, *num.values()) if den != 1 else 1  # integral input skips the gcd
        if g != 1:
            num = {k: c // g for k, c in num.items()}
        self.num, self.den = num, den // g

    @property
    def terms(self) -> dict[Hashable, Fraction]:
        return {k: Fraction(c, self.den) for k, c in self.num.items()}

    @classmethod
    def _build(cls, space: tuple, num: Mapping[Hashable, int], den: int = 1) -> "SparseCombination":
        """The element of space (values of `_space_attrs`, in order) with
        coefficients num / den, unchecked: the keys are valid in that space
        and den > 0, since the library made them."""
        out = object.__new__(cls)
        out.space = space
        for name, value in zip(cls._space_attrs, space):
            setattr(out, name, value)
        out._set(num, den)
        return out

    def _new(self, num: Mapping[Hashable, int], den: int = 1) -> "SparseCombination":
        return type(self)._build(self.space, num, den)

    def _check_space(self, other: "SparseCombination") -> None:
        if type(other) is not type(self) or self.space != other.space:
            raise ValueError(f"operands do not live in the same {type(self).__name__} space")

    def __add__(self, other: "SparseCombination") -> "SparseCombination":
        self._check_space(other)
        den = lcm(self.den, other.den)
        s, t = den // self.den, den // other.den
        out = {k: c * s for k, c in self.num.items()}
        for k, c in other.num.items():
            out[k] = out[k] + c * t if k in out else c * t
        return self._new(out, den)

    def __sub__(self, other: "SparseCombination") -> "SparseCombination":
        return self + other.scale(-1)

    def scale(self, c: Fraction | int) -> "SparseCombination":
        if type(c) is not int:
            c = Fraction(c)
        return self._new({k: v * c.numerator for k, v in self.num.items()}, self.den * c.denominator)

    def __rmul__(self, c: Fraction | int) -> "SparseCombination":
        return self.scale(c)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and (self.space, self.den, self.num) == (other.space, other.den, other.num)

    __hash__ = None

    @property
    def is_zero(self) -> bool:
        return not self.num

    def integral(self) -> bool:
        return self.den == 1


Vector = Mapping[Hashable, Fraction] | SparseCombination


def _clear_denominators(v: Vector) -> tuple[dict[Hashable, int], int]:
    """(w, s) with v == w / s, w integral and s the lcm of the denominators,
    zero entries dropped; an element is its own (num, den)."""
    if isinstance(v, SparseCombination):
        return v.num, v.den
    v = {k: c for k, c in v.items() if c}
    s = lcm(*(c.denominator for c in v.values()))
    return {k: c.numerator * (s // c.denominator) for k, c in v.items()}, s


def _eliminate(rows: list[list[int]], ncols: int, jordan: bool = False) -> tuple[int, int]:
    """Fraction-free elimination of integer rows, in place (Bareiss 1968),
    for determinants and CoordinateSolver.

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


def exact_rank(vectors: Sequence[Vector]) -> int:
    """Rank of the span of the given sparse vectors."""
    # scaling a vector by its common denominator preserves the rank
    return integer_rank([_clear_denominators(v)[0] for v in vectors])


def echelon_add(echelon: dict[Hashable, dict[Hashable, int]], v: Mapping[Hashable, int]) -> bool:
    """Feed an integer vector to a sparse echelon form, primitive rows keyed
    by pivots that no later row holds, so len(echelon) is the rank fed so
    far.  Oldest first, each row whose pivot v holds turns v into (p/g) v -
    (c/g) row, p its pivot entry, c v's there, g = gcd(p, c); a nonzero
    rest, over its content, is stored under its first key.  True if the
    rank rose."""
    v = {k: c for k, c in v.items() if c}
    for key, row in echelon.items():
        if c := v.get(key):
            g = gcd(row[key], c)
            p, c = row[key] // g, c // g
            if p != 1:
                v = {k: p * x for k, x in v.items()}
            for k, x in row.items():
                if y := v.get(k, 0) - c * x:
                    v[k] = y
                else:
                    del v[k]
    if v:
        g = gcd(*v.values())
        echelon[next(iter(v))] = {k: x // g for k, x in v.items()}
    return bool(v)


def integer_rank(rows: Sequence[Mapping[Hashable, int]]) -> int:
    """Rank of the span of sparse integer vectors (no denominators)."""
    echelon: dict = {}
    for w in rows:
        echelon_add(echelon, w)
    return len(echelon)


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
    Gauss-Jordan form of the fraction-free elimination that determinants
    use: on [basis columns | identity], each column scaled to
    integers, it leaves d times the identity on top of zero rows and turns
    the identity block into an integer matrix E.  The first len(basis)
    rows of E, rescaled by the column scales and by the sign of the row
    swaps, map v to den times its coordinates, den = +-d the value the
    elimination returns; the other rows vanish on v exactly when v is in
    the span.  The rows are the keys in order of first appearance, or keys
    when given (which must hold every key of the basis, checked); for as many
    integral vectors as keys, den is their determinant over the keys in
    that order.  Each solve is one sparse integer product: solve takes and
    returns integers (coordinates times den), and coords builds a Fraction
    only for each returned coordinate.
    """

    def __init__(self, basis: Sequence[Vector], keys: Sequence[Hashable] | None = None):
        nb = len(basis)
        columns = [_clear_denominators(b) for b in basis]
        if keys is None:
            keys = list(dict.fromkeys(k for w, _ in columns for k in w))
        elif not {k for w, _ in columns for k in w}.issubset(keys):
            raise ValueError("basis vectors have entries outside the given keys")
        # row i holds the scaled basis entries at keys[i] in columns 0..nb-1
        # and the identity in column nb + i
        rows = [[w.get(k, 0) for w, _ in columns] + [0] * len(keys) for k in keys]
        for i, row in enumerate(rows):
            row[nb + i] = 1
        rank, self.den = _eliminate(rows, nb, jordan=True)
        if rank < nb:
            raise ValueError("basis vectors are linearly dependent")
        self._nb = nb
        self._nrows = len(rows)
        # the pivots are d = +-den (the sign of the row swaps); so E maps v
        # to den times its coordinates
        sign = self.den // rows[0][0] if nb else 1
        scales = [s * sign for _, s in columns] + [1] * (len(rows) - nb)
        # the columns of E, by key: (row, entry) pairs
        self._columns: dict[Hashable, list[tuple[int, int]]] = {
            k: [(i, row[nb + m] * scales[i]) for i, row in enumerate(rows) if row[nb + m]]
            for m, k in enumerate(keys)
        }

    def coords(self, v: Vector) -> list[Fraction] | None:
        w, t = _clear_denominators(v)
        x = self.solve(w)
        return None if x is None else [Fraction(c, self.den * t) for c in x]

    def solve(self, w: Mapping[Hashable, int]) -> list[int] | None:
        """x with w == sum x[i] * basis[i] / den for an integer vector w,
        or None when w lies outside the span."""
        out = [0] * self._nrows
        for k, c in w.items():
            if c and k not in self._columns:
                return None
            for i, x in self._columns.get(k, ()):
                out[i] += x * c
        return None if any(out[self._nb:]) else out[: self._nb]

    def in_span(self, v: Vector) -> bool:
        return self.coords(v) is not None


def unimodular_change(basis_a: Sequence[Vector], basis_b: Sequence[Vector]) -> bool:
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
