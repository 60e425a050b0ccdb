"""Indexing combinatorics for weight-graded algebras on tensor space.

Compositions, words (multi-indices), margin matrices (contingency tables
with prescribed row and column sums), semistandard Young tableaux, Kostka
numbers, and the dominance order.  Everything here is a pure function of
immutable values, and every enumeration has a pinned deterministic order:
compositions are reverse-lexicographic, margin matrices are row-major
lexicographic, words are lexicographic, tableaux are lexicographic by
row-reading word.  Callers may rely on these orders.

Conventions.  A weight is a tuple of integers of length n; a composition
is a weight with nonnegative entries; trailing zeros are significant
((2,1,0) and (2,1) are different weights).  Words use the alphabet
{1, .., n} and are tuples.  Matrices are tuples of row tuples.
Permutations of {1, .., n} are tuples w with w[k-1] = w(k).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import comb, factorial
from typing import Iterator, Sequence

from .errors import TENSOR_SPACE_LIMIT, ResourceLimitError

Weight = tuple[int, ...]
Word = tuple[int, ...]
Matrix = tuple[tuple[int, ...], ...]
Perm = tuple[int, ...]

__all__ = [
    "Weight",
    "Word",
    "Matrix",
    "Perm",
    "compositions",
    "dominant_shapes",
    "is_composition",
    "weight_of",
    "words_of_weight",
    "weight_word",
    "all_words",
    "margin_matrices",
    "row_sums",
    "col_sums",
    "transpose",
    "matrix_degree",
    "pair_to_matrix",
    "canonical_pair",
    "orbit_size",
    "Tableau",
    "tableau_from_word",
    "ssyt",
    "kostka",
    "dominance_leq",
    "dominance_lt",
    "sort_dominant",
    "is_dominant",
    "permute_weight",
    "permute_word",
    "perm_compose",
    "perm_inverse",
    "composition_count",
]


def is_composition(w: Sequence[int]) -> bool:
    return all(isinstance(x, int) and x >= 0 for x in w)


def compositions(n: int, r: int) -> list[Weight]:
    """All compositions of r into n parts, in reverse-lexicographic order.

    Reverse-lexicographic means larger first entries come first, so for
    (n, r) = (2, 2) the order is (2,0), (1,1), (0,2).
    """
    if n < 1:
        raise ValueError("need at least one part")
    if r < 0:
        raise ValueError("degree must be nonnegative")
    count = composition_count(n, r)
    if count > TENSOR_SPACE_LIMIT:
        raise ResourceLimitError(
            f"{count} compositions of {r} into {n} parts, above the limit {TENSOR_SPACE_LIMIT}"
        )
    out: list[Weight] = []

    def rec(prefix: tuple[int, ...], remaining: int, parts: int) -> None:
        if parts == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, parts - 1)

    rec((), r, n)
    return out


def dominant_shapes(n: int, r: int) -> list[Weight]:
    """Partitions of r with at most n parts, stored as n-tuples, in the
    reverse-lexicographic order of compositions, which lists them most
    dominant first (it restricts to a dominance-compatible order)."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return list(_shapes_below(n, r, r))


def _shapes_below(n: int, r: int, cap: int) -> Iterator[Weight]:
    # weakly decreasing n-tuples summing to r with entries at most cap, for
    # r <= n * cap, generated lazily; the first entry is at least the mean
    if n == 1:
        yield (r,)
        return
    for v in range(min(cap, r), -(-r // n) - 1, -1):
        for rest in _shapes_below(n - 1, r - v, v):
            yield (v,) + rest


def weight_of(word: Sequence[int], n: int) -> Weight:
    """Letter-count vector of a word over {1, .., n}."""
    w = [0] * n
    for v in word:
        if not 1 <= v <= n:
            raise ValueError(f"letter {v} outside alphabet 1..{n}")
        w[v - 1] += 1
    return tuple(w)


def words_of_weight(lam: Sequence[int]) -> list[Word]:
    """All words with letter counts lam, in lexicographic order."""
    if not is_composition(lam):
        raise ValueError("weight must be a composition")
    n = len(lam)
    r = sum(lam)
    out: list[Word] = []

    def rec(prefix: tuple[int, ...], remaining: list[int], left: int) -> None:
        if left == 0:
            out.append(prefix)
            return
        for v in range(1, n + 1):
            if remaining[v - 1] > 0:
                remaining[v - 1] -= 1
                rec(prefix + (v,), remaining, left - 1)
                remaining[v - 1] += 1

    rec((), list(lam), r)
    return out


def weight_word(nu: Sequence[int]) -> Word:
    """The weakly increasing word of weight nu: nu_1 ones, nu_2 twos, ..."""
    if not is_composition(nu):
        raise ValueError("need a composition")
    out: list[int] = []
    for i, m in enumerate(nu):
        out.extend([i + 1] * m)
    return tuple(out)


def all_words(n: int, r: int) -> Iterator[Word]:
    """All words of length r over {1, .., n}, lexicographic."""
    return itertools.product(range(1, n + 1), repeat=r)


def row_sums(a: Matrix) -> Weight:
    return tuple(sum(row) for row in a)


def col_sums(a: Matrix) -> Weight:
    return tuple(sum(col) for col in zip(*a)) if a else ()


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a)) if a else ()


def matrix_degree(a: Matrix) -> int:
    return sum(sum(row) for row in a)


def _bounded_rows(total: int, caps: Sequence[int]) -> Iterator[tuple[int, ...]]:
    # rows in ascending lexicographic order, entry j capped by caps[j]
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    tail_cap = sum(caps[1:])
    for v in range(max(0, total - tail_cap), min(caps[0], total) + 1):
        for rest in _bounded_rows(total - v, caps[1:]):
            yield (v,) + rest


def margin_matrices(lam: Sequence[int], mu: Sequence[int]) -> list[Matrix]:
    """Nonnegative integer matrices with row sums lam and column sums mu.

    Both margins must be compositions of the same degree and the same
    length.  Output is in row-major lexicographic order (ascending on the
    flattened entry tuple).
    """
    if not (is_composition(lam) and is_composition(mu)):
        raise ValueError("margins must be compositions")
    if len(lam) != len(mu):
        raise ValueError("margins must have the same number of parts")
    if sum(lam) != sum(mu):
        raise ValueError("margins must have equal degree")
    n = len(lam)
    out: list[Matrix] = []

    def rec(i: int, remaining_cols: tuple[int, ...], acc: tuple[tuple[int, ...], ...]) -> None:
        if i == n:
            if all(c == 0 for c in remaining_cols):
                out.append(acc)
            return
        for row in _bounded_rows(lam[i], remaining_cols):
            rec(i + 1, tuple(c - x for c, x in zip(remaining_cols, row)), acc + (row,))

    rec(0, tuple(mu), ())
    return out


def pair_to_matrix(i: Sequence[int], j: Sequence[int], n: int) -> Matrix:
    """Count matrix of a pair of words: entry (a, b) counts positions k
    with i[k] = a and j[k] = b.  This is a complete invariant for the
    diagonal place-permutation action on pairs of words."""
    if len(i) != len(j):
        raise ValueError("words must have equal length")
    m = [[0] * n for _ in range(n)]
    for a, b in zip(i, j):
        if not (1 <= a <= n and 1 <= b <= n):
            raise ValueError(f"letter outside alphabet 1..{n}")
        m[a - 1][b - 1] += 1
    return tuple(tuple(row) for row in m)


def canonical_pair(a: Matrix) -> tuple[Word, Word]:
    """Distinguished preimage of a matrix under pair_to_matrix: read the
    entries in row-major order, emitting a[i][j] copies of (i+1, j+1)."""
    left: list[int] = []
    right: list[int] = []
    for i, row in enumerate(a):
        for j, e in enumerate(row):
            if e < 0:
                raise ValueError("matrix must be nonnegative")
            left.extend([i + 1] * e)
            right.extend([j + 1] * e)
    return tuple(left), tuple(right)


def orbit_size(a: Matrix) -> int:
    """Size of the place-permutation orbit of pairs with count matrix a."""
    size = factorial(matrix_degree(a))
    for row in a:
        for e in row:
            size //= factorial(e)
    return size


@dataclass(frozen=True)
class Tableau:
    """Filling of a Young diagram, stored as row tuples.

    Row lengths must be weakly decreasing and positive; the shape is the
    tuple of row lengths.  Entries are letters >= 1.  Arbitrary fillings
    are allowed (word relabelings need them); semistandardness is a
    property, not an invariant.
    """

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        lengths = [len(r) for r in self.rows]
        if any(l == 0 for l in lengths):
            raise ValueError("empty rows are not stored")
        if any(lengths[k] < lengths[k + 1] for k in range(len(lengths) - 1)):
            raise ValueError("row lengths must weakly decrease")
        if any(e < 1 for row in self.rows for e in row):
            raise ValueError("entries must be positive letters")

    @property
    def shape(self) -> Weight:
        return tuple(len(r) for r in self.rows)

    @property
    def row_word(self) -> Word:
        return tuple(e for row in self.rows for e in row)

    def weight(self, n: int) -> Weight:
        return weight_of(self.row_word, n)

    @property
    def semistandard(self) -> bool:
        for row in self.rows:
            if any(row[k] > row[k + 1] for k in range(len(row) - 1)):
                return False
        for up, down in zip(self.rows, self.rows[1:]):
            if any(up[c] >= down[c] for c in range(len(down))):
                return False
        return True

    def to_json(self) -> dict:
        return {"shape": list(self.shape), "rows": [list(r) for r in self.rows]}


def _strip_shape(shape: Sequence[int]) -> tuple[int, ...]:
    if not is_dominant(shape) or any(x < 0 for x in shape):
        raise ValueError("shape must be a partition (weakly decreasing, nonnegative)")
    return tuple(x for x in shape if x > 0)


def tableau_from_word(shape: Sequence[int], word: Sequence[int]) -> Tableau:
    """Cut a word into rows of the given partition shape."""
    rows = _strip_shape(shape)
    if sum(rows) != len(word):
        raise ValueError("word length must match shape size")
    out = []
    pos = 0
    for l in rows:
        out.append(tuple(word[pos:pos + l]))
        pos += l
    return Tableau(tuple(out))


def ssyt(shape: Sequence[int], weight: Sequence[int]) -> list[Tableau]:
    """Semistandard tableaux of the given partition shape and letter counts.

    Rows weakly increase, columns strictly increase, entry multiplicities
    are exactly `weight`.  Results are in lexicographic order of the
    row-reading word.  Trailing zeros in the shape are ignored.  Built by
    the recursion kostka counts with: the cells of the last letter form a
    horizontal strip, peeled off one letter at a time.
    """
    rows = _strip_shape(shape)
    if not is_composition(weight):
        raise ValueError("weight must be a composition")
    if sum(rows) != sum(weight):
        raise ValueError("shape size must equal weight degree")
    tableaux = (Tableau(t) for t in _strip_fillings(rows, tuple(weight)))
    return sorted(tableaux, key=lambda t: t.row_word)


def _strip_fillings(shape: tuple[int, ...], weight: tuple[int, ...]) -> Iterator[tuple[tuple[int, ...], ...]]:
    # the rows of every tableau counted by _kostka_cached(shape, weight):
    # the same recursion, one horizontal strip of the last letter per level
    if len(shape) > len(weight):
        return
    if not shape:
        yield ()
        return
    letter = len(weight)
    caps = [a - b for a, b in zip(shape, shape[1:] + (0,))]
    for strip in _bounded_rows(weight[-1], caps):
        rest = tuple(a - s for a, s in zip(shape, strip))
        for inner in _strip_fillings(rest if rest[-1] else rest[:-1], weight[:-1]):
            inner += ((),) * (len(shape) - len(inner))
            yield tuple(row + (letter,) * s for row, s in zip(inner, strip))


@lru_cache(maxsize=1 << 16)
def _kostka_cached(shape: tuple[int, ...], weight: tuple[int, ...]) -> int:
    # the cells holding the last letter form a horizontal strip: peel it
    # off row by row (row i loses at most shape_i - shape_{i+1} cells), so
    # the recursion is one level per letter
    if len(shape) > len(weight):
        return 0
    if not shape:
        return 1
    caps = [a - b for a, b in zip(shape, shape[1:] + (0,))]
    total = 0
    for strip in _bounded_rows(weight[-1], caps):
        rest = tuple(a - s for a, s in zip(shape, strip))
        # only the last row can empty, since the strip leaves shape_{i+1}
        total += _kostka_cached(rest if rest[-1] else rest[:-1], weight[:-1])
    return total


def kostka(mu: Sequence[int], lam: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape mu and weight lam, counted
    by removing one horizontal strip per letter (no tableau is built)."""
    shape = _strip_shape(mu)
    if not is_composition(lam):
        raise ValueError("weight must be a composition")
    if sum(shape) != sum(lam):
        raise ValueError("shape size must equal weight degree")
    return _kostka_cached(shape, tuple(lam))


def dominance_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    """Dominance order on equal-degree weights: partial sums of a never
    exceed those of b.  Shorter weights are padded with zeros."""
    if sum(a) != sum(b):
        raise ValueError("dominance compares equal degrees only")
    m = max(len(a), len(b))
    pa = pb = 0
    for k in range(m):
        pa += a[k] if k < len(a) else 0
        pb += b[k] if k < len(b) else 0
        if pa > pb:
            return False
    return True


def dominance_lt(a: Sequence[int], b: Sequence[int]) -> bool:
    return tuple(a) != tuple(b) and dominance_leq(a, b)


def sort_dominant(w: Sequence[int]) -> Weight:
    """Weakly decreasing rearrangement."""
    return tuple(sorted(w, reverse=True))


def is_dominant(w: Sequence[int]) -> bool:
    return all(w[k] >= w[k + 1] for k in range(len(w) - 1))


def permute_weight(w: Sequence[int], perm: Perm) -> Weight:
    """Place-permute a weight: entry at position perm(i) is w_i."""
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[perm[i] - 1] = v
    return tuple(out)


def permute_word(word: Sequence[int], perm: Perm) -> Word:
    """Relabel the letters of a word by i -> perm(i)."""
    return tuple(perm[v - 1] for v in word)


def perm_compose(w: Perm, v: Perm) -> Perm:
    """(w o v)(i) = w(v(i))."""
    return tuple(w[x - 1] for x in v)


def perm_inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, v in enumerate(w):
        out[v - 1] = i + 1
    return tuple(out)


def composition_count(n: int, r: int) -> int:
    """Closed form for len(compositions(n, r))."""
    return comb(r + n - 1, n - 1)
