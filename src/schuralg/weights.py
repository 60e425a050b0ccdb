"""Indexing combinatorics for weight-graded algebras on tensor space.

Compositions, words (multi-indices), margin matrices (contingency tables
with prescribed row and column sums), semistandard Young tableaux, Kostka
numbers, and the dominance order.  Everything here is a pure function of
immutable values, and every enumeration has a pinned deterministic order:
compositions are reverse-lexicographic, margin matrices are row-major
lexicographic, words are lexicographic, tableaux are lexicographic by
row-reading word.  Callers may rely on these orders.

A semistandard tableau is held as its n x n letter matrix L: L[a][b]
counts the letters a + 1 in row b + 1 (tableau_rows reads the rows back),
so L is lower triangular, with the weight as row sums and the shape as
column sums.  For one shape, the row-reading word increases exactly as
L, read column by column, decreases.

Three enumerators are cached, each as a tuple in a bounded lru_cache:
_compositions (compositions(n, r), 256 entries), _ssyt (ssyt's checked
shape and weight, 1024 entries) - their callers return fresh lists and
cache no refusal - and _bounded_rows (the rows of one total under
per-entry caps, 4096 entries), the inner loop of margin matrices,
margin counts, tableaux, Kostka numbers and schur's row moves.

Conventions.  A weight is a tuple of integers of length n; a composition
is a weight with nonnegative entries; trailing zeros are significant
((2,1,0) and (2,1) are different weights).  Words use the alphabet
{1, .., n} and are tuples.  Matrices are tuples of row tuples.
Permutations of {1, .., n} are tuples w with w[k-1] = w(k).
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import comb, factorial
from operator import add, sub
from typing import Iterator, Sequence

from .errors import check_budget, count_text

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
    "margin_count",
    "block_sizes",
    "row_sums",
    "col_sums",
    "transpose",
    "matrix_degree",
    "pair_to_matrix",
    "canonical_pair",
    "orbit_size",
    "ssyt",
    "tableau_rows",
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
    return list(_compositions(n, r))


@lru_cache(maxsize=256)
def _compositions(n: int, r: int) -> tuple[Weight, ...]:
    """compositions(n, r) as a cached tuple, checked and refused as it is
    (a refusal is not cached); callers that only read it skip the copy."""
    if n < 1:
        raise ValueError("need at least one part")
    if r < 0:
        raise ValueError("degree must be nonnegative")
    _check_composition_count(n, r)
    out: list[Weight] = []

    def rec(prefix: tuple[int, ...], remaining: int, parts: int) -> None:
        if parts == 1:
            out.append(prefix + (remaining,))
            return
        for v in range(remaining, -1, -1):
            rec(prefix + (v,), remaining - v, parts - 1)

    rec((), r, n)
    return tuple(out)


def _check_composition_count(n: int, r: int) -> None:
    """Refuse work that lists the compositions of r into n parts when
    there are more than TENSOR_SPACE_LIMIT of them."""
    count = composition_count(n, r)
    check_budget(count, lambda: f"{count_text(count)} compositions of {r} into {n} parts")


def dominant_shapes(n: int, r: int) -> list[Weight]:
    """Partitions of r with at most n parts, stored as n-tuples, in the
    reverse-lexicographic order of compositions, which lists them most
    dominant first (it restricts to a dominance-compatible order)."""
    if n < 1 or r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    return list(_shapes_below(n, r, r))


def _shapes_below(n: int, r: int, cap: int, floor: Sequence[int] = ()) -> Iterator[Weight]:
    # weakly decreasing n-tuples summing to r with entries at most cap, for
    # r <= n * cap, generated lazily; given a floor (n lower bounds on the
    # partial sums, the last r), only those whose k-th partial sum is at
    # least floor[k - 1].  Parts v, v, .., then what is left reach every
    # partial sum that a tail below v reaches, so the first entry v is at
    # least floor[k - 1] / k for each k (without a floor, the mean)
    if n == 1:
        yield (r,)
        return
    least = max(-(-f // k) for k, f in enumerate(floor, 1)) if floor else -(-r // n)
    for v in range(min(cap, r), least - 1, -1):
        for rest in _shapes_below(n - 1, r - v, v, [f - v for f in floor[1:]] if floor else ()):
            yield (v,) + rest


def _shapes_above(*weights: Sequence[int]) -> Iterator[Weight]:
    """The partitions of r into n parts (stored as n-tuples) that dominate
    the sorted rearrangement of every given weight, most dominant first,
    as dominant_shapes lists them: the shapes nu with kostka(nu, w) != 0
    for every w, generated lazily.  The weights are compositions of one
    length n and one degree r."""
    if len({(len(w), sum(w)) for w in weights}) > 1:
        raise ValueError("weights must have equal length and degree")
    if not all(map(is_composition, weights)):
        raise ValueError("weights must be compositions")
    n, r = len(weights[0]), sum(weights[0])
    if n < 1:
        raise ValueError("need n >= 1 and r >= 0")
    # the least partial sums: those of the most dominant sorted weight
    floor = [max(p) for p in zip(*(itertools.accumulate(sorted(w, reverse=True)) for w in weights))]
    return _shapes_below(n, r, r, floor)


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


@lru_cache(maxsize=4096)
def _bounded_rows(total: int, caps: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The rows of nonnegative integers summing to total, entry j at most
    caps[j], in ascending lexicographic order, as a cached tuple."""
    return tuple(_capped_rows(total, caps))


def _capped_rows(total: int, caps: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    # _bounded_rows, generated: one generator per entry, as deep as the
    # row is long, and no cache lookup below the top
    if len(caps) == 1:
        if 0 <= total <= caps[0]:
            yield (total,)
        return
    tail_cap = sum(caps[1:])
    for v in range(max(0, total - tail_cap), min(caps[0], total) + 1):
        for rest in _capped_rows(total - v, caps[1:]):
            yield (v,) + rest


@lru_cache(maxsize=4096)
def _slice_bound(rows: Weight, cols: Weight) -> int:
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


def margin_matrices(lam: Sequence[int], mu: Sequence[int]) -> list[Matrix]:
    """Nonnegative integer matrices with row sums lam and column sums mu.

    Both margins must be compositions of the same degree and the same
    length.  Output is in row-major lexicographic order (ascending on the
    flattened entry tuple).  Raises ResourceLimitError, before listing
    any, when the closed-form bound _slice_bound on their number exceeds
    TENSOR_SPACE_LIMIT.
    """
    return list(_margin_fillings(*_checked_margins(lam, mu)))


def _margin_fillings(rows: Weight, cols: Weight) -> Iterator[Matrix]:
    # a first row leaves the open column sums to the rows below; the last takes them
    if len(rows) <= 1:
        yield (cols,) * len(rows)
        return
    for row in _bounded_rows(rows[0], cols):
        for rest in _margin_fillings(rows[1:], tuple(map(sub, cols, row))):
            yield (row,) + rest


def _checked_margins(lam: Sequence[int], mu: Sequence[int]) -> tuple[Weight, Weight]:
    if not (is_composition(lam) and is_composition(mu)):
        raise ValueError("margins must be compositions")
    if len(lam) != len(mu):
        raise ValueError("margins must have the same number of parts")
    if sum(lam) != sum(mu):
        raise ValueError("margins must have equal degree")
    bound = _slice_bound(tuple(lam), tuple(mu))
    check_budget(bound, lambda: f"margins {tuple(lam)} and {tuple(mu)} may have {count_text(bound)} matrices")
    return tuple(lam), tuple(mu)


def margin_count(lam: Sequence[int], mu: Sequence[int]) -> int:
    """len(margin_matrices(lam, mu)), checked and refused as it is, but
    counted row by row without listing a matrix."""
    return _margin_count(*_checked_margins(lam, mu))


@lru_cache(maxsize=4096)
def _margin_count(rows: Weight, cols: Weight) -> int:
    # len(list(_margin_fillings(rows, cols))), by the same recursion
    if len(rows) <= 1:
        return 1
    return sum(_margin_count(rows[1:], tuple(map(sub, cols, row))) for row in _bounded_rows(rows[0], cols))


def block_sizes(mu: Sequence[int]) -> dict[Weight, int]:
    """{lam: margin_count(lam, mu)} for all lam at once, counted column by
    column: the row sums so far, each with its number of fillings, take
    every composition of the next column sum.  Refused first when those
    steps are over the budget."""
    if not is_composition(mu):
        raise ValueError("margins must be compositions")
    n, mu = len(mu), tuple(mu)
    starts = itertools.accumulate(mu, initial=0)  # zip drops the last, sum(mu)
    work = sum(composition_count(n, s) * composition_count(n, m) for s, m in zip(starts, mu))
    check_budget(work, lambda: f"counting the blocks of right weight {mu} takes {count_text(work)} steps")
    sizes = {(0,) * n: 1}
    for m in mu:
        step: dict[Weight, int] = {}
        for column in _compositions(n, m):
            for rows, c in sizes.items():
                key = tuple(map(add, rows, column))
                step[key] = step.get(key, 0) + c
        sizes = step
    return sizes


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


def _strip_shape(shape: Sequence[int], weight: Sequence[int]) -> tuple[int, ...]:
    """The nonzero parts of a partition shape, checked against a weight of its size."""
    if not is_dominant(shape) or any(x < 0 for x in shape):
        raise ValueError("shape must be a partition (weakly decreasing, nonnegative)")
    if not is_composition(weight):
        raise ValueError("weight must be a composition")
    if sum(shape) != sum(weight):
        raise ValueError("shape size must equal weight degree")
    return tuple(x for x in shape if x > 0)


def ssyt(shape: Sequence[int], weight: Sequence[int]) -> list[Matrix]:
    """Semistandard tableaux of the given partition shape and letter counts,
    as letter matrices over the letters 1, .., len(weight).

    Rows weakly increase, columns strictly increase, entry multiplicities
    are exactly `weight`.  Results are in lexicographic order of the
    row-reading word.  Trailing zeros in the shape are ignored.  Built by
    the recursion kostka counts with: the cells of the last letter form a
    horizontal strip, peeled off one letter at a time (cached by _ssyt).
    """
    return list(_ssyt(_strip_shape(shape, weight), tuple(weight)))


@lru_cache(maxsize=1024)
def _ssyt(shape: tuple[int, ...], weight: tuple[int, ...]) -> tuple[Matrix, ...]:
    # the row words increase as the matrices, read column by column, decrease
    return tuple(sorted(_strip_fillings(shape, weight, len(weight)), key=transpose, reverse=True))


def _strip_fillings(shape: tuple[int, ...], weight: tuple[int, ...], n: int) -> Iterator[Matrix]:
    # the letter matrices, n columns wide, of every tableau counted by
    # _kostka_cached(shape, weight): the same recursion, and the strip of
    # the last letter is the last row
    if len(shape) > len(weight):
        return
    if not shape:
        yield ((0,) * n,) * len(weight)
        return
    caps = tuple(a - b for a, b in zip(shape, shape[1:] + (0,)))
    for strip in _bounded_rows(weight[-1], caps):
        rest = tuple(a - s for a, s in zip(shape, strip))
        row = strip + (0,) * (n - len(strip))
        for inner in _strip_fillings(rest if rest[-1] else rest[:-1], weight[:-1], n):
            yield inner + (row,)


def tableau_rows(a: Matrix) -> tuple[Word, ...]:
    """The nonempty rows of the tableau with letter matrix a."""
    rows = (tuple(k for k, e in enumerate(col, 1) for _ in range(e)) for col in transpose(a))
    return tuple(row for row in rows if row)


@lru_cache(maxsize=1 << 16)
def _kostka_cached(shape: tuple[int, ...], weight: tuple[int, ...]) -> int:
    # the cells holding the last letter form a horizontal strip: peel it
    # off row by row (row i loses at most shape_i - shape_{i+1} cells), so
    # the recursion is one level per letter
    if len(shape) > len(weight):
        return 0
    if not shape:
        return 1
    caps = tuple(a - b for a, b in zip(shape, shape[1:] + (0,)))
    total = 0
    for strip in _bounded_rows(weight[-1], caps):
        rest = tuple(a - s for a, s in zip(shape, strip))
        # only the last row can empty, since the strip leaves shape_{i+1}
        total += _kostka_cached(rest if rest[-1] else rest[:-1], weight[:-1])
    return total


def kostka(mu: Sequence[int], lam: Sequence[int]) -> int:
    """Number of semistandard tableaux of shape mu and weight lam, counted
    by removing one horizontal strip per letter (no tableau is built)."""
    return _kostka_cached(_strip_shape(mu, lam), tuple(lam))


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
