import itertools
import time
from collections import Counter
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from schuralg.errors import TENSOR_SPACE_LIMIT, ResourceLimitError
from schuralg.weights import (
    Tableau,
    all_words,
    canonical_pair,
    col_sums,
    composition_count,
    compositions,
    dominance_leq,
    dominant_shapes,
    dominance_lt,
    is_composition,
    is_dominant,
    kostka,
    margin_matrices,
    orbit_size,
    pair_to_matrix,
    perm_compose,
    perm_inverse,
    permute_weight,
    permute_word,
    row_sums,
    sort_dominant,
    ssyt,
    tableau_from_word,
    transpose,
    weight_of,
    words_of_weight,
)


def fill_ssyt(shape, weight):
    """Semistandard tableaux filled cell by cell in row-reading order,
    written independently of the strip recursion of ssyt and kostka."""
    rows = [l for l in shape if l > 0]
    n = len(weight)
    if len(rows) > n:
        return []
    cells = [(r, c) for r, l in enumerate(rows) for c in range(l)]
    grid = [[0] * l for l in rows]
    remaining = list(weight)
    out = []

    def fill(idx):
        if idx == len(cells):
            out.append(Tableau(tuple(tuple(row) for row in grid)))
            return
        r, c = cells[idx]
        lo = grid[r][c - 1] if c > 0 else 1
        if r > 0:
            lo = max(lo, grid[r - 1][c] + 1)
        for v in range(lo, n + 1):
            if remaining[v - 1]:
                grid[r][c] = v
                remaining[v - 1] -= 1
                fill(idx + 1)
                remaining[v - 1] += 1
        grid[r][c] = 0

    fill(0)
    return out


@st.composite
def small_weight(draw, max_n=4, max_r=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    r = draw(st.integers(min_value=0, max_value=max_r))
    cuts = sorted(draw(st.lists(st.integers(min_value=0, max_value=r), min_size=n - 1, max_size=n - 1)))
    parts = []
    prev = 0
    for c in cuts + [r]:
        parts.append(c - prev)
        prev = c
    return tuple(parts)


def test_compositions_counts():
    for n in range(1, 5):
        for r in range(0, 6):
            out = compositions(n, r)
            assert len(out) == comb(n + r - 1, r)
            assert len(set(out)) == len(out)
            assert all(len(w) == n and sum(w) == r for w in out)


def test_compositions_refuses_over_budget():
    # C(59, 29) compositions: refused from the closed-form count alone
    with pytest.raises(ResourceLimitError, match="compositions"):
        compositions(30, 30)
    # one past the budget
    assert composition_count(2, TENSOR_SPACE_LIMIT) == TENSOR_SPACE_LIMIT + 1
    with pytest.raises(ResourceLimitError):
        compositions(2, TENSOR_SPACE_LIMIT)


def test_compositions_order_is_reverse_lex():
    assert compositions(2, 2) == [(2, 0), (1, 1), (0, 2)]
    out = compositions(3, 3)
    assert out == sorted(out, reverse=True)
    assert out[0] == (3, 0, 0)
    assert out[-1] == (0, 0, 3)


def test_composition_count_matches():
    assert composition_count(3, 4) == len(compositions(3, 4))


def test_dominant_shapes_match_filtered_compositions():
    for n in range(1, 6):
        for r in range(0, 9):
            assert dominant_shapes(n, r) == [w for w in compositions(n, r) if is_dominant(w)]
    with pytest.raises(ValueError):
        dominant_shapes(0, 2)
    with pytest.raises(ValueError):
        dominant_shapes(2, -1)


def test_words_of_weight():
    words = words_of_weight((1, 1))
    assert words == [(1, 2), (2, 1)]
    assert words_of_weight((0, 0)) == [()]
    assert words_of_weight((2, 1)) == [(1, 1, 2), (1, 2, 1), (2, 1, 1)]


@given(small_weight())
@settings(max_examples=60, deadline=None)
def test_words_of_weight_complete(lam):
    n = len(lam)
    found = set(words_of_weight(lam))
    brute = {w for w in all_words(n, sum(lam)) if weight_of(w, n) == lam}
    assert found == brute


def test_weight_of():
    assert weight_of((1, 3, 1), 3) == (2, 0, 1)
    assert weight_of((), 2) == (0, 0)


def test_is_composition():
    assert is_composition((2, 0, 1))
    assert is_composition(())
    assert not is_composition((2, -1))


def test_margin_matrices_brute_force():
    for lam, mu in [((2, 1), (1, 2)), ((1, 1, 1), (2, 1, 0)), ((3, 0), (1, 2))]:
        n = len(lam)
        r = sum(lam)
        found = set(margin_matrices(lam, mu))
        brute = set()
        for flat in itertools.product(range(r + 1), repeat=n * n):
            m = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
            if row_sums(m) == lam and col_sums(m) == mu:
                brute.add(m)
        assert found == brute


def test_margin_matrices_sorted():
    out = margin_matrices((1, 1), (1, 1))
    assert out == [((0, 1), (1, 0)), ((1, 0), (0, 1))]
    assert out == sorted(out)


def test_margin_matrices_validates():
    with pytest.raises(ValueError):
        margin_matrices((1, 0), (2, 0))
    with pytest.raises(ValueError):
        margin_matrices((1, 0), (1, 0, 0))


def test_pair_to_matrix():
    a = pair_to_matrix((1, 2, 1), (2, 2, 1), 2)
    assert a == ((1, 1), (0, 1))
    assert row_sums(a) == (2, 1)
    assert col_sums(a) == (1, 2)


def test_pair_to_matrix_orbit_invariant():
    a = pair_to_matrix((1, 2), (2, 1), 2)
    assert a == pair_to_matrix((2, 1), (1, 2), 2)


def test_canonical_pair_roundtrip():
    for lam in compositions(3, 3):
        for mu in compositions(3, 3):
            for a in margin_matrices(lam, mu):
                i, j = canonical_pair(a)
                assert pair_to_matrix(i, j, 3) == a


def test_orbit_size():
    a = ((1, 1), (0, 1))
    assert orbit_size(a) == 6
    count = 0
    for i in words_of_weight(row_sums(a)):
        for j in words_of_weight(col_sums(a)):
            if pair_to_matrix(i, j, 2) == a:
                count += 1
    assert count == orbit_size(a)


def test_tableau_validation():
    t = Tableau(((1, 1), (2,)))
    assert t.shape == (2, 1)
    assert t.row_word == (1, 1, 2)
    with pytest.raises(ValueError):
        Tableau(((1,), (2, 2)))
    with pytest.raises(ValueError):
        Tableau(((0, 1),))


def test_tableau_semistandard():
    assert Tableau(((1, 1), (2,))).semistandard
    assert not Tableau(((1, 1), (1,))).semistandard
    assert not Tableau(((2, 1),)).semistandard


def test_tableau_from_word_roundtrip():
    t = Tableau(((1, 2), (2,)))
    assert tableau_from_word(t.shape, t.row_word) == t


def test_ssyt_hand_values():
    out = ssyt((2, 1), (1, 1, 1))
    assert len(out) == 2
    assert all(t.semistandard for t in out)
    words = [t.row_word for t in out]
    assert words == sorted(words)
    assert ssyt((1, 1, 1), (3, 0, 0)) == []


def test_kostka_values():
    assert kostka((2, 1), (1, 1, 1)) == 2
    assert kostka((2, 1), (2, 1, 0)) == 1
    assert kostka((2, 1), (1, 2, 0)) == 1
    assert kostka((1, 1, 1), (1, 1, 1)) == 1
    assert kostka((3, 0), (1, 2)) == 1
    assert kostka((2, 2), (1, 1, 1, 1)) == 2


def test_kostka_counts_match_tableaux():
    # 3,485 pairs (dominant shape, composition) with n <= 4, r <= 7
    pairs = [
        (shape, lam)
        for n in range(1, 5)
        for r in range(8)
        for shape in dominant_shapes(n, r)
        for lam in compositions(n, r)
    ]
    assert len(pairs) == 3485
    for shape, lam in pairs:
        tableaux = ssyt(shape, lam)
        assert tableaux == fill_ssyt(shape, lam), (shape, lam)
        assert kostka(shape, lam) == len(tableaux), (shape, lam)


def test_ssyt_edge_shapes():
    empty = Tableau(())
    assert ssyt((), ()) == ssyt((0, 0), (0, 0, 0)) == [empty]
    # trailing zeros of the shape and of the weight
    assert ssyt((2, 1, 0), (1, 1, 1, 0)) == ssyt((2, 1), (1, 1, 1, 0)) == fill_ssyt((2, 1), (1, 1, 1, 0))
    assert [t.rows for t in ssyt((2, 0), (0, 2))] == [((2, 2),)]
    # more rows than letters, and rows the weight cannot fill
    assert ssyt((1, 1, 1), (2, 1)) == []
    assert ssyt((2, 2), (0, 4)) == []


def test_ssyt_builds_no_dead_fillings():
    start = time.perf_counter()
    out = ssyt((19, 1), (1,) * 20)
    assert time.perf_counter() - start < 0.1
    assert len(out) == 19
    assert [t.rows[1] for t in out] == [(k,) for k in range(20, 1, -1)]


def test_kostka_validates():
    with pytest.raises(ValueError, match="partition"):
        kostka((1, 2), (2, 1))
    with pytest.raises(ValueError, match="composition"):
        kostka((2, 1), (2, 2, -1))
    with pytest.raises(ValueError, match="degree"):
        kostka((2, 1), (2, 2))


def test_kostka_deep_shapes():
    # one letter per level: a 2000-box shape would overflow a per-box recursion
    assert kostka((1000, 1000), (1000, 1000)) == 1
    assert kostka((1500, 500), (1000, 1000)) == 1
    assert kostka((3, 1), (1, 1, 1, 1)) == 3


def test_kostka_permutation_symmetry():
    # content can be permuted freely without changing the count
    for perm in itertools.permutations((2, 1, 0)):
        assert kostka((2, 1), perm) == 1
    for perm in itertools.permutations((2, 1, 1)):
        assert kostka((2, 1, 1), perm) == kostka((2, 1, 1), (2, 1, 1))


def test_kostka_triangularity():
    # zero unless the shape dominates the sorted content
    for shape in [(2, 1), (3, 0), (1, 1, 1)]:
        shape = tuple(x for x in shape)
        for lam in compositions(len(shape), sum(shape)):
            k = kostka(shape, lam)
            if not dominance_leq(sort_dominant(lam), shape):
                assert k == 0
    assert kostka((1, 1, 1), (2, 1, 0)) == 0


def test_dominance():
    assert dominance_leq((1, 1, 1), (2, 1, 0))
    assert dominance_leq((2, 1), (2, 1))
    assert not dominance_leq((2, 1, 0), (1, 1, 1))
    assert dominance_lt((2, 2), (3, 1))
    assert not dominance_lt((2, 2), (2, 2))
    # incomparable pair
    assert not dominance_leq((3, 1, 1, 1), (2, 2, 2, 0))
    assert not dominance_leq((2, 2, 2, 0), (3, 1, 1, 1))


def test_sort_dominant():
    assert sort_dominant((1, 3, 2)) == (3, 2, 1)
    assert is_dominant((3, 2, 1))
    assert not is_dominant((1, 3, 2))


def test_matrix_helpers():
    a = ((1, 2), (0, 1))
    assert transpose(a) == ((1, 0), (2, 1))
    assert row_sums(a) == (3, 1)
    assert col_sums(a) == (1, 3)


@given(st.permutations(list(range(1, 5))))
@settings(max_examples=30, deadline=None)
def test_perm_inverse(w):
    w = tuple(w)
    e = tuple(range(1, 5))
    assert perm_compose(w, perm_inverse(w)) == e
    assert perm_compose(perm_inverse(w), w) == e


def test_permute_weight_and_word():
    w = (2, 3, 1)
    lam = (5, 0, 7)
    out = permute_weight(lam, w)
    assert out == (7, 5, 0)
    # letters move with the weight
    word = (1, 1, 3)
    moved = permute_word(word, w)
    assert weight_of(moved, 3) == permute_weight(weight_of(word, 3), w)


@given(small_weight(max_n=3, max_r=4))
@settings(max_examples=40, deadline=None)
def test_permute_weight_counts(lam):
    seen = Counter()
    for w in itertools.permutations(range(1, len(lam) + 1)):
        seen[permute_weight(lam, w)] += 1
    assert sort_dominant(lam) in seen
