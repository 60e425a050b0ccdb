from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schuralg.enveloping import UElement
from schuralg.exact_linalg import (
    CoordinateSolver,
    SparseCombination,
    exact_rank,
    integer_det,
    unimodular_change,
)


def naive_rank(vectors):
    """Plain fraction Gaussian elimination, written independently."""
    keys = sorted({k for v in vectors for k in v}, key=repr)
    rows = [[Fraction(v.get(k, 0)) for k in keys] for v in vectors]
    rank = 0
    col = 0
    while rank < len(rows) and col < len(keys):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                factor = rows[i][col] / rows[rank][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_exact_rank_hand():
    v1 = {"a": Fraction(1), "b": Fraction(2)}
    v2 = {"a": Fraction(2), "b": Fraction(4)}
    v3 = {"b": Fraction(1)}
    assert exact_rank([v1, v2]) == 1
    assert exact_rank([v1, v3]) == 2
    assert exact_rank([]) == 0
    assert exact_rank([{}]) == 0


def test_exact_rank_fractions():
    v1 = {"x": Fraction(1, 3), "y": Fraction(1, 7)}
    v2 = {"x": Fraction(2, 3), "y": Fraction(2, 7)}
    assert exact_rank([v1, v2]) == 1


@given(
    st.lists(
        st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
        min_size=1,
        max_size=5,
    )
)
@settings(max_examples=80, deadline=None)
def test_exact_rank_matches_naive(rows):
    vectors = [{j: Fraction(x) for j, x in enumerate(row)} for row in rows]
    assert exact_rank(vectors) == naive_rank(vectors)


def test_integer_det():
    assert integer_det([[2, 0], [0, 3]]) == 6
    assert integer_det([[1, 2], [3, 4]]) == -2
    assert integer_det([[1, 2], [2, 4]]) == 0
    assert integer_det([]) == 1


def test_integer_det_3x3():
    m = [[2, -1, 0], [1, 3, 1], [0, 5, 2]]
    # cofactor expansion by hand
    expected = 2 * (3 * 2 - 1 * 5) - (-1) * (1 * 2 - 1 * 0) + 0
    assert integer_det(m) == expected


def test_coordinate_solver_roundtrip():
    basis = [
        {"a": Fraction(1), "b": Fraction(1)},
        {"b": Fraction(2), "c": Fraction(1)},
        {"c": Fraction(-1)},
    ]
    solver = CoordinateSolver(basis)
    target = {
        "a": Fraction(3),
        "b": Fraction(7),
        "c": Fraction(1, 2),
    }
    coords = solver.coords(target)
    assert coords is not None
    rebuilt = {}
    for c, vec in zip(coords, basis):
        for k, x in vec.items():
            rebuilt[k] = rebuilt.get(k, Fraction(0)) + c * x
    rebuilt = {k: v for k, v in rebuilt.items() if v != 0}
    assert rebuilt == target


def test_coordinate_solver_outside_span():
    solver = CoordinateSolver([{"a": Fraction(1)}])
    assert solver.coords({"b": Fraction(1)}) is None
    assert solver.coords({"a": Fraction(2), "b": Fraction(1)}) is None
    assert not solver.in_span({"b": Fraction(1)})
    assert solver.in_span({"a": Fraction(5)})


def test_coordinate_solver_rejects_dependent():
    with pytest.raises(ValueError):
        CoordinateSolver([{"a": Fraction(1)}, {"a": Fraction(2)}])


def test_coordinate_solver_zero_vector():
    solver = CoordinateSolver([{"a": Fraction(1)}])
    assert solver.coords({}) == [Fraction(0)]


def test_unimodular_change():
    e1 = {"a": Fraction(1)}
    e2 = {"b": Fraction(1)}
    assert unimodular_change([e1, e2], [e2, e1])
    sum12 = {"a": Fraction(1), "b": Fraction(1)}
    assert unimodular_change([e1, sum12], [e1, e2])
    doubled = {"b": Fraction(2)}
    assert not unimodular_change([e1, doubled], [e1, e2])
    # half-integer coordinates are not a lattice change
    half = {"a": Fraction(1, 2)}
    assert not unimodular_change([half, e2], [e1, e2])


def test_unimodular_change_size_mismatch():
    e1 = {"a": Fraction(1)}
    e2 = {"b": Fraction(1)}
    assert not unimodular_change([e1], [e1, e2])


def test_unimodular_change_empty():
    assert unimodular_change([], [])


@given(
    st.lists(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
@settings(max_examples=60, deadline=None)
def test_unimodular_iff_det(one_matrix):
    base = [{i: Fraction(1)} for i in range(3)]
    cand = [
        {j: Fraction(x) for j, x in enumerate(row) if x} for row in one_matrix
    ]
    expected = naive_rank(cand) == 3 and abs(integer_det(one_matrix)) == 1
    assert unimodular_change(cand, base) == expected


def test_sparse_combination_cleans_terms_once():
    x = UElement(1, {((), (1,), ()): 2, ((), (2,), ()): "0", ((), (3,), ()): "1/2"})
    assert x.terms == {((), (1,), ()): Fraction(2), ((), (3,), ()): Fraction(1, 2)}
    assert all(type(c) is Fraction for c in x.terms.values())
    assert not x.integral()
    assert (2 * x).integral()


def test_sparse_combination_linear_structure():
    h = UElement(1, {((), (1,), ()): 1})
    assert (h + h) == h.scale(2) == 2 * h
    assert (h - h).is_zero
    assert (h - h).n == 1
    assert h.scale(0) == UElement(1)
    assert h != UElement(2) and h != h.terms
    with pytest.raises(ValueError):
        h + UElement(2)
    with pytest.raises(TypeError):
        hash(h)
    assert isinstance(h, SparseCombination)
