import random
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


class FractionSolver:
    """Sparse Gauss-Jordan elimination in Fraction arithmetic on
    [basis columns | identity], written independently of the library's
    fraction-free routine: coords(v) is None outside the span."""

    def __init__(self, basis):
        nb = len(basis)
        keys = sorted({k for b in basis for k, c in b.items() if c}, key=repr)
        index = {k: i for i, k in enumerate(keys)}
        rows = [{nb + i: Fraction(1)} for i in range(len(keys))]
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
        self.nb = nb
        self.columns = {k: [] for k in keys}
        for i, row in enumerate(rows):
            for j, x in row.items():
                if j >= nb:
                    self.columns[keys[j - nb]].append((i, x))
        self.nrows = len(rows)

    def coords(self, v):
        out = [Fraction(0)] * self.nrows
        for k, c in v.items():
            if c == 0:
                continue
            if k not in self.columns:
                return None
            for i, x in self.columns[k]:
                out[i] += x * c
        if any(out[self.nb:]):
            return None
        return out[: self.nb]


def fraction_det(rows):
    """Determinant by Gaussian elimination in Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(len(m)):
        pivot = next((i for i in range(col, len(m)) if m[i][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def oracle_unimodular(basis_a, basis_b):
    if len(basis_a) != len(basis_b):
        return False
    try:
        solver = FractionSolver(basis_b)
    except ValueError:
        return False
    rows = [solver.coords(v) for v in basis_a]
    if any(c is None or any(x.denominator != 1 for x in c) for c in rows):
        return False
    return abs(fraction_det(rows)) == 1


def random_sparse(rng, keys, density=0.4):
    return {
        k: Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        for k in keys
        if rng.random() < density
    }


def combine(rng, vectors, integral=False):
    out = {}
    for v in vectors:
        c = Fraction(rng.randint(-3, 3), 1 if integral else rng.randint(1, 3))
        for k, x in v.items():
            out[k] = out.get(k, 0) + c * x
    return out


def test_kernel_matches_fraction_oracles():
    rng = random.Random(20261018)
    for trial in range(400):
        keys = [("k", i) for i in range(rng.randint(1, 7))] + ["x", (1, 2)][: rng.randint(0, 2)]
        basis = [random_sparse(rng, keys) for _ in range(rng.randint(0, len(keys)))]
        if basis and rng.random() < 0.25:
            basis.insert(rng.randrange(len(basis) + 1), combine(rng, basis))
        assert exact_rank(basis) == naive_rank(basis)
        try:
            expected = FractionSolver(basis)
        except ValueError:
            with pytest.raises(ValueError, match="dependent"):
                CoordinateSolver(basis)
            continue
        solver = CoordinateSolver(basis)
        targets = [combine(rng, basis), random_sparse(rng, keys), {**random_sparse(rng, keys), "outside": 1}]
        for v in targets:
            got = solver.coords(v)
            assert got == expected.coords(v)
            assert solver.in_span(v) == (got is not None)
            assert got is None or all(type(x) is Fraction for x in got)
        square = [[rng.randint(-4, 4) for _ in range(len(basis))] for _ in range(len(basis))]
        assert integer_det(square) == fraction_det(square)
        images = [combine(rng, basis, integral=rng.random() < 0.7) for _ in basis]
        if rng.random() < 0.5:
            # a permuted, sheared copy of the basis: unimodular by construction
            images = [dict(b) for b in rng.sample(basis, len(basis))]
            for i in range(1, len(images)):
                for k, x in images[0].items():
                    images[i][k] = images[i].get(k, 0) + x
        assert unimodular_change(images, basis) == oracle_unimodular(images, basis)


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
