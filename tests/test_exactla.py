import itertools
import random
import re
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import schuralg
from schuralg import codet, enveloping, exact_linalg, schur, udot, verify
from schuralg.enveloping import UElement
from schuralg.exact_linalg import (
    CoordinateSolver,
    SparseCombination,
    echelon_add,
    exact_rank,
    integer_det,
    integer_rank,
    unimodular_change,
)
from schuralg.schur import SchurElement, TensorEndo
from schuralg.udot import UdotElement


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


def test_integer_rank_matches_exact_rank():
    # seeded integer rows: a few random rows, integer combinations of them
    # (so most sets are rank-deficient), empty rows and explicit zeros
    rng = random.Random(15)
    for _ in range(300):
        ncols = rng.randint(1, 6)
        base = [{j: rng.randint(-4, 4) for j in range(ncols) if rng.random() < 0.6} for _ in range(rng.randint(0, 4))]
        rows = [dict(v) for v in base]
        for _ in range(rng.randint(0, 4)):
            combo = dict.fromkeys(range(ncols), 0)
            for v in base:
                c = rng.randint(-2, 2)
                for k, x in v.items():
                    combo[k] += c * x
            rows.append(combo)
        rows += [{}] * rng.randint(0, 2)
        rng.shuffle(rows)
        rank = integer_rank(rows)
        assert rank == exact_rank(rows) == naive_rank(rows)
        assert rank <= len(base)
    assert integer_rank([]) == 0
    assert integer_rank([{"a": 0}, {}]) == 0


def test_echelon_rank_matches_bareiss_on_dense_matrices():
    # seeded dense matrices up to 30 x 30 with entries in [-9, 9]: random
    # ones, and rank-deficient ones whose extra rows are sums, differences,
    # negations or copies of rows with entries in [-4, 4]; each is fed to
    # the echelon row by row and to the dense Bareiss elimination
    rng = random.Random(24)
    for trial in range(120):
        nrows, ncols = rng.randint(1, 30), rng.randint(1, 30)
        if trial % 2:
            base = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(rng.randint(0, nrows))]
            rows = [list(v) for v in base]
            while len(rows) < nrows:
                a, b = (rng.choice(base) if base else [0] * ncols for _ in range(2))
                sign = rng.choice((1, -1, 0))
                rows.append([x + sign * y for x, y in zip(a, b)])
            rng.shuffle(rows)
        else:
            base = rows = [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
        assert all(abs(x) <= 9 for row in rows for x in row)
        echelon = {}
        grew = [echelon_add(echelon, dict(enumerate(row))) for row in rows]
        rank, _ = exact_linalg._eliminate([list(row) for row in rows], ncols)
        assert len(echelon) == sum(grew) == rank == integer_rank([dict(enumerate(row)) for row in rows])
        assert rank <= min(len(base), ncols)
        # primitive rows, each free of the pivots stored before it
        pivots = list(echelon)
        for i, (pivot, row) in enumerate(echelon.items()):
            assert row[pivot] and gcd(*row.values()) == 1 and 0 not in row.values()
            assert not set(pivots[:i]) & row.keys()


def test_echelon_keeps_its_input():
    v = {"a": 2, "b": 4, "c": 0}
    echelon = {}
    assert echelon_add(echelon, v) is True
    assert echelon == {"a": {"a": 1, "b": 2}}
    assert echelon_add(echelon, {"a": -3, "b": -6}) is False
    assert echelon_add(echelon, {"a": 0}) is False
    assert echelon_add(echelon, {"b": 3, "a": 6}) is True
    assert v == {"a": 2, "b": 4, "c": 0}
    assert len(echelon) == 2


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


def test_coordinate_solver_refuses_basis_entries_outside_the_keys():
    with pytest.raises(ValueError, match="outside the given keys"):
        CoordinateSolver([{"a": Fraction(1), "b": Fraction(1)}], keys=["a"])
    # the rows follow the given keys, so den is the signed determinant
    basis = [{"a": Fraction(1)}, {"b": Fraction(1)}]
    assert CoordinateSolver(basis, keys=["a", "b"]).den == 1
    assert CoordinateSolver(basis, keys=["b", "a"]).den == -1


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


# Each element type with a handful of valid keys: S(2,2) margin matrices,
# the diagonal gl_2 block at (1,1), U(gl_2) monomials, and tensor-space
# entries of degree 2 over two letters.
WORDS = list(itertools.product((1, 2), repeat=2))
SPACES = {
    "schur": (
        lambda terms: SchurElement(2, 2, terms),
        [((a, b), (c, 2 - a - b - c)) for a, b, c in itertools.product(range(3), repeat=3) if a + b + c <= 2],
    ),
    "udot": (lambda terms: UdotElement(2, (1, 1), (1, 1), terms), [(a, a) for a in range(6)]),
    "u": (
        lambda terms: UElement(2, terms),
        [((f,), (h, 1 - h), (e,)) for f, h, e in itertools.product(range(3), range(2), range(2))],
    ),
    "endo": (lambda terms: TensorEndo(2, 2, terms), list(itertools.product(WORDS, WORDS))),
}


def _draw_terms(rng, keys):
    """Coefficients in [-4, 4] over small denominators, zeros included,
    each given as an int (when integral), a Fraction or a string."""
    terms = {}
    for k in rng.sample(keys, rng.randint(0, min(len(keys), 6))):
        q = Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3, 4, 6)))
        form = rng.randrange(3)
        terms[k] = q.numerator if form == 0 and q.denominator == 1 else str(q) if form == 2 else q
    return terms


def _oracle(terms):
    return {k: Fraction(c) for k, c in terms.items() if Fraction(c)}


def _combined(a, b, sign):
    out = dict(a)
    for k, c in b.items():
        out[k] = out.get(k, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _assert_reduced(x):
    assert type(x.den) is int and x.den > 0
    assert all(type(c) is int and c for c in x.num.values())
    assert gcd(x.den, *x.num.values()) == 1


@pytest.mark.parametrize("space", sorted(SPACES))
def test_coefficients_agree_with_a_fraction_oracle(space):
    make, keys = SPACES[space]
    rng = random.Random(2024)
    for _ in range(150):
        a, b = _draw_terms(rng, keys), _draw_terms(rng, keys)
        c = rng.choice((rng.randint(-3, 3), Fraction(rng.randint(-3, 3), rng.randint(1, 6))))
        x, y = make(a), make(b)
        fa, fb = _oracle(a), _oracle(b)
        cases = [
            (x, fa),
            (x + y, _combined(fa, fb, 1)),
            (x - y, _combined(fa, fb, -1)),
            (x.scale(c), {k: v * c for k, v in fa.items() if c}),
            (c * y, {k: v * c for k, v in fb.items() if c}),
        ]
        for z, expected in cases:
            _assert_reduced(z)
            assert z.terms == expected
            assert z.space == x.space
            assert z.integral() == all(v.denominator == 1 for v in expected.values())
            assert z.is_zero == (not expected)
            assert z == make(expected) == make({k: str(v) for k, v in expected.items()})
        assert (x == y) == (fa == fb)
        assert x - x == make({})


def test_clear_denominators_lives_in_exact_linalg_only():
    # elements carry their own numerators and denominator, so no module
    # of the algebra clears denominators itself
    offenders = [
        path.name
        for path in sorted(Path(schuralg.__file__).parent.glob("*.py"))
        if path.name != "exact_linalg.py" and "_clear_denominators" in path.read_text()
    ]
    assert offenders == []


@pytest.mark.parametrize("space", sorted(SPACES))
def test_elements_read_as_their_fraction_view(space):
    # an element given to the rank, the solver or the unimodular check is
    # read from its numerators and denominator, with the same results as
    # its Fraction view
    from schuralg.exact_linalg import _clear_denominators

    make, keys = SPACES[space]
    rng = random.Random(17)
    for _ in range(60):
        elements = [make(_draw_terms(rng, keys)) for _ in range(rng.randint(0, 4))]
        views = [x.terms for x in elements]
        assert [_clear_denominators(x) for x in elements] == [_clear_denominators(v) for v in views]
        assert exact_rank(elements) == exact_rank(views)
        assert unimodular_change(elements, elements[::-1]) == unimodular_change(views, views[::-1])
        try:
            expected = CoordinateSolver(views)
        except ValueError:
            with pytest.raises(ValueError, match="dependent"):
                CoordinateSolver(elements)
            continue
        solver = CoordinateSolver(elements)
        assert [solver.coords(x) for x in elements] == [expected.coords(v) for v in views]


def test_library_builds_its_elements_without_the_checked_constructors(monkeypatch):
    # the constructors are for input from outside: every element the
    # library computes is made by SparseCombination._build
    b = udot.udot_basis_upto((2, 1, 0), (1, 1, 1), 3)
    expected = (
        [x.num for x in b],
        udot.to_schur(b[-1], 3),
        enveloping.pbw_image(((1, 1), (0, 1)), "ef"),
        schur.identity_element(3, 2),
        schur.hom_basis((2, 1), (1, 2)),
    )

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"checked {type(self).__name__} constructor")

    for cls in (SchurElement, UdotElement, UElement):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert verify.run_suite("relations", n_max=3, window=1).passed
    assert verify.run_suite("zbas", n_max=3, r_max=3).passed
    assert verify.run_suite("cellular").passed
    assert verify.run_suite("psi", n_max=3, r_max=3).passed
    b = udot.udot_basis_upto((2, 1, 0), (1, 1, 1), 3)
    assert expected == (
        [x.num for x in b],
        udot.to_schur(b[-1], 3),
        enveloping.pbw_image(((1, 1), (0, 1)), "ef"),
        schur.identity_element(3, 2),
        schur.hom_basis((2, 1), (1, 2)),
    )
    # the rows (1, 1), (2) and (1, 2), (2) of shape (2, 1)
    assert codet.codeterminant(((2, 0), (0, 1)), ((1, 0), (1, 1))).num == {((1, 1), (0, 1)): 1}


def _refusals():
    u = udot.udot_element((1, 0), (0, 1), (1, 0))
    return {
        "identity_element(0, 1)": (lambda: schur.identity_element(0, 1), "need at least one part"),
        "identity_element(1, -1)": (lambda: schur.identity_element(1, -1), "degree must be nonnegative"),
        "hom_basis((), ())": (lambda: schur.hom_basis((), ()), "need n >= 1"),
        "element_from_endo(n=0)": (lambda: schur.element_from_endo(TensorEndo(0, 0, {((), ()): 1})), "need n >= 1"),
        "divided_generators(i=0)": (lambda: udot.divided_generators(0, 1, (1, 0), "e"), "simple root index"),
        "divided_generators(i=n)": (lambda: udot.divided_generators(2, 1, (1, 0), "e"), "simple root index"),
        "divided_generators(a=-1)": (lambda: udot.divided_generators(1, -1, (1, 0), "f"), "need a >= 0"),
        "divided_generators(side)": (lambda: udot.divided_generators(1, 1, (1, 0), "h"), "side must be"),
        "udot_basis_upto((), (), 0)": (lambda: udot.udot_basis_upto((), (), 0), "need n >= 1"),
        "to_schur(r=-1)": (lambda: udot.to_schur(u, -1), "need n >= 1 and r >= 0"),
        "matrix_unit(2, 0, 1)": (lambda: enveloping.matrix_unit(2, 0, 1), "out of range"),
        "matrix_unit(2, 1, 3)": (lambda: enveloping.matrix_unit(2, 1, 3), "out of range"),
        "u_one(0)": (lambda: enveloping.u_one(0), "need n >= 1"),
        "divided_monomial(0)": (lambda: enveloping.divided_monomial(0, ()), "need n >= 1"),
        "codeterminant((), ())": (lambda: codet.codeterminant((), ()), "need n >= 1"),
    }


@pytest.mark.parametrize("case", sorted(_refusals()))
def test_entry_points_refuse_outside_input_themselves(case):
    # each of these once refused through a checked constructor
    call, message = _refusals()[case]
    with pytest.raises(ValueError, match=re.escape(message)):
        call()
