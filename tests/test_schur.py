import importlib
import itertools
import operator
import pkgutil
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import schuralg
from schuralg import codet, enveloping, schur, udot, weights
from schuralg.codet import cell_datum_check, codeterminant
from schuralg.enveloping import (
    divided_monomial,
    minus_weight,
    pbw_image,
    plus_weight,
)
from schuralg.errors import ResourceLimitError
from schuralg.schur import (
    SchurElement,
    element_from_endo,
    endo_of,
    hom_basis,
    idempotent,
    identity_element,
    involution,
    orbit_endo,
    perm_matrix,
    schur_multiply,
    symmetric_group_iso,
    weight_components,
    weyl_relabel,
)
from schuralg.weights import (
    canonical_pair,
    col_sums,
    compositions,
    margin_matrices,
    orbit_size,
    pair_to_matrix,
    perm_compose,
    permute_weight,
    row_sums,
    transpose,
    weight_of,
    weight_word,
    words_of_weight,
)
from schuralg.udot import UdotElement, _block_patterns, _lift, pattern_matrix, to_schur, udot_basis_upto
from schuralg.verify import run_suite


def counting_product_coeff(a, b, c):
    """Coefficient of the orbit element at c in the product of the orbit
    elements at a and b, by direct pair counting."""
    n = len(c)
    i0, k0 = canonical_pair(c)
    count = 0
    for j in words_of_weight(col_sums(a)):
        if pair_to_matrix(i0, j, n) == a and pair_to_matrix(j, k0, n) == b:
            count += 1
    return count


def xi(a):
    n = len(a)
    r = sum(sum(row) for row in a)
    return SchurElement(n, r, {tuple(map(tuple, a)): Fraction(1)})


def test_orbit_endo_hand():
    # the transposition inside S(2,2): swaps the two mixed words
    t = orbit_endo(((0, 1), (1, 0)))
    assert t.entries[((2, 1), (1, 2))] == 1
    assert t.entries[((1, 2), (2, 1))] == 1
    assert len(t.entries) == 2


def test_orbit_endo_zero_off_weight():
    e = xi(((1, 0), (0, 1)))
    # acts as identity exactly on words of weight (1,1)
    assert act(e, {(1, 2): Fraction(1)}) == {(1, 2): Fraction(1)}
    assert act(e, {(1, 1): Fraction(1)}) == {}


def test_element_from_endo_roundtrip():
    for lam in compositions(2, 2):
        for mu in compositions(2, 2):
            for a in margin_matrices(lam, mu):
                x = xi(a)
                assert element_from_endo(endo_of(x)) == x


def test_element_from_endo_rejects_non_equivariant():
    from schuralg.schur import TensorEndo

    bad = TensorEndo(2, 2, {((1, 2), (1, 2)): Fraction(1)})
    with pytest.raises(ValueError):
        element_from_endo(bad)
    # the orbit element of ((1,1),(1,0)) sends e_(1,1,2) to e_(1,2,1) +
    # e_(2,1,1): one word missing, or unequal coefficients, is no element
    k = (1, 1, 2)
    for entries in ({((1, 2, 1), k): 1}, {((1, 2, 1), k): 1, ((2, 1, 1), k): 2}):
        with pytest.raises(ValueError):
            element_from_endo(TensorEndo(2, 3, entries))


def test_tensor_endo_rejects_keys_outside_tensor_space():
    from schuralg.schur import TensorEndo

    for key in (
        ((1, 2, 3), (1, 1, 1)),  # length 3 and a letter 3 in degree 2 over two letters
        ((1, 3), (1, 1)),  # a letter outside 1..2
        ((0, 1), (1, 1)),
        ((1, 2, 1), (1, 2)),  # words of unequal length
        ((1, 2),),  # not a pair of words
        ((1, 2), (1, 2), (2, 1)),
    ):
        with pytest.raises(ValueError, match="not a pair of words of length 2 over 1..2"):
            TensorEndo(2, 2, {key: 1})
    assert TensorEndo(2, 2, {((1, 2), (2, 1)): 1}).entries == {((1, 2), (2, 1)): 1}
    # the internal path of orbit_endo and endo_of builds its entries unchecked
    a = ((1, 1), (0, 1))
    assert element_from_endo(endo_of(SchurElement(2, 3, {a: 2}))) == SchurElement(2, 3, {a: 2})


def test_multiplication_matches_pair_counting():
    n, r = 3, 3
    weights = compositions(n, r)
    pairs = [
        (a, b)
        for lam in weights
        for mu in weights
        for nu in weights
        for a in margin_matrices(lam, mu)
        for b in margin_matrices(mu, nu)
    ]
    # a deterministic thinning: every 7th pair, plus all of S(2,2)
    for a, b in pairs[::7]:
        prod = schur_multiply(xi(a), xi(b))
        for c in margin_matrices(row_sums(a), col_sums(b)):
            assert prod.terms.get(c, Fraction(0)) == counting_product_coeff(a, b, c)


def test_multiplication_pair_counting_full_s22():
    weights = compositions(2, 2)
    mats = [
        a
        for lam in weights
        for mu in weights
        for a in margin_matrices(lam, mu)
    ]
    for a in mats:
        for b in mats:
            prod = schur_multiply(xi(a), xi(b))
            if col_sums(a) != row_sums(b):
                assert prod.is_zero
                continue
            expected = {}
            for c in margin_matrices(row_sums(a), col_sums(b)):
                k = counting_product_coeff(a, b, c)
                if k:
                    expected[c] = Fraction(k)
            assert prod.terms == expected


def test_s22_table_frozen():
    # the five basis elements of S(2,2) in block order, multiplied pairwise
    t = xi(((0, 1), (1, 0)))
    assert (t * t).terms == {((1, 0), (0, 1)): Fraction(1)}
    e20_11 = xi(((1, 1), (0, 0)))
    e11_20 = xi(((1, 0), (1, 0)))
    prod = e20_11 * e11_20
    assert prod.terms == {((2, 0), (0, 0)): Fraction(2)}
    rev = e11_20 * e20_11
    assert rev.terms == {
        ((1, 0), (0, 1)): Fraction(1),
        ((0, 1), (1, 0)): Fraction(1),
    }


def test_identity_and_idempotents():
    one = identity_element(2, 2)
    assert one * one == one
    parts = [idempotent(lam) for lam in compositions(2, 2)]
    total = parts[0]
    for p in parts[1:]:
        total = total + p
    assert total == one
    for p in parts:
        assert p * p == p
    assert (parts[0] * parts[1]).is_zero


def test_block_truncation():
    lam, mu = (2, 0), (1, 1)
    x = identity_element(2, 2)
    block = idempotent(lam) * x * idempotent(mu)
    assert block.is_zero
    y = xi(((1, 1), (0, 0)))
    assert idempotent(lam) * y * idempotent(mu) == y


def test_hom_basis_indexing():
    lam, mu = (2, 1), (1, 2)
    basis = hom_basis(lam, mu)
    assert len(basis) == len(margin_matrices(lam, mu))
    for x, a in zip(basis, margin_matrices(lam, mu)):
        assert x.terms == {a: Fraction(1)}


def test_involution():
    a = ((1, 1), (0, 1))
    assert involution(xi(a)).terms == {transpose(a): Fraction(1)}
    x = xi(((1, 1), (0, 0)))
    y = xi(((1, 0), (1, 0)))
    assert involution(x * y) == involution(y) * involution(x)
    assert involution(involution(x)) == x


def test_involution_fixes_idempotents():
    for lam in compositions(3, 3):
        assert involution(idempotent(lam)) == idempotent(lam)


def test_weyl_relabel():
    w = (2, 1)
    for lam in compositions(2, 2):
        assert weyl_relabel(idempotent(lam), w) == idempotent(permute_weight(lam, w))
    x = xi(((1, 1), (0, 0)))
    y = xi(((1, 0), (1, 0)))
    assert weyl_relabel(x * y, w) == weyl_relabel(x, w) * weyl_relabel(y, w)


def test_weyl_relabel_margins():
    w = (3, 1, 2)
    a = ((1, 0, 0), (1, 0, 1), (0, 0, 0))
    out = weyl_relabel(xi(a), w)
    (b,) = out.terms
    assert row_sums(b) == permute_weight(row_sums(a), w)
    assert col_sums(b) == permute_weight(col_sums(a), w)


def test_perm_matrix():
    assert perm_matrix((2, 1)) == ((0, 1), (1, 0))
    assert perm_matrix((1, 2, 3)) == ((1, 0, 0), (0, 1, 0), (0, 0, 1))


@pytest.mark.parametrize("r", [1, 2, 3])
def test_symmetric_group_embedding(r):
    table = symmetric_group_iso(r)
    assert len(table.permutations) == len(set(table.permutations))
    for p in table.permutations:
        for q in table.permutations:
            lhs = table.to_element(p) * table.to_element(q)
            assert lhs == table.to_element(perm_compose(p, q))


def test_symmetric_group_roundtrip():
    table = symmetric_group_iso(3)
    for p in table.permutations:
        (a,) = table.to_element(p).terms
        assert table.from_matrix(a) == p


def test_symmetric_group_algebra_element():
    table = symmetric_group_iso(2)
    e = tuple([1, 2])
    t = tuple([2, 1])
    x = table.group_algebra_element({e: Fraction(1), t: Fraction(1)})
    # the symmetrizer squares to twice itself
    assert x * x == x.scale(2)


def test_symmetric_group_iso_guards():
    with pytest.raises(ValueError):
        symmetric_group_iso(0)
    with pytest.raises(ResourceLimitError, match="bounded"):
        symmetric_group_iso(5)
    with pytest.raises(ResourceLimitError):
        symmetric_group_iso(100)


def test_weight_components():
    x = xi(((1, 1), (0, 0))) + xi(((1, 0), (0, 1)))
    comps = weight_components(x)
    assert set(comps) == {((2, 0), (1, 1)), ((1, 1), (1, 1))}
    total = None
    for part in comps.values():
        total = part if total is None else total + part
    assert total == x


def test_schur_element_json_roundtrip():
    x = xi(((1, 1), (0, 0))).scale(Fraction(3, 2)) + xi(((1, 0), (0, 1)))
    assert SchurElement.from_json(x.to_json()) == x


@st.composite
def schur_elements(draw, n=2, r=2):
    weights = compositions(n, r)
    mats = [
        a
        for lam in weights
        for mu in weights
        for a in margin_matrices(lam, mu)
    ]
    picks = draw(st.lists(st.sampled_from(mats), min_size=0, max_size=3))
    coeffs = draw(
        st.lists(st.integers(min_value=-4, max_value=4), min_size=len(picks), max_size=len(picks))
    )
    terms = {}
    for a, c in zip(picks, coeffs):
        terms[a] = terms.get(a, Fraction(0)) + c
    return SchurElement(n, r, terms)


@given(schur_elements(), schur_elements(), schur_elements())
@settings(max_examples=50, deadline=None)
def test_associativity_random(x, y, z):
    assert (x * y) * z == x * (y * z)


@given(schur_elements(), schur_elements())
@settings(max_examples=50, deadline=None)
def test_distributivity_random(x, y):
    one = identity_element(2, 2)
    assert (x + y) * one == x + y
    assert x * (y + y) == (x * y).scale(2)


# -- Green's product rule against the word (column) path ----------------
#
# The library multiplies by summing over three-way tables and builds PBW
# images and truncations by row moves, one per divided power.  The
# helpers below are the earlier word-based bodies: elements act on the one
# word weight_word(mu) per column weight and are read back off it.  They
# build on the two primitives the library keeps for its tensor-space
# oracles, schur._orbit_images and enveloping._apply_unit, and have no
# resource guard: the tests only give them words of length r <= 6.

FORMS = ("fe", "ef", "fe-middle", "ef-middle")
ORACLE_SIZES = [(2, r) for r in range(7)] + [(3, r) for r in range(6)] + [(4, r) for r in range(5)]


def act(x, vec):
    """x applied to a vector on words of length x.r, nonzero entries only."""
    by_weight = {}
    for k, v in vec.items():
        by_weight.setdefault(weight_of(k, x.n), []).append((k, v))
    out = {}
    for a, c in x.terms.items():
        for k, v in by_weight.get(col_sums(a), ()):
            for l in schur._orbit_images(a, k):
                out[l] = out.get(l, 0) + c * v
    return {l: c for l, c in out.items() if c}


def read_column(n, r, vec, k):
    """The element of S(n, r) on column weight weight_of(k) that sends e_k
    to vec; ValueError when a coefficient is not constant on an orbit."""
    seen = {}
    for l, c in vec.items():
        a = pair_to_matrix(l, k, n)
        count, val = seen.get(a, (0, c))
        if val != c:
            raise ValueError(f"coefficient not constant on orbit of {a}")
        seen[a] = (count + 1, val)
    column_words = orbit_size((weight_of(k, n),))
    if any(count * column_words != orbit_size(a) for a, (count, _) in seen.items()):
        raise ValueError("an orbit is only partly present")
    return SchurElement(n, r, {a: val for a, (_, val) in seen.items()})


def u_act(x, vec):
    """x applied to a vector on words, one unit at a time, rightmost first."""
    out = {}
    for mono, coeff in x.terms.items():
        v = {k: coeff * c for k, c in vec.items()}
        for unit in reversed(enveloping._monomial_word(x.n, mono)):
            v = enveloping._apply_unit(unit, v)
        for l, c in v.items():
            out[l] = out.get(l, 0) + c
    return {l: c for l, c in out.items() if c}


def project(vec, lam):
    """The weight idempotent of lam on a vector: keep words of weight lam."""
    return {w: c for w, c in vec.items() if weight_of(w, len(lam)) == tuple(lam)}


def column_multiply(x, y):
    out = SchurElement(x.n, x.r)
    for mu in dict.fromkeys(col_sums(b) for b in y.terms):
        k = weight_word(mu)
        out = out + read_column(x.n, x.r, act(x, act(y, {k: Fraction(1)})), k)
    return out


def column_pbw_image(a, form):
    n, r = len(a), sum(map(sum, a))

    def part(keep, side="fe"):
        m = tuple(tuple(a[i][j] if keep(i, j) else 0 for j in range(n)) for i in range(n))
        return divided_monomial(n, m, (), side)

    k = weight_word(col_sums(a))
    column = {k: Fraction(1)}
    if form in ("fe", "ef"):
        column = project(u_act(part(operator.ne, form), column), row_sums(a))
    elif form == "fe-middle":
        column = u_act(part(operator.gt), project(u_act(part(operator.lt), column), minus_weight(a)))
    else:
        column = u_act(part(operator.lt), project(u_act(part(operator.gt), column), plus_weight(a)))
    return read_column(n, r, column, k)


def column_to_schur(u, r):
    if min(u.left + u.right) < 0 or sum(u.left) != r or sum(u.right) != r:
        return SchurElement(u.n, r)
    column = {}
    k = weight_word(u.right)
    for p, c in u.terms.items():
        lift = divided_monomial(u.n, pattern_matrix(p, u.n), (), "fe")
        for l, v in u_act(lift, {k: Fraction(1)}).items():
            column[l] = column.get(l, 0) + c * v
    return read_column(u.n, r, project({l: v for l, v in column.items() if v}, u.left), k)


def random_block_element(rng, lam, mu, extra=()):
    terms = {}
    mats = margin_matrices(lam, mu) + list(extra)
    for a in rng.sample(mats, k=min(len(mats), rng.randint(1, 4))):
        terms[a] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return SchurElement(len(lam), sum(lam), terms)


@pytest.mark.parametrize("n,r", ORACLE_SIZES)
def test_table_product_matches_column_path(n, r):
    rng = random.Random(5000 * n + r)
    lams = compositions(n, r)
    for _ in range(6):
        lam, mu, nu, other = (rng.choice(lams) for _ in range(4))
        # a stray block on each side checks that mismatched weights give 0
        x = random_block_element(rng, lam, mu, margin_matrices(other, lam)[:1])
        y = random_block_element(rng, mu, nu, margin_matrices(nu, other)[:1])
        assert schur_multiply(x, y) == column_multiply(x, y)


@pytest.mark.parametrize("n,r", ORACLE_SIZES)
def test_table_product_matches_pair_counting(n, r):
    rng = random.Random(6000 * n + r)
    lams = compositions(n, r)
    for _ in range(3):
        lam, mu, nu = (rng.choice(lams) for _ in range(3))
        a = rng.choice(margin_matrices(lam, mu))
        b = rng.choice(margin_matrices(mu, nu))
        prod = schur_multiply(xi(a), xi(b))
        for c in margin_matrices(lam, nu):
            assert prod.terms.get(c, 0) == counting_product_coeff(a, b, c), (a, b, c)


@pytest.mark.parametrize("n,r", [(2, r) for r in range(7)] + [(3, r) for r in range(6)])
def test_word_free_images_match_column_path(n, r):
    rng = random.Random(7000 * n + r)
    lams = compositions(n, r)
    for _ in range(4):
        lam, mu = rng.choice(lams), rng.choice(lams)
        for a in rng.sample(margin_matrices(lam, mu), k=1):
            for form in FORMS:
                assert pbw_image(a, form) == column_pbw_image(a, form), (a, form)
        basis = udot_basis_upto(lam, mu, 4)
        if basis:
            u = UdotElement(n, lam, mu)
            for b in rng.sample(basis, k=min(len(basis), 3)):
                u = u + b.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
            assert to_schur(u, r) == column_to_schur(u, r)


def column_codeterminant(left, right):
    """Green's codeterminant xi_L xi_U, L = left and U = right transposed,
    multiplied on one word per right weight."""
    return column_multiply(xi(left), xi(transpose(right)))


def raise_on_words(*args, **kwargs):
    raise AssertionError("a word-based path was entered")


def test_library_paths_write_no_words(monkeypatch):
    x = SchurElement(3, 4, {((1, 0, 0), (1, 1, 0), (0, 0, 1)): 2, ((1, 0, 1), (0, 1, 0), (1, 0, 0)): -1})
    y = SchurElement(3, 4, {((1, 0, 0), (0, 1, 0), (1, 1, 0)): Fraction(1, 2)})
    # the rows (1, 1), (2) and (1, 2), (3) of shape (2, 1, 0)
    s, t = (pair_to_matrix(word, (1, 1, 2), 3) for word in ((1, 1, 2), (1, 2, 3)))
    a = ((1, 2, 0), (0, 1, 1), (1, 0, 0))
    u = udot_basis_upto((2, 1, 2), (1, 2, 2), 3)[-1]
    expected = {
        "product": column_multiply(x, y),
        "codet": column_codeterminant(s, t),
        "pbw": [column_pbw_image(a, form) for form in FORMS],
        "to_schur": column_to_schur(u, 5),
    }
    monkeypatch.setattr(codet, "_codeterminant", column_codeterminant)
    cellular = cell_datum_check((2, 2, 1)).to_json()
    monkeypatch.undo()
    for module, name in ((schur, "_orbit_images"), (enveloping, "_apply_unit")):
        monkeypatch.setattr(module, name, raise_on_words)
    assert schur_multiply(x, y) == expected["product"]
    assert codeterminant(s, t) == expected["codet"]
    assert cell_datum_check((2, 2, 1)).to_json() == cellular
    assert [pbw_image(a, form) for form in FORMS] == expected["pbw"]
    assert to_schur(u, 5) == expected["to_schur"]


def test_cell_datum_check_matches_column_path(monkeypatch):
    tables = cell_datum_check((2, 2, 2)).to_json()
    monkeypatch.setattr(codet, "_codeterminant", column_codeterminant)
    assert cell_datum_check((2, 2, 2)).to_json() == tables


def test_slices_match_margin_matrices_under_the_bound():
    for n in (1, 2, 3):
        for r in range(5):
            for rows in compositions(n, r):
                for cols in compositions(n, r):
                    count = len(margin_matrices(rows, cols))
                    assert len(schur._slices(rows, cols)) == count
                    assert schur._slice_bound(rows, cols) >= count
    # zero rows and columns drop out of the bound
    assert schur._slice_bound((5, 0, 0), (0, 5, 0)) == 1


def test_product_refuses_too_many_tables(monkeypatch):
    # every slice has margins (10,10,10,10): C(13,3)^3 > 10^6 tables each
    a = ((10,) * 4,) * 4
    monkeypatch.setattr(schur, "_slices", raise_on_words)
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        schur_multiply(xi(a), xi(a))
    assert time.perf_counter() - start < 1.0


def row_move_product(a, b, m, rows):
    """e_ab^(m) times the orbit element of rows, through schur._row_move."""
    out = {}
    for row_a, row_b, k in schur._row_move(m, rows[a], rows[b]):
        moved = list(rows)
        moved[a], moved[b] = row_a, row_b
        out[tuple(moved)] = k
    return out


@pytest.mark.parametrize("n,r_max", [(2, 5), (3, 5), (4, 4)])
def test_row_move_matches_pair_product(n, r_max):
    # every single-letter orbit element diag(w) + m (E_ab - E_bb) against
    # every margin matrix B of row weight w: Green's rule and the row move
    # give the same product
    count = 0
    for r in range(r_max + 1):
        for w in compositions(n, r):
            for cols in compositions(n, r):
                for rows in margin_matrices(w, cols):
                    for a in range(n):
                        for b in range(n):
                            for m in range(1, w[b] + 1) if a != b else ():
                                letter = [list(row) for row in schur._diagonal(w)]
                                letter[b][b] -= m
                                letter[a][b] += m
                                letter = tuple(map(tuple, letter))
                                expected = dict(schur._pair_product(letter, rows))
                                assert row_move_product(a, b, m, rows) == expected, (letter, rows)
                                count += 1
    assert count > 0


@pytest.mark.parametrize("n,r_max", [(2, 4), (3, 3)])
def test_move_is_the_row_move_on_every_term(n, r_max):
    # a combination of the margin matrices of one row weight w, with
    # distinct coefficients, under every e_ab^(m) with m <= w[b]
    for r in range(r_max + 1):
        for w in compositions(n, r):
            matrices = [rows for cols in compositions(n, r) for rows in margin_matrices(w, cols)]
            vec = {rows: k for k, rows in enumerate(matrices, 1)}
            for a, b in itertools.permutations(range(n), 2):
                for m in range(1, w[b] + 1):
                    expected = {}
                    for rows, c in vec.items():
                        for key, k in row_move_product(a, b, m, rows).items():
                            expected[key] = expected.get(key, 0) + c * k
                    assert schur._move(vec, a, b, m) == expected


def raise_on_pair_product(*args, **kwargs):
    raise AssertionError("a product of two general orbit elements was formed")


def test_truncations_form_no_pair_products(monkeypatch):
    a = ((1, 2, 0), (0, 1, 1), (1, 0, 0))
    u = udot_basis_upto((2, 1, 2), (1, 2, 2), 3)
    u = u[-1] + u[-2].scale(Fraction(-3, 2))
    expected = (
        to_schur(u, 5),
        [pbw_image(a, form) for form in FORMS],
        run_suite("psi", n_max=3, r_max=4).to_json(),
    )
    udot._rewrite.cache_clear()
    schur._row_move.cache_clear()
    monkeypatch.setattr(schur, "_pair_product", raise_on_pair_product)
    assert to_schur(u, 5) == expected[0]
    assert [pbw_image(a, form) for form in FORMS] == expected[1]
    # psi-multiplicative multiplies truncations in the Schur algebra: there
    # the word (column) path stands in for Green's rule
    monkeypatch.setattr(schur, "schur_multiply", column_multiply)
    assert run_suite("psi", n_max=3, r_max=4).to_json() == expected[2]


def test_row_move_refuses_what_pair_product_refuses():
    # e_12^(10) .. e_19^(10) spread row 1 over nine columns, so the
    # lowering run f^(40) that follows meets a slice of C(48, 8) x 11^8
    # tables
    n = 9
    a = tuple(
        tuple(10 if i == 0 and j else 40 if (i, j) == (1, 0) else 0 for j in range(n)) for i in range(n)
    )
    with pytest.raises(ResourceLimitError) as refused:
        pbw_image(a, "fe")
    u = UdotElement(n, row_sums(a), col_sums(a), {udot.matrix_pattern(a): Fraction(1)})
    with pytest.raises(ResourceLimitError) as truncated:
        to_schur(u, 120)
    assert str(truncated.value) == str(refused.value)
    # the same refusal as Green's rule on the lowering run's orbit element
    rows = ((40,) + (10,) * 8,) + ((0,) * n,) * 8
    letter = [list(row) for row in schur._diagonal((80,) + (0,) * 8)]
    letter[1][0] = 40
    with pytest.raises(ResourceLimitError) as green:
        schur._pair_product(tuple(map(tuple, letter)), rows)
    assert str(green.value) == str(refused.value)


def test_caches_are_bounded():
    caches = {
        weights._kostka_cached: 1 << 16,
        weights._margin_count: 4096,
        schur._pair_product: 4096,
        schur._slices: 4096,
        schur.orbit_endo: 512,
        schur._column_words: 4096,
        _lift: 4096,
        enveloping._binom_poly: 256,
        enveloping._h_binom_terms: 4096,
        enveloping._insert: 1 << 17,
        enveloping._word_product: 4096,
        _block_patterns: 1024,
        schur._row_move: 4096,
        weights._slice_bound: 4096,
        weights._bounded_rows: 4096,
        weights._compositions: 256,
        weights._ssyt: 1024,
        weights._orbit_sizes: 256,
        udot._rewrite: 1 << 17,
        enveloping.root_pairs: 64,
        udot.offdiag_cells: 64,
    }
    # every cache in the package is pinned here, as the benchmark's tracer
    # finds them: module attributes with cache_info
    found = {
        obj
        for info in pkgutil.iter_modules(schuralg.__path__)
        for obj in vars(importlib.import_module(f"schuralg.{info.name}")).values()
        if callable(obj) and hasattr(obj, "cache_info")
    }
    assert found == set(caches)
    for fn, maxsize in caches.items():
        assert fn.cache_info().maxsize == maxsize
    schur_multiply(xi(((1, 1), (1, 1))), xi(((1, 1), (1, 1))))
    weights.kostka((3, 2), (1, 1, 1, 1, 1))
    weights.margin_count((2, 1, 1), (1, 2, 1))
    weights.block_sizes((1, 2, 1))
    orbit_endo(((1, 1), (1, 1)))
    _lift(3, (1, 0, 0, 0, 0, 1))
    enveloping.verify_weight_idempotent((2, 1))
    block = udot_basis_upto((1, 1, 1), (1, 1, 1), 2)
    block[-1] * block[-1]
    to_schur(block[-1], 3)
    cell_datum_check((1, 1))
    # one U(gl_n) product, which straightens through _insert
    enveloping.u_multiply(enveloping.matrix_unit(2, 1, 2), enveloping.matrix_unit(2, 2, 1))
    for fn, maxsize in caches.items():
        assert 0 < fn.cache_info().currsize <= maxsize


def test_budget_guards_build_no_text_for_admitted_work(monkeypatch):
    # a guard formats its refusal only when it refuses: with count_text
    # raising in every module, and every cache emptied so that each guard
    # runs again, admitted work gives its unpatched results
    def results():
        return (
            run_suite("psi", n_max=3, r_max=4).to_json(),
            cell_datum_check((2, 2, 1)).to_json(),
            udot.gl2_generic_table((0, 0), 13).to_json(),
        )

    def refuse(x):
        raise AssertionError("refusal text built for admitted work")

    expected = results()
    modules = [importlib.import_module(f"schuralg.{info.name}") for info in pkgutil.iter_modules(schuralg.__path__)]
    for module in modules:
        for obj in vars(module).values():
            if callable(obj) and hasattr(obj, "cache_clear"):
                obj.cache_clear()
        if hasattr(module, "count_text"):
            monkeypatch.setattr(module, "count_text", refuse)
    assert results() == expected
