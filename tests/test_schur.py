import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from schuralg.errors import ResourceLimitError
from schuralg.schur import (
    SchurElement,
    act,
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
    pair_to_matrix,
    perm_compose,
    permute_weight,
    row_sums,
    transpose,
    words_of_weight,
)


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
