"""The library paths against the full tensor-space oracle.

Schur products follow Green's rule on three-way tables, PBW images and
the truncation to_schur apply their divided powers as row moves, and the
idempotent lemma evaluates each diagonal letter as a letter count: none
of them writes a word.  Tensor space survives only as the oracle
(TensorEndo, orbit_endo, endo_of, element_from_endo, tensor_rep), behind
the guard n^r <= TENSOR_SPACE_LIMIT.  The helpers here keep the earlier
bodies of the library functions, built from whole tensor-space
endomorphisms, and the tests compare the two paths on seeded random
inputs.  The gbasis and gl2 suites read a block off one word of its
right weight; the earlier oracles they replace, built from whole
endomorphisms and pairs of words, are kept here and compared with them.
Structural tests pin that the library paths and those suites never build
a TensorEndo, and the tests beyond the limit pin word-free values at
weights with far more than TENSOR_SPACE_LIMIT words.
"""

import random
import time
from fractions import Fraction
from itertools import product
from math import comb

import pytest

from test_schur import counting_product_coeff

from schuralg import codet, schur, verify
from schuralg.codet import cell_datum_check, codet_basis, codeterminant
from schuralg.enveloping import (
    divided_monomial,
    minus_weight,
    pbw_image,
    plus_weight,
    tensor_rep,
    verify_weight_idempotent,
)
from schuralg.errors import ResourceLimitError
from schuralg.exact_linalg import integer_rank
from schuralg.schur import (
    SchurElement,
    TensorEndo,
    element_from_endo,
    endo_of,
    hom_basis,
    idempotent,
    schur_multiply,
)
from schuralg.udot import (
    UdotElement,
    pattern_matrix,
    symmetric_group_quotient,
    to_schur,
    udot_basis_upto,
    udot_element,
    udot_multiply,
)
from schuralg.weights import col_sums, compositions, margin_matrices, row_sums, words_of_weight

FORMS = ("fe", "ef", "fe-middle", "ef-middle")
SIZES = [(2, r) for r in range(5)] + [(3, r) for r in range(4)]


def all_matrices(n, r):
    lams = compositions(n, r)
    return [a for lam in lams for mu in lams for a in margin_matrices(lam, mu)]


def random_element(rng, n, r):
    mats = all_matrices(n, r)
    terms = {}
    for a in rng.sample(mats, k=min(len(mats), rng.randint(0, 4))):
        terms[a] = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
    return SchurElement(n, r, terms)


def block(endo, lam, mu):
    """1_lam endo 1_mu, on all of tensor space."""
    return endo_of(idempotent(lam)).compose(endo).compose(endo_of(idempotent(mu)))


def pbw_image_on_tensor_space(a, form):
    n = len(a)
    r = sum(map(sum, a))

    def part(keep, side="fe"):
        m = tuple(tuple(a[i][j] if keep(i, j) else 0 for j in range(n)) for i in range(n))
        return tensor_rep(divided_monomial(n, m, (), side), r)

    if form in ("fe", "ef"):
        endo = block(part(lambda i, j: i != j, form), row_sums(a), col_sums(a))
    elif form == "fe-middle":
        mid = endo_of(idempotent(minus_weight(a)))
        endo = part(lambda i, j: i > j).compose(mid).compose(part(lambda i, j: i < j))
    else:
        mid = endo_of(idempotent(plus_weight(a)))
        endo = part(lambda i, j: i < j).compose(mid).compose(part(lambda i, j: i > j))
    return element_from_endo(endo)


def to_schur_on_tensor_space(u, r):
    n = u.n
    if not all(x >= 0 for x in u.left + u.right) or sum(u.left) != r or sum(u.right) != r:
        return SchurElement(n, r)
    total = TensorEndo(n, r, {})
    for p, c in u.terms.items():
        total = total + tensor_rep(divided_monomial(n, pattern_matrix(p, n), (), "fe"), r).scale(c)
    return element_from_endo(block(total, u.left, u.right))


def block_oracles_on_tensor_space(lam, mu):
    """The earlier verify oracles of a block: the exact rank of the
    entries of the basis endomorphisms, and the number of diagonal
    place-permutation orbits on pairs of words of the two weights, by
    union-find over adjacent transpositions."""
    rank = integer_rank([endo_of(x).num for x in hom_basis(lam, mu)])
    # a pair of words as one word of letter pairs
    index = {tuple(zip(l, k)): i for i, (l, k) in enumerate(product(words_of_weight(lam), words_of_weight(mu)))}
    parent = list(range(len(index)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p, i in index.items():
        for t in range(len(p) - 1):
            if p[t] != p[t + 1]:
                parent[find(i)] = find(index[p[:t] + (p[t + 1], p[t]) + p[t + 2:]])
    return rank, len({find(i) for i in range(len(parent))})


def block_oracles(lam, mu):
    """The oracles of verify's gbasis and gl2 rows, read off one word."""
    return verify._column_rank(lam, mu, margin_matrices(lam, mu)), verify._orbit_count(lam, mu)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_block_oracles_match_tensor_space(n):
    for r in range(5):
        for lam in compositions(n, r):
            for mu in compositions(n, r):
                assert block_oracles(lam, mu) == block_oracles_on_tensor_space(lam, mu), (lam, mu)


def test_gl2_diagonal_oracles_match_tensor_space():
    for r in range(11):
        for lam in compositions(2, r):
            assert block_oracles(lam, lam) == block_oracles_on_tensor_space(lam, lam) == (1 + min(lam),) * 2


@pytest.mark.parametrize("n,r", SIZES)
def test_schur_multiply_matches_composed_endomorphisms(n, r):
    rng = random.Random(1000 * n + r)
    for _ in range(12):
        x, y = random_element(rng, n, r), random_element(rng, n, r)
        assert schur_multiply(x, y) == element_from_endo(endo_of(x).compose(endo_of(y)))


@pytest.mark.parametrize("n,r", SIZES)
def test_schur_multiply_matches_pair_counting(n, r):
    rng = random.Random(2000 * n + r)
    for _ in range(8):
        x, y = random_element(rng, n, r), random_element(rng, n, r)
        expected = {}
        for a, c in x.terms.items():
            for b, d in y.terms.items():
                if col_sums(a) != row_sums(b):
                    continue
                for m in margin_matrices(row_sums(a), col_sums(b)):
                    expected[m] = expected.get(m, 0) + c * d * counting_product_coeff(a, b, m)
        assert schur_multiply(x, y) == SchurElement(n, r, expected)


@pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3)])
def test_pbw_image_matches_tensor_space(n, r):
    rng = random.Random(3000 * n + r)
    mats = all_matrices(n, r)
    for a in rng.sample(mats, k=min(len(mats), 12)):
        for form in FORMS:
            assert pbw_image(a, form) == pbw_image_on_tensor_space(a, form), (a, form)


@pytest.mark.parametrize("n,r", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3)])
def test_to_schur_matches_tensor_space(n, r):
    rng = random.Random(4000 * n + r)
    lams = compositions(n, r)
    for _ in range(10):
        lam, mu = rng.choice(lams), rng.choice(lams)
        basis = udot_basis_upto(lam, mu, r)
        if not basis:
            continue
        u = UdotElement(n, lam, mu)
        for b in rng.sample(basis, k=min(len(basis), 3)):
            u = u + b.scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2))))
        assert to_schur(u, r) == to_schur_on_tensor_space(u, r)
    # off the composition cone and at the wrong degree both paths give zero
    for u in (udot_element((3, -1), (2, 0), (1, 0)), udot_element((1, 0), (1, 0), (0, 0))):
        assert to_schur(u, 2) == to_schur_on_tensor_space(u, 2) == SchurElement(2, 2)


@pytest.mark.parametrize("n,r", [(1, 2), (2, 2), (2, 3), (3, 2), (3, 3)])
def test_verify_weight_idempotent_matches_tensor_space(n, r):
    zero = tuple(tuple(0 for _ in range(n)) for _ in range(n))
    for lam in compositions(n, r):
        x = divided_monomial(n, zero, lam)
        assert verify_weight_idempotent(lam) == (tensor_rep(x, r) == endo_of(idempotent(lam)))
        assert verify_weight_idempotent(lam)


def test_product_beyond_tensor_space_limit():
    # S(2,20) has 2^20 > 10^6 words, the weight (10,10) only C(20,10)
    a = ((9, 1), (1, 9))
    x = SchurElement(2, 20, {a: 1})
    for element in (x, SchurElement(2, 20)):
        with pytest.raises(ResourceLimitError):
            endo_of(element)
    # xi_a swaps one 1 with one 2; counting two-step paths word by word
    assert schur_multiply(x, x) == SchurElement(
        2, 20, {((10, 0), (0, 10)): 100, a: 18, ((8, 2), (2, 8)): 4}
    )
    # the weight (12,12) has C(24,12) words; products and images write none
    lam = (12, 12)
    e = idempotent(lam)
    assert schur_multiply(e, e) == e
    for form in FORMS:
        assert pbw_image(((12, 0), (0, 12)), form) == e
    # f^(12) 1_(24,0) is the orbit element of diag(24, 0) + 12 (E_21 - E_11)
    u = udot_element(lam, (24, 0), (0, 12))
    assert to_schur(u, 24) == SchurElement(2, 24, {((12, 0), (12, 0)): 1})
    # a diagonal product is a single table, whatever the degree
    big = 10 ** 7
    start = time.perf_counter()
    e = idempotent((big, big))
    assert schur_multiply(e, e) == e
    assert time.perf_counter() - start < 1.0


def test_to_schur_beyond_the_word_guard():
    lam = (6, 6, 6)  # 18!/(6!)^3 words, above the limit
    # e_12^(2) 1_lam is the orbit element of diag(lam) + 2 (E_12 - E_22)
    e = udot_element((8, 4, 6), lam, (2, 0, 0, 0, 0, 0))
    assert to_schur(e, 18) == SchurElement(3, 18, {((6, 2, 0), (0, 4, 0), (0, 0, 6)): 1})
    # truncation is an algebra map; products straighten in U-dot
    basis = udot_basis_upto(lam, lam, 2)
    assert len(basis) == 4
    for u in basis:
        for v in basis:
            assert to_schur(udot_multiply(u, v), 18) == to_schur(u, 18) * to_schur(v, 18)
    # e^(25) 1_(5,25) is xi at ((5,25),(0,0)), and f^(5) 1_(30,0) is xi at
    # ((25,0),(5,0)), both through (7,23) with C(30,7) > 10^6 words; their
    # product has one table per t <= 5
    expected = SchurElement(2, 30, {((5 - t, 20 + t), (t, 5 - t)): 1 for t in range(6)})
    for form in ("fe", "fe-middle"):
        assert pbw_image(((0, 25), (5, 0)), form) == expected
    # e^(15) 1_(0,30) is xi at ((0,15),(0,15)), and f^(15) 1_(15,15) moves
    # every 1 back: each word of 2^30 returns once per choice of 15 places
    u = udot_element((0, 30), (0, 30), (15, 15))
    assert to_schur(u, 30) == SchurElement(2, 30, {((0, 0), (0, 30)): comb(30, 15)})


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before the resource check")


def test_codeterminant_blocks_are_bounded(monkeypatch):
    # the block of weight (1,)*8 has 8! > 1000 codeterminants
    monkeypatch.setattr(codet, "_codeterminant", refuse_work)
    with pytest.raises(ResourceLimitError):
        cell_datum_check((1,) * 8)
    with pytest.raises(ResourceLimitError):
        codet_basis((1,) * 8, (1,) * 8)
    with pytest.raises(ResourceLimitError):
        cell_datum_check((1,) * 20)


def test_block_dimension_suites_refuse_their_range_before_the_first_row(monkeypatch):
    # the refusal is the one the rows would reach, at the first slice
    # over the budget in row order
    monkeypatch.setattr(verify, "_column_rank", refuse_work)
    with pytest.raises(ResourceLimitError, match=r"tensor space has 2\^20 basis words"):
        verify.run_suite("gl2", r_max=20)
    with pytest.raises(ResourceLimitError, match=r"tensor space has 4\^10 basis words"):
        verify.run_suite("gbasis", n_max=4, r_max=10)


def test_library_paths_never_build_tensor_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tensor-space endomorphism built")

    monkeypatch.setattr(TensorEndo, "__init__", refuse)
    monkeypatch.setattr(TensorEndo, "_new", refuse)
    x = SchurElement(3, 3, {((1, 0, 0), (1, 1, 0), (0, 0, 0)): 2})
    y = SchurElement(3, 3, {((1, 0, 1), (0, 1, 0), (0, 0, 0)): -1})
    assert not schur_multiply(x, y).is_zero
    # the rows (1, 1), (2) and (1, 2), (3) of shape (2, 1, 0)
    assert not codeterminant(((2, 0, 0), (0, 1, 0), (0, 0, 0)), ((1, 0, 0), (1, 0, 0), (0, 1, 0))).is_zero
    assert cell_datum_check((2, 1)).passed
    for form in FORMS:
        assert not pbw_image(((1, 1), (0, 1)), form).is_zero
    u = udot_basis_upto((2, 1), (1, 2), 3)[-1]
    assert not to_schur(u, 3).is_zero
    assert verify_weight_idempotent((2, 1, 1))
    assert symmetric_group_quotient(3).passed


def test_block_dimension_suites_build_no_tensor_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tensor-space endomorphism built")

    for owner, name in [(schur, "endo_of"), (schur, "orbit_endo"), (TensorEndo, "__init__"), (TensorEndo, "_new")]:
        monkeypatch.setattr(owner, name, refuse)
    assert verify.run_suite("gbasis").passed
    assert verify.run_suite("gl2", r_max=10).passed
    # the refusal keeps the tensor-space guard's message
    with pytest.raises(ResourceLimitError, match=r"tensor space has 2\^20 basis words"):
        verify._gl2_dim((10, 10))
