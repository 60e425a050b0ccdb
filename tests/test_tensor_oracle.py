"""The column primitive against the full tensor-space oracle.

Schur products, PBW images, the truncation to_schur and the idempotent
lemma are computed on one word per right weight.  The helpers here keep
the earlier bodies of those functions, built from whole tensor-space
endomorphisms (tensor_rep, endo_of, compose, element_from_endo), and the
tests compare the two paths on seeded random inputs.  A structural test
pins that the library paths never build a TensorEndo.
"""

import random
import time
from fractions import Fraction
from math import factorial

import pytest

from test_schur import counting_product_coeff

from schuralg import codet, enveloping
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
from schuralg.schur import (
    TENSOR_SPACE_LIMIT,
    SchurElement,
    TensorEndo,
    act,
    check_column_scale,
    element_from_endo,
    endo_of,
    idempotent,
    read_column,
    schur_multiply,
)
from schuralg.udot import (
    UdotElement,
    pattern_matrix,
    symmetric_group_quotient,
    to_schur,
    udot_basis_upto,
    udot_element,
)
from schuralg.weights import col_sums, compositions, margin_matrices, row_sums, weight_word

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


def test_read_column_rejects_a_non_column():
    k = weight_word((2, 1))
    # the orbit element of ((1,1),(1,0)) sends e_k to e_(1,2,1) + e_(2,1,1)
    with pytest.raises(ValueError):
        read_column(2, 3, {(1, 2, 1): Fraction(1)}, k)
    with pytest.raises(ValueError):
        read_column(2, 3, {(1, 2, 1): Fraction(1), (2, 1, 1): Fraction(2)}, k)
    x = SchurElement(2, 3, {((1, 1), (1, 0)): 3, ((2, 0), (0, 1)): -1})
    assert read_column(2, 3, act(x, {k: Fraction(1)}), k) == x


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


def test_column_guard():
    lam = (12, 12)  # C(24, 12) words, above the limit
    x = idempotent(lam)
    with pytest.raises(ResourceLimitError):
        act(x, {weight_word(lam): Fraction(1)})
    with pytest.raises(ResourceLimitError):
        schur_multiply(x, x)
    with pytest.raises(ResourceLimitError):
        pbw_image(((12, 0), (0, 12)))
    with pytest.raises(ResourceLimitError):
        to_schur(udot_element(lam, (24, 0), (0, 12)), 24)


def test_column_guard_matches_multinomial():
    for n in range(1, 4):
        for r in range(24):
            for mu in compositions(n, r):
                words = factorial(r)
                for m in mu:
                    words //= factorial(m)
                if words > TENSOR_SPACE_LIMIT:
                    with pytest.raises(ResourceLimitError):
                        check_column_scale(mu)
                else:
                    check_column_scale(mu)


def test_column_guard_refuses_huge_degree_at_once():
    big = 10 ** 7
    x = SchurElement(2, 2 * big, {((big, 0), (0, big)): 1})
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        schur_multiply(x, x)
    check_column_scale((2 * big,))  # one word
    assert time.perf_counter() - start < 1.0


def refuse_work(*args, **kwargs):
    raise AssertionError("work started before the resource check")


def test_divided_powers_refuse_intermediate_weights(monkeypatch):
    # every end weight has at most C(30, 5) words, but e^(25) on 1^5 2^25
    # and e^(15) on 2^30 pass through (7, 23), with C(30, 7) > 10^6 words
    a = ((0, 25), (5, 0))
    for w in (row_sums(a), col_sums(a), minus_weight(a), plus_weight(a)):
        check_column_scale(w)
    apply_unit = enveloping._apply_unit

    def bounded(unit, vec):
        # the refusal comes before any vector outgrows the end weights
        assert len(vec) <= 142506, "vector of an intermediate weight built"
        return apply_unit(unit, vec)

    monkeypatch.setattr(enveloping, "_apply_unit", bounded)
    for form in FORMS:
        with pytest.raises(ResourceLimitError):
            pbw_image(a, form)
    with pytest.raises(ResourceLimitError):
        to_schur(udot_element((0, 30), (0, 30), (15, 15)), 30)


def test_codeterminant_blocks_are_bounded(monkeypatch):
    # every column of weight (1,)*8 has 8! words, within the column limit,
    # but the block has 8! > 1000 codeterminants
    check_column_scale((1,) * 8)
    monkeypatch.setattr(codet, "codeterminant", refuse_work)
    with pytest.raises(ResourceLimitError):
        cell_datum_check((1,) * 8)
    with pytest.raises(ResourceLimitError):
        codet_basis((1,) * 8, (1,) * 8)
    with pytest.raises(ResourceLimitError):
        cell_datum_check((1,) * 20)


def test_library_paths_never_build_tensor_space(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("tensor-space endomorphism built")

    monkeypatch.setattr(TensorEndo, "__init__", refuse)
    monkeypatch.setattr(TensorEndo, "_new", refuse)
    x = SchurElement(3, 3, {((1, 0, 0), (1, 1, 0), (0, 0, 0)): 2})
    y = SchurElement(3, 3, {((1, 0, 1), (0, 1, 0), (0, 0, 0)): -1})
    assert not schur_multiply(x, y).is_zero
    assert not codeterminant((2, 1, 0), (1, 1, 2), (1, 2, 3)).is_zero
    assert cell_datum_check((2, 1)).passed
    for form in FORMS:
        assert not pbw_image(((1, 1), (0, 1)), form).is_zero
    u = udot_basis_upto((2, 1), (1, 2), 3)[-1]
    assert not to_schur(u, 3).is_zero
    assert verify_weight_idempotent((2, 1, 1))
    assert symmetric_group_quotient(3).passed
