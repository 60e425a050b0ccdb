import itertools
import json
import random
import re
from fractions import Fraction
from math import comb, factorial

import pytest

from schuralg import enveloping, schur, udot, verify
from schuralg.enveloping import (
    UElement,
    divided_monomial,
    monomial_weight,
    pbw_image,
    root_pairs,
    u_multiply,
    u_relabel,
)
from schuralg.errors import TENSOR_SPACE_LIMIT, ResourceLimitError
from schuralg.schur import idempotent, schur_multiply
from schuralg.udot import (
    UdotElement,
    _gl2_multiply,
    _word_multiply,
    divided_generators,
    gl2_generic_table,
    matrix_pattern,
    offdiag_cells,
    pattern_delta,
    pattern_matrix,
    shift,
    sl_weight,
    symmetric_group_quotient,
    to_schur,
    udot_basis_upto,
    udot_element,
    udot_multiply,
    udot_relabel,
    udot_zero,
)
from schuralg.verify import run_suite, suite_psi
from schuralg.weights import (
    composition_count,
    compositions,
    margin_matrices,
    perm_inverse,
    permute_weight,
)

from pins import PINS, mismatch, run_limited


def test_offdiag_cells():
    assert offdiag_cells(2) == ((0, 1), (1, 0))
    assert offdiag_cells(3) == ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
    assert offdiag_cells(1) == ()


def test_pattern_roundtrip():
    p = (1, 2, 0, 3, 1, 0)
    assert matrix_pattern(pattern_matrix(p, 3)) == p


def test_pattern_delta():
    # one raising power at (1,2) moves weight by +1 at 1, -1 at 2
    assert pattern_delta((1, 0), 2) == (1, -1)
    assert pattern_delta((0, 1), 2) == (-1, 1)
    assert pattern_delta((1, 1), 2) == (0, 0)


def test_udot_element_validates_block():
    with pytest.raises(ValueError):
        UdotElement(2, (1, 1), (1, 1), {(1, 0): Fraction(1)})
    x = UdotElement(2, (2, 0), (1, 1), {(1, 0): Fraction(1)})
    assert x.left == (2, 0)


def test_block_addition_rules():
    a = udot_element((1, 1), (1, 1), (0, 0))
    b = udot_element((2, 0), (2, 0), (0, 0))
    with pytest.raises(ValueError):
        a + b
    z = udot_zero(2, (2, 0), (2, 0))
    assert a + z == a


def test_udot_basis_counts():
    assert len(udot_basis_upto((1, 1), (1, 1), 2)) == 2
    assert len(udot_basis_upto((1, 1), (1, 1), 4)) == 3
    assert udot_basis_upto((1, 0), (0, 0), 3) == []
    assert len(udot_basis_upto((5,), (5,), 9)) == 1


def test_udot_basis_ordering():
    basis = udot_basis_upto((0, 0), (0, 0), 4)
    degrees = [sum(next(iter(x.terms))) for x in basis]
    assert degrees == sorted(degrees)


def _patterns_by_delta(n, top):
    """Every exponent pattern of degree at most top, as a multiset of
    cells, grouped by the moved weight read off the pattern matrix."""
    ncells = len(offdiag_cells(n))
    by_delta = {}
    for d in range(top + 1):
        for cells in itertools.combinations_with_replacement(range(ncells), d):
            p = tuple(cells.count(c) for c in range(ncells))
            m = pattern_matrix(p, n)
            moved = tuple(sum(m[i][j] - m[j][i] for j in range(n)) for i in range(n))
            by_delta.setdefault(moved, []).append(p)
    return by_delta


def _expected_basis(by_delta, lam, mu, degree):
    delta = tuple(l - m for l, m in zip(lam, mu))
    return sorted(
        (p for p in by_delta.get(delta, []) if sum(p) <= degree),
        key=lambda p: (sum(p), p),
    )


def _weight_pairs(n):
    weights = list(itertools.product(range(-2, 3), repeat=n))
    # the block depends on lam - mu only; from n = 3 on pair every weight
    # with two right weights instead of all of them
    rights = weights if n < 3 else [(0,) * n, (2, -1, 1, 0)[:n]]
    return [(lam, mu) for lam in weights for mu in rights]


@pytest.mark.parametrize(
    "n, top, pairs",
    [
        (1, 4, _weight_pairs(1)),
        (2, 4, _weight_pairs(2)),
        (3, 4, _weight_pairs(3)),
        (4, 3, _weight_pairs(4)),
        (3, 6, [((1, 2, 1), (2, 1, 1)), ((0, 0, 0), (0, 0, 0)), ((3, -1, 0), (0, 1, 1)), ((-2, 2, 0), (2, -2, 0))]),
    ],
    ids=["1", "2", "3", "4", "3-degree6"],
)
def test_udot_basis_matches_brute_force(n, top, pairs):
    by_delta = _patterns_by_delta(n, top)
    for lam, mu in pairs:
        for degree in range(top + 1):
            basis = udot_basis_upto(lam, mu, degree)
            assert all((x.left, x.right) == (lam, mu) for x in basis)
            assert all(c == 1 for x in basis for c in x.terms.values())
            assert [p for x in basis for p in x.terms] == _expected_basis(by_delta, lam, mu, degree)


def test_udot_basis_enumerates_only_block_patterns(monkeypatch):
    # the block's patterns are built cell by cell: no composition of the
    # degree is listed, and no pattern's moved weight is computed, neither
    # to filter it nor to validate the returned elements
    def refuse(*args):
        raise AssertionError("udot must not enumerate compositions")

    monkeypatch.setattr(udot, "compositions", refuse, raising=False)
    calls = []
    real_delta = udot.pattern_delta
    monkeypatch.setattr(udot, "pattern_delta", lambda p, n: calls.append(p) or real_delta(p, n))
    udot._block_patterns.cache_clear()
    lam, mu = (1, 2, 1), (2, 1, 1)
    basis = udot_basis_upto(lam, mu, 4)
    assert calls == []
    assert [p for x in basis for p in x.terms] == _expected_basis(_patterns_by_delta(3, 4), lam, mu, 4)
    assert suite_psi(3, 3).passed


def test_udot_basis_at_a_high_gl2_degree_stays_linear():
    # at n = 2 the guard admits every degree up to 999,999, so the listing
    # must stay linear in the degree: a closing cell takes its forced value
    # and scans no others
    entry = PINS["udot-basis-n2-degree-30000"]
    child = run_limited(entry["argv"], cpu_seconds=10, memory_mb=1024)
    assert mismatch(entry, child.returncode, child.stdout) is None


def test_udot_basis_refusal_is_unchanged():
    # a pattern of one block is fixed by its entries off the cells (1, 3)
    # and (2, 3), so it is refused when the compositions of the bound into
    # one part per free cell plus a slack part, 5 parts for n = 3, number
    # more than the limit
    assert composition_count(5, 67) <= TENSOR_SPACE_LIMIT < composition_count(5, 68)
    # moving 67 from index 3 to index 1 within degree 67 takes E_13^(67) alone
    assert [u.num for u in udot_basis_upto((67, 0, 0), (0, 0, 67), 67)] == [{(0, 67, 0, 0, 0, 0): 1}]
    for degree in (68, 80):
        with pytest.raises(ResourceLimitError, match=f"compositions of {degree} into 5 parts"):
            udot_basis_upto((1, 2, 1), (2, 1, 1), degree)
    # a block whose weights differ in total is empty at any degree
    assert udot_basis_upto((1, 0, 0), (0, 0, 0), 80) == []


def test_negative_degree_is_rejected():
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        udot_basis_upto((1, 1), (1, 1), -1)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        udot_basis_upto((1, 0), (0, 0), -1)
    with pytest.raises(ValueError, match="degree must be nonnegative"):
        gl2_generic_table((1, -2), -1)


def test_b1_squared_identity():
    lam = (1, 1)
    b1 = udot_element(lam, lam, (1, 1))
    sq = udot_multiply(b1, b1)
    assert sq.terms == {(1, 1): Fraction(2), (2, 2): Fraction(4)}


def test_inner_weight_mismatch_gives_zero():
    u = udot_element((1, 1), (1, 1), (0, 0))
    v = udot_element((2, 0), (2, 0), (0, 0))
    assert udot_multiply(u, v).is_zero


def test_gl2_closed_form_matches_straightening():
    # every n = 2 product of basis elements with exponents at most 4, at
    # every right weight in [-3,3]^2, against the generic path: rewrite
    # the divided powers of both words at their weights
    patterns = list(itertools.product(range(5), repeat=2))
    weights = list(itertools.product(range(-3, 4), repeat=2))
    for p in patterns:
        for q in patterns:
            for right in weights:
                mid = tuple(r + d for r, d in zip(right, pattern_delta(q, 2)))
                left = tuple(m + d for m, d in zip(mid, pattern_delta(p, 2)))
                u, v = udot_element(left, mid, p), udot_element(mid, right, q)
                assert _gl2_multiply(u, v) == _word_multiply(u, v), (p, q, right)


def test_gl2_closed_form_keeps_coefficients():
    u = udot_element((2, -1), (1, 0), (1, 0)).scale(Fraction(5, 3))
    v = udot_element((1, 0), (1, 0), (1, 1)) + udot_element((1, 0), (1, 0), (0, 0)).scale(-2)
    assert _gl2_multiply(u, v) == _word_multiply(u, v) == oracle_multiply(u, v)
    assert udot_multiply(u, v) == _gl2_multiply(u, v)


def test_gl2_table_does_not_straighten(monkeypatch):
    def refuse(*args):
        raise AssertionError("n = 2 products must not straighten in U(gl_2)")

    # neither U(gl_2)'s straightener nor the divided-power rewriting of
    # the generic path
    monkeypatch.setattr(enveloping, "_insert", refuse)
    monkeypatch.setattr(enveloping, "_word_product", refuse)
    monkeypatch.setattr(udot, "_rewrite", refuse)
    assert gl2_generic_table((1, -2), 13).passed


def test_gl2_table_refused_before_any_product(monkeypatch):
    def refuse(*args):
        raise AssertionError("no product may run once the cost is over the limit")

    # the table's products and powers of b_1 all go through the kernel
    monkeypatch.setattr(udot, "_gl2_terms", refuse)
    with pytest.raises(ResourceLimitError, match="degree 100 costs 1030301"):
        gl2_generic_table((1, -2), 100)
    with pytest.raises(AssertionError, match="no product may run"):
        gl2_generic_table((1, -2), 1)


def test_gl2_table_builds_no_element_or_fraction_per_product(monkeypatch):
    from schuralg import exact_linalg

    def refuse(*args):
        raise AssertionError("the gl_2 table must not build a Fraction")

    inits = []
    original = UdotElement.__init__

    def counted(self, *args, **kwargs):
        inits.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(udot, "Fraction", refuse)
    monkeypatch.setattr(exact_linalg, "Fraction", refuse)
    monkeypatch.setattr(UdotElement, "__init__", counted)
    table = gl2_generic_table((1, -2), 13)
    assert table.passed
    assert len(inits) <= 1
    assert all(type(x) is int for coeffs in table.products.values() for x in coeffs.values())
    assert json.dumps(table.to_json(), sort_keys=True)  # the output needs no Fraction either


def test_gl2_table_matches_both_product_paths():
    # every product of the table, at every weight in [-3,3]^2 and every
    # degree up to 6, against the element product (the closed form behind
    # udot_multiply) and the divided-power rewriting (_word_multiply)
    top = 6
    for lam in itertools.product(range(-3, 4), repeat=2):
        basis = [udot_element(lam, lam, (a, a)) for a in range(top + 1)]
        expected = {}
        for a, c in itertools.product(range(top + 1), repeat=2):
            u, v = basis[a], basis[c]
            closed, straightened = udot_multiply(u, v), _word_multiply(u, v)
            assert closed == straightened, (lam, a, c)
            expected[a, c] = {p[0]: x for p, x in closed.terms.items()}
        for degree in range(top + 1):
            table = gl2_generic_table(lam, degree)
            assert table.passed
            assert table.products == {
                (a, c): expected[a, c] for a, c in itertools.product(range(degree + 1), repeat=2)
            }, (lam, degree)


# The plain-power path, kept as an oracle for the word path: lift a
# pattern to its divided monomial with Fraction coefficients, multiply or
# relabel in U(gl_n), and project the result into a block.


def oracle_lift(n, p):
    return divided_monomial(n, pattern_matrix(p, n), (), "fe")


def oracle_project(x, left, right):
    """Keep the terms of adjoint weight left - right, evaluate diagonal
    letters against the right weight shifted by the raising part, convert
    plain powers to divided-power pattern coordinates."""
    n = x.n
    pairs = root_pairs(n)
    delta = tuple(l - r for l, r in zip(left, right))
    cell_index = {c: k for k, c in enumerate(offdiag_cells(n))}
    no_f = (0,) * len(pairs)
    out = {}
    for (f, h, e), coeff in x.terms.items():
        if monomial_weight(n, (f, h, e)) != delta:
            continue
        shift_vec = monomial_weight(n, (no_f, h, e))
        scalar = Fraction(1)
        for i in range(n):
            if h[i]:
                scalar *= (right[i] + shift_vec[i]) ** h[i]
        if scalar == 0:
            continue
        fact = 1
        for v in f + e:
            fact *= factorial(v)
        p = [0] * len(cell_index)
        for idx, (i, j) in enumerate(pairs):
            p[cell_index[(j - 1, i - 1)]] = f[idx]
            p[cell_index[(i - 1, j - 1)]] = e[idx]
        key = tuple(p)
        out[key] = out.get(key, Fraction(0)) + coeff * scalar * fact
    return UdotElement(n, left, right, out)


def oracle_multiply(u, v):
    if u.right != v.left:
        return udot_zero(u.n, u.left, v.right)
    acc = UElement(u.n)
    for pu, cu in u.terms.items():
        for pv, cv in v.terms.items():
            acc = acc + u_multiply(oracle_lift(u.n, pu), oracle_lift(u.n, pv)).scale(cu * cv)
    return oracle_project(acc, u.left, v.right)


def oracle_relabel(u, w):
    acc = UElement(u.n)
    for p, c in u.terms.items():
        acc = acc + u_relabel(oracle_lift(u.n, p), w).scale(c)
    return oracle_project(acc, permute_weight(u.left, w), permute_weight(u.right, w))


# adjacent blocks (lam, mu), (mu, nu) with weights in [-2,2]^n, and the
# degree up to which all their basis products are checked
ADJACENT_BLOCKS = [
    (((0, 0, 0), (0, 0, 0), (0, 0, 0)), 4),
    (((1, -2, 2), (0, 0, 1), (2, -1, 0)), 4),
    (((-2, 2, 0), (2, -2, 0), (1, 1, -2)), 4),
    (((2, 1, -1), (-1, 2, 1), (0, 0, 2)), 4),
    (((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)), 2),
    (((1, 0, 0, 1), (0, 1, 0, 1), (0, 1, 1, 0)), 2),
    (((2, 0, -2, 1), (1, 1, -1, 0), (1, 0, -1, 1)), 2),
]


def check_block_products(weights, degree, oracle):
    # every product of basis elements of two adjacent blocks, and one
    # product of combinations with fractional coefficients
    lam, mu, nu = weights
    us, vs = udot_basis_upto(lam, mu, degree), udot_basis_upto(mu, nu, degree)
    assert us and vs
    for u in us:
        for v in vs:
            assert udot_multiply(u, v) == oracle(u, v), (u.terms, v.terms)
    x = sum(us[1:], us[0].scale(Fraction(-2, 3)))
    y = vs[-1].scale(Fraction(5, 2)) + vs[0]
    assert udot_multiply(x, y) == oracle(x, y)


@pytest.mark.parametrize("weights, degree", ADJACENT_BLOCKS)
def test_word_path_matches_plain_power_oracle(weights, degree):
    check_block_products(weights, degree, oracle_multiply)


# The paper's descent, as a word-free oracle: shift the weights so far that
# psi_r is injective on the patterns of the product's degree, multiply the
# truncations by row moves, and read the patterns back off the result.


def act(runs, vec):
    """The runs (a, b, m), rightmost first, acting on an integer
    combination of orbit matrices by row moves."""
    for a, b, m in runs:
        nxt = {}
        for rows, c in vec.items():
            new = list(rows)
            for new[a], new[b], k in schur._row_move(m, rows[a], rows[b]):
                key = tuple(new)
                nxt[key] = nxt.get(key, 0) + c * k
        vec = {key: c for key, c in nxt.items() if c}
    return vec


def descent_multiply(u, v):
    """u * v from psi_r(u) psi_r(v) at weights shifted by k, where mu + k
    and nu + k are at least d = deg u + deg v entrywise and lam + k is
    nonnegative, r = |nu| + nk.  There the image of pattern p has the one
    term xi_(diag + p) of top off-diagonal degree, with coefficient 1, so
    the product is peeled top degree first."""
    if u.right != v.left:
        return udot_zero(u.n, u.left, v.right)
    n, lam, mu, nu = u.n, u.left, u.right, v.right
    d = max(map(sum, u.num)) + max(map(sum, v.num))
    k = max(d - min(mu + nu), -min(lam))
    right = tuple(x + k for x in nu)

    def runs(p):
        lower, upper = enveloping._offdiag_runs(pattern_matrix(p, n))
        return upper + lower

    def offdiag(a):
        return sum(map(sum, a)) - sum(a[i][i] for i in range(n))

    psi_v = {}
    for q, c in v.num.items():
        for a, x in act(runs(q), {schur._diagonal(right): 1}).items():
            psi_v[a] = psi_v.get(a, 0) + c * x
    vec = {}
    for p, c in u.num.items():
        for a, x in act(runs(p), psi_v).items():
            vec[a] = vec.get(a, 0) + c * x
    vec = {a: x for a, x in vec.items() if x}
    out = {}
    while vec:
        top = max(vec, key=lambda a: (offdiag(a), a))
        p, c = matrix_pattern(top), vec[top]
        assert sum(p) <= d
        image = act(runs(p), {schur._diagonal(right): 1})
        assert image[top] == 1 and all(offdiag(a) < offdiag(top) for a in image if a != top)
        out[p] = Fraction(c, u.den * v.den)
        for a, x in image.items():
            vec[a] = vec.get(a, 0) - c * x
            if not vec[a]:
                del vec[a]
    return UdotElement(n, lam, nu, out)


@pytest.mark.parametrize("weights, degree", ADJACENT_BLOCKS)
def test_word_path_matches_descent_oracle(weights, degree):
    check_block_products(weights, degree, descent_multiply)


def _gl3_block_products(lam):
    """Every product u * v, u and v in udot_basis_upto(lam, lam, 6) in basis
    order, as JSON; pinned as gl3-block-products-<lam>, as it was while
    products straightened plain powers in U(gl_3).  Degree 6 reaches rule
    terms with t >= 3, which the oracle ranges do not."""
    basis = udot_basis_upto(lam, lam, 6)
    return [udot_multiply(u, v).to_json() for u in basis for v in basis]


@pytest.mark.parametrize("lam", [(0, 0, 0), (1, -2, 0)])
def test_gl3_block_products_are_pinned(lam):
    payload = json.dumps(_gl3_block_products(lam), sort_keys=True).encode()
    assert mismatch(PINS["gl3-block-products-" + ",".join(map(str, lam))], 0, payload) is None


@pytest.mark.parametrize("lam, mu", [((0, 0, 0), (0, 0, 0)), ((1, -2, 2), (0, 0, 1)), ((2, 1, -1), (-1, 2, 1))])
def test_relabel_matches_plain_power_oracle(lam, mu):
    basis = udot_basis_upto(lam, mu, 4)
    for w in itertools.permutations((1, 2, 3)):
        for u in basis:
            assert udot_relabel(u, w) == oracle_relabel(u, w), (w, u.terms)


def test_udot_needs_no_enveloping_straightener(monkeypatch):
    # n >= 3 products and relabellings rewrite divided powers at a weight:
    # with U(gl_n)'s straightener patched to raise, every product and
    # relabelling in the gl_3 (0,0,0) block at degree 4 still equals the
    # plain-power oracle, computed before the patch
    basis = udot_basis_upto((0, 0, 0), (0, 0, 0), 4)
    perms = list(itertools.permutations((1, 2, 3)))
    products = [oracle_multiply(u, v) for u in basis for v in basis]
    relabels = [oracle_relabel(u, w) for u in basis for w in perms]

    def refuse(*args):
        raise AssertionError("straightened in U(gl_n)")

    for name in ("_insert", "_word_product", "_straighten"):
        monkeypatch.setattr(enveloping, name, refuse)
    udot._rewrite.cache_clear()
    assert [udot_multiply(u, v) for u in basis for v in basis] == products
    assert [udot_relabel(u, w) for u in basis for w in perms] == relabels
    x = enveloping.matrix_unit(3, 1, 2)
    with pytest.raises(AssertionError, match="straightened in U"):
        u_multiply(x, x)
    with pytest.raises(AssertionError, match="straightened in U"):
        u_relabel(x, (2, 1, 3))


def test_udot_builds_no_enveloping_element(monkeypatch):
    # products, relabelling and truncation work on the lifted words alone
    def refuse(*args, **kwargs):
        raise AssertionError("an enveloping-algebra element was built")

    forms = ("fe", "ef", "fe-middle", "ef-middle")
    a = ((1, 1, 0), (0, 1, 1), (1, 0, 0))
    u = udot_basis_upto((1, 1, 1), (1, 1, 1), 3)[-1]
    v = udot_basis_upto((1, 1, 1), (2, 0, 1), 3)[-1]
    block = udot_basis_upto((1, 1, 1), (2, 0, 1), 3)
    expected = (
        oracle_multiply(u, v),
        oracle_relabel(v, (2, 3, 1)),
        [to_schur(x, 3) for x in block],
        [pbw_image(a, f) for f in forms],
    )
    assert not all(x.is_zero for x in expected[2])
    udot._lift.cache_clear()
    monkeypatch.setattr(enveloping.UElement, "__init__", refuse)
    assert udot_multiply(u, v) == expected[0]
    assert udot_relabel(v, (2, 3, 1)) == expected[1]
    assert [to_schur(x, 3) for x in block] == expected[2]
    assert [pbw_image(a, f) for f in forms] == expected[3]
    assert suite_psi(3, 3).passed


def test_gl2_table_degree_40():
    assert gl2_generic_table((1, -2), 40).passed


def sl2_scalar(N, j, a):
    """Action of the degree-a diagonal generator on the weight space of
    the (N+1)-dimensional module picked out by j."""
    return comb(j, a) * comb(N - j + a, a)


@pytest.mark.parametrize("lam", [(3, 1), (1, 1), (0, 0), (1, -2), (-2, -4), (5, 0)])
def test_gl2_table_against_sl2_modules(lam):
    degree = 4
    table = gl2_generic_table(lam, degree)
    assert table.passed
    lt = lam[0] - lam[1]
    for (a, c), coeffs in table.products.items():
        for t in range(degree + 3):
            N = abs(lt) + 2 * t
            j = (N - lt) // 2
            lhs = sl2_scalar(N, j, a) * sl2_scalar(N, j, c)
            rhs = sum(int(g) * sl2_scalar(N, j, d) for d, g in coeffs.items())
            assert lhs == rhs


def test_sl_weight():
    assert sl_weight((3, 1)) == (2,)
    assert sl_weight((1, 2, 0)) == (-1, 2)


def test_commutator_scalar_examples():
    for lam in [(0, 5), (3, 1), (-2, -2)]:
        f = divided_generators(1, 1, lam, "f")
        e_up = divided_generators(1, 1, f.left, "e")
        ef = udot_multiply(e_up, f)
        e = divided_generators(1, 1, lam, "e")
        f_dn = divided_generators(1, 1, e.left, "f")
        fe = udot_multiply(f_dn, e)
        diff = ef - fe
        scalar = lam[0] - lam[1]
        expected = UdotElement(2, lam, lam, {(0, 0): Fraction(scalar)})
        assert diff == expected


def test_divided_generators_blocks():
    lam = (2, 1, 0)
    x = divided_generators(2, 2, lam, "e")
    assert x.right == lam
    assert x.left == (2, 3, -2)
    y = divided_generators(1, 1, lam, "f")
    assert y.left == (1, 2, 0)


def test_divided_generator_weights_move_by_simple_roots():
    # e_i^(a) 1_lam lies in the block (lam + a alpha_i, lam), f_i^(a) 1_lam
    # in (lam - a alpha_i, lam)
    for n in range(2, 5):
        for lam in itertools.product(range(-1, 2), repeat=n):
            for i in range(1, n):
                alpha = tuple((k == i - 1) - (k == i) for k in range(n))
                for a in range(3):
                    for side, sign in (("e", 1), ("f", -1)):
                        x = divided_generators(i, a, lam, side)
                        assert x.right == lam
                        assert x.left == tuple(l + sign * a * r for l, r in zip(lam, alpha))
                        assert list(x.terms.values()) == [1]


def test_divided_generator_images_match_pbw():
    # e_1^(1) 1_(1,1) lands on the margin matrix with the raising entry
    lam = (1, 1)
    x = divided_generators(1, 1, lam, "e")
    img = to_schur(x, 2)
    a = ((1, 1), (0, 0))
    assert img == pbw_image(a, "fe")


def test_to_schur_unit_and_cone():
    for lam in compositions(2, 2):
        u = udot_element(lam, lam, (0, 0))
        assert to_schur(u, 2) == idempotent(lam)
    off = udot_element((3, -1), (2, 0), (1, 0))
    assert to_schur(off, 2).is_zero
    wrong_degree = udot_element((1, 0), (1, 0), (0, 0))
    assert to_schur(wrong_degree, 2).is_zero


def test_to_schur_multiplicative_seeded():
    rng = random.Random(5)
    r = 3
    lams = compositions(2, r)
    for _ in range(40):
        lam, mu, nu = (rng.choice(lams) for _ in range(3))
        us = udot_basis_upto(lam, mu, r)
        vs = udot_basis_upto(mu, nu, r)
        if not us or not vs:
            continue
        u = rng.choice(us)
        v = rng.choice(vs)
        lhs = to_schur(udot_multiply(u, v), r)
        rhs = schur_multiply(to_schur(u, r), to_schur(v, r))
        assert lhs == rhs


def test_to_schur_surjective_rank():
    from schuralg.exact_linalg import exact_rank

    lam, mu = (2, 1), (1, 2)
    basis = udot_basis_upto(lam, mu, 3)
    images = [to_schur(x, 3).terms for x in basis]
    assert exact_rank(images) == len(margin_matrices(lam, mu))


def _block_images(lam, mu):
    """The per-pattern oracle of udot._walk_images: the integer images
    in S(n, |mu|) of udot_basis_upto(lam, mu, |mu|), in its order and
    refused as it is, each the pattern's reversed word applied to 1_mu."""
    return [schur._apply_runs(udot._lift(len(lam), p)[::-1], tuple(mu)) for p in udot._basis_patterns(lam, mu, sum(mu))]


@pytest.mark.parametrize("n,r", [(2, 4), (3, 3), (3, 4)])
def test_block_images_are_the_truncated_basis(n, r):
    for lam in compositions(n, r):
        for mu in compositions(n, r):
            images = _block_images(lam, mu)
            assert images == [to_schur(x, r).terms for x in udot_basis_upto(lam, mu, r)]
            assert all(type(v) is int for image in images for v in image.values())


def test_block_images_are_refused_as_the_basis():
    assert _block_images((1, 0), (0, 2)) == []
    assert _block_images((2, -1), (1, 0)) == [{}]
    # the last degree the basis admits, 67, and the first refused one; a
    # block that moves all of mu from index 3 to index 1 has the one
    # pattern E_13^(mu_3)
    assert _block_images((67, 0, 0), (0, 0, 67)) == [{((0, 0, 67), (0, 0, 0), (0, 0, 0)): 1}]
    for lam, mu in [((68, 0, 0), (0, 0, 68)), ((-1, 0), (0, -1)), ((1, 0), (1,))]:
        with pytest.raises(Exception) as basis:
            udot_basis_upto(lam, mu, sum(mu))
        with pytest.raises(type(basis.value), match=re.escape(str(basis.value))):
            _block_images(lam, mu)


@pytest.mark.parametrize("n,r_max", [(1, 6), (2, 6), (3, 6), (4, 4)])
def test_images_by_left_match_the_pattern_oracle(n, r_max):
    # each left weight's nonzero images, as a multiset, are the nonzero
    # per-pattern images of its block, in integers
    def multiset(images):
        return sorted(sorted(x.items()) for x in images if x)

    for r in range(r_max + 1):
        weights = compositions(n, r)
        for mu in weights:
            tables = _walked_images(mu, r)
            assert tables.keys() <= set(weights)
            for lam in weights:
                images = tables.get(lam, [])
                assert all(x and all(type(v) is int for v in x.values()) for x in images)
                assert multiset(images) == multiset(_block_images(lam, mu))


def _walked_images(mu, degree):
    """The images the walk reports for 1_mu, collected by left weight."""
    tables = {}
    udot._walk_images(mu, degree, lambda left, image: tables.setdefault(left, []).append(image))
    return tables


def test_images_by_left_are_refused_at_their_edge():
    # n = 3 has six cells, so C(d + 6, 6) patterns of degree at most d:
    # 906,192 at d = 26, 1,107,568 at d = 27.  A zero weight makes no move,
    # so the admitted side returns at once.
    zero = ((0, 0, 0),) * 3
    assert _walked_images((0, 0, 0), 26) == {(0, 0, 0): [{zero: 1}]}
    with pytest.raises(ResourceLimitError, match=re.escape("1107568 compositions of 27 into 7 parts")):
        _walked_images((0, 0, 0), 27)


def test_lift_reverses_the_runs_into_unit_key_order():
    # the word _lift once sorted by enveloping._unit_key
    for n in (1, 2, 3):
        for p in itertools.product(range(3), repeat=n * (n - 1)):
            lower, upper = enveloping._offdiag_runs(pattern_matrix(p, n))
            assert udot._lift(n, p) == tuple(sorted(lower + upper, key=lambda g: enveloping._unit_key(g[:2])))


def test_psi_walks_each_right_weight_once(monkeypatch):
    # the surjectivity rows of n <= 3, r <= 4 have 5 + 15 + 35 right weights
    real, walked = udot._walk_images, []

    def walk(mu, degree, emit):
        walked.append((mu, degree))
        real(mu, degree, emit)

    monkeypatch.setattr(udot, "_walk_images", walk)
    assert run_suite("psi", n_max=3, r_max=4).passed
    assert len(walked) == 55
    assert walked == [(mu, r) for n in (1, 2, 3) for r in range(5) for mu in compositions(n, r)]


def test_shift_invariance_seeded():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 3)
        cells = offdiag_cells(n)
        mu = tuple(rng.randint(-3, 3) for _ in range(n))
        p1 = tuple(rng.randint(0, 2) for _ in cells)
        p2 = tuple(rng.randint(0, 2) for _ in cells)
        d1 = pattern_delta(p1, n)
        d2 = pattern_delta(p2, n)
        u = udot_element(tuple(m + d for m, d in zip(mu, d1)), mu, p1)
        v = udot_element(mu, tuple(m - d for m, d in zip(mu, d2)), p2)
        k = rng.randint(-4, 4)
        lhs = shift(udot_multiply(u, v), k)
        rhs = udot_multiply(shift(u, k), shift(v, k))
        assert lhs == rhs


def test_relabel_unit():
    lam = (3, -1, 2)
    w = (2, 3, 1)
    unit = udot_element(lam, lam, (0,) * 6)
    out = udot_relabel(unit, w)
    assert out.left == permute_weight(lam, w)
    assert out.terms == {(0,) * 6: Fraction(1)}


def test_relabel_roundtrip():
    rng = random.Random(23)
    w = (3, 1, 2)
    for _ in range(10):
        mu = tuple(rng.randint(-2, 2) for _ in range(3))
        p = tuple(rng.randint(0, 1) for _ in range(6))
        d = pattern_delta(p, 3)
        u = udot_element(tuple(m + x for m, x in zip(mu, d)), mu, p)
        back = udot_relabel(udot_relabel(u, w), perm_inverse(w))
        assert back == u


def test_relabel_multiplicative_seeded():
    rng = random.Random(29)
    for w in [(2, 1, 3), (3, 2, 1)]:
        for _ in range(15):
            mu = tuple(rng.randint(-2, 2) for _ in range(3))
            us = udot_basis_upto(mu, mu, 2)
            u = rng.choice(us)
            v = rng.choice(us)
            lhs = udot_relabel(udot_multiply(u, v), w)
            rhs = udot_multiply(udot_relabel(u, w), udot_relabel(v, w))
            assert lhs == rhs


def test_symmetric_group_quotient_small():
    for r in [1, 2, 3]:
        report = symmetric_group_quotient(r)
        assert report.passed
        assert report.rank == report.expected_rank
        assert report.integral
        assert report.multiplicative


def test_symmetric_group_quotient_guard():
    with pytest.raises(ResourceLimitError):
        symmetric_group_quotient(5)


def test_gl2_table_json():
    table = gl2_generic_table((2, 0), 2)
    payload = table.to_json()
    assert payload["lambda"] == [2, 0]
    assert payload["passed"] is True
    assert payload["degree"] == 2


def test_udot_json_roundtrip():
    u = udot_element((2, -1), (1, 0), (1, 0)).scale(Fraction(5, 3))
    assert UdotElement.from_json(u.to_json()) == u


def test_psi_ranks_every_image(monkeypatch):
    # an image outside its block, after the block's full rank is reached,
    # must still fail the row
    real = udot._walk_images
    stray = {((1, 1), (1, 0)): 1}

    def walk(mu, degree, emit):
        real(mu, degree, emit)
        if mu == (1, 1):
            emit(mu, stray)

    monkeypatch.setattr(udot, "_walk_images", walk)
    report = run_suite("psi", n_max=2, r_max=2)
    failed = {c.id: c.witness for c in report.checks if not c.passed}
    assert failed == {"psi-surjective-n2-r2": "rank over at lam=(1, 1) mu=(1, 1): 3 against 2"}


def test_psi_certifies_every_block_of_the_benchmark_range(monkeypatch):
    # distinct leads as many as keys rank every block: no echelon is built
    def refuse(*args):
        raise AssertionError("a block fell back to the echelon")

    monkeypatch.setattr(verify, "echelon_add", refuse)
    assert run_suite("psi", n_max=3, r_max=4).passed


def test_psi_certifies_every_block_one_step_above_the_benchmark_range(monkeypatch):
    # r_max = 6 is above the defaults: its blocks are certified too
    def refuse(*args):
        raise AssertionError("a block fell back to the echelon")

    monkeypatch.setattr(verify, "echelon_add", refuse)
    assert run_suite("psi", n_max=3, r_max=6).passed


S, T = ((2, 0), (0, 0)), ((0, 0), (0, 2))


@pytest.mark.parametrize("extra", [
    # its lead repeats the antidiagonal's, and it adds the stray key S
    [{((0, 1), (1, 0)): 1, S: 1}],
    # one new lead (S) and two stray keys, but rank one more: |keys| would read 4
    [{S: 1, T: 1}, {S: 2, T: 2}],
])
def test_psi_ranks_an_uncertified_block_by_its_echelon(monkeypatch, extra):
    real, walked = udot._walk_images, []

    def walk(mu, degree, emit):
        walked.append((mu, degree))
        real(mu, degree, emit)
        if mu == (1, 1):
            for image in extra:
                emit(mu, image)

    monkeypatch.setattr(udot, "_walk_images", walk)
    report = run_suite("psi", n_max=2, r_max=2)
    failed = {c.id: c.witness for c in report.checks if not c.passed}
    assert failed == {"psi-surjective-n2-r2": "rank over at lam=(1, 1) mu=(1, 1): 3 against 2"}
    # only the uncertified right weight is walked again
    assert walked.count(((1, 1), 2)) == 2
    assert len(walked) == len(set(walked)) + 1
