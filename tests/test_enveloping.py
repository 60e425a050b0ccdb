import hashlib
import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from schuralg import enveloping, exact_linalg, schur, verify
from schuralg.enveloping import (
    UElement,
    divided_monomial,
    integrality_coords,
    matrix_unit,
    minus_weight,
    monomial_degree,
    monomial_weight,
    pbw_image,
    plus_weight,
    root_pairs,
    tensor_rep,
    u_multiply,
    u_one,
    u_relabel,
    verify_weight_idempotent,
)
from schuralg.errors import ResourceLimitError
from schuralg.exact_linalg import unimodular_change
from schuralg.schur import SchurElement, hom_basis
from schuralg.weights import compositions, margin_matrices


def test_root_pairs():
    assert root_pairs(2) == ((1, 2),)
    assert root_pairs(3) == ((1, 2), (1, 3), (2, 3))


def test_unit_one():
    one = u_one(2)
    f = matrix_unit(2, 2, 1)
    assert u_multiply(one, f) == f
    assert u_multiply(f, one) == f


def test_chevalley_bracket_n2():
    e = matrix_unit(2, 1, 2)
    f = matrix_unit(2, 2, 1)
    h1 = matrix_unit(2, 1, 1)
    h2 = matrix_unit(2, 2, 2)
    comm = u_multiply(e, f) - u_multiply(f, e)
    assert comm == h1 - h2


def test_bracket_h_e():
    e = matrix_unit(2, 1, 2)
    h1 = matrix_unit(2, 1, 1)
    comm = u_multiply(h1, e) - u_multiply(e, h1)
    assert comm == e


def test_serre_like_n3():
    # [e_12, e_23] = e_13 and e_13 commutes with both
    e12 = matrix_unit(3, 1, 2)
    e23 = matrix_unit(3, 2, 3)
    e13 = matrix_unit(3, 1, 3)
    assert u_multiply(e12, e23) - u_multiply(e23, e12) == e13
    assert u_multiply(e12, e13) == u_multiply(e13, e12)


def test_straightening_ef():
    x = divided_monomial(2, ((0, 1), (1, 0)), (), "ef")
    assert x.terms == {
        ((1,), (0, 0), (1,)): Fraction(1),
        ((0,), (1, 0), (0,)): Fraction(1),
        ((0,), (0, 1), (0,)): Fraction(-1),
    }


def test_divided_monomial_fe_needs_no_straightening():
    x = divided_monomial(2, ((0, 2), (3, 0)), (), "fe")
    assert x.terms == {((3,), (0, 0), (2,)): Fraction(1, 12)}


def test_divided_monomial_validates():
    with pytest.raises(ValueError):
        divided_monomial(2, ((1, 0), (0, 0)), (), "fe")
    with pytest.raises(ValueError):
        divided_monomial(2, ((0, 1), (1, 0)), (), "middle")


def test_monomial_grading():
    m = ((2,), (1, 0), (1,))
    assert monomial_degree(m) == 4
    assert monomial_weight(2, m) == (1 - 2, 2 - 1)


def test_integrality_coords_plain_square():
    f = matrix_unit(2, 2, 1)
    f2 = u_multiply(f, f)
    coords, integral = integrality_coords(f2)
    assert coords == {((2,), (0, 0), (0,)): Fraction(2)}
    assert integral


def test_integrality_coords_divided():
    x = divided_monomial(2, ((0, 1), (2, 0)), (1, 0), "fe")
    coords, integral = integrality_coords(x)
    assert coords == {((2,), (1, 0), (1,)): Fraction(1)}
    assert integral


def test_integrality_coords_detects_fractions():
    f = matrix_unit(2, 2, 1)
    half = u_multiply(f, f).scale(Fraction(1, 2))
    coords, integral = integrality_coords(half)
    assert coords == {((2,), (0, 0), (0,)): Fraction(1)}
    assert integral
    third = u_multiply(f, f).scale(Fraction(1, 3))
    _, integral = integrality_coords(third)
    assert not integral


def test_integrality_of_divided_products():
    rng = random.Random(11)
    for _ in range(25):
        factors = []
        for _ in range(rng.randint(2, 3)):
            a = rng.randint(1, 3)
            if rng.random() < 0.5:
                pat = ((0, a), (0, 0))
            else:
                pat = ((0, 0), (a, 0))
            factors.append(divided_monomial(2, pat, (), "fe"))
        prod = factors[0]
        for x in factors[1:]:
            prod = u_multiply(prod, x)
        _, integral = integrality_coords(prod)
        assert integral


def test_tensor_rep_letters():
    h1 = matrix_unit(2, 1, 1)
    assert tensor_rep(h1, 1).entries == {((1,), (1,)): Fraction(1)}
    e = matrix_unit(2, 1, 2)
    assert tensor_rep(e, 1).entries == {((1,), (2,)): Fraction(1)}
    f = matrix_unit(2, 2, 1)
    assert tensor_rep(f, 2).entries == {
        ((2, 1), (1, 1)): Fraction(1),
        ((1, 2), (1, 1)): Fraction(1),
        ((2, 2), (1, 2)): Fraction(1),
        ((2, 2), (2, 1)): Fraction(1),
    }


def test_tensor_rep_is_homomorphism_seeded():
    rng = random.Random(7)
    pairs = root_pairs(3)

    def random_element():
        terms = {}
        for _ in range(2):
            f = [0] * len(pairs)
            h = [0] * 3
            e = [0] * len(pairs)
            for _ in range(rng.randint(0, 4)):
                bucket = rng.randint(0, 2)
                if bucket == 0:
                    f[rng.randrange(len(pairs))] += 1
                elif bucket == 1:
                    h[rng.randrange(3)] += 1
                else:
                    e[rng.randrange(len(pairs))] += 1
            terms[(tuple(f), tuple(h), tuple(e))] = Fraction(rng.randint(-3, 3))
        return UElement(3, terms)

    for _ in range(50):
        x = random_element()
        y = random_element()
        lhs = tensor_rep(u_multiply(x, y), 3)
        rhs = tensor_rep(x, 3).compose(tensor_rep(y, 3))
        assert lhs == rhs


def test_cartan_binomials_are_integer_falling_factorials():
    assert enveloping._binom_poly(3) == (0, 2, -3, 1)
    # 2! binom(H_1, 2) * binom(H_2, 1) = (H_1^2 - H_1) H_2
    assert enveloping._h_binom_terms(2, (2, 1)) == (((1, 1), -1), ((2, 1), 1))


def test_weight_idempotent_lemma():
    for n, r in [(2, 2), (2, 3), (3, 3)]:
        for lam in compositions(n, r):
            assert verify_weight_idempotent(lam)


def test_idem_lemma_cost_counts_binomial_terms():
    # the cost model of verify idem-lemma sums, per slice, the terms of the
    # expanded binom(H, lam) over the weights lam; count them here from the
    # expansion itself
    for n in range(1, 4):
        zero = tuple((0,) * n for _ in range(n))
        for r in range(7):
            terms = sum(len(divided_monomial(n, zero, lam).terms) for lam in compositions(n, r))
            assert verify._binom_term_sum(n, r) == terms


def test_idem_lemma_refused_before_checking(monkeypatch):
    def refuse(*args):
        raise AssertionError("no check may run once the cost is over the limit")

    monkeypatch.setattr(verify.env, "verify_weight_idempotent", refuse)
    with pytest.raises(ResourceLimitError, match="idem-lemma up to n=3, r=13 sums 1046815 terms"):
        verify.suite_idem_lemma(3, 13)


def test_plus_minus_weight():
    a = ((1, 1), (0, 1))
    assert plus_weight(a) == (1, 2)
    assert minus_weight(a) == (2, 1)
    diag = ((2, 0), (0, 1))
    assert plus_weight(diag) == (2, 1)
    assert minus_weight(diag) == (2, 1)


def test_pbw_image_forms_agree():
    for lam in compositions(2, 3):
        for mu in compositions(2, 3):
            for a in margin_matrices(lam, mu):
                fe = pbw_image(a, "fe")
                ef = pbw_image(a, "ef")
                assert pbw_image(a, "fe-middle") == fe
                assert pbw_image(a, "ef-middle") == ef
                assert fe.integral()
                assert ef.integral()


def test_pbw_image_identity_matrix():
    a = ((2, 0), (0, 1))
    img = pbw_image(a, "fe")
    assert img.terms == {a: Fraction(1)}


def test_pbw_images_unimodular():
    for lam in compositions(2, 2):
        for mu in compositions(2, 2):
            margins = margin_matrices(lam, mu)
            xi = [x.terms for x in hom_basis(lam, mu)]
            fe = [pbw_image(a, "fe").terms for a in margins]
            ef = [pbw_image(a, "ef").terms for a in margins]
            assert unimodular_change(fe, xi)
            assert unimodular_change(ef, xi)


def pbw_block_reference(lam, mu):
    """The zbas row as it stood when it solved for coordinates: the same
    middle-form and integrality checks, then each family put through
    unimodular_change against the orbit basis hom_basis(lam, mu)."""
    margins = margin_matrices(lam, mu)
    xi = hom_basis(lam, mu)
    images = {form: [enveloping.pbw_image(a, form) for a in margins] for form in ("fe", "ef")}
    for form, family in images.items():
        for a, x in zip(margins, family):
            if enveloping.pbw_image(a, f"{form}-middle") != x:
                return f"{form}-middle mismatch at {a}"
    if not all(x.integral() for family in images.values() for x in family):
        return f"non-integer coefficients at lam={lam} mu={mu}"
    for form, family in images.items():
        if not unimodular_change(family, xi):
            return f"{form} family not unimodular at lam={lam} mu={mu}"
    return None


@pytest.mark.parametrize("n", [1, 2, 3])
def test_zbas_row_matches_coordinate_reference(n):
    for r in range(5):
        for lam in compositions(n, r):
            for mu in compositions(n, r):
                assert verify._pbw_block(lam, mu) is None
                assert pbw_block_reference(lam, mu) is None


# Changes of the images x0, x1 of the first two margin matrices of one
# block, given a term z of another block, and the witness each must give
# (None: the family stays a Z-basis; swapping has determinant -1).
PERTURBATIONS = {
    "doubled": (lambda x0, x1, z: (x0.scale(2), x1), "{form} family not unimodular"),
    "swapped": (lambda x0, x1, z: (x1, x0), None),
    "plus-another": (lambda x0, x1, z: (x0 + x1, x1), None),
    "term-outside": (lambda x0, x1, z: (x0 + z, x1), "{form} family not unimodular"),
    "halved": (lambda x0, x1, z: (x0.scale(Fraction(1, 2)), x1), "non-integer coefficients"),
}


@pytest.mark.parametrize("form", ["fe", "ef"])
@pytest.mark.parametrize("kind", sorted(PERTURBATIONS))
def test_zbas_row_matches_reference_on_perturbed_families(monkeypatch, kind, form):
    lam, mu = (2, 1, 1), (1, 2, 1)
    a0, a1 = margin_matrices(lam, mu)[:2]
    z = SchurElement(3, 4, {margin_matrices(mu, lam)[0]: 1})
    change, expected = PERTURBATIONS[kind]
    original = enveloping._pbw_image
    changed = dict(zip((a0, a1), change(original(a0, form), original(a1, form), z)))

    def perturbed(a, f):
        # the middle form follows its outer form, so only the family changes
        if f.removesuffix("-middle") == form and a in changed:
            return changed[a]
        return original(a, f)

    # the zbas row and pbw_image both read margin matrices through _pbw_image
    monkeypatch.setattr(enveloping, "_pbw_image", perturbed)
    witness = verify._pbw_block(lam, mu)
    assert witness == pbw_block_reference(lam, mu)
    assert witness == (expected and f"{expected.format(form=form)} at lam={lam} mu={mu}")


def test_zbas_solves_for_no_coordinates(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("coordinates solved against the orbit basis")

    monkeypatch.setattr(exact_linalg.CoordinateSolver, "__init__", refuse)
    monkeypatch.setattr(exact_linalg, "unimodular_change", refuse)
    monkeypatch.setattr(schur, "hom_basis", refuse)
    report = verify.run_suite("zbas", n_max=3, r_max=4)
    data = (json.dumps(report.to_json(), sort_keys=True) + "\n").encode()
    # SHA-256 and length of `schuralg verify zbas --n-max 3 --r-max 4`
    # stdout, recorded while the row still solved for coordinates
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "47a36f0bf0b51a3148fc2171dec3b3d2fc4252dec9263a8c202ca692fc2e8b77", 997
    )


def test_zbas_reads_the_forced_weights_not_the_middle_forms(monkeypatch):
    calls = Counter()
    original = enveloping._pbw_image

    def outer_only(a, form):
        if form.endswith("-middle"):
            raise AssertionError("middle form built")
        calls[form] += 1
        return original(a, form)

    monkeypatch.setattr(enveloping, "_pbw_image", outer_only)
    report = verify.run_suite("zbas", n_max=3, r_max=4)
    data = (json.dumps(report.to_json(), sort_keys=True) + "\n").encode()
    # the digest of test_zbas_solves_for_no_coordinates
    assert hashlib.sha256(data).hexdigest() == "47a36f0bf0b51a3148fc2171dec3b3d2fc4252dec9263a8c202ca692fc2e8b77"
    # one image per form and margin matrix
    matrices = sum(len(margin_matrices(lam, mu)) for n in (1, 2, 3) for r in range(5)
                   for lam in compositions(n, r) for mu in compositions(n, r))
    assert calls == {"fe": matrices, "ef": matrices}


def test_zbas_splits_each_matrix_once_per_form(monkeypatch):
    # the middle checks share one split per matrix; _pbw_image makes the other
    calls = Counter()
    original = enveloping._offdiag_runs

    def counted(a):
        calls[a] += 1
        return original(a)

    monkeypatch.setattr(enveloping, "_offdiag_runs", counted)
    assert verify.run_suite("zbas", n_max=3, r_max=3).passed
    matrices = {a for n in (1, 2, 3) for r in range(4) for lam in compositions(n, r)
                for mu in compositions(n, r) for a in margin_matrices(lam, mu)}
    assert calls.keys() == matrices and set(calls.values()) == {3}


def test_pbw_image_rejects_bad_form():
    with pytest.raises(ValueError):
        pbw_image(((1, 0), (0, 1)), "middle")


def test_u_relabel_is_automorphism():
    rng = random.Random(13)
    pairs = root_pairs(3)

    def random_element():
        terms = {}
        for _ in range(2):
            f = [0] * len(pairs)
            h = [0] * 3
            e = [0] * len(pairs)
            for _ in range(rng.randint(0, 3)):
                bucket = rng.randint(0, 2)
                if bucket == 0:
                    f[rng.randrange(len(pairs))] += 1
                elif bucket == 1:
                    h[rng.randrange(3)] += 1
                else:
                    e[rng.randrange(len(pairs))] += 1
            terms[(tuple(f), tuple(h), tuple(e))] = Fraction(rng.randint(-2, 3))
        return UElement(3, terms)

    for w in [(2, 1, 3), (1, 3, 2), (3, 1, 2)]:
        for _ in range(10):
            x = random_element()
            y = random_element()
            lhs = u_relabel(u_multiply(x, y), w)
            rhs = u_multiply(u_relabel(x, w), u_relabel(y, w))
            assert lhs == rhs


def test_u_relabel_letters():
    e12 = matrix_unit(3, 1, 2)
    assert u_relabel(e12, (2, 1, 3)) == matrix_unit(3, 2, 1)
    assert u_relabel(e12, (1, 2, 3)) == e12


def test_u_relabel_restraightens():
    # swapping indices turns a normal fe word into an ef word,
    # which must pick up the bracket correction
    fe = divided_monomial(2, ((0, 1), (1, 0)), (), "fe")
    out = u_relabel(fe, (2, 1))
    assert out.terms == {
        ((1,), (0, 0), (1,)): Fraction(1),
        ((0,), (1, 0), (0,)): Fraction(1),
        ((0,), (0, 1), (0,)): Fraction(-1),
    }


def test_resource_guard():
    from schuralg.errors import ResourceLimitError

    x = u_one(4)
    with pytest.raises(ResourceLimitError):
        tensor_rep(x, 12)


def _pinned_cases():
    """Seeded outputs of the U(gl_n) operations as one JSON-ready list,
    coefficients written with their type so an int leaking out shows."""
    rng = random.Random(2003)

    def coeff():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3))

    def element(n):
        npairs = len(root_pairs(n))
        terms = {}
        for _ in range(rng.randint(1, 3)):
            f = [0] * npairs
            h = [0] * n
            e = [0] * npairs
            for _ in range(rng.randint(0, 4)):
                part = rng.choice((f, h, e))
                part[rng.randrange(len(part))] += 1
            terms[(tuple(f), tuple(h), tuple(e))] = coeff()
        return UElement(n, terms)

    def terms(mapping):
        return sorted([list(map(list, m)), type(c).__name__, str(c)] for m, c in mapping.items())

    def coords(x):
        c, integral = integrality_coords(x)
        return [terms(c), integral]

    out = []
    for n in (2, 3):
        for _ in range(12):
            x, y = element(n), element(n)
            xy = u_multiply(x, y)
            w = rng.sample(range(1, n + 1), n)
            out.append(["mul", terms(xy.terms), coords(xy)])
            out.append(["relabel", w, terms(u_relabel(x, w).terms)])
            a = [[0 if i == j else rng.randint(0, 2) for j in range(n)] for i in range(n)]
            b = [rng.randint(0, 3) for _ in range(n)]
            for side in ("fe", "ef"):
                d = divided_monomial(n, a, b, side)
                out.append([side, a, b, terms(d.terms), coords(d)])
    for n in (1, 2, 3):
        for r in range(5):
            out.append(["idem", n, r, [verify_weight_idempotent(lam) for lam in compositions(n, r)]])
    return out


# SHA-256 of json.dumps(_pinned_cases()), recorded with the Fraction
# straightening loops and the 1/b! Cartan binomials these paths replaced
ENVELOPING_DIGEST = "05002155b1fd1e87bbb79573b415547b8e19019855e82118accfd2477ff9c14d"


def test_enveloping_outputs_are_pinned():
    payload = json.dumps(_pinned_cases())
    assert hashlib.sha256(payload.encode()).hexdigest() == ENVELOPING_DIGEST


def test_u_multiply_refused_before_straightening():
    # e^(2,..,2) f^(2,..,2) at n = 4, each root letter squared: degree 24,
    # which ran for minutes before the product had a guard
    n = 4
    zero_pairs, zero_h = (0,) * len(root_pairs(n)), (0,) * n
    two = (2,) * len(root_pairs(n))
    e = UElement(n, {(zero_pairs, zero_h, two): 1})
    f = UElement(n, {(two, zero_h, zero_pairs): 1})
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError, match=r"a product of degree 24 in U\(gl_4\) straightens 1 term pairs"):
        u_multiply(e, f)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("n, top", [(1, 8), (2, 8), (3, 5)])
def test_u_multiply_bound_covers_the_normal_words_of_one_weight(n, top):
    # the guard's count: at most C(d + k, k) normal words of degree at most
    # d share a weight, k = n^2 - n + 1
    npairs = len(root_pairs(n))
    for d in range(top + 1):
        by_weight = Counter(
            monomial_weight(n, (c[:npairs], c[npairs:npairs + n], c[npairs + n:-1]))
            for c in compositions(n * n + 1, d)
        )
        assert max(by_weight.values()) <= comb(d + n * n - n + 1, n * n - n + 1)
