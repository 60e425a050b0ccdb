"""The enveloping algebra of gl_n in a PBW basis, with divided powers.

Basis letters are the matrix units: lowering letters f_ij = unit (j, i)
for i < j, diagonal letters H_i = unit (i, i), raising letters e_ij =
unit (i, j) for i < j.  The bracket is

    [unit(a,b), unit(c,d)] = delta_bc unit(a,d) - delta_da unit(c,b).

A PBW monomial is (f exponents, H exponents, e exponents) with the f and
e exponents indexed by the lexicographic list of pairs i < j; its word
lists lowering letters first (in pair order), then diagonal, then raising.
Products are straightened by inserting letters one at a time into a
normal word: a letter that lands out of order is commuted past the last
letter, paying the bracket as a lower-degree correction.  The recursion
is memoized on (normal word, letter) and terminates by induction on word
length.  All coefficients are exact rationals; bracket corrections are
integers, so straightening a product of integer monomials stays integral.

Divided powers X^(a) = X^a / a! and binomial diagonals binom(H_i, b) are
derived views on top of plain-power coordinates.  integrality_coords
rewrites an element in the divided basis

    prod f_ij^(a_ji) * prod binom(H_i, b_i) * prod e_ij^(a_ij)

by triangular elimination of the H polynomial and reports whether every
coordinate is an integer.

The image of a divided monomial acting on 1_mu in the Schur algebra
needs no words: a divided power e_ab^(m) acting on weight w is the single
orbit element at diag(w) + m (E_ab - E_bb), every later weight is forced,
and the image is the ordered product of those orbit elements, zero once
a weight leaves the compositions.  pbw_image builds its four
arrangements this way.  verify_weight_idempotent needs no words either:
H_i acts on every word of weight nu as nu_i.

tensor_rep, the action on all of degree-r tensor space (unit (a, b)
rewrites one letter b to a, diagonal letters act by the letter count),
is kept as an oracle behind the tensor-space guard of schur.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Mapping, Sequence

from .exact_linalg import SparseCombination
from .schur import (
    SchurElement,
    TensorEndo,
    _validate_margin_matrix,
    _chain_sum,
    check_tensor_scale,
    _diagonal,
)
from .weights import (
    Matrix,
    Weight,
    Word,
    all_words,
    col_sums,
    compositions,
)

__all__ = [
    "root_pairs",
    "PBWMonomial",
    "UElement",
    "u_one",
    "matrix_unit",
    "monomial_degree",
    "monomial_weight",
    "u_multiply",
    "u_relabel",
    "divided_monomial",
    "integrality_coords",
    "tensor_rep",
    "verify_weight_idempotent",
    "pbw_image",
    "plus_weight",
    "minus_weight",
]

Unit = tuple[int, int]
# (f exponents, h exponents, e exponents)
PBWMonomial = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


@lru_cache(maxsize=None)
def root_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Ordered pairs i < j in {1, .., n}, lexicographic."""
    return tuple((i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1))


def _unit_key(u: Unit) -> tuple[int, int, int]:
    a, b = u
    if a > b:
        return (0, b, a)  # lowering letter f_{b,a}
    if a == b:
        return (1, a, a)
    return (2, a, b)


def _bracket(x: Unit, y: Unit) -> list[tuple[Unit, int]]:
    a, b = x
    c, d = y
    out: list[tuple[Unit, int]] = []
    if b == c:
        out.append(((a, d), 1))
    if d == a:
        out.append(((c, b), -1))
    return out


@lru_cache(maxsize=None)
def _insert(word: tuple[Unit, ...], g: Unit) -> dict[tuple[Unit, ...], int]:
    """Normal form of (normal word) * letter, with integer coefficients."""
    if not word or _unit_key(word[-1]) <= _unit_key(g):
        return {word + (g,): 1}
    x = word[-1]
    rest = word[:-1]
    out: dict[tuple[Unit, ...], int] = {}
    for w2, c2 in _insert(rest, g).items():
        for w3, c3 in _insert(w2, x).items():
            out[w3] = out.get(w3, 0) + c2 * c3
    for u, s in _bracket(x, g):
        for w2, c2 in _insert(rest, u).items():
            out[w2] = out.get(w2, 0) + s * c2
    return {w: c for w, c in out.items() if c != 0}


@lru_cache(maxsize=None)
def _word_product(w1: tuple[Unit, ...], w2: tuple[Unit, ...]) -> tuple[tuple[tuple[Unit, ...], int], ...]:
    """Normal form of the concatenation of two normal words."""
    cur: dict[tuple[Unit, ...], int] = {w1: 1}
    for g in w2:
        nxt: dict[tuple[Unit, ...], int] = {}
        for w, c in cur.items():
            for w3, c3 in _insert(w, g).items():
                nxt[w3] = nxt.get(w3, 0) + c * c3
        cur = nxt
    return tuple(sorted(cur.items()))


def _monomial_word(n: int, m: PBWMonomial) -> tuple[Unit, ...]:
    pairs = root_pairs(n)
    word: list[Unit] = []
    for idx, (i, j) in enumerate(pairs):
        word.extend([(j, i)] * m[0][idx])
    for i in range(1, n + 1):
        word.extend([(i, i)] * m[1][i - 1])
    for idx, (i, j) in enumerate(pairs):
        word.extend([(i, j)] * m[2][idx])
    return tuple(word)


def _word_monomial(n: int, word: tuple[Unit, ...]) -> PBWMonomial:
    pairs = root_pairs(n)
    pair_index = {p: k for k, p in enumerate(pairs)}
    f = [0] * len(pairs)
    h = [0] * n
    e = [0] * len(pairs)
    for a, b in word:
        if a > b:
            f[pair_index[(b, a)]] += 1
        elif a == b:
            h[a - 1] += 1
        else:
            e[pair_index[(a, b)]] += 1
    return (tuple(f), tuple(h), tuple(e))


def monomial_degree(m: PBWMonomial) -> int:
    return sum(m[0]) + sum(m[1]) + sum(m[2])


def monomial_weight(n: int, m: PBWMonomial) -> Weight:
    """Adjoint weight: raising letter e_ij contributes +1 at i, -1 at j;
    lowering letters the opposite; diagonals nothing."""
    w = [0] * n
    for idx, (i, j) in enumerate(root_pairs(n)):
        w[i - 1] += m[2][idx] - m[0][idx]
        w[j - 1] += m[0][idx] - m[2][idx]
    return tuple(w)


class UElement(SparseCombination):
    """Exact rational combination of PBW monomials for one n."""

    __slots__ = ("n",)
    _space_attrs = ("n",)

    def __init__(self, n: int, terms: Mapping[PBWMonomial, Fraction] | None = None):
        if n < 1:
            raise ValueError("need n >= 1")
        self.n = n
        npairs = len(root_pairs(n))
        for m in terms or ():
            if len(m[0]) != npairs or len(m[1]) != n or len(m[2]) != npairs:
                raise ValueError(f"malformed monomial {m} for n={n}")
            if any(x < 0 for part in m for x in part):
                raise ValueError("exponents must be nonnegative")
        super().__init__(terms)

    def __mul__(self, other: "UElement") -> "UElement":
        return u_multiply(self, other)

    def __repr__(self) -> str:
        return f"UElement(n={self.n}, {len(self.terms)} terms)"


def u_one(n: int) -> UElement:
    npairs = len(root_pairs(n))
    unit_mono: PBWMonomial = ((0,) * npairs, (0,) * n, (0,) * npairs)
    return UElement(n, {unit_mono: Fraction(1)})


def matrix_unit(n: int, a: int, b: int) -> UElement:
    """The generator for matrix unit (a, b) as a one-letter element."""
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError("unit indices out of range")
    return UElement(n, {_word_monomial(n, ((a, b),)): Fraction(1)})


def u_multiply(x: UElement, y: UElement) -> UElement:
    """Product in the enveloping algebra, straightened to PBW normal form."""
    x._check_space(y)
    out: dict[PBWMonomial, Fraction] = {}
    for m1, c1 in x.terms.items():
        w1 = _monomial_word(x.n, m1)
        for m2, c2 in y.terms.items():
            w2 = _monomial_word(x.n, m2)
            for w, c in _word_product(w1, w2):
                m = _word_monomial(x.n, w)
                out[m] = out.get(m, Fraction(0)) + c1 * c2 * c
    return x._new(out)


def u_relabel(x: UElement, w: Sequence[int]) -> UElement:
    """Index-permutation automorphism sending the unit at (a, b) to the
    unit at (w(a), w(b)), with the image restraightened to normal form.

    Permuting the letters of a normal word breaks the ordering, so the
    result is not a bare exponent relabel; bracket corrections appear.
    """
    n = x.n
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"need a permutation of 1..{n}")
    out: dict[PBWMonomial, Fraction] = {}
    for m1, c1 in x.terms.items():
        word = tuple((w[a - 1], w[b - 1]) for a, b in _monomial_word(n, m1))
        for nw, c in _word_product((), word):
            m = _word_monomial(n, nw)
            out[m] = out.get(m, Fraction(0)) + c1 * c
    return x._new(out)


@lru_cache(maxsize=256)
def _binom_poly(k: int) -> tuple[Fraction, ...]:
    """Coefficients of binom(X, k) = X(X-1)..(X-k+1)/k! by ascending power."""
    coeffs = [Fraction(1)]
    for t in range(k):
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for p, c in enumerate(coeffs):
            nxt[p + 1] += c
            nxt[p] -= t * c
        coeffs = nxt
    return tuple(c / factorial(k) for c in coeffs)


@lru_cache(maxsize=4096)
def _h_binom_terms(n: int, b: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], Fraction], ...]:
    """Expansion of prod_i binom(H_i, b_i) as {h exponent vector: coeff}."""
    out: dict[tuple[int, ...], Fraction] = {(0,) * n: Fraction(1)}
    for i, k in enumerate(b):
        poly = _binom_poly(k)
        nxt: dict[tuple[int, ...], Fraction] = {}
        for h, c in out.items():
            for p, pc in enumerate(poly):
                if pc == 0:
                    continue
                h2 = h[:i] + (h[i] + p,) + h[i + 1:]
                nxt[h2] = nxt.get(h2, Fraction(0)) + c * pc
        out = nxt
    return tuple(sorted(out.items()))


def divided_monomial(
    n: int,
    offdiag: Matrix,
    b: Sequence[int] = (),
    side: str = "fe",
) -> UElement:
    """Divided-power monomial from an off-diagonal exponent pattern.

    offdiag is an n x n matrix whose entry (i, j), i != j, is the divided
    power of the letter unit(i, j); the diagonal must be zero.  b gives
    binomial exponents for the diagonal letters.  side "fe" arranges
    lowering letters, then binomial diagonals, then raising letters (no
    straightening needed); side "ef" arranges raising, diagonals, lowering
    and is straightened into normal form.
    """
    if len(offdiag) != n or any(len(row) != n for row in offdiag):
        raise ValueError("pattern must be an n x n matrix")
    if any(offdiag[i][i] != 0 for i in range(n)):
        raise ValueError("pattern diagonal must be zero")
    if any(e < 0 for row in offdiag for e in row):
        raise ValueError("exponents must be nonnegative")
    b = tuple(b) if b else (0,) * n
    if len(b) != n or any(x < 0 for x in b):
        raise ValueError("diagonal exponents must be a nonnegative n-vector")
    pairs = root_pairs(n)
    fexp = tuple(offdiag[j - 1][i - 1] for i, j in pairs)
    eexp = tuple(offdiag[i - 1][j - 1] for i, j in pairs)
    scale = Fraction(1)
    for x in fexp + eexp:
        scale /= factorial(x)
    zero_pair = (0,) * len(pairs)
    zero_h = (0,) * n
    hterms = _h_binom_terms(n, b)
    if side == "fe":
        terms = {
            (fexp, h, eexp): c * scale for h, c in hterms
        }
        return UElement(n, terms)
    if side == "ef":
        epart = UElement(n, {(zero_pair, zero_h, eexp): scale})
        hpart = UElement(n, {(zero_pair, h, zero_pair): c for h, c in hterms})
        fpart = UElement(n, {(fexp, zero_h, zero_pair): Fraction(1)})
        return u_multiply(epart, u_multiply(hpart, fpart))
    raise ValueError("side must be 'fe' or 'ef'")


def integrality_coords(
    x: UElement,
) -> tuple[dict[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], Fraction], bool]:
    """Coordinates of x in the divided basis
    f^(a) * binom(H, b) * e^(c), and whether all are integers.

    Works per (f, e) exponent group by eliminating the H polynomial
    against the binomial products, largest exponent vector first; the
    expansion of binom(H, b) only involves powers componentwise at most b,
    so the elimination is triangular.
    """
    n = x.n
    groups: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[tuple[int, ...], Fraction]] = {}
    for (f, h, e), c in x.terms.items():
        groups.setdefault((f, e), {})[h] = c
    coords: dict[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], Fraction] = {}
    ffact: dict[tuple[int, ...], int] = {}
    for (f, e), poly in groups.items():
        scale_fe = 1
        for v in f + e:
            scale_fe *= factorial(v)
        work = dict(poly)
        while work:
            b = max(work, key=lambda h: (sum(h), h))
            coeff = work.pop(b)
            # coefficient of H^b inside binom(H, b) is 1/prod(b_i!)
            bfact = 1
            for v in b:
                bfact *= factorial(v)
            coord = coeff * bfact * scale_fe
            if coord != 0:
                coords[(f, b, e)] = coord
            for h, c in _h_binom_terms(n, b):
                if h == b:
                    continue
                delta = work.get(h, Fraction(0)) - coord / scale_fe * c
                if delta == 0:
                    work.pop(h, None)
                else:
                    work[h] = delta
    integral = all(c.denominator == 1 for c in coords.values())
    return coords, integral


def tensor_rep(x: UElement, r: int) -> TensorEndo:
    """Action on all of degree-r tensor space: an algebra homomorphism.
    Each monomial acts on a word one unit at a time, rightmost first."""
    check_tensor_scale(x.n, r)
    units = [(c, _monomial_word(x.n, m)[::-1]) for m, c in x.terms.items()]
    out: dict[tuple[Word, Word], Fraction] = {}
    for k in all_words(x.n, r):
        for coeff, word in units:
            v = {k: coeff}
            for unit in word:
                v = _apply_unit(unit, v)
            for l, c in v.items():
                out[l, k] = out[l, k] + c if (l, k) in out else c
    return TensorEndo(x.n, r, out)


def _apply_unit(unit: Unit, vec: Mapping[tuple[int, ...], Fraction]) -> dict:
    a, b = unit
    out: dict[tuple[int, ...], Fraction] = {}
    if a == b:
        for w, c in vec.items():
            m = sum(1 for v in w if v == a)
            if m:
                out[w] = out.get(w, Fraction(0)) + m * c
        return out
    for w, c in vec.items():
        for p, v in enumerate(w):
            if v == b:
                w2 = w[:p] + (a,) + w[p + 1:]
                out[w2] = out.get(w2, Fraction(0)) + c
    return {w: c for w, c in out.items() if c != 0}


def verify_weight_idempotent(lam: Sequence[int], r: int | None = None) -> bool:
    """Check that prod_i binom(H_i, lam_i) acts on tensor space exactly as
    the weight idempotent of lam.  H_i acts on the words of weight nu as
    nu_i, so on those words the product is the scalar
    prod_i binom(nu_i, lam_i): it must be 1 at nu = lam and 0 at every
    other composition nu of r.  The expansion is scaled once by
    D = prod_i lam_i!, which makes its coefficients integers (a
    non-integral one fails the check), so each value is an integer sum
    compared with D or 0."""
    lam = tuple(lam)
    if r is None:
        r = sum(lam)
    if r != sum(lam):
        raise ValueError("degree must match the weight")
    n = len(lam)
    x = divided_monomial(n, tuple(tuple(0 for _ in range(n)) for _ in range(n)), lam)
    scale = prod(map(factorial, lam))
    terms = [(h, c * scale) for (_, h, _), c in x.terms.items()]
    return all(c.denominator == 1 for _, c in terms) and all(
        sum(c.numerator * prod(v ** p for v, p in zip(nu, h)) for h, c in terms)
        == (scale if nu == lam else 0)
        for nu in compositions(n, r)
    )


def plus_weight(a: Matrix) -> Weight:
    """Diagonal plus everything strictly above-and-beside it columnwise:
    entry j is a_jj + sum over i < j of (a_ij + a_ji)."""
    n = len(a)
    return tuple(
        a[j][j] + sum(a[i][j] + a[j][i] for i in range(j)) for j in range(n)
    )


def minus_weight(a: Matrix) -> Weight:
    """Entry j is a_jj + sum over i > j of (a_ij + a_ji)."""
    n = len(a)
    return tuple(
        a[j][j] + sum(a[i][j] + a[j][i] for i in range(j + 1, n)) for j in range(n)
    )


def _divided_letters(offdiag: Matrix, mu: Sequence[int], side: str = "fe") -> list[Matrix] | None:
    """Orbit matrices whose ordered product, leftmost first, is the image
    of divided_monomial(n, offdiag, (), side) 1_mu in S(n, |mu|).

    The letters are taken in the order of _monomial_word ("fe": lowering
    then raising; "ef": raising then lowering), rightmost first.  A run
    e_ab^(m) of one letter acts on weight w as the single orbit element at
    diag(w) + m (E_ab - E_bb).  None when a weight leaves the compositions
    (the image is zero); the empty word gives the idempotent diag(mu).
    """
    n = len(mu)
    pairs = root_pairs(n)
    f = tuple(offdiag[j - 1][i - 1] for i, j in pairs)
    e = tuple(offdiag[i - 1][j - 1] for i, j in pairs)
    none, zero_h = (0,) * len(pairs), (0,) * n
    if side == "fe":
        word = _monomial_word(n, (f, zero_h, e))
    else:
        word = _monomial_word(n, (none, zero_h, e)) + _monomial_word(n, (f, zero_h, none))
    w = list(mu)
    letters: list[Matrix] = []
    for (a, b), run in itertools.groupby(reversed(word)):
        m = len(list(run))
        if w[b - 1] < m:
            return None
        letter = [[w[i] if i == j else 0 for j in range(n)] for i in range(n)]
        letter[b - 1][b - 1] -= m
        letter[a - 1][b - 1] += m
        w[b - 1] -= m
        w[a - 1] += m
        letters.append(tuple(map(tuple, letter)))
    return letters[::-1] or [_diagonal(mu)]


def pbw_image(a: Matrix, form: str = "fe") -> SchurElement:
    """Image in the Schur algebra of the divided monomial attached to a
    margin matrix, as an orbit-basis element combination.

    Forms: "fe" is weight-truncated lowering-then-raising
    (1_row f^(..) e^(..) 1_col); "ef" the reverse arrangement; "fe-middle"
    and "ef-middle" place a single idempotent between the two halves, at
    the weight the split forces (minus_weight and plus_weight).  The
    middle forms agree with the outer-truncated ones; tests rely on it.
    Each form is an ordered product of single orbit elements, one per
    divided power (and the middle idempotent), acting on the column
    weight col_sums(a): every intermediate weight is forced, so no word
    is written.
    """
    n, r = _validate_margin_matrix(a)
    mu = col_sums(a)

    def part(keep) -> Matrix:
        # the off-diagonal entries a[i][j] with keep(i, j)
        return tuple(tuple(a[i][j] if keep(i, j) else 0 for j in range(n)) for i in range(n))

    if form in ("fe", "ef"):
        letters = _divided_letters(part(operator.ne), mu, form)
    elif form in ("fe-middle", "ef-middle"):
        if form == "fe-middle":
            second, mid, first = operator.gt, minus_weight(a), operator.lt
        else:
            second, mid, first = operator.lt, plus_weight(a), operator.gt
        # the first half acts on mu, the second on the middle weight
        halves = _divided_letters(part(second), mid), _divided_letters(part(first), mu)
        letters = None if None in halves else halves[0] + [_diagonal(mid)] + halves[1]
    else:
        raise ValueError("form must be one of fe, ef, fe-middle, ef-middle")
    return _chain_sum(n, r, [(Fraction(1), letters)] if letters else [])
