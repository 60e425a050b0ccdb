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
length.  Its cache and the one on pairs of normal words are bounded
(2^17 and 4096 entries).  Bracket corrections are integers, and an
element holds integer numerators over one denominator: _straighten
sums normal words in integers, and a product's denominator is the
product of its factors'.  It serves U(gl_n) only; udot rewrites
divided powers at a weight instead, in the normal order of _unit_key.

Divided powers X^(a) = X^a / a! and binomial diagonals binom(H_i, b) are
derived views on top of plain-power coordinates; binom(H, b) is kept as
the integer falling factorial H(H-1)..(H-b+1), leading coefficient 1,
over b!.  integrality_coords rewrites an element in the divided basis

    prod f_ij^(a_ji) * prod binom(H_i, b_i) * prod e_ij^(a_ij)

by triangular elimination of the H polynomial and reports whether every
coordinate is an integer.

The image of a divided monomial acting on 1_mu in the Schur algebra
needs no words of tensor space.  It is a word of divided powers
(_offdiag_runs), each e_ab^(m) a run (a, b, m) that acts on an orbit
element as a row move of schur (two rows change, integer coefficients);
starting from the idempotent of mu, every later weight is forced.
pbw_image applies the word of each of its four arrangements,
udot.to_schur the cached word of a pattern, and no product of two
general orbit elements is formed.  verify_weight_idempotent needs no
words either: H_i acts on every word of weight nu as nu_i.

tensor_rep, the action on all of degree-r tensor space (unit (a, b)
rewrites one letter b to a, diagonal letters act by the letter count),
is kept as an oracle behind the tensor-space guard of schur.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod
from typing import Mapping, Sequence

from .errors import check_budget, count_text
from .exact_linalg import SparseCombination
from .schur import (
    Run,
    SchurElement,
    TensorEndo,
    _apply_runs,
    _runs_weight,
    _validate_margin_matrix,
    check_tensor_scale,
)
from .weights import (
    Matrix,
    Weight,
    Word,
    all_words,
    col_sums,
    composition_count,
    compositions,
    matrix_degree,
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


@lru_cache(maxsize=64)
def root_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """Ordered pairs i < j in {1, .., n}, lexicographic; U(gl_n) checks n >= 1 here."""
    if n < 1:
        raise ValueError("need n >= 1")
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


@lru_cache(maxsize=1 << 17)
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


@lru_cache(maxsize=4096)
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


def _straighten(
    products: Mapping[tuple[tuple[Unit, ...], tuple[Unit, ...]], int],
) -> dict[tuple[Unit, ...], int]:
    """The normal form of sum c * w1 w2 over the products {(w1, w2): c}
    of normal words, c integer numerators over the caller's denominator,
    as integer numerators by normal word over the same denominator."""
    words: dict[tuple[Unit, ...], int] = {}
    for pair, c in products.items():
        for word, k in _word_product(*pair):
            words[word] = words[word] + c * k if word in words else c * k
    return words


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
        npairs = len(root_pairs(n))
        self.n = n
        for m in terms or ():
            if len(m[0]) != npairs or len(m[1]) != n or len(m[2]) != npairs:
                raise ValueError(f"malformed monomial {m} for n={n}")
            if any(x < 0 for part in m for x in part):
                raise ValueError("exponents must be nonnegative")
        super().__init__(terms)

    def __mul__(self, other: "UElement") -> "UElement":
        return u_multiply(self, other)

    def __repr__(self) -> str:
        return f"UElement(n={self.n}, {len(self.num)} terms)"


def u_one(n: int) -> UElement:
    npairs = len(root_pairs(n))
    unit_mono: PBWMonomial = ((0,) * npairs, (0,) * n, (0,) * npairs)
    return UElement._build((n,), {unit_mono: 1})


def matrix_unit(n: int, a: int, b: int) -> UElement:
    """The generator for matrix unit (a, b) as a one-letter element."""
    if not (1 <= a <= n and 1 <= b <= n):
        raise ValueError("unit indices out of range")
    return UElement._build((n,), {_word_monomial(n, ((a, b),)): 1})


def u_multiply(x: UElement, y: UElement) -> UElement:
    """Product in the enveloping algebra, straightened to PBW normal form.

    A pair of terms straightens to normal words of one weight and of
    degree at most d, the sum of the factors' top degrees.  A weight fixes
    the exponents of the letters unit(i, n), i < n, once the others are
    chosen, so a pair of term weights gives at most C(d + k, k) normal
    words, k = n^2 - n + 1.  The term pairs plus those words are held to
    the budget first.
    """
    x._check_space(y)
    n = x.n
    d = sum(max(map(monomial_degree, z.num), default=0) for z in (x, y))
    pairs = len(x.num) * len(y.num)
    words = prod(len({monomial_weight(n, m) for m in z.num}) for z in (x, y)) * composition_count(n * n - n + 2, d)
    check_budget(pairs + words, lambda: (
        f"a product of degree {d} in U(gl_{n}) straightens {count_text(pairs)} term pairs"
        f" into up to {count_text(words)} words"
    ))
    products = {
        (_monomial_word(n, m1), _monomial_word(n, m2)): c1 * c2
        for m1, c1 in x.num.items()
        for m2, c2 in y.num.items()
    }
    words = _straighten(products)
    return x._new({_word_monomial(n, w): c for w, c in words.items()}, x.den * y.den)


def u_relabel(x: UElement, w: Sequence[int]) -> UElement:
    """Index-permutation automorphism sending the unit at (a, b) to the
    unit at (w(a), w(b)), with the image restraightened to normal form.

    Permuting the letters of a normal word breaks the ordering, so the
    result is not a bare exponent relabel; bracket corrections appear.
    """
    n = x.n
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"need a permutation of 1..{n}")
    products = {
        ((), tuple((w[a - 1], w[b - 1]) for a, b in _monomial_word(n, m))): c
        for m, c in x.num.items()
    }
    words = _straighten(products)
    return x._new({_word_monomial(n, nw): c for nw, c in words.items()}, x.den)


@lru_cache(maxsize=256)
def _binom_poly(k: int) -> tuple[int, ...]:
    """Coefficients of k! binom(X, k) = X(X-1)..(X-k+1) by ascending power."""
    coeffs = [1]
    for t in range(k):
        coeffs = [a - t * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


@lru_cache(maxsize=4096)
def _h_binom_terms(n: int, b: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Expansion of prod_i b_i! binom(H_i, b_i) as sorted (h exponent
    vector, integer coeff) pairs; H^b has coefficient 1 and comes last."""
    factors = [[(p, c) for p, c in enumerate(_binom_poly(k)) if c] for k in b]
    return tuple(sorted(
        (tuple(p for p, _ in t), prod(c for _, c in t)) for t in itertools.product(*factors)
    ))


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
    den = prod(map(factorial, fexp + eexp + b))
    zero_pair = (0,) * len(pairs)
    zero_h = (0,) * n
    hterms = _h_binom_terms(n, b)
    if side == "fe":
        return UElement._build((n,), {(fexp, h, eexp): c for h, c in hterms}, den)
    if side == "ef":
        epart = UElement._build((n,), {(zero_pair, zero_h, eexp): 1}, den)
        hpart = UElement._build((n,), {(zero_pair, h, zero_pair): c for h, c in hterms})
        fpart = UElement._build((n,), {(fexp, zero_h, zero_pair): 1})
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
    groups: dict[tuple[tuple[int, ...], tuple[int, ...]], dict[tuple[int, ...], int]] = {}
    for (f, h, e), c in x.num.items():
        groups.setdefault((f, e), {})[h] = c
    # the work holds integer numerators over x.den
    coords: dict[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]], Fraction] = {}
    for (f, e), work in groups.items():
        scale_fe = prod(map(factorial, f + e))
        while work:
            b = max(work, key=lambda h: (sum(h), h))
            coeff = work.pop(b)
            coords[(f, b, e)] = Fraction(coeff * prod(map(factorial, b)) * scale_fe, x.den)
            for h, c in _h_binom_terms(n, b)[:-1]:
                work[h] = work.get(h, 0) - coeff * c
                if not work[h]:
                    del work[h]
    integral = all(c.denominator == 1 for c in coords.values())
    return coords, integral


def tensor_rep(x: UElement, r: int) -> TensorEndo:
    """Action on all of degree-r tensor space: an algebra homomorphism.
    Each monomial acts on a word one unit at a time, rightmost first."""
    check_tensor_scale(x.n, r)
    units = [(c, _monomial_word(x.n, m)[::-1]) for m, c in x.num.items()]
    out: dict[tuple[Word, Word], int] = {}
    for k in all_words(x.n, r):
        for coeff, word in units:
            v = {k: coeff}
            for unit in word:
                v = _apply_unit(unit, v)
            for l, c in v.items():
                out[l, k] = out[l, k] + c if (l, k) in out else c
    return TensorEndo._build((x.n, r), out, x.den)


def _apply_unit(unit: Unit, vec: Mapping[tuple[int, ...], int]) -> dict:
    a, b = unit
    out: dict[tuple[int, ...], int] = {}
    if a == b:
        for w, c in vec.items():
            m = sum(1 for v in w if v == a)
            if m:
                out[w] = out.get(w, 0) + m * c
        return out
    for w, c in vec.items():
        for p, v in enumerate(w):
            if v == b:
                w2 = w[:p] + (a,) + w[p + 1:]
                out[w2] = out.get(w2, 0) + c
    return {w: c for w, c in out.items() if c != 0}


def verify_weight_idempotent(lam: Sequence[int]) -> bool:
    """Check that prod_i binom(H_i, lam_i) acts on tensor space exactly as
    the weight idempotent of lam.  H_i acts on the words of weight nu as
    nu_i, so on those words the product is the scalar
    prod_i binom(nu_i, lam_i): it must be 1 at nu = lam and 0 at every
    other composition nu of r = sum(lam).  The integer expansion of
    prod_i lam_i! binom(H_i, lam_i) is evaluated at each nu and compared
    with D = prod_i lam_i! or 0."""
    lam = tuple(lam)
    if any(x < 0 for x in lam):
        raise ValueError("diagonal exponents must be a nonnegative n-vector")
    scale = prod(map(factorial, lam))
    terms = _h_binom_terms(len(lam), lam)
    return all(
        sum(c * prod(v ** p for v, p in zip(nu, h)) for h, c in terms)
        == (scale if nu == lam else 0)
        for nu in compositions(len(lam), sum(lam))
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


def _offdiag_runs(a: Matrix) -> tuple[tuple[Run, ...], tuple[Run, ...]]:
    """The lowering and the raising runs (i, j, a_ij), 0-based, of a square
    matrix, each part rightmost first in _monomial_word's letter order."""
    pairs = [(i - 1, j - 1) for i, j in reversed(root_pairs(len(a)))]
    lower = tuple((j, i, a[j][i]) for i, j in pairs if a[j][i])
    upper = tuple((i, j, a[i][j]) for i, j in pairs if a[i][j])
    return lower, upper


def pbw_image(a: Matrix, form: str = "fe") -> SchurElement:
    """Image in the Schur algebra of the divided monomial attached to a
    margin matrix, as an orbit-basis element combination.

    Forms: "fe" is weight-truncated lowering-then-raising
    (1_row f^(..) e^(..) 1_col); "ef" the reverse arrangement; "fe-middle"
    and "ef-middle" place a single idempotent between the two halves, at
    the weight the split forces (minus_weight and plus_weight).  The
    middle forms agree with the outer-truncated ones; tests rely on it.
    Each form is a word of divided powers applied to the column weight
    col_sums(a) by schur._apply_runs; the middle idempotent is a test that
    the first half reaches its weight (else the image is zero).
    """
    _validate_margin_matrix(a)
    return _pbw_image(a, form)


def _pbw_image(a: Matrix, form: str) -> SchurElement:
    """pbw_image of a margin matrix that margin_matrices made, without
    checking the matrix again; the form is still checked."""
    n, r, mu = len(a), matrix_degree(a), col_sums(a)
    if form not in ("fe", "ef", "fe-middle", "ef-middle"):
        raise ValueError("form must be one of fe, ef, fe-middle, ef-middle")
    lower, upper = _offdiag_runs(a)
    first, second = (upper, lower) if form.startswith("fe") else (lower, upper)
    if form.endswith("middle"):
        mid = minus_weight(a) if form == "fe-middle" else plus_weight(a)
        if _runs_weight(first, mu) != mid:
            return SchurElement._build((n, r), {})
    return SchurElement._build((n, r), _apply_runs(first + second, mu))
