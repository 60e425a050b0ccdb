"""The modified (idempotented) enveloping algebra of gl_n over the integers.

Elements live between a pair of integer weights (lambda, mu): the algebra
is spanned by

    1_lambda  prod f_ij^(a_ji)  prod e_ij^(a_ij)  1_mu

over off-diagonal exponent patterns a whose moved weight matches
lambda - mu coordinatewise:  lambda_i - mu_i = sum_j (a_ij - a_ji).
Such patterns are a basis, so an element is stored as (left weight, right
weight, pattern -> coefficient).  Negative weight entries are allowed;
there is no degree bound.

A block's basis up to a degree is enumerated from its moved weight
alone: the cells are filled in pattern order, carrying the weight still
to be moved and the degree left.  A unit in one cell lowers the positive
part of the carried weight by at most one, so a branch whose positive
part exceeds the degree left is cut, and so is one where an index has
seen its last cell with weight still to move.  No pattern of another
block is generated.

For n = 2 multiplication is a closed form in integer binomials (Lusztig,
Introduction to Quantum Groups, 23.1.3 at q = 1; Kostant's Z-form).  A
pattern is (y, x) for 1_L f^(x) e^(y) 1_M.  With h = R_1 - R_2 + 2 y2,

    1_L f^(x1) e^(y1) 1_M f^(x2) e^(y2) 1_R
        = sum_{t <= min(y1, x2)} binom(y1 - x2 + h, t) binom(x1 + x2 - t, x1)
          binom(y1 + y2 - t, y2)  1_L f^(x1 + x2 - t) e^(y1 + y2 - t) 1_R,

where binom(m, t) = m(m-1)..(m-t+1)/t! allows negative m, so a product of
basis elements is integer work linear in min(y1, x2).  One integer kernel
on pattern -> numerator dicts, _gl2_terms, serves udot_multiply and the
gl_2 table alike, so the table builds no element or Fraction per product.

For n >= 3 a pattern is one cached word of divided powers E_ab^(m)
(_lift) in the normal order of enveloping._unit_key.  A product moves
the letters of the right word into the left one, each at the weight w on
its right (_rewrite, cached): a letter out of order trades places with
the last one by Kostant's type-A formulas,

    E_ab^(p) E_ab^(m) = binom(p + m, m) E_ab^(p+m),
    E_ca^(p) E_ab^(m) = sum_t E_ab^(m-t) E_cb^(t) E_ca^(p-t)          (c != b),
    E_bd^(p) E_ab^(m) = sum_t (-1)^t E_ab^(m-t) E_ad^(t) E_bd^(p-t)   (a != d),
    E_cd^(p) E_dc^(m) 1_w = sum_t binom(p - m + w_c - w_d, t) E_dc^(m-t) E_cd^(p-t) 1_w,

the last the sl_2 formula above, and other pairs commute, so no Cartan
letter or plain power appears.  A relabelling moves its permuted letters
into the empty word.  This works for n = 2 too; the tests check the
closed form by it.

to_schur is the degree-r truncation, an algebra map onto the matching
weight block of the Schur algebra; weights that are not compositions of
r give zero.  A pattern's divided powers, read right to left, act on
the idempotent of the right weight as integer row moves (schur), each
e_ab^(m) changing rows a and b of every orbit element, so no product of
two general orbit elements is formed.  psi walks all patterns on 1_mu at
once (_walk_images), cells in the words' order, sharing common prefixes.

Shifting both weights by a constant vector (tensoring by a power of the
determinant character) leaves all structure constants unchanged; the gl_2
table makes that visible: for n = 2 the block at (lambda, lambda) has the
basis b_a = 1_lambda f^(a) e^(a) 1_lambda and multiplication depends only
on lambda_1 - lambda_2.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterable, Mapping, Sequence

from .enveloping import _offdiag_runs, _unit_key
from .errors import SYMMETRIC_GROUP_MAX_R, ResourceLimitError, check_budget, count_text
from .exact_linalg import SparseCombination, integer_rank
from .schur import Run, SchurElement, _apply_runs, _diagonal, _json_int, _move
from .weights import Matrix, Weight, _check_composition_count, composition_count, permute_weight

__all__ = [
    "offdiag_cells",
    "pattern_matrix",
    "matrix_pattern",
    "pattern_delta",
    "UdotElement",
    "udot_zero",
    "udot_basis_upto",
    "udot_element",
    "udot_multiply",
    "divided_generators",
    "to_schur",
    "sl_weight",
    "shift",
    "udot_relabel",
    "Gl2Table",
    "gl2_generic_table",
    "SymQuotientReport",
    "symmetric_group_quotient",
]

Pattern = tuple[int, ...]
# a word of divided powers (a, b, m), E_ab^(m) with 0-based indices
Word = tuple[Run, ...]


@lru_cache(maxsize=64)
def offdiag_cells(n: int) -> tuple[tuple[int, int], ...]:
    """Off-diagonal cells (0-based), row-major; the pattern coordinate
    order used everywhere in this module.  U̇(gl_n) checks n >= 1 here."""
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple((i, j) for i in range(n) for j in range(n) if i != j)


def pattern_matrix(p: Pattern, n: int) -> tuple[tuple[int, ...], ...]:
    m = [[0] * n for _ in range(n)]
    for (i, j), v in zip(offdiag_cells(n), p):
        m[i][j] = v
    return tuple(tuple(row) for row in m)


def matrix_pattern(a: Sequence[Sequence[int]]) -> Pattern:
    n = len(a)
    return tuple(a[i][j] for i, j in offdiag_cells(n))


def pattern_delta(p: Pattern, n: int) -> Weight:
    """Weight moved by the pattern: entry i is sum_j (a_ij - a_ji)."""
    w = [0] * n
    for (i, j), v in zip(offdiag_cells(n), p):
        w[i] += v
        w[j] -= v
    return tuple(w)


class UdotElement(SparseCombination):
    """Element of one (left, right) weight block, exact coefficients.

    Zero elements of different blocks are equal, and adding one to an
    element of any block leaves that element unchanged.
    """

    __slots__ = ("n", "left", "right")
    _space_attrs = ("n", "left", "right")

    def __init__(
        self,
        n: int,
        left: Sequence[int],
        right: Sequence[int],
        terms: Mapping[Pattern, Fraction] | None = None,
    ):
        ncells = len(offdiag_cells(n))
        if len(left) != n or len(right) != n:
            raise ValueError("weights must have length n")
        self.n = n
        self.left = tuple(int(x) for x in left)
        self.right = tuple(int(x) for x in right)
        delta = tuple(l - r for l, r in zip(self.left, self.right))
        for p in terms or ():
            if len(p) != ncells or any(x < 0 for x in p):
                raise ValueError(f"malformed pattern {p}")
            if pattern_delta(p, n) != delta:
                raise ValueError(
                    f"pattern {p} moves weight {pattern_delta(p, n)}, block needs {delta}"
                )
        super().__init__(terms)

    def _zero_pair(self, other: object) -> bool:
        """Same n with a zero on either side: the blocks need not match."""
        return (
            isinstance(other, UdotElement)
            and self.n == other.n
            and (self.is_zero or other.is_zero)
        )

    def __add__(self, other: "UdotElement") -> "UdotElement":
        if self._zero_pair(other):
            return other if self.is_zero else self
        return super().__add__(other)

    def __eq__(self, other: object) -> bool:
        if self._zero_pair(other):
            return self.num == other.num
        return super().__eq__(other)

    def __mul__(self, other: "UdotElement") -> "UdotElement":
        return udot_multiply(self, other)

    def __repr__(self) -> str:
        return f"UdotElement(n={self.n}, left={self.left}, right={self.right}, {len(self.num)} terms)"

    def to_json(self) -> dict:
        terms = [
            {"pattern": [list(row) for row in pattern_matrix(p, self.n)], "coeff": str(c)}
            for p, c in sorted(self.terms.items())
        ]
        return {
            "n": self.n,
            "left": list(self.left),
            "right": list(self.right),
            "terms": terms,
        }

    @staticmethod
    def from_json(payload: Mapping) -> "UdotElement":
        n = _json_int(payload["n"])
        terms = {}
        for t in payload["terms"]:
            a = [[_json_int(e) for e in row] for row in t["pattern"]]
            if len(a) != n or any(len(row) != n or row[i] for i, row in enumerate(a)):
                raise ValueError(f"pattern {a} is not an {n} x {n} matrix with zero diagonal")
            terms[matrix_pattern(a)] = Fraction(str(t["coeff"]))
        left, right = ([_json_int(x) for x in payload[k]] for k in ("left", "right"))
        return UdotElement(n, left, right, terms)


def udot_zero(n: int, left: Sequence[int], right: Sequence[int]) -> UdotElement:
    return UdotElement(n, left, right, {})


def udot_element(left: Sequence[int], right: Sequence[int], pattern: Pattern) -> UdotElement:
    """Single basis element of the (left, right) block."""
    return UdotElement(len(left), left, right, {tuple(pattern): 1})


def udot_basis_upto(lam: Sequence[int], mu: Sequence[int], degree: int) -> list[UdotElement]:
    """Basis elements of the (lam, mu) block with pattern degree at most
    the bound, ordered by (degree, pattern lexicographic).

    The patterns come from _block_patterns, which builds only those that
    move lam - mu.  A pattern of one block is fixed by its entries off the
    cells (i, n), i < n, so at most C(d + (n-1)^2, (n-1)^2) have degree at
    most d (compositions of d into one part per free cell and a slack
    part); the input is refused when that is over TENSOR_SPACE_LIMIT."""
    patterns = _basis_patterns(lam, mu, degree)
    space = (len(lam), tuple(map(int, lam)), tuple(map(int, mu)))
    return [UdotElement._build(space, {p: 1}) for p in patterns]


def _basis_patterns(lam: Sequence[int], mu: Sequence[int], degree: int) -> tuple[Pattern, ...]:
    """The patterns of udot_basis_upto, checked and refused as it says."""
    n = len(lam)
    if len(mu) != n:
        raise ValueError("weights must have equal length")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    delta = tuple(l - r for l, r in zip(lam, mu))
    if sum(delta) != 0:
        return ()
    _check_composition_count((n - 1) ** 2 + 1, degree)
    return _block_patterns(n, delta, degree)


def _walk_images(mu: Weight, degree: int, emit: Callable[[Weight, dict[Matrix, int]], object]) -> None:
    """Calls emit(left weight, image) for the nonzero image on 1_mu of each
    pattern of degree at most the bound, _apply_runs of its reversed
    _lift, keeping no image; refused first when over TENSOR_SPACE_LIMIT
    such patterns may exist."""
    n, w = len(mu), list(mu)
    _check_composition_count(n * (n - 1) + 1, degree)
    cells = sorted(offdiag_cells(n), key=_unit_key, reverse=True)

    def walk(start: int, vec: dict[Matrix, int], left: int) -> None:
        for c in range(start, len(cells)) if left else ():
            a, b = cells[c]
            wa, wb = w[a], w[b]
            for m in range(1, min(left, wb) + 1):  # e_ab^(m) kills a row b below m
                w[a], w[b] = w[a] + 1, w[b] - 1
                walk(c + 1, _move(vec, a, b, m), left - m)
            w[a], w[b] = wa, wb
        emit(tuple(w), vec)  # no unit in the cells after start

    walk(0, {_diagonal(mu): 1}, degree)


@lru_cache(maxsize=1024)
def _block_patterns(n: int, delta: Weight, degree: int) -> tuple[Pattern, ...]:
    """Patterns of degree at most the bound that move weight delta (whose
    entries sum to zero), sorted by (degree, pattern).

    Cells are filled in the order of offdiag_cells while carrying the
    weight still to be moved and the degree left.  A unit in cell (i, j)
    moves one from j to i, so it lowers the positive part of the carried
    weight by at most one: a branch whose positive part exceeds the degree
    left is dead, and since positive part plus cell value never falls as
    the value grows, so are all larger values.  Once the last cell that
    touches an index is placed, that index must have nothing left to move,
    so a cell that closes an index takes that one forced value, with the
    positive part it leaves counted in closed form, and scans no others.
    """
    last = {k: c for c, cell in enumerate(offdiag_cells(n)) for k in cell}
    # (i, j, whether the cell is the last to touch i, and j)
    cells = [(i, j, last[i] == c, last[j] == c) for c, (i, j) in enumerate(offdiag_cells(n))]
    need = list(delta)
    p = [0] * len(cells)
    out: list[Pattern] = []

    def fill(c: int, left: int, pos: int) -> None:
        if c == len(cells):
            out.append(tuple(p))
            return
        i, j, close_i, close_j = cells[c]
        a, b = need[i], need[j]
        if close_i or close_j:
            v = a if close_i else -b
            # the scan's steps from 0 to v in closed form: need[i] = a - u
            # loses positive part while u < a, need[j] = b + u gains it
            # once u >= -b
            pos += max(0, v - max(0, -b)) - max(0, min(v, a))
            if v >= 0 and (v == -b or not close_j) and pos + v <= left:
                need[i], need[j], p[c] = a - v, b + v, v
                fill(c + 1, left - v, pos)
                need[i], need[j] = a, b
            return
        for v in range(left + 1):
            if pos + v > left:
                break
            need[i], need[j], p[c] = a - v, b + v, v
            fill(c + 1, left - v, pos)
            pos += (b + v >= 0) - (a - v > 0)  # need[i] falls from a - v, need[j] rises from b + v
        need[i], need[j] = a, b

    fill(0, degree, sum(x for x in delta if x > 0))
    return tuple(sorted(out, key=lambda q: (sum(q), q)))


@lru_cache(maxsize=4096)
def _lift(n: int, p: Pattern) -> Word:
    """The pattern's word of divided powers in enveloping._unit_key order:
    the lowering, then the raising runs of _offdiag_runs, each reversed."""
    lower, upper = _offdiag_runs(pattern_matrix(p, n))
    return lower[::-1] + upper[::-1]


@lru_cache(maxsize=1 << 17)
def _rewrite(word: Word, g: Run, w: Weight) -> dict[Word, int]:
    """Normal form of word * g * 1_w (word normal, g a letter) as integer
    coefficients by normal word: g trades places with the last letter by
    the module docstring's rules, and what that gives moves into the rest."""
    a, b, m = g
    if not word or _unit_key(word[-1][:2]) < _unit_key((a, b)):
        return {word + (g,): 1}
    rest, (c, d, p) = word[:-1], word[-1]
    if (c, d) == (a, b):
        return {rest + ((a, b, p + m),): comb(p + m, m)}
    ts = range(min(p, m) + 1)
    if (c, d) == (b, a):
        terms = [(_binom(p - m + w[c] - w[d], t), (a, b, m - t), (c, d, p - t)) for t in ts]
    elif d == a or c == b:  # the chaining pairs, with E_cb or -E_ad for the bracket
        (i, j), s = ((c, b), 1) if d == a else ((a, d), -1)
        terms = [(s**t, (a, b, m - t), (i, j, t), (c, d, p - t)) for t in ts]
    else:
        terms = [(1, g, word[-1])]
    out: dict[Word, int] = {}
    for k, *letters in terms:
        for x, v in _times({rest: k}, [h for h in letters if h[2]], w).items():
            out[x] = out[x] + v if x in out else v
    return {x: v for x, v in out.items() if v}


def _times(words: Mapping[Word, int], letters: Sequence[Run], w: Sequence[int]) -> dict[Word, int]:
    """Normal form of sum c * word * letters * 1_w over the normal words
    {word: c}: the letters move in left to right, each by _rewrite at the
    weight that the letters to its right reach from w."""
    w = list(w)
    for a, b, m in letters:
        w[a], w[b] = w[a] + m, w[b] - m
    for a, b, m in letters:
        w[a], w[b] = w[a] - m, w[b] + m
        nxt: dict[Word, int] = {}
        for word, c in words.items():
            for x, k in _rewrite(word, (a, b, m), tuple(w)).items():
                nxt[x] = nxt[x] + c * k if x in nxt else c * k
        words = nxt
    return words


def _block_element(n: int, left: Weight, right: Weight, parts: Iterable[Mapping[Word, int]], den: int) -> UdotElement:
    """The (left, right) block element of the normal words of all parts,
    integer numerators over den, each word read as a pattern."""
    out: dict[Pattern, int] = {}
    for words in parts:
        for word, c in words.items():
            p = [0] * (n * n - n)
            for a, b, m in word:
                p[a * (n - 1) + b - (b > a)] = m  # the index of (a, b) in offdiag_cells(n)
            key = tuple(p)
            out[key] = out[key] + c if key in out else c
    return UdotElement._build((n, left, right), out, den)


def _binom(m: int, t: int) -> int:
    """Generalised binomial m(m-1)..(m-t+1)/t! for any integer m."""
    return comb(m, t) if m >= 0 else (-1) ** t * comb(t - m - 1, t)


def _gl2_terms(u: Mapping[Pattern, int], v: Mapping[Pattern, int], h0: int) -> dict[Pattern, int]:
    """Numerators of the n = 2 product of numerator dicts u and v, h0 =
    R_1 - R_2, by the closed form in the module docstring: at the sl_2
    weight h right of f^(x2), e^(y1) f^(x2) is sum_t binom(y1 - x2 + h, t)
    f^(x2-t) e^(y1-t), and f^(a) f^(b) = binom(a+b, a) f^(a+b).  A sum
    that cancels stays as a zero; one-term factors give none."""
    out: dict[Pattern, int] = {}
    for (y1, x1), cu in u.items():
        for (y2, x2), cv in v.items():
            c = cu * cv
            top = y1 - x2 + h0 + 2 * y2
            for t in range(min(y1, x2) + 1):
                k = _binom(top, t) * comb(x1 + x2 - t, x1) * comb(y1 + y2 - t, y2)
                if k:
                    key = (y1 + y2 - t, x1 + x2 - t)
                    out[key] = out.get(key, 0) + c * k
    return out


def _gl2_multiply(u: UdotElement, v: UdotElement) -> UdotElement:
    """n = 2 product through _gl2_terms, in the block (u.left, v.right)."""
    num = _gl2_terms(u.num, v.num, v.right[0] - v.right[1])
    return UdotElement._build((u.n, u.left, v.right), num, u.den * v.den)


def udot_multiply(u: UdotElement, v: UdotElement) -> UdotElement:
    """Product; zero unless the inner weights agree."""
    if u.n != v.n:
        raise ValueError("different n")
    if u.right != v.left:
        return UdotElement._build((u.n, u.left, v.right), {})
    return (_gl2_multiply if u.n == 2 else _word_multiply)(u, v)


def _word_multiply(u: UdotElement, v: UdotElement) -> UdotElement:
    """Product by rewriting divided powers, for any n (_times).  A pair of
    patterns gives patterns of the one block (u.left, v.right) of degree at
    most d = deg u + deg v; their count, at most C(d + (n-1)^2, (n-1)^2) as
    in udot_basis_upto, times both term counts is held to the budget first."""
    degree = max(map(sum, u.num), default=0) + max(map(sum, v.num), default=0)
    work = composition_count((u.n - 1) ** 2 + 1, degree) * len(u.num) * len(v.num)
    check_budget(
        work, lambda: f"a product of degree {degree} in U̇(gl_{u.n}) may straighten {count_text(work)} patterns"
    )
    left = {_lift(u.n, p): c for p, c in u.num.items()}
    parts = (_times({x: k * c for x, k in left.items()}, _lift(u.n, q), v.right) for q, c in v.num.items())
    return _block_element(u.n, u.left, v.right, parts, u.den * v.den)


def divided_generators(i: int, a: int, lam: Sequence[int], side: str) -> UdotElement:
    """e_i^(a) 1_lam (side "e") or f_i^(a) 1_lam (side "f"), as elements
    of the block that the generator maps into."""
    n = len(lam)
    if not 1 <= i <= n - 1:
        raise ValueError("need a simple root index 1 <= i <= n-1")
    if a < 0:
        raise ValueError("need a >= 0")
    cell = {"e": (i - 1, i), "f": (i, i - 1)}.get(side)
    if cell is None:
        raise ValueError("side must be 'e' or 'f'")
    s, t = cell  # the one unit cell moves a from entry t of lam to entry s
    p = [0] * (n * n - n)
    p[s * (n - 1) + t - (t > s)] = a  # the index of (s, t) in offdiag_cells(n)
    right = tuple(map(int, lam))
    left = list(right)
    left[s], left[t] = left[s] + a, left[t] - a
    return UdotElement._build((n, tuple(left), right), {tuple(p): 1})


def to_schur(u: UdotElement, r: int) -> SchurElement:
    """Truncate to the Schur algebra of degree r; zero when either weight
    is not a composition of r.

    Each pattern's image is its cached word, read right to left, applied
    to the idempotent of the right weight by schur._apply_runs, which
    gives zero when a weight on the way, the left weight last, is not a
    composition; the images are summed in integers over the denominator
    of u.
    """
    if r < 0:
        raise ValueError("need n >= 1 and r >= 0")
    total: dict[Matrix, int] = {}
    for p, c in u.num.items() if sum(u.right) == r else ():
        for m, v in _apply_runs(_lift(u.n, p)[::-1], u.right).items():
            total[m] = total[m] + c * v if m in total else c * v
    return SchurElement._build((u.n, r), total, u.den)


def sl_weight(lam: Sequence[int]) -> tuple[int, ...]:
    """Consecutive differences (lambda_1 - lambda_2, .., lambda_{n-1} - lambda_n)."""
    return tuple(lam[k] - lam[k + 1] for k in range(len(lam) - 1))


def shift(u: UdotElement, k: int) -> UdotElement:
    """Add k to every entry of both weights; structure constants are
    invariant under this."""
    return UdotElement(u.n, tuple(x + k for x in u.left), tuple(x + k for x in u.right))._new(u.num, u.den)


def udot_relabel(u: UdotElement, w: Sequence[int]) -> UdotElement:
    """Apply the index-permutation isomorphism between weight blocks.

    Both weights move by w and each letter E_ab^(m) of a pattern's word
    becomes E_w(a)w(b)^(m).  That breaks normal order, so the letters are
    rewritten into the empty word (_times) with correction terms: a plain
    relabel of the patterns would not be multiplicative.
    """
    n = u.n
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"need a permutation of 1..{n}")
    right = permute_weight(u.right, w)
    parts = (_times({(): c}, [(w[a] - 1, w[b] - 1, m) for a, b, m in _lift(n, p)], right) for p, c in u.num.items())
    return _block_element(n, permute_weight(u.left, w), right, parts, u.den)


@dataclass
class Gl2Table:
    """Structure constants of a diagonal gl_2 block in the basis
    b_a = 1_lam f^(a) e^(a) 1_lam, up to a degree bound: products[(a, c)]
    maps d to the integer coefficient of b_d in b_a b_c."""

    lam: tuple[int, int]
    degree: int
    products: dict[tuple[int, int], dict[int, int]]
    commutative: bool
    unit_checks: bool
    single_generator: bool

    @property
    def passed(self) -> bool:
        return self.commutative and self.unit_checks and self.single_generator

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "degree": self.degree,
            "products": [
                {"a": a, "c": c, "coeffs": [{"d": d, "coeff": str(x)} for d, x in sorted(v.items())]}
                for (a, c), v in sorted(self.products.items())
            ],
            "commutative": self.commutative,
            "unit_checks": self.unit_checks,
            "single_generator": self.single_generator,
            "passed": self.passed,
        }


def gl2_generic_table(lam: Sequence[int], degree: int) -> Gl2Table:
    """Multiplication table of the diagonal block at a gl_2 weight.

    Verifies commutativity, that b_0 is the unit, and that powers of b_1
    span the degree-bounded slice (so the block is generated by one
    element); all checks exact.
    """
    if len(lam) != 2:
        raise ValueError("gl_2 weights have two entries")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    # (degree + 1)^2 products of at most degree + 1 terms, and the
    # elimination of degree + 1 powers
    work = (degree + 1) ** 3
    check_budget(work, lambda: f"a gl_2 table of degree {degree} costs {count_text(work)} terms")
    lam = (int(lam[0]), int(lam[1]))
    h0, span = lam[0] - lam[1], range(degree + 1)
    # numerators of b_a (pattern cells ((0,1), (1,0))); products keep (d, d)
    basis = [{(a, a): 1} for a in span]
    products = {
        (a, c): {d: x for (d, _), x in _gl2_terms(basis[a], basis[c], h0).items()} for a in span for c in span
    }
    unit_checks = all(products[0, c] == products[c, 0] == {c: 1} for c in span)
    commutative = all(products[a, c] == products[c, a] for a in span for c in range(a))
    # powers of b_1 in basis coordinates, ranked as integer vectors
    vectors = [basis[0]]
    for _ in range(degree):
        vectors.append(_gl2_terms(vectors[-1], basis[1], h0))
    single_generator = integer_rank(vectors) == degree + 1
    return Gl2Table(lam, degree, products, commutative, unit_checks, single_generator)


@dataclass
class SymQuotientReport:
    """Degree-r truncation of the all-ones diagonal block: its image is
    the full permutation-matrix block of the Schur algebra, integrally."""

    r: int
    basis_size: int
    rank: int
    expected_rank: int
    integral: bool
    multiplicative: bool

    @property
    def passed(self) -> bool:
        return self.rank == self.expected_rank and self.integral and self.multiplicative

    def to_json(self) -> dict:
        return {**asdict(self), "passed": self.passed}


def symmetric_group_quotient(r: int) -> SymQuotientReport:
    """Check that truncation maps the weight-(1,..,1) diagonal block onto
    the group-algebra block of S(r, r): full rank r!, integer coordinates,
    and multiplicativity on all pairs of the spanning set."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r > SYMMETRIC_GROUP_MAX_R:
        raise ResourceLimitError(f"symmetric-group quotient check is limited to r <= {SYMMETRIC_GROUP_MAX_R}")
    omega = (1,) * r
    basis = udot_basis_upto(omega, omega, r)
    images = [to_schur(u, r) for u in basis]
    rank = integer_rank([x.num for x in images])
    integral = all(x.integral() for x in images)
    multiplicative = all(
        to_schur(udot_multiply(u, v), r) == x * y
        for u, x in zip(basis, images)
        for v, y in zip(basis, images)
    )
    return SymQuotientReport(r, len(basis), rank, factorial(r), integral, multiplicative)
