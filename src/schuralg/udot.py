"""The modified (idempotented) enveloping algebra of gl_n over the integers.

Elements live between a pair of integer weights (lambda, mu): the algebra
is spanned by

    1_lambda  prod f_ij^(a_ji)  prod e_ij^(a_ij)  1_mu

over off-diagonal exponent patterns a whose moved weight matches
lambda - mu coordinatewise:  lambda_i - mu_i = sum_j (a_ij - a_ji).
Such patterns are a basis, so an element is stored as (left weight, right
weight, pattern -> coefficient).  Negative weight entries are allowed;
there is no degree bound.

Multiplication lifts patterns to the enveloping algebra, straightens, and
then evaluates the diagonal letters: in a normal term f^x H^m e^y, each
H_i sits to the left of e^y 1_mu, so it evaluates to mu_i plus the weight
the raising part moves at position i.  The plain-power monomial f^x e^y
then picks up the factorials that convert it into divided-power pattern
coordinates.  Products of integer-coefficient elements stay integral.

to_schur is the degree-r truncation: patterns act through the enveloping
algebra on the one word weight_word(right), the result is cut by the left
weight idempotent, and the Schur element is read off that column; weights
that are not compositions of r give zero.  Truncation is an algebra map
onto the corresponding weight block of the Schur algebra.

Shifting both weights by a constant vector (tensoring by a power of the
determinant character) leaves all structure constants unchanged; the gl_2
table makes that visible: for n = 2 the block at (lambda, lambda) has the
basis b_a = 1_lambda f^(a) e^(a) 1_lambda and multiplication depends only
on lambda_1 - lambda_2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Mapping, Sequence

from .enveloping import (
    UElement,
    divided_monomial,
    monomial_weight,
    project,
    root_pairs,
    u_act,
    u_multiply,
    u_relabel,
)
from .errors import ResourceLimitError
from .exact_linalg import SparseCombination
from .schur import SchurElement, check_column_scale, read_column
from .weights import Weight, is_composition, weight_word

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


@lru_cache(maxsize=None)
def offdiag_cells(n: int) -> tuple[tuple[int, int], ...]:
    """Off-diagonal cells (0-based), row-major; the pattern coordinate
    order used everywhere in this module."""
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
    m = pattern_matrix(p, n)
    return tuple(
        sum(m[i][j] - m[j][i] for j in range(n)) for i in range(n)
    )


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
        if n < 1:
            raise ValueError("need n >= 1")
        if len(left) != n or len(right) != n:
            raise ValueError("weights must have length n")
        self.n = n
        self.left = tuple(int(x) for x in left)
        self.right = tuple(int(x) for x in right)
        delta = tuple(l - r for l, r in zip(self.left, self.right))
        ncells = len(offdiag_cells(n))
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
            return self.terms == other.terms
        return super().__eq__(other)

    def __mul__(self, other: "UdotElement") -> "UdotElement":
        return udot_multiply(self, other)

    def __repr__(self) -> str:
        return (
            f"UdotElement(n={self.n}, left={self.left}, right={self.right}, "
            f"{len(self.terms)} terms)"
        )

    def to_json(self) -> dict:
        terms = [
            {
                "pattern": [list(row) for row in pattern_matrix(p, self.n)],
                "coeff": str(self.terms[p]),
            }
            for p in sorted(self.terms)
        ]
        return {
            "n": self.n,
            "left": list(self.left),
            "right": list(self.right),
            "terms": terms,
        }

    @staticmethod
    def from_json(payload: Mapping) -> "UdotElement":
        n = int(payload["n"])
        terms = {}
        for t in payload["terms"]:
            p = matrix_pattern([[int(e) for e in row] for row in t["pattern"]])
            terms[p] = Fraction(str(t["coeff"]))
        return UdotElement(n, payload["left"], payload["right"], terms)


def udot_zero(n: int, left: Sequence[int], right: Sequence[int]) -> UdotElement:
    return UdotElement(n, left, right, {})


def udot_element(left: Sequence[int], right: Sequence[int], pattern: Pattern) -> UdotElement:
    """Single basis element of the (left, right) block."""
    return UdotElement(len(left), left, right, {tuple(pattern): Fraction(1)})


def udot_basis_upto(lam: Sequence[int], mu: Sequence[int], degree: int) -> list[UdotElement]:
    """Basis elements of the (lam, mu) block with pattern degree at most
    the bound, ordered by (degree, pattern lexicographic)."""
    n = len(lam)
    if len(mu) != n:
        raise ValueError("weights must have equal length")
    delta = tuple(l - r for l, r in zip(lam, mu))
    if sum(delta) != 0:
        return []
    cells = offdiag_cells(n)
    out: list[UdotElement] = []
    for total in range(degree + 1):
        found: list[Pattern] = []

        def rec_total(idx: int, remaining: int, acc: tuple[int, ...]) -> None:
            if idx == len(cells):
                if remaining == 0 and pattern_delta(acc, n) == delta:
                    found.append(acc)
                return
            for v in range(remaining + 1):
                rec_total(idx + 1, remaining - v, acc + (v,))

        rec_total(0, total, ())
        out.extend(udot_element(lam, mu, p) for p in sorted(found))
    return out


@lru_cache(maxsize=None)
def _lift(n: int, p: Pattern) -> UElement:
    return divided_monomial(n, pattern_matrix(p, n), (), "fe")


def _from_u_element(x: UElement, left: Weight, right: Weight) -> UdotElement:
    """Project an enveloping element into the (left, right) block: keep
    the terms of adjoint weight left - right, evaluate diagonal letters
    against the right weight shifted by the raising part, convert plain
    powers to divided-power pattern coordinates."""
    n = x.n
    pairs = root_pairs(n)
    delta = tuple(l - r for l, r in zip(left, right))
    cells = offdiag_cells(n)
    cell_index = {c: k for k, c in enumerate(cells)}
    no_f = (0,) * len(pairs)
    out: dict[Pattern, Fraction] = {}
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
        p = [0] * len(cells)
        for idx, (i, j) in enumerate(pairs):
            p[cell_index[(j - 1, i - 1)]] = f[idx]
            p[cell_index[(i - 1, j - 1)]] = e[idx]
        key = tuple(p)
        out[key] = out.get(key, Fraction(0)) + coeff * scalar * fact
    return UdotElement(n, left, right, out)


def udot_multiply(u: UdotElement, v: UdotElement) -> UdotElement:
    """Product; zero unless the inner weights agree."""
    if u.n != v.n:
        raise ValueError("different n")
    if u.right != v.left:
        return udot_zero(u.n, u.left, v.right)
    acc = UElement(u.n)
    for pu, cu in u.terms.items():
        for pv, cv in v.terms.items():
            acc = acc + u_multiply(_lift(u.n, pu), _lift(u.n, pv)).scale(cu * cv)
    return _from_u_element(acc, u.left, v.right)


def divided_generators(i: int, a: int, lam: Sequence[int], side: str) -> UdotElement:
    """e_i^(a) 1_lam (side "e") or f_i^(a) 1_lam (side "f"), as elements
    of the block that the generator maps into."""
    n = len(lam)
    if not 1 <= i <= n - 1:
        raise ValueError("need a simple root index 1 <= i <= n-1")
    if a < 0:
        raise ValueError("need a >= 0")
    lam = tuple(lam)
    cells = offdiag_cells(n)
    p = [0] * len(cells)
    if side == "e":
        left = tuple(
            x + (a if k == i - 1 else -a if k == i else 0) for k, x in enumerate(lam)
        )
        p[cells.index((i - 1, i))] = a
    elif side == "f":
        left = tuple(
            x + (-a if k == i - 1 else a if k == i else 0) for k, x in enumerate(lam)
        )
        p[cells.index((i, i - 1))] = a
    else:
        raise ValueError("side must be 'e' or 'f'")
    return UdotElement(n, left, lam, {tuple(p): Fraction(1)})


def to_schur(u: UdotElement, r: int) -> SchurElement:
    """Truncate to the Schur algebra of degree r; zero when either weight
    is not a composition of r."""
    n = u.n
    if (
        not is_composition(u.left)
        or not is_composition(u.right)
        or sum(u.left) != r
        or sum(u.right) != r
    ):
        return SchurElement(n, r, {})
    total = UElement(n)
    for p, c in u.terms.items():
        total = total + _lift(n, p).scale(c)
    for w in (u.left, u.right):
        check_column_scale(w)
    k = weight_word(u.right)
    return read_column(n, r, project(u_act(total, {k: Fraction(1)}), u.left), k)


def sl_weight(lam: Sequence[int]) -> tuple[int, ...]:
    """Consecutive differences (lambda_1 - lambda_2, .., lambda_{n-1} - lambda_n)."""
    return tuple(lam[k] - lam[k + 1] for k in range(len(lam) - 1))


def shift(u: UdotElement, k: int) -> UdotElement:
    """Add k to every entry of both weights; structure constants are
    invariant under this."""
    return UdotElement(
        u.n,
        tuple(x + k for x in u.left),
        tuple(x + k for x in u.right),
        dict(u.terms),
    )


def udot_relabel(u: UdotElement, w: Sequence[int]) -> UdotElement:
    """Apply the index-permutation isomorphism between weight blocks.

    Both weights move by w and each lifted term moves by the enveloping
    automorphism unit(a,b) -> unit(w(a),w(b)).  The automorphism breaks
    normal order, so images pick up bracket corrections: a plain exponent
    relabel of the patterns would not be multiplicative.
    """
    n = u.n
    if sorted(w) != list(range(1, n + 1)):
        raise ValueError(f"need a permutation of 1..{n}")
    left = [0] * n
    right = [0] * n
    for i in range(n):
        left[w[i] - 1] = u.left[i]
        right[w[i] - 1] = u.right[i]
    acc = UElement(n)
    for p, c in u.terms.items():
        acc = acc + u_relabel(_lift(n, p), tuple(w)).scale(c)
    return _from_u_element(acc, tuple(left), tuple(right))


@dataclass
class Gl2Table:
    """Structure constants of a diagonal gl_2 block in the basis
    b_a = 1_lam f^(a) e^(a) 1_lam, up to a degree bound."""

    lam: tuple[int, int]
    degree: int
    products: dict[tuple[int, int], dict[int, Fraction]]
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
                {
                    "a": a,
                    "c": c,
                    "coeffs": [
                        {"d": d, "coeff": str(x)} for d, x in sorted(v.items())
                    ],
                }
                for (a, c), v in sorted(self.products.items())
            ],
            "commutative": self.commutative,
            "unit_checks": self.unit_checks,
            "single_generator": self.single_generator,
            "passed": self.passed,
        }


def _gl2_basis_element(lam: Sequence[int], a: int) -> UdotElement:
    # pattern cells for n=2: ((0,1), (1,0))
    return udot_element(tuple(lam), tuple(lam), (a, a))


def gl2_generic_table(lam: Sequence[int], degree: int) -> Gl2Table:
    """Multiplication table of the diagonal block at a gl_2 weight.

    Verifies commutativity, that b_0 is the unit, and that powers of b_1
    span the degree-bounded slice (so the block is generated by one
    element); all checks exact.
    """
    if len(lam) != 2:
        raise ValueError("gl_2 weights have two entries")
    lam = (int(lam[0]), int(lam[1]))
    basis = [_gl2_basis_element(lam, a) for a in range(degree + 1)]
    products: dict[tuple[int, int], dict[int, Fraction]] = {}
    unit_checks = True
    for a in range(degree + 1):
        for c in range(degree + 1):
            prod = udot_multiply(basis[a], basis[c])
            coeffs = {p[0]: x for p, x in prod.terms.items()}
            products[(a, c)] = coeffs
            if a == 0 and prod != basis[c]:
                unit_checks = False
            if c == 0 and prod != basis[a]:
                unit_checks = False
    commutative = all(
        products[(a, c)] == products[(c, a)] for a in range(degree + 1) for c in range(a)
    )
    # powers of b_1 in basis coordinates, checked for full rank
    from .exact_linalg import exact_rank

    power = basis[0]
    vectors = [{0: Fraction(1)}]
    for _ in range(degree):
        power = udot_multiply(power, basis[1])
        vectors.append({p[0]: x for p, x in power.terms.items()})
    single_generator = exact_rank(vectors) == degree + 1
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
        return (
            self.rank == self.expected_rank and self.integral and self.multiplicative
        )

    def to_json(self) -> dict:
        return {
            "r": self.r,
            "basis_size": self.basis_size,
            "rank": self.rank,
            "expected_rank": self.expected_rank,
            "integral": self.integral,
            "multiplicative": self.multiplicative,
            "passed": self.passed,
        }


def symmetric_group_quotient(r: int) -> SymQuotientReport:
    """Check that truncation maps the weight-(1,..,1) diagonal block onto
    the group-algebra block of S(r, r): full rank r!, integer coordinates,
    and multiplicativity on all pairs of the spanning set."""
    if r < 1:
        raise ValueError("need r >= 1")
    if r > 4:
        raise ResourceLimitError("symmetric-group quotient check is limited to r <= 4")
    from .exact_linalg import exact_rank

    omega = (1,) * r
    basis = udot_basis_upto(omega, omega, r)
    images = [to_schur(u, r) for u in basis]
    rank = exact_rank([x.terms for x in images])
    integral = all(x.integral() for x in images)
    multiplicative = all(
        to_schur(udot_multiply(u, v), r) == x * y
        for u, x in zip(basis, images)
        for v, y in zip(basis, images)
    )
    return SymQuotientReport(r, len(basis), rank, factorial(r), integral, multiplicative)
