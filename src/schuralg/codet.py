"""Codeterminant bases and the cellular-structure check.

A codeterminant for a partition shape nu and words i, j is the product of
the two orbit-basis elements pairing i with the sorted word of weight nu
and that sorted word with j.  Ranging over pairs of semistandard tableaux
of shape nu (with the word of a tableau its row-reading word) and all
dominant shapes nu of the right degree, codeterminants form a basis of
each weight block: the count matches the margin-matrix count through the
identity  sum_nu K(nu, lam) K(nu, mu) = #{margin matrices (lam, mu)}.

cell_datum_check verifies the cellular axioms for the algebra of a single
weight lam, with cells ordered by dominance of shapes and the cell ideal
for nu spanned by the codeterminants of shapes strictly dominating nu:

  (a) the codeterminants form a basis (count and exact rank);
  (b) the transpose involution swaps the two tableaux of each cell;
  (c) left multiplication fixes the right tableau modulo more dominant
      shapes, with structure coefficients independent of it.

Checking (c) on a spanning set of left multipliers suffices because the
condition is linear in the multiplier.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import check_budget
from .exact_linalg import CoordinateSolver, exact_rank
from .schur import (
    SchurElement,
    hom_basis,
    involution,
    schur_multiply,
)
from .weights import (
    Tableau,
    Weight,
    Word,
    _shapes_below,
    dominance_lt,
    dominant_shapes,
    is_composition,
    is_dominant,
    kostka,
    margin_matrices,
    pair_to_matrix,
    ssyt,
    weight_word,
)

__all__ = [
    "codeterminant",
    "Codeterminant",
    "codet_basis",
    "codet_count",
    "CellReport",
    "cell_datum_check",
]


def codeterminant(nu: Sequence[int], i: Sequence[int], j: Sequence[int]) -> SchurElement:
    """Product of the orbit elements pairing i against the sorted word of
    weight nu, and that word against j.  nu must be dominant."""
    if not is_dominant(nu) or not is_composition(nu):
        raise ValueError("shape must be a partition")
    n = len(nu)
    ell = weight_word(nu)
    if len(i) != len(ell) or len(j) != len(ell):
        raise ValueError("words must have the degree of the shape")
    left = SchurElement(n, len(ell), {pair_to_matrix(tuple(i), ell, n): Fraction(1)})
    right = SchurElement(n, len(ell), {pair_to_matrix(ell, tuple(j), n): Fraction(1)})
    return schur_multiply(left, right)


@dataclass(frozen=True)
class Codeterminant:
    """A basis cell: shape, the two semistandard tableaux, and the value."""

    shape: Weight
    left: Tableau
    right: Tableau
    value: SchurElement


def codet_basis(lam: Sequence[int], mu: Sequence[int]) -> list[Codeterminant]:
    """Codeterminant basis of the (lam, mu) weight block, ordered by shape
    (most dominant first), then left tableau, then right tableau (both in
    row-word lexicographic order)."""
    if len(lam) != len(mu) or sum(lam) != sum(mu):
        raise ValueError("weights must have equal length and degree")
    if not (is_composition(lam) and is_composition(mu)):
        raise ValueError("weights must be compositions")
    n = len(lam)
    r = sum(lam)
    # count the cells by Kostka numbers, shape by shape (the shapes come
    # lazily), before any tableau is built: the cells are a basis of the
    # block, so each value has at most that many terms, and the cellular
    # check multiplies all pairs
    shapes: list[Weight] = []
    count = 0
    for nu in _shapes_below(n, r, r):
        k = kostka(nu, lam) * kostka(nu, mu)
        if k:
            count += k
            check_budget(
                count ** 2,
                f"block ({tuple(lam)}, {tuple(mu)}) has at least {count} codeterminants ({count ** 2} pairs)",
            )
            shapes.append(nu)
    cells: list[tuple[Weight, Tableau, Tableau]] = []
    for nu in shapes:
        rights = ssyt(nu, mu)
        cells.extend((nu, s, t) for s in ssyt(nu, lam) for t in rights)
    return [
        Codeterminant(nu, s, t, codeterminant(nu, s.row_word, t.row_word))
        for nu, s, t in cells
    ]


def codet_count(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Predicted size of the codeterminant basis: sum over shapes of the
    product of Kostka numbers."""
    n = len(lam)
    r = sum(lam)
    return sum(kostka(nu, lam) * kostka(nu, mu) for nu in dominant_shapes(n, r))


@dataclass
class CellReport:
    """Outcome of the cellular check for one weight."""

    lam: Weight
    dim: int
    cell_count: int
    axiom_a: bool
    axiom_b: bool
    axiom_c: bool
    witnesses: list[dict]

    @property
    def passed(self) -> bool:
        return self.axiom_a and self.axiom_b and self.axiom_c

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "dim": self.dim,
            "cell_count": self.cell_count,
            "axiom_a": self.axiom_a,
            "axiom_b": self.axiom_b,
            "axiom_c": self.axiom_c,
            "passed": self.passed,
            "witnesses": self.witnesses,
        }


def cell_datum_check(lam: Sequence[int]) -> CellReport:
    """Verify the cellular axioms for the algebra of weight lam.

    Axiom (c) in detail: for every spanning element a and every cell
    (nu, S, T), the expansion of a * C(nu, S, T) in the codeterminant
    basis may meet shapes strictly dominating nu freely; on shape nu it
    may only meet cells with right tableau exactly T, and the coefficient
    of (nu, S', T) must not depend on T; every other coordinate must
    vanish.  Failures are recorded as witnesses.
    """
    lam = tuple(lam)
    cells = codet_basis(lam, lam)
    dim = len(margin_matrices(lam, lam))
    witnesses: list[dict] = []

    # the cells form a basis exactly when there are dim of them and they
    # are independent; the solver's one elimination decides the latter
    solver = None
    if len(cells) == dim:
        try:
            solver = CoordinateSolver([c.value.terms for c in cells])
        except ValueError:
            pass
    axiom_a = solver is not None
    if not axiom_a:
        witnesses.append(
            {
                "axiom": "a",
                "cell_count": len(cells),
                "dim": dim,
                "rank": exact_rank([c.value.terms for c in cells]),
            }
        )

    axiom_b = True
    index = {
        (c.shape, c.left.row_word, c.right.row_word): k for k, c in enumerate(cells)
    }
    for c in cells:
        flipped = cells[index[(c.shape, c.right.row_word, c.left.row_word)]]
        if involution(c.value) != flipped.value:
            axiom_b = False
            witnesses.append(
                {
                    "axiom": "b",
                    "shape": list(c.shape),
                    "left": list(c.left.row_word),
                    "right": list(c.right.row_word),
                }
            )

    if not axiom_a:
        # coordinates are not well defined without a basis
        return CellReport(lam, dim, len(cells), axiom_a, axiom_b, False, witnesses)

    axiom_c = True
    multipliers = hom_basis(lam, lam)
    for a_idx, a in enumerate(multipliers):
        # per shape and left-output tableau, coefficients seen for each T
        per_t: dict[tuple, dict[tuple, dict]] = {}
        for c_idx, c in enumerate(cells):
            prod = schur_multiply(a, c.value)
            coords = solver.coords(prod.terms)
            if coords is None:
                axiom_c = False
                witnesses.append({"axiom": "c", "reason": "product outside basis span"})
                continue
            row: dict[Word, Fraction] = {}
            for k, x in enumerate(coords):
                if x == 0:
                    continue
                d = cells[k]
                if dominance_lt(c.shape, d.shape):
                    continue  # strictly more dominant shapes are free
                if d.shape != c.shape or d.right.row_word != c.right.row_word:
                    axiom_c = False
                    witnesses.append(
                        {
                            "axiom": "c",
                            "multiplier": a_idx,
                            "shape": list(c.shape),
                            "left": list(c.left.row_word),
                            "right": list(c.right.row_word),
                            "hits_shape": list(d.shape),
                            "hits_right": list(d.right.row_word),
                            "coeff": str(x),
                        }
                    )
                    continue
                row[d.left.row_word] = x
            key = (c.shape, c.left.row_word)
            seen = per_t.setdefault(key, {})
            seen[c.right.row_word] = row
        for (shape, left_word), by_t in per_t.items():
            rows = list(by_t.values())
            if any(row != rows[0] for row in rows[1:]):
                axiom_c = False
                witnesses.append(
                    {
                        "axiom": "c",
                        "multiplier": a_idx,
                        "shape": list(shape),
                        "left": list(left_word),
                        "reason": "structure coefficients depend on the right tableau",
                    }
                )
    return CellReport(lam, dim, len(cells), axiom_a, axiom_b, axiom_c, witnesses)
