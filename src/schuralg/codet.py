"""Codeterminant bases and the cellular-structure check.

A cell is a pair of semistandard tableaux S, T of one partition shape nu,
held as their letter matrices L = L_S and L_T (see weights).  Its
codeterminant is Green's product xi_L xi_U, U = L_T transposed, and it
is one word of divided powers, F^(L) 1_nu E^(U) 1_mu (schur._apply_runs;
Green's rule is the tests' oracle).  Over the shapes nu dominating both
weights they form a basis of each weight block:
sum_nu K(nu, lam) K(nu, mu) = #{margin matrices (lam, mu)}.

cell_datum_check verifies the cellular axioms for the algebra of a single
weight lam, with cells ordered by dominance of shapes and the cell ideal
for nu spanned by the codeterminants of shapes strictly dominating nu:

  (a) the codeterminants form a Z-basis of the block: integral, inside
      it, as many as its orbit basis, and of determinant +-1 over it;
  (b) the transpose involution swaps the two tableaux of each cell;
  (c) left multiplication fixes the right tableau modulo more dominant
      shapes, with structure coefficients independent of it.

Checking (c) on a spanning set of left multipliers suffices because the
condition is linear in the multiplier.  It runs as the block's integer
action on that Z-basis: the one Gauss-Jordan factoring of the cells that
decides (a) also solves each of Green's integer pair products xi_A xi_B
on its own, once, in integer coordinates; the coordinates of xi_A times
a cell are integer multiply-adds of those solutions, weighted by the
cell's integer (B, v) pairs, and no Fraction is built.  CellDatum holds
one weight's cells and action; its filtration check (the cells of shapes
dominating a shape span a two-sided ideal) reads the left products that
axiom (c) solved and solves only the right ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import check_budget, count_text
from .exact_linalg import CoordinateSolver, integer_rank
from .schur import SchurElement, _apply_runs, _pair_product, involution
from .weights import (
    Matrix,
    Weight,
    _shapes_above,
    col_sums,
    dominance_leq,
    dominance_lt,
    is_dominant,
    kostka,
    margin_matrices,
    row_sums,
    ssyt,
    tableau_rows,
)

__all__ = [
    "codeterminant",
    "Codeterminant",
    "codet_basis",
    "codet_count",
    "CellReport",
    "CellDatum",
    "cell_datum_check",
]


def codeterminant(left: Matrix, right: Matrix) -> SchurElement:
    """xi_L xi_U for the letter matrices L = left and right = U transposed
    of two semistandard tableaux of one shape, as one word of divided
    powers; U is upper triangular, so each run takes from a diagonal-only
    row."""
    n = len(left)
    if not n or len(right) != n or any(len(row) != n for row in (*left, *right)):
        raise ValueError("need n >= 1 and two n x n letter matrices")
    if any(x < 0 for row in (*left, *right) for x in row):
        raise ValueError("letter matrices must be nonnegative")
    if any(m[a][b] for m in (left, right) for a in range(n) for b in range(a + 1, n)):
        raise ValueError("letter matrices must be lower triangular")
    shape = col_sums(left)
    if col_sums(right) != shape or not is_dominant(shape):
        raise ValueError("the column sums of both letter matrices must be one partition")
    return _codeterminant(left, right)


def _codeterminant(left: Matrix, right: Matrix) -> SchurElement:
    """codeterminant without its checks, for ssyt's letter matrices."""
    n = len(left)
    runs = [(a, b, right[b][a]) for b in range(n) for a in range(b) if right[b][a]]
    runs += [(a, b, left[a][b]) for b in reversed(range(n)) for a in range(b + 1, n) if left[a][b]]
    return SchurElement._build((n, sum(map(sum, left))), _apply_runs(runs, row_sums(right)))


@dataclass(frozen=True)
class Codeterminant:
    """A basis cell: shape, the letter matrices of its two tableaux, and the value."""

    shape: Weight
    left: Matrix
    right: Matrix
    value: SchurElement


def codet_basis(lam: Sequence[int], mu: Sequence[int]) -> list[Codeterminant]:
    """Codeterminant basis of the (lam, mu) weight block, ordered by shape
    (most dominant first), then left tableau, then right tableau (both in
    ssyt's row-word order)."""
    # count the cells by Kostka numbers, shape by shape (the shapes come
    # lazily), before any tableau is built: the cells are a basis of the
    # block, so each value has at most that many terms, and the cellular
    # check multiplies all pairs
    shapes: list[Weight] = []
    count = 0
    for nu in _shapes_above(lam, mu):
        count += kostka(nu, lam) * kostka(nu, mu)
        check_budget(count ** 2, lambda: (
            f"block ({tuple(lam)}, {tuple(mu)}) has at least {count_text(count)} codeterminants"
            f" ({count_text(count ** 2)} pairs)"
        ))
        shapes.append(nu)
    cells: list[Codeterminant] = []
    for nu in shapes:
        rights = ssyt(nu, mu)
        cells.extend(Codeterminant(nu, s, t, _codeterminant(s, t)) for s in ssyt(nu, lam) for t in rights)
    return cells


def codet_count(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Predicted size of the codeterminant basis: sum over shapes of the
    product of Kostka numbers."""
    return sum(kostka(nu, lam) * kostka(nu, mu) for nu in _shapes_above(lam, mu))


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


def _word(a: Matrix) -> list[int]:
    """The row-reading word of the tableau with letter matrix a."""
    return [x for row in tableau_rows(a) for x in row]


def _cell_json(shape: Weight, *tableaux: Matrix) -> dict:
    return {"shape": list(shape), **dict(zip(("left", "right"), map(_word, tableaux)))}


class CellDatum:
    """The cells of the algebra of weight lam, the multipliers (the block's
    orbit basis) and the integer action, with each pair product and each
    product of a multiplier with a cell solved once for both checks."""

    def __init__(self, lam: Sequence[int]) -> None:
        self.lam = tuple(lam)
        self.cells = codet_basis(self.lam, self.lam)
        self.keys = [(c.shape, c.left, c.right) for c in self.cells]
        self.multipliers = margin_matrices(self.lam, self.lam)
        self._solved: dict[tuple[Matrix, Matrix], list[int]] = {}
        self._coords: dict[tuple[Matrix, int, bool], list[int]] = {}

    @cached_property
    def _factored(self) -> tuple[int, CoordinateSolver | None]:
        """(det, solver): the cells' determinant over the multipliers, in
        their order, and the cells factored once over them when det is +-1,
        else None.  det is 0 unless the cells are integral, inside the
        block and as many as its orbit basis; the factoring's one
        denominator is then det itself (the solver refuses cells with
        terms outside the block)."""
        values = [c.value for c in self.cells]
        if len(values) != len(self.multipliers) or not all(v.integral() for v in values):
            return 0, None
        try:
            solver = CoordinateSolver(values, self.multipliers)
        except ValueError:
            return 0, None
        return solver.den, solver if abs(solver.den) == 1 else None

    @property
    def solver(self) -> CoordinateSolver | None:
        """The cells factored once when they are a Z-basis of the block, else None."""
        return self._factored[1]

    def coords(self, a: Matrix, k: int, right: bool = False) -> list[int]:
        """Integer coordinates of xi_a times cell k (cell k times xi_a when
        right); the cells must be a Z-basis of the block."""
        if (a, k, right) not in self._coords:
            solver, out = self.solver, [0] * len(self.cells)
            for b, v in self.cells[k].value.num.items():
                xy = (b, a) if right else (a, b)
                if xy not in self._solved:
                    self._solved[xy] = solver.solve(dict(_pair_product(*xy)))
                v *= solver.den  # +-1, the cells' determinant
                for i, c in enumerate(self._solved[xy]):
                    if c:
                        out[i] += v * c
            self._coords[a, k, right] = out
        return self._coords[a, k, right]

    def axioms(self) -> CellReport:
        """The report on axioms (a)-(c); see cell_datum_check."""
        cells, keys = self.cells, self.keys
        dim = len(self.multipliers)
        witnesses: list[dict] = []

        axiom_a = self.solver is not None
        if not axiom_a:
            rank = integer_rank([c.value.num for c in cells])
            witnesses.append({
                "axiom": "a", "cell_count": len(cells), "dim": dim, "rank": rank, "det": self._factored[0],
            })

        axiom_b = True
        index = {key: k for k, key in enumerate(keys)}
        for c in cells:
            flipped = cells[index[(c.shape, c.right, c.left)]]
            if involution(c.value) != flipped.value:
                axiom_b = False
                witnesses.append({"axiom": "b", **_cell_json(c.shape, c.left, c.right)})

        if not axiom_a:
            # coordinates are not integral, or not defined, off a Z-basis
            return CellReport(self.lam, dim, len(cells), axiom_a, axiom_b, False, witnesses)

        axiom_c = True
        shapes = {c.shape for c in cells}
        above = {(s, t): dominance_lt(s, t) for s in shapes for t in shapes}
        for a_idx, a in enumerate(self.multipliers):
            # per shape and left-output tableau, coefficients seen for each T
            per_t: dict[tuple, dict[Matrix, dict]] = {}
            for k, (shape, left, right) in enumerate(keys):
                row: dict[Matrix, int] = {}
                for j, v in enumerate(self.coords(a, k)):
                    if not v or above[shape, keys[j][0]]:
                        continue  # strictly more dominant shapes are free
                    d_shape, d_left, d_right = keys[j]
                    if d_shape != shape or d_right != right:
                        axiom_c = False
                        witnesses.append({
                            "axiom": "c", "multiplier": a_idx, **_cell_json(shape, left, right),
                            "hits_shape": list(d_shape), "hits_right": _word(d_right), "coeff": str(v),
                        })
                        continue
                    row[d_left] = v
                per_t.setdefault((shape, left), {})[right] = row
            for (shape, left), by_t in per_t.items():
                rows = list(by_t.values())
                if any(row != rows[0] for row in rows[1:]):
                    axiom_c = False
                    witnesses.append({
                        "axiom": "c", "multiplier": a_idx, **_cell_json(shape, left),
                        "reason": "structure coefficients depend on the right tableau",
                    })
        return CellReport(self.lam, dim, len(cells), axiom_a, axiom_b, axiom_c, witnesses)

    def filtration(self) -> str | None:
        """Witness when the span of the cells whose shapes dominate some
        shape is not closed under multiplication by the block on either
        side, or when the cells are not a Z-basis of the block."""
        if self.solver is None:
            return f"lambda={list(self.lam)}: the cells are not a Z-basis of the block"
        shapes = [shape for shape, _, _ in self.keys]
        leq = {(s, t): dominance_leq(s, t) for s in set(shapes) for t in set(shapes)}
        # the cells dominating nu span an ideal for every shape nu exactly when
        # each product with a cell lands on cells dominating that cell's shape:
        # take nu = its shape one way, transitivity of dominance the other way
        for k, shape in enumerate(shapes):
            for a in self.multipliers:
                for right in (False, True):
                    if any(x and not leq[shape, shapes[i]] for i, x in enumerate(self.coords(a, k, right))):
                        return f"shape={shape}: a product with cell {k} leaves the ideal"
        return None


def cell_datum_check(lam: Sequence[int]) -> CellReport:
    """Verify the cellular axioms for the algebra of weight lam.

    Axiom (c) in detail: for every spanning element a and every cell
    (nu, S, T), the expansion of a * C(nu, S, T) in the codeterminant
    basis may meet shapes strictly dominating nu freely; on shape nu it
    may only meet cells with right tableau exactly T, and the coefficient
    of (nu, S', T) must not depend on T; every other coordinate must
    vanish.  Failures are recorded as witnesses.
    """
    return CellDatum(lam).axioms()
