import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest

from schuralg import codet, exact_linalg, schur, verify, weights
from schuralg.cli import main
from schuralg.codet import (
    CellDatum,
    cell_datum_check,
    codet_basis,
    codet_count,
    codeterminant,
)
from schuralg.errors import ResourceLimitError
from schuralg.exact_linalg import CoordinateSolver, exact_rank, unimodular_change
from schuralg.schur import SchurElement, hom_basis, involution, schur_multiply
from schuralg.simples import simple_index_set
from schuralg.verify import run_suite, suite_cellular
from schuralg.weights import (
    col_sums,
    compositions,
    dominance_leq,
    dominance_lt,
    dominant_shapes,
    kostka,
    margin_count,
    margin_matrices,
    pair_to_matrix,
    row_sums,
    tableau_rows,
    weight_word,
)


def letters(nu, word):
    """The letter matrix of the tableau of shape nu with this row word."""
    return pair_to_matrix(word, weight_word(nu), len(nu))


def row_word(m):
    return tuple(x for row in tableau_rows(m) for x in row)


def test_weight_word():
    assert weight_word((2, 1)) == (1, 1, 2)
    assert weight_word((0, 3)) == (2, 2, 2)
    assert weight_word(()) == ()
    with pytest.raises(ValueError):
        weight_word((1, -1))


def test_dominant_shapes():
    assert dominant_shapes(2, 2) == [(2, 0), (1, 1)]
    assert dominant_shapes(3, 3) == [(3, 0, 0), (2, 1, 0), (1, 1, 1)]
    out = dominant_shapes(3, 3)
    for earlier, later in zip(out, out[1:]):
        assert not dominance_lt(earlier, later)


def test_codeterminant_hand_value():
    # shape (2,0), both words (1,2): xi_{ptm((1,2),(1,1))} * xi_{ptm((1,1),(1,2))}
    val = codeterminant(letters((2, 0), (1, 2)), letters((2, 0), (1, 2)))
    a = pair_to_matrix((1, 2), (1, 1), 2)
    b = pair_to_matrix((1, 1), (1, 2), 2)
    direct = schur_multiply(
        SchurElement(2, 2, {a: Fraction(1)}),
        SchurElement(2, 2, {b: Fraction(1)}),
    )
    assert val == direct
    # the (1,1) block of the symmetrizer: both basis matrices appear once
    assert val.terms == {
        ((1, 0), (0, 1)): Fraction(1),
        ((0, 1), (1, 0)): Fraction(1),
    }


def test_codeterminant_rejects_bad_shape():
    s = letters((2, 0), (1, 2))  # ((1, 0), (1, 0))
    t = letters((1, 1), (1, 2))  # ((1, 0), (0, 1))
    for left, right in [((), ()), (s, s[:1]), (s, ((1, 0), (1,))), (((1, 0, 0),) * 3, s)]:
        with pytest.raises(ValueError, match="need n >= 1 and two n x n letter matrices"):
            codeterminant(left, right)
    with pytest.raises(ValueError, match="nonnegative"):
        codeterminant(((2, 0), (1, -1)), t)
    # the word (2, 1) of shape (1, 1) puts a 2 in the first row, above a 1
    for left, right in [(letters((1, 1), (2, 1)), t), (t, ((1, 1), (0, 0)))]:
        with pytest.raises(ValueError, match="lower triangular"):
            codeterminant(left, right)
    # column sums (1, 1) against (2, 0), and (1, 2), which is not a partition
    for left, right in [(t, s), (((1, 0), (0, 2)),) * 2]:
        with pytest.raises(ValueError, match="one partition"):
            codeterminant(left, right)


def test_codet_basis_counts():
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for lam in compositions(n, r):
            for mu in compositions(n, r):
                cells = codet_basis(lam, mu)
                assert len(cells) == codet_count(lam, mu)
                assert len(cells) == len(margin_matrices(lam, mu))


def green_codeterminant(nu, i, j):
    """The codeterminant as Green's product xi_L xi_U of two orbit elements."""
    n, r, ell = len(nu), sum(nu), weight_word(nu)
    left = SchurElement(n, r, {pair_to_matrix(i, ell, n): 1})
    return schur_multiply(left, SchurElement(n, r, {pair_to_matrix(ell, j, n): 1}))


def test_codeterminants_match_green_products():
    count = 0
    for n in (1, 2, 3):
        for r in range(6):
            for lam in compositions(n, r):
                for mu in compositions(n, r):
                    for c in codet_basis(lam, mu):
                        assert c.value == green_codeterminant(c.shape, row_word(c.left), row_word(c.right)), c
                        count += 1
    assert count == 2134


def test_codet_basis_multiplies_no_orbit_elements(monkeypatch):
    expected = codet_basis((2, 2, 1), (1, 2, 2))

    def refuse(*args):
        raise AssertionError("two orbit elements were multiplied")

    monkeypatch.setattr(schur, "_pair_product", refuse)
    monkeypatch.setattr(schur, "schur_multiply", refuse)
    monkeypatch.setattr(codet, "_pair_product", refuse)
    assert codet_basis((2, 2, 1), (1, 2, 2)) == expected


def test_shapes_above_match_the_kostka_filtered_shapes():
    # the loops codet_count, codet_basis and simple_index_set ran over all shapes
    for n in range(1, 5):
        for r in range(7):
            shapes = dominant_shapes(n, r)
            for lam in compositions(n, r):
                single = [nu for nu in shapes if kostka(nu, lam)]
                assert list(weights._shapes_above(lam)) == single
                assert simple_index_set(lam).entries == tuple((nu, kostka(nu, lam)) for nu in single)
                for mu in compositions(n, r):
                    both = [nu for nu in shapes if kostka(nu, lam) * kostka(nu, mu)]
                    assert list(weights._shapes_above(lam, mu)) == both
                    assert codet_count(lam, mu) == sum(kostka(nu, lam) * kostka(nu, mu) for nu in both)
    with pytest.raises(ValueError, match="equal length and degree"):
        weights._shapes_above((2, 1), (1, 1))
    with pytest.raises(ValueError, match="compositions"):
        codet_count((3, -1), (1, 1))


def test_codet_count_lists_only_the_shapes_above_both_weights():
    # of the 59,823 partitions of 200 into at most 4 parts
    assert len(list(weights._shapes_above((50, 50, 50, 50), (100, 100, 0, 0)))) == 101
    assert codet_count((50, 50, 50, 50), (100, 100, 0, 0)) == margin_count((50, 50, 50, 50), (100, 100, 0, 0))


def test_codet_basis_refuses_a_large_block_after_its_first_shapes(monkeypatch):
    # every partition of 200 into at most 8 parts dominates (25,)*8; the
    # shapes come lazily, so the budget refuses after a few of them
    calls, levels = [], []
    shapes_below = weights._shapes_below

    def counted(nu, w):
        calls.append(nu)
        return kostka(nu, w)

    def counted_levels(*args):
        levels.append(args)
        assert len(levels) < 100, "the shapes were listed before the budget was checked"
        return shapes_below(*args)

    monkeypatch.setattr(codet, "kostka", counted)
    monkeypatch.setattr(weights, "_shapes_below", counted_levels)
    with pytest.raises(ResourceLimitError, match="has at least 1275 codeterminants"):
        codet_basis((25,) * 8, (25,) * 8)
    assert len(calls) < 20


def test_codet_basis_is_a_basis():
    for lam in compositions(3, 3):
        for mu in compositions(3, 3):
            cells = codet_basis(lam, mu)
            vecs = [c.value.terms for c in cells]
            assert exact_rank(vecs) == len(cells)


def test_codet_basis_spans_block():
    lam, mu = (2, 1), (1, 2)
    cells = codet_basis(lam, mu)
    solver = CoordinateSolver([c.value.terms for c in cells])
    for x in hom_basis(lam, mu):
        assert solver.in_span(x.terms)


def test_codet_basis_ordering():
    cells = codet_basis((1, 1), (1, 1))
    assert [c.shape for c in cells] == [(2, 0), (1, 1)]
    cells = codet_basis((2, 1, 0), (2, 1, 0))
    shapes = [c.shape for c in cells]
    assert shapes == sorted(shapes, reverse=True)


def test_codet_tableaux_are_semistandard():
    cells = codet_basis((2, 1), (2, 1))
    assert [(tableau_rows(c.left), tableau_rows(c.right)) for c in cells] == [
        (((1, 1, 2),), ((1, 1, 2),)), (((1, 1), (2,)), ((1, 1), (2,)))
    ]
    for c in cells:
        for m in (c.left, c.right):
            assert row_sums(m) == (2, 1) and col_sums(m) == c.shape


def test_kostka_vanishing_matches_empty_cells():
    lam = (0, 3)
    cells = codet_basis(lam, lam)
    shapes = {c.shape for c in cells}
    for nu in dominant_shapes(2, 3):
        if kostka(nu, lam) == 0:
            assert nu not in shapes
        else:
            assert nu in shapes


def test_cell_datum_diag_blocks():
    for lam in [(2, 0), (1, 1), (2, 1), (1, 1, 1), (2, 1, 0)]:
        report = cell_datum_check(lam)
        assert report.passed, report.witnesses
        assert report.dim == len(margin_matrices(lam, lam))
        assert report.cell_count == report.dim


def test_cell_involution_swaps_tableaux():
    cells = codet_basis((1, 1), (1, 1))
    by_key = {(c.shape, c.left, c.right): c for c in cells}
    for c in cells:
        flipped = by_key[(c.shape, c.right, c.left)]
        assert involution(c.value) == flipped.value


def test_cell_report_json():
    report = cell_datum_check((1, 1))
    payload = report.to_json()
    assert payload["passed"] is True
    assert payload["dim"] == 2
    assert payload["lambda"] == [1, 1]


def count_eliminations(monkeypatch):
    # in order: True for a Gauss-Jordan factoring (the dense elimination),
    # False for a rank (the sparse echelon) or a determinant
    calls = []
    eliminate, rank = exact_linalg._eliminate, codet.integer_rank

    def counted(rows, ncols, jordan=False):
        calls.append(jordan)
        return eliminate(rows, ncols, jordan)

    def ranked(rows):
        calls.append(False)
        return rank(rows)

    monkeypatch.setattr(exact_linalg, "_eliminate", counted)
    monkeypatch.setattr(codet, "integer_rank", ranked)
    return calls


def test_cell_datum_check_eliminates_once(monkeypatch):
    calls = count_eliminations(monkeypatch)
    assert cell_datum_check((2, 2, 1)).passed
    assert calls == [True]


def test_cell_datum_check_ranks_only_for_the_witness(monkeypatch):
    lam = (2, 1)
    cells = codet_basis(lam, lam)
    dim = len(cells)
    for broken, rank in ((cells[:-1], dim - 1), (cells[:-1] + cells[:1], dim - 1)):
        monkeypatch.setattr(codet, "codet_basis", lambda *_, cells=broken: cells)
        calls = count_eliminations(monkeypatch)
        report = cell_datum_check(lam)
        assert not report.axiom_a and not report.axiom_c
        assert report.witnesses[0] == {"axiom": "a", "cell_count": len(broken), "dim": dim, "rank": rank, "det": 0}
        # a wrong count is ranked at once; a dependent set fails its factoring first
        assert calls == ([False] if len(broken) != dim else [True, False])
        monkeypatch.undo()


def test_cellular_suite_reports_dependent_cells(monkeypatch, capsys):
    lam = (2, 1, 0)
    cells = codet_basis(lam, lam)
    monkeypatch.setattr(codet, "codet_basis", lambda *_: cells[:-1] + cells[:1])
    report = suite_cellular(3, 3, lam)
    assert [c.passed for c in report.checks] == [False, False]
    assert all(c.witness for c in report.checks)
    assert "not a Z-basis of the block" in report.checks[1].witness
    assert main(["verify", "cellular", "--n", "3", "--r", "3", "--lambda", "2,1,0"]) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


@pytest.mark.parametrize("lam", [(2, 1, 0), (2, 2, 1), (1, 1, 1)])
def test_cellular_suite_reports_swapped_cells(monkeypatch, lam):
    cells = codet_basis(lam, lam)
    first, last = cells[0], cells[-1]
    swapped = [replace(first, value=last.value)] + cells[1:-1] + [replace(last, value=first.value)]
    monkeypatch.setattr(codet, "codet_basis", lambda *_: swapped)
    report = suite_cellular(len(lam), sum(lam), lam)
    assert [c.passed for c in report.checks] == [False, False]
    assert all(c.witness for c in report.checks)


# SHA-256 of json.dumps(cell_datum_check(lam).to_json(), sort_keys=True),
# recorded with the sparse Fraction elimination this kernel replaced
REPORT_DIGESTS = {
    (3, 2, 1): "f1a1b1fa96cb25cd534b2b98ce31d6e8a658bc5b126896c21ed8b417e4a96abf",
    (3, 3, 2): "0d48212c7c84047d3a339e172e8cc96200a51c974b7573a468afde9ce11d4bb8",
}


@pytest.mark.parametrize("lam", sorted(REPORT_DIGESTS))
def test_cell_report_digests_are_pinned(lam):
    payload = json.dumps(cell_datum_check(lam).to_json(), sort_keys=True)
    assert hashlib.sha256(payload.encode()).hexdigest() == REPORT_DIGESTS[lam]


# The per-product path the integer cell action replaced, kept as the
# oracle: axiom (a) decided by unimodular_change against the orbit basis,
# then one schur_multiply and one Fraction solve per (multiplier, cell)
# pair for axiom (c), and per product on either side for the filtration.
def oracle_z_basis_solver(lam, cells):
    """A solver for the cells when they are a Z-basis of the block, else None."""
    if not unimodular_change([c.value.terms for c in cells], hom_basis(lam, lam)):
        return None
    return CoordinateSolver([c.value.terms for c in cells])


def oracle_det(lam, cells):
    """The cells' determinant over the orbit basis in margin-matrix order, by
    Fraction elimination; 0 when a cell is not integral or leaves the block,
    or when there are not as many cells as orbit elements."""
    margins = margin_matrices(lam, lam)
    rows = [[c.value.terms.get(a, Fraction(0)) for a in margins] for c in cells]
    if len(cells) != len(margins) or any(
        set(c.value.terms) - set(margins) or any(x.denominator != 1 for x in c.value.terms.values()) for c in cells
    ):
        return 0
    det = Fraction(1)
    for k in range(len(rows)):
        pivot = next((i for i in range(k, len(rows)) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            det = -det
        det *= rows[k][k]
        for i in range(k + 1, len(rows)):
            f = rows[i][k] / rows[k][k]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return int(det)


def oracle_cell_datum_check(lam):
    lam = tuple(lam)
    cells = codet_basis(lam, lam)
    dim = len(margin_matrices(lam, lam))
    witnesses = []
    solver = oracle_z_basis_solver(lam, cells)
    axiom_a = solver is not None
    if not axiom_a:
        rank = exact_rank([c.value.terms for c in cells])
        det = oracle_det(lam, cells)
        witnesses.append({"axiom": "a", "cell_count": len(cells), "dim": dim, "rank": rank, "det": det})
    axiom_b = True
    index = {(c.shape, row_word(c.left), row_word(c.right)): k for k, c in enumerate(cells)}
    for c in cells:
        flipped = cells[index[(c.shape, row_word(c.right), row_word(c.left))]]
        if involution(c.value) != flipped.value:
            axiom_b = False
            witnesses.append(
                {"axiom": "b", "shape": list(c.shape), "left": list(row_word(c.left)), "right": list(row_word(c.right))}
            )
    if not axiom_a:
        return codet.CellReport(lam, dim, len(cells), axiom_a, axiom_b, False, witnesses)
    axiom_c = True
    for a_idx, a in enumerate(hom_basis(lam, lam)):
        per_t = {}
        for c in cells:
            coords = solver.coords(schur_multiply(a, c.value).terms)
            if coords is None:
                axiom_c = False
                witnesses.append({"axiom": "c", "reason": "product outside basis span"})
                continue
            row = {}
            for k, x in enumerate(coords):
                if x == 0:
                    continue
                d = cells[k]
                if dominance_lt(c.shape, d.shape):
                    continue
                if d.shape != c.shape or row_word(d.right) != row_word(c.right):
                    axiom_c = False
                    witnesses.append({
                        "axiom": "c", "multiplier": a_idx, "shape": list(c.shape),
                        "left": list(row_word(c.left)), "right": list(row_word(c.right)),
                        "hits_shape": list(d.shape), "hits_right": list(row_word(d.right)), "coeff": str(x),
                    })
                    continue
                row[row_word(d.left)] = x
            per_t.setdefault((c.shape, row_word(c.left)), {})[row_word(c.right)] = row
        for (shape, left_word), by_t in per_t.items():
            rows = list(by_t.values())
            if any(row != rows[0] for row in rows[1:]):
                axiom_c = False
                witnesses.append({
                    "axiom": "c", "multiplier": a_idx, "shape": list(shape), "left": list(left_word),
                    "reason": "structure coefficients depend on the right tableau",
                })
    return codet.CellReport(lam, dim, len(cells), axiom_a, axiom_b, axiom_c, witnesses)


def oracle_filtration_ideal(lam):
    cells = codet_basis(lam, lam)
    solver = oracle_z_basis_solver(lam, cells)
    if solver is None:
        return f"lambda={list(lam)}: the cells are not a Z-basis of the block"
    for k, cell in enumerate(cells):
        for a in hom_basis(lam, lam):
            for prod in (schur_multiply(a, cell.value), schur_multiply(cell.value, a)):
                coords = solver.coords(prod.terms)
                if coords is None or any(
                    x != 0 and not dominance_leq(cell.shape, cells[idx].shape) for idx, x in enumerate(coords)
                ):
                    return f"shape={cell.shape}: a product with cell {k} leaves the ideal"
    return None


ORACLE_WEIGHTS = [lam for r in range(6) for lam in compositions(3, r)] + [(2, 2, 2), (3, 3, 2)]


@pytest.mark.parametrize("lam", ORACLE_WEIGHTS)
def test_integer_action_matches_the_per_product_oracle(lam):
    datum = CellDatum(lam)
    assert datum.axioms().to_json() == oracle_cell_datum_check(lam).to_json()
    if sum(lam) <= 4 or lam == (2, 2, 1):
        assert datum.filtration() == oracle_filtration_ideal(lam)


def test_filtration_reads_the_left_products_of_axiom_c():
    lam = (2, 2, 1)
    datum = CellDatum(lam)
    assert datum.axioms().passed
    left = dict(datum._coords)
    assert len(left) == len(margin_matrices(lam, lam)) * len(datum.cells)
    assert datum.filtration() is None
    # every left product is the one solved for axiom (c), not formed again
    assert all(datum._coords[key] is coords for key, coords in left.items())
    assert len(datum._coords) == 2 * len(left)


def test_cellular_suite_builds_each_cell_once(monkeypatch):
    calls = []
    original = codet.codeterminant

    def counted(left, right):
        calls.append(1)
        return original(left, right)

    monkeypatch.setattr(codet, "codeterminant", counted)
    assert run_suite("cellular", n=3, r=4).passed
    assert len(calls) == sum(len(margin_matrices(w, w)) for w in compositions(3, 4)) == 45


def _perturbed(kind, cells):
    """The letter matrices (L_S, L_T) of the cell to change and its new value."""
    first, last = cells[0], cells[-1]
    # a cell with two different tableaux, so that its transpose is another cell
    target = next(c for c in cells if c.left != c.right) if kind in ("scaled", "doubled") else first
    value = {
        # a copy of another cell: the cells are dependent
        "dependent": lambda: cells[1].value,
        # a less dominant cell added in: still a basis, no longer cellular
        "mixed": lambda: first.value + last.value,
        # a fractional multiple: Fraction coordinates, and no involution
        "scaled": lambda: target.value.scale(Fraction(2, 3)),
        # an integer multiple: still independent, of determinant 2
        "doubled": lambda: target.value.scale(2),
        # a term outside the block: independent cells that do not span it
        "outside": lambda: first.value + hom_basis((first.value.r, 0, 0), row_sums(first.right))[0],
    }[kind]()
    return (target.left, target.right), value


@pytest.mark.parametrize("kind", ["dependent", "mixed", "scaled", "doubled", "outside"])
@pytest.mark.parametrize("lam", [(2, 1, 1), (2, 2, 1)])
def test_integer_action_matches_the_oracle_on_perturbed_cells(monkeypatch, kind, lam):
    target, value = _perturbed(kind, codet_basis(lam, lam))
    original = codet.codeterminant

    def perturbed(left, right):
        return value if (left, right) == target else original(left, right)

    monkeypatch.setattr(codet, "codeterminant", perturbed)
    datum = CellDatum(lam)
    report = datum.axioms()
    assert report.to_json() == oracle_cell_datum_check(lam).to_json() == cell_datum_check(lam).to_json()
    assert not report.passed
    filtration = datum.filtration()
    assert filtration == oracle_filtration_ideal(lam)
    # the right products first, on a datum that checked no axiom
    assert CellDatum(lam).filtration() == filtration
    # only the mixed cells are still a Z-basis of the block
    if kind == "mixed":
        assert report.axiom_a and not report.axiom_c and filtration is not None
    else:
        assert not report.axiom_a and "not a Z-basis of the block" in filtration


def test_solver_integer_entry_point_agrees_with_coords():
    rng = random.Random(12)
    keys = list(range(8))
    basis = [{k: Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for k in rng.sample(keys, 5)} for _ in range(5)]
    solver = CoordinateSolver(basis)
    for _ in range(50):
        xs = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in basis]
        v = {k: sum(x * b.get(k, 0) for x, b in zip(xs, basis)) for k in keys}
        w, t = exact_linalg._clear_denominators(v)
        numerators = solver.solve(w)
        assert [Fraction(x, solver.den * t) for x in numerators] == solver.coords(v) == xs
    # outside the span: an unknown key, or a known key off the span
    assert solver.solve({"other": 1}) is None and solver.coords({"other": 1}) is None
    outside = next({k: 1} for k in keys if solver.coords({k: 1}) is None)
    assert solver.solve(outside) is None
    # zero entries at unknown keys are no obstacle
    assert solver.solve({"other": 0}) == [0] * len(basis)


def test_cell_datum_check_multiplies_only_the_codeterminants(monkeypatch):
    # the codeterminants are words of divided powers, so no element is
    # multiplied at all: only the pair products xi_A xi_B of axiom (c)
    calls = []
    multiply = schur.schur_multiply

    def counted(x, y):
        calls.append(1)
        return multiply(x, y)

    monkeypatch.setattr(schur, "schur_multiply", counted)
    report = cell_datum_check((2, 2, 2))
    assert report.passed
    assert calls == []


def test_codet_row_is_a_z_basis_test(monkeypatch):
    lam = (2, 1, 1)
    cells = codet_basis(lam, lam)
    # the codeterminants have determinant -1 over the orbit basis of this block
    for k, c in enumerate(cells):
        doubled = cells[:k] + [replace(c, value=c.value.scale(2))] + cells[k + 1:]
        monkeypatch.setattr(codet, "codet_basis", lambda *_, cells=doubled: cells)
        # count, Kostka sum and rank all still agree; only the determinant does not
        assert exact_rank([d.value for d in doubled]) == len(cells)
        assert verify._codet_block(lam, lam) == f"lam={lam} mu={lam}: cells=7 dim=7 kostka-sum=7 det=-2"
    swapped = [cells[1], cells[0]] + cells[2:]
    monkeypatch.setattr(codet, "codet_basis", lambda *_: swapped)
    assert verify._codet_block(lam, lam) is None


def test_codet_suite_ranks_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the codet row ranked its cells")

    for module in (exact_linalg, verify, codet):
        monkeypatch.setattr(module, "integer_rank", refuse)
    assert run_suite("codet", n_max=3, r_max=4).passed


@pytest.mark.parametrize("lam", [(2, 1, 1), (1, 2, 1)])
def test_integer_coordinates_rebuild_the_products(lam):
    # over the orbit basis in margin-matrix order the codeterminants of
    # (2,1,1) have determinant -1, those of (1,2,1) +1; the solver factors
    # them in that order, so its denominator is that determinant
    datum = CellDatum(lam)
    assert datum.solver.den == verify._orbit_det([c.value for c in datum.cells], datum.multipliers)
    assert datum.solver.den == (-1 if lam == (2, 1, 1) else 1)
    for a in datum.multipliers:
        xi_a = SchurElement(3, sum(lam), {a: 1})
        for k, cell in enumerate(datum.cells):
            for right in (False, True):
                coords = datum.coords(a, k, right)
                assert all(type(x) is int for x in coords)
                rebuilt = SchurElement(3, sum(lam), {})
                for x, c in zip(coords, datum.cells):
                    rebuilt = rebuilt + c.value.scale(x)
                assert rebuilt == (schur_multiply(cell.value, xi_a) if right else schur_multiply(xi_a, cell.value))
