import hashlib
import json
from fractions import Fraction

import pytest

from schuralg import codet, exact_linalg
from schuralg.codet import (
    cell_datum_check,
    codet_basis,
    codet_count,
    codeterminant,
    dominant_shapes,
    weight_word,
)
from schuralg.exact_linalg import CoordinateSolver, exact_rank
from schuralg.schur import SchurElement, hom_basis, involution, schur_multiply
from schuralg.weights import (
    compositions,
    dominance_lt,
    kostka,
    margin_matrices,
    pair_to_matrix,
)


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
    val = codeterminant((2, 0), (1, 2), (1, 2))
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
    with pytest.raises(ValueError):
        codeterminant((1, 2), (1, 2, 2), (1, 2, 2))
    with pytest.raises(ValueError):
        codeterminant((2, 0), (1,), (1, 2))


def test_codet_basis_counts():
    for n, r in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for lam in compositions(n, r):
            for mu in compositions(n, r):
                cells = codet_basis(lam, mu)
                assert len(cells) == codet_count(lam, mu)
                assert len(cells) == len(margin_matrices(lam, mu))


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
    for c in codet_basis((2, 1), (2, 1)):
        assert c.left.semistandard
        assert c.right.semistandard
        assert c.left.weight(2) == (2, 1)
        assert c.right.weight(2) == (2, 1)
        assert c.left.shape == c.shape[: len(c.left.rows)]


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
    by_key = {(c.shape, c.left.row_word, c.right.row_word): c for c in cells}
    for c in cells:
        flipped = by_key[(c.shape, c.right.row_word, c.left.row_word)]
        assert involution(c.value) == flipped.value


def test_cell_report_json():
    report = cell_datum_check((1, 1))
    payload = report.to_json()
    assert payload["passed"] is True
    assert payload["dim"] == 2
    assert payload["lambda"] == [1, 1]


def count_eliminations(monkeypatch):
    calls = []
    eliminate = exact_linalg._eliminate

    def counted(rows, ncols, jordan=False):
        calls.append(jordan)
        return eliminate(rows, ncols, jordan)

    monkeypatch.setattr(exact_linalg, "_eliminate", counted)
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
        assert report.witnesses[0] == {"axiom": "a", "cell_count": len(broken), "dim": dim, "rank": rank}
        # a wrong count is ranked at once; a dependent set fails its factoring first
        assert calls == ([False] if len(broken) != dim else [True, False])
        monkeypatch.undo()


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
