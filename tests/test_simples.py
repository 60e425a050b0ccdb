import itertools

import pytest

from schuralg.simples import (
    shifted_kostka,
    simple_dim_char0,
    simple_index_set,
    simple_index_set_window,
)
from schuralg.weights import (
    compositions,
    dominance_leq,
    is_dominant,
    kostka,
    sort_dominant,
)


def test_composition_mode_hand_values():
    report = simple_index_set((1, 1, 1))
    assert report.mode == "composition"
    assert report.entries == (
        ((3, 0, 0), 1),
        ((2, 1, 0), 2),
        ((1, 1, 1), 1),
    )


def test_composition_mode_unsorted_weight():
    report = simple_index_set((1, 2, 0))
    assert report.entries == (((3, 0, 0), 1), ((2, 1, 0), 1))


def test_composition_mode_row_weight():
    report = simple_index_set((2, 0))
    assert report.entries == (((2, 0), 1),)
    report = simple_index_set((0, 0))
    assert report.entries == (((0, 0), 1),)


def test_composition_mode_is_dominance_upset():
    for lam in [(2, 1, 0), (1, 1, 2), (0, 2, 2)]:
        report = simple_index_set(lam)
        found = {mu for mu, _ in report.entries}
        expected = {
            mu
            for mu in compositions(len(lam), sum(lam))
            if is_dominant(mu) and dominance_leq(sort_dominant(lam), mu)
        }
        assert found == expected


def test_composition_mode_ordering():
    report = simple_index_set((1, 1, 1, 1))
    mus = [mu for mu, _ in report.entries]
    assert mus == sorted(mus, reverse=True)
    assert mus[0] == (4, 0, 0, 0)


def test_composition_mode_rejects_negative():
    with pytest.raises(ValueError):
        simple_index_set((1, -1))


def test_window_mode_hand_values():
    report = simple_index_set_window((0, -2), 1)
    assert report.mode == "integer-window"
    assert report.window == 1
    assert report.entries == (((1, -3), 1), ((0, -2), 1))


def test_window_zero():
    report = simple_index_set_window((0, -2), 0)
    assert report.entries == (((0, -2), 1),)


def test_window_mode_matches_composition_mode_after_shift():
    lam = (1, -1, 0)
    w = 2
    shifted = tuple(x + 1 for x in lam)  # now a composition
    report = simple_index_set_window(lam, w)
    report_shifted = simple_index_set_window(shifted, w)
    assert len(report.entries) == len(report_shifted.entries)
    for (mu, k), (mu2, k2) in zip(report.entries, report_shifted.entries):
        assert tuple(x + 1 for x in mu) == mu2
        assert k == k2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_window_mode_matches_brute_force(n):
    # every non-increasing tuple in the window with the right degree and a
    # nonzero multiplicity, most dominant (lexicographically largest) first
    for lam in itertools.product(range(-3, 4), repeat=n):
        base = sort_dominant(lam)
        for window in range(4):
            lo, hi = base[-1] - window, base[0] + window
            expected = [
                (mu, shifted_kostka(mu, lam))
                for mu in sorted(itertools.product(range(lo, hi + 1), repeat=n), reverse=True)
                if is_dominant(mu) and sum(mu) == sum(lam) and shifted_kostka(mu, lam)
            ]
            assert list(simple_index_set_window(lam, window).entries) == expected


def test_kostka_is_shift_invariant():
    # the determinant twist behind shifted_kostka, checked directly
    cases = [((2, 0), (1, 1)), ((2, 1, 0), (1, 1, 1)), ((3, 1), (2, 2))]
    for mu, lam in cases:
        base = kostka(mu, lam)
        for c in (1, 2, 5):
            mu2 = tuple(x + c for x in mu)
            lam2 = tuple(x + c for x in lam)
            assert kostka(mu2, lam2) == base


def test_shifted_kostka_negative_entries():
    assert shifted_kostka((1, -3), (0, -2)) == 1
    assert shifted_kostka((-1, -1), (0, -2)) == 0
    assert shifted_kostka((2, 1), (1, 2)) == 1


def test_simple_dim_char0():
    assert simple_dim_char0((1, 1, 1), (2, 1, 0)) == 2
    assert simple_dim_char0((1, 1), (2, 1)) == 0  # degree mismatch
    with pytest.raises(ValueError):
        simple_dim_char0((1, 1), (1, 2))
    assert simple_dim_char0((0, -2), (1, -3)) == 1


def test_multiplicities_match_simple_dim():
    report = simple_index_set((2, 1, 1))
    for mu, k in report.entries:
        assert simple_dim_char0((2, 1, 1), mu) == k


def test_report_json_and_csv():
    report = simple_index_set((1, 1))
    payload = report.to_json()
    assert payload["characteristic"] == "0"
    assert payload["mode"] == "composition"
    assert payload["entries"] == [
        {"mu": [2, 0], "multiplicity": 1},
        {"mu": [1, 1], "multiplicity": 1},
    ]
    assert "not computed" in payload["modular_note"]
    csv = report.to_csv()
    assert csv.splitlines()[0] == "mu,multiplicity"
    assert '"2,0",1' in csv


def test_window_validates():
    with pytest.raises(ValueError):
        simple_index_set_window((1, 0), -1)
