"""Indexing simple modules by dominant weights with Kostka multiplicities.

For a composition weight lam, the simple modules of the corresponding
weight-block algebra are indexed by the dominant weights mu of the same
degree whose Kostka number K(mu, lam) is nonzero; that set is exactly the
dominance up-set of the sorted rearrangement of lam, and K(mu, lam) is
the dimension of the mu-simple's lam-weight space in characteristic 0.
Nothing modular is claimed: reports carry characteristic "0" explicitly,
and positive characteristic is reported as not computed.

For integer weights with negative entries (the modified-algebra setting)
infinitely many dominant mu have nonzero multiplicity, so enumeration
requires an explicit window.  Multiplicities come from the determinant
twist: shifting both weights by a constant vector does not change weight
multiplicities, so K'(mu, lam) = kostka(mu + k, lam + k) for any shift k
clearing the negatives.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .weights import (
    Weight,
    _shapes_above,
    _shapes_below,
    is_composition,
    is_dominant,
    kostka,
    sort_dominant,
)

__all__ = [
    "SimpleIndexReport",
    "simple_index_set",
    "simple_index_set_window",
    "simple_dim_char0",
    "shifted_kostka",
]


@dataclass(frozen=True)
class SimpleIndexReport:
    """Dominant weights indexing simples, with multiplicities of the
    reference weight space; characteristic-0 data only."""

    lam: Weight
    entries: tuple[tuple[Weight, int], ...]
    mode: str  # "composition" or "integer-window"
    window: int | None = None
    characteristic: str = "0"
    modular_note: str = "positive characteristic multiplicities not computed"

    def to_json(self) -> dict:
        return {
            "lambda": list(self.lam),
            "entries": [
                {"mu": list(mu), "multiplicity": m} for mu, m in self.entries
            ],
            "mode": self.mode,
            "window": self.window,
            "characteristic": self.characteristic,
            "modular_note": self.modular_note,
        }

    def to_csv(self) -> str:
        lines = ["mu,multiplicity"]
        for mu, m in self.entries:
            lines.append(f"\"{','.join(map(str, mu))}\",{m}")
        return "\n".join(lines) + "\n"


def simple_dim_char0(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Multiplicity of the lam weight space in the simple indexed by the
    dominant weight mu, characteristic 0: the Kostka number, via the
    determinant-twist shift when entries are negative."""
    if len(lam) != len(mu):
        raise ValueError("weights must have equal length")
    if not is_dominant(mu):
        raise ValueError("mu must be dominant (weakly decreasing)")
    if sum(lam) != sum(mu):
        return 0
    return shifted_kostka(mu, lam)


def shifted_kostka(mu: Sequence[int], lam: Sequence[int]) -> int:
    """kostka after adding a common constant making all entries nonnegative."""
    k = min(min(mu), min(lam), 0)
    mu2 = tuple(x - k for x in mu)
    lam2 = tuple(x - k for x in lam)
    return kostka(mu2, lam2)


def simple_index_set(lam: Sequence[int]) -> SimpleIndexReport:
    """Index set for a composition weight: dominant weights of the same
    degree and length with nonzero Kostka number, most dominant first."""
    lam = tuple(lam)
    if not is_composition(lam):
        raise ValueError("composition mode needs nonnegative entries; "
                         "use simple_index_set_window for integer weights")
    # the shapes with a nonzero Kostka number are the dominance up-set
    entries = tuple((mu, kostka(mu, lam)) for mu in _shapes_above(lam))
    return SimpleIndexReport(lam, entries, "composition")


def simple_index_set_window(lam: Sequence[int], window: int) -> SimpleIndexReport:
    """Index set for an integer weight, restricted to dominant mu with all
    entries within `window` of the sorted weight's entry range.  The
    window is required because the unrestricted set is infinite."""
    lam = tuple(int(x) for x in lam)
    if window < 0:
        raise ValueError("window must be nonnegative")
    n = len(lam)
    base = sort_dominant(lam)
    lo = base[-1] - window
    hi = base[0] + window
    total = sum(lam)
    entries = []
    # dominant weights with entries in [lo, hi] are partitions with parts at
    # most hi - lo, shifted by lo; the helper needs total - n*lo <= n*(hi - lo),
    # which holds because total - n*lo <= n*(max(lam) - lo) and max(lam) <= hi
    for shape in _shapes_below(n, total - n * lo, hi - lo):
        mu = tuple(x + lo for x in shape)
        k = shifted_kostka(mu, lam)
        if k:
            entries.append((mu, k))
    return SimpleIndexReport(lam, tuple(entries), "integer-window", window)
