"""Named verification suites with deterministic, witness-carrying reports.

Each suite cross-checks one structural claim at desk scale against an
independent oracle: union-find orbit counts for dimensions, Kostka sums
for codeterminant counts, exact ranks for spanning, one Z-basis test for
every explicit basis (_orbit_det), elementwise comparisons for identities.

The suites form a table: SUITES maps names to suite functions, whose
keyword parameters and defaults are the suite parameters (and the CLI's
verify flags).  A suite lists its checks as rows: check id, the cases of
one parameter slice as lazily generated argument tuples, and a predicate
returning a witness string or None.  One runner, _run, times the suite
and records for each row the witness of its first failing case, drawing
no case after it.  Report payloads contain no timestamps, so their JSON
is byte-identical across runs (wall time rides on the object).
"""

from __future__ import annotations

import itertools
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from functools import reduce
from math import comb
from operator import getitem
from typing import Callable, Iterable, Iterator, Sequence, Sized

from . import codet as codet_mod
from . import enveloping as env
from . import schur as schur_mod
from . import udot as udot_mod
from .errors import SYMMETRIC_GROUP_MAX_R, TENSOR_SPACE_LIMIT, check_budget, count_text
from .exact_linalg import echelon_add, integer_det, integer_rank
from .weights import (
    _check_composition_count,
    _compositions,
    block_sizes,
    col_sums,
    composition_count,
    compositions,
    is_composition,
    margin_count,
    margin_matrices,
    row_sums,
    weight_word,
    words_of_weight,
)

__all__ = [
    "Check",
    "VerificationReport",
    "SUITES",
    "run_suite",
    "suite_gbasis",
    "suite_codet",
    "suite_zbas",
    "suite_idem_lemma",
    "suite_cellular",
    "suite_relations",
    "suite_psi",
    "suite_gl2",
    "suite_sym_quotient",
    "suite_properties",
]


@dataclass
class Check:
    id: str
    passed: bool
    witness: str | None = None


@dataclass
class VerificationReport:
    suite: str
    params: dict
    checks: list[Check] = field(default_factory=list)
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, check_id: str, passed: bool, witness: str | None = None) -> None:
        self.checks.append(Check(check_id, passed, witness if not passed else None))

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "params": self.params,
            "checks": [
                {"id": c.id, "passed": c.passed, "witness": c.witness}
                for c in self.checks
            ],
            "passed": self.passed,
        }

    def to_csv(self) -> str:
        lines = ["check,passed"]
        for c in self.checks:
            lines.append(f"{c.id},{str(c.passed).lower()}")
        return "\n".join(lines) + "\n"


# (check id, argument tuples of the slice's cases, predicate -> witness or None)
Row = tuple[str, Iterable[tuple], Callable[..., "str | None"]]


def _run(suite: str, params: dict, rows: Iterable[Row], least: dict | None = None) -> VerificationReport:
    """The one runner: each row becomes a check that fails with the
    witness of its first failing case.  First it refuses a range that
    would check nothing: n_max, r_max and window below 1, 0 and 0, or
    below the suite's own least values."""
    for name, bound in {"n_max": 1, "r_max": 0, "window": 0, **(least or {})}.items():
        if params.get(name, bound) < bound:
            raise ValueError(f"--{name.replace('_', '-')} must be at least {bound}, got {params[name]}")
    report = VerificationReport(suite, params)
    start = time.perf_counter()
    for check_id, cases, predicate in rows:
        witnesses = itertools.starmap(predicate, cases)
        witness = next((w for w in witnesses if w is not None), None)
        report.add(check_id, witness is None, witness)
    report.wall_time = time.perf_counter() - start
    return report


def _slices(n_max: int, r_max: int) -> Iterator[tuple[int, int]]:
    """The slices (n, r) with 1 <= n <= n_max and 0 <= r <= r_max in row
    order, refused before any is made when they are over the budget (and
    none at once when a range is empty: product lists both ranges first).
    Slice (n, r) weighs n^2, the entries of an n x n matrix, so the total
    is (r_max + 1) n_max (n_max + 1) (2 n_max + 1) / 6."""
    n, r = max(n_max, 0), max(r_max + 1, 0)
    work = r * n * (n + 1) * (2 * n + 1) // 6
    check_budget(work, lambda: f"{count_text(work)} matrix entries in the slices (n, r), n^2 per slice")
    return itertools.product(range(1, n_max + 1), range(r_max + 1)) if work else iter(())


def _slice_rows(prefix: str, n_max: int, r_max: int, cases: Callable, predicate: Callable) -> Iterator[Row]:
    """One row per slice (n, r) of _slices."""
    return ((f"{prefix}-n{n}-r{r}", cases(n, r), predicate) for n, r in _slices(n_max, r_max))


def _weight_pairs(n: int, r: int) -> Iterator[tuple]:
    lams = _compositions(n, r)
    return itertools.product(lams, lams)


def _weights(n: int, r: int) -> Iterator[tuple]:
    return ((lam, r) for lam in _compositions(n, r))


def _column_rank(lam: tuple, mu: tuple, matrices: Sequence[tuple]) -> int:
    """Integer rank of the images of e_k, k = weight_word(mu), under the matrices' orbit elements."""
    schur_mod.check_tensor_scale(len(lam), sum(lam))
    k = weight_word(mu)
    return integer_rank([dict.fromkeys(schur_mod._orbit_images(a, k), 1) for a in matrices])


def _orbit_count(lam: Sequence[int], mu: Sequence[int]) -> int:
    """Orbits of the stabiliser of k = weight_word(mu) on the words of weight
    lam (S_r being transitive on words of weight mu, the diagonal orbits on
    pairs of words), by union-find over the adjacent transpositions fixing k."""
    k = weight_word(mu)
    index = {l: i for i, l in enumerate(words_of_weight(lam))}
    parent = list(range(len(index)))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for l, i in index.items():
        for t in range(len(k) - 1):
            if k[t] == k[t + 1] and l[t] != l[t + 1]:
                parent[find(i)] = find(index[l[:t] + (l[t + 1], l[t]) + l[t + 2:]])
    return len({find(i) for i in range(len(parent))})


def suite_gbasis(n_max: int = 3, r_max: int = 3) -> VerificationReport:
    """Orbit-basis blocks: count, independence, and spanning, with the
    dimension confirmed by union-find orbit counting, both read off one word."""
    for n, r in _slices(n_max, r_max):
        schur_mod.check_tensor_scale(n, r)
    rows = _slice_rows("block-dims", n_max, r_max, _weight_pairs, _orbit_block)
    return _run("gbasis", {"n_max": n_max, "r_max": r_max}, rows)


def _orbit_block(lam: tuple, mu: tuple) -> str | None:
    margins = margin_count(lam, mu)
    basis = margin_matrices(lam, mu)
    rank = _column_rank(lam, mu, basis)
    orbits = _orbit_count(lam, mu)
    if margins == len(basis) == rank == orbits:
        return None
    return f"lam={lam} mu={mu}: margins={margins} basis={len(basis)} rank={rank} orbits={orbits}"


def suite_codet(n_max: int = 3, r_max: int = 3) -> VerificationReport:
    """Codeterminant bases: Kostka-sum count and exact spanning rank."""
    rows = _slice_rows("codet-basis", n_max, r_max, _weight_pairs, _codet_block)
    return _run("codet", {"n_max": n_max, "r_max": r_max}, rows)


def _codet_block(lam: tuple, mu: tuple) -> str | None:
    cells = codet_mod.codet_basis(lam, mu)
    dim = margin_count(lam, mu)
    ksum = codet_mod.codet_count(lam, mu)
    det = _orbit_det([c.value for c in cells], margin_matrices(lam, mu))
    if len(cells) == dim == ksum and abs(det) == 1:
        return None
    return f"lam={lam} mu={mu}: cells={len(cells)} dim={dim} kostka-sum={ksum} det={det}"


def _orbit_det(family: Sequence[schur_mod.SchurElement], margins: Sequence[tuple]) -> int:
    """Determinant of the family's numerators over the block's margin
    matrices; 0 unless the family is integral, inside the block and
    square.  It is +-1 exactly when the family is a Z-basis of the block."""
    block = set(margins)
    if len(family) != len(block) or not all(x.integral() and x.num.keys() <= block for x in family):
        return 0
    return integer_det([[x.num.get(a, 0) for a in margins] for x in family])


def suite_zbas(n_max: int = 3, r_max: int = 3) -> VerificationReport:
    """Divided-monomial images: the first half of each arrangement reaches
    the middle weight its split forces, or nothing, and each arrangement
    is a Z-basis of the block (_orbit_det is +-1)."""
    rows = _slice_rows("pbw-images", n_max, r_max, _weight_pairs, _pbw_block)
    return _run("zbas", {"n_max": n_max, "r_max": r_max}, rows)


def _pbw_block(lam: tuple, mu: tuple) -> str | None:
    margins = margin_matrices(lam, mu)
    runs = [env._offdiag_runs(a) for a in margins]
    # fe's first half is its raising runs, ef's its lowering runs
    for form, half, forced in (("fe", 1, env.minus_weight), ("ef", 0, env.plus_weight)):
        for a, parts in zip(margins, runs):
            if schur_mod._runs_weight(parts[half], mu) not in (forced(a), None):
                return f"{form}-middle mismatch at {a}"
    images = {form: [env._pbw_image(a, form) for a in margins] for form in ("fe", "ef")}
    if not all(x.integral() for family in images.values() for x in family):
        return f"non-integer coefficients at lam={lam} mu={mu}"
    for form, family in images.items():
        if abs(_orbit_det(family, margins)) != 1:
            return f"{form} family not unimodular at lam={lam} mu={mu}"
    return None


def suite_idem_lemma(n_max: int = 3, r_max: int = 3) -> VerificationReport:
    """Binomial diagonal products act as weight idempotents.  Refused
    before any check runs when the predicted work is over the budget."""
    work = n = r = 0
    for n, r in _slices(n_max, r_max):
        work += composition_count(n, r) * _binom_term_sum(n, r)
        if work > TENSOR_SPACE_LIMIT:  # the later slices only add to it
            break
    check_budget(work, lambda: f"idem-lemma up to n={n_max}, r={r_max} sums {count_text(work)} terms by n={n}, r={r}")
    rows = _slice_rows(
        "binomial-idempotent", n_max, r_max, _weights,
        lambda lam, r: None if env.verify_weight_idempotent(lam) else f"lam={lam}",
    )
    return _run("idem-lemma", {"n_max": n_max, "r_max": r_max}, rows)


def _binom_term_sum(n: int, r: int) -> int:
    """Sum over the compositions lam of r into n parts of the number of
    terms of prod_i binom(H_i, lam_i), which is prod_i max(lam_i, 1):
    binom(X, k) has the k powers X^1..X^k for k >= 1.  Taking the j
    nonzero parts first, the products of the parts of the compositions of
    r into j positive parts sum to binom(r + j - 1, 2j - 1) (the
    coefficient of x^r in (x / (1 - x)^2)^j).  verify_weight_idempotent
    sums each weight's terms once per composition of r, so a slice costs
    composition_count(n, r) times this."""
    return sum(
        comb(n, j) * (comb(r + j - 1, 2 * j - 1) if j else int(r == 0))
        for j in range(min(n, r) + 1)
    )


def suite_cellular(n: int = 3, r: int = 3, lam: Sequence[int] | None = None) -> VerificationReport:
    """Cellular axioms for diagonal weight blocks, plus the dominance
    filtration being a two-sided ideal chain.  Both rows of a weight read
    one CellDatum, built as the rows reach that weight."""
    if lam is not None and not is_composition(lam):
        raise ValueError(f"lambda={list(lam)} must be a composition (nonnegative integers)")
    if lam is not None and (len(lam) != n or sum(lam) != r):
        n, r = len(lam), sum(lam)
        raise ValueError(f"lambda={list(lam)} lies in S({n}, {r}): pass --n {n} --r {r}")
    params = {"n": n, "r": r, "lambda": list(lam) if lam is not None else None}
    rows = (
        row
        for w in ([tuple(lam)] if lam is not None else compositions(n, r))
        for datum in [codet_mod.CellDatum(w)]
        for row in (
            (f"cell-axioms-{'-'.join(map(str, w))}", [(datum,)], _cell_axioms),
            (f"cell-filtration-{'-'.join(map(str, w))}", [(datum,)], codet_mod.CellDatum.filtration),
        )
    )
    return _run("cellular", params, rows)


def _cell_axioms(datum: codet_mod.CellDatum) -> str | None:
    report = datum.axioms()
    return None if report.passed else str(report.witnesses[:1])


def suite_relations(n_max: int = 3, window: int = 3) -> VerificationReport:
    """Chevalley commutator against the Cartan pairing on all integer
    weights in [-window, window]^n; too many cases, or an n whose products
    udot_multiply would refuse, are refused at once."""
    span = range(-window, window + 1)
    rows: list[Row] = []
    cases = 0
    for n in range(2, n_max + 1) if window >= 0 else ():  # _run refuses a negative window
        cases += (2 * window + 1) ** n * (n - 1) ** 2
        check_budget(
            cases, lambda: f"relations up to n={n_max}, window={window} check {count_text(cases)} cases by n={n}"
        )
        if n >= 3:  # each case makes two degree-2 products, held to udot._word_multiply's budget
            work = composition_count((n - 1) ** 2 + 1, 2)
            check_budget(
                work, lambda: f"a product of degree 2 in U̇(gl_{n}) may straighten {count_text(work)} patterns"
            )
        product = itertools.product(itertools.product(span, repeat=n), range(1, n), range(1, n))
        rows.append((f"commutator-n{n}", product, _commutator))
    return _run("relations", {"n_max": n_max, "window": window}, rows, {"n_max": 2})


def _commutator(lam: tuple, i: int, j: int) -> str | None:
    n = len(lam)
    fj = udot_mod.divided_generators(j, 1, lam, "f")
    ei_after = udot_mod.divided_generators(i, 1, fj.left, "e")
    t1 = udot_mod.udot_multiply(ei_after, fj)
    ei = udot_mod.divided_generators(i, 1, lam, "e")
    fj_after = udot_mod.divided_generators(j, 1, ei.left, "f")
    t2 = udot_mod.udot_multiply(fj_after, ei)
    expected = {(0,) * len(udot_mod.offdiag_cells(n)): lam[i - 1] - lam[i]} if i == j else {}
    holds = t1 - t2 == udot_mod.UdotElement._build((n, lam, lam), expected)
    return None if holds else f"lam={lam} i={i} j={j}"


def suite_psi(n_max: int = 3, r_max: int = 3, seed: int = 2024) -> VerificationReport:
    """Degree truncation: unit compatibility, surjectivity (per right weight
    mu, one walk reaches each integer image on 1_mu up to degree r; each
    block's rank, certified by leading terms or else read off echelons,
    must equal its margin count from one column count of mu, so a stray
    image shows as excess rank; every slice's walk is held to the budget
    before any row), zero off the cone, and multiplicativity on random block pairs."""
    rng = random.Random(seed)

    def random_pairs() -> Iterator[tuple]:
        for _ in range(60):
            n = rng.randint(1, n_max)
            r = rng.randint(0, r_max)
            lams = _compositions(n, r)
            lam, mu, nu = (rng.choice(lams) for _ in range(3))
            left = udot_mod._basis_patterns(lam, mu, r)
            right = udot_mod._basis_patterns(mu, nu, r)
            if left and right:
                u = udot_mod.UdotElement._build((n, lam, mu), {rng.choice(left): rng.randint(-2, 3)})
                v = udot_mod.UdotElement._build((n, mu, nu), {rng.choice(right): rng.randint(-2, 3)})
                yield u, v, r

    for n, r in _slices(n_max, r_max):
        _check_composition_count(n * (n - 1) + 1, r)  # the guard of udot._walk_images
    rows = itertools.chain(
        _slice_rows("psi-surjective", n_max, r_max, _weights, _psi_unit_and_rank),
        [
            # negative entries truncate to zero
            ("psi-off-cone-zero", [((2, -1), (1, 0), (1, 0))], _psi_off_cone),
            ("psi-multiplicative", random_pairs(), _psi_multiplicative),
        ],
    )
    return _run("psi", {"n_max": n_max, "r_max": r_max, "seed": seed}, rows)


def _psi_unit_and_rank(mu: tuple, r: int) -> str | None:
    """The unit image of 1_mu, then each block's rank against its size: its
    key count if that equals its count of leads (distinct leads are
    independent) in every block of mu, else from a second walk's echelons."""
    n = len(mu)
    u = udot_mod.UdotElement._build((n, mu, mu), {(0,) * n * (n - 1): 1})
    if udot_mod.to_schur(u, r) != schur_mod.SchurElement._build((n, r), {schur_mod._diagonal(mu): 1}):
        return f"unit image at lam={mu}"
    keys: dict[tuple, set] = defaultdict(set)
    leads: dict[tuple, set] = defaultdict(set)

    def note(left: tuple, image: dict) -> None:
        keys[left].update(image)
        leads[left].add(next(iter(image)) if len(image) == 1 else max(image, key=_lead_order))

    udot_mod._walk_images(mu, r, note)
    blocks: dict[tuple, Sized] = keys
    if any(len(leads[lam]) != len(block) for lam, block in keys.items()):
        blocks = echelons = defaultdict(dict)
        udot_mod._walk_images(mu, r, lambda left, image: echelon_add(echelons[left], image))
    sizes = block_sizes(mu)
    for lam in _compositions(n, r):
        rank, count = len(blocks.get(lam, ())), sizes[lam]
        if rank != count:
            return f"rank {'over' if rank > count else 'short'} at lam={lam} mu={mu}: {rank} against {count}"
    return None


def _lead_order(a: tuple) -> tuple:
    """(off-diagonal degree, a), less the degree r of the block."""
    return -sum(map(getitem, a, range(len(a)))), a


def _psi_off_cone(left: tuple, right: tuple, pattern: tuple) -> str | None:
    u = udot_mod.UdotElement._build((len(left), left, right), {pattern: 1})
    return None if udot_mod.to_schur(u, sum(right)).is_zero else f"{u} truncates to nonzero"


def _psi_multiplicative(u: udot_mod.UdotElement, v: udot_mod.UdotElement, r: int) -> str | None:
    lhs = udot_mod.to_schur(udot_mod.udot_multiply(u, v), r)
    rhs = schur_mod.schur_multiply(udot_mod.to_schur(u, r), udot_mod.to_schur(v, r))
    return None if lhs == rhs else f"lam={u.left} mu={u.right} nu={v.right}"


def suite_gl2(r_max: int = 8) -> VerificationReport:
    """Diagonal gl_2 blocks: dimension equals 1 + min(lam) by margin
    count, Kostka sum, and exact rank; one generic table spot check."""
    rows = []
    for r in range(r_max + 1):
        schur_mod.check_tensor_scale(2, r)
        rows.append((f"gl2-dim-r{r}", [(lam,) for lam in compositions(2, r)], _gl2_dim))
    rows.append(("gl2-generic-table", [((1, -2), 4)], _gl2_table))
    return _run("gl2", {"r_max": r_max}, rows)


def _gl2_dim(lam: tuple) -> str | None:
    expected = 1 + min(lam)
    margins = margin_count(lam, lam)
    ksum = codet_mod.codet_count(lam, lam)
    rank = _column_rank(lam, lam, margin_matrices(lam, lam))
    if expected == margins == ksum == rank:
        return None
    return f"lam={lam}: expected={expected} margins={margins} kostka={ksum} rank={rank}"


def _gl2_table(lam: tuple, degree: int) -> str | None:
    table = udot_mod.gl2_generic_table(lam, degree)
    return None if table.passed else str(table.to_json())


def suite_sym_quotient(r_max: int = 3) -> VerificationReport:
    """Permutation blocks: Schur products reproduce the group table, and
    the weight-zero modified algebra maps onto the integral group algebra
    with full rank.  r_max past the table bound is refused before any row."""
    if r_max > SYMMETRIC_GROUP_MAX_R:
        schur_mod.symmetric_group_iso(SYMMETRIC_GROUP_MAX_R + 1)
    rows = (
        row
        for r in range(1, r_max + 1)
        for row in (
            (f"cayley-table-r{r}", [(r,)], _cayley_table),
            (f"weight-zero-quotient-r{r}", [(r,)], _weight_zero_quotient),
        )
    )
    return _run("sym-quotient", {"r_max": r_max}, rows, {"r_max": 1})


def _cayley_table(r: int) -> str | None:
    mismatch = schur_mod.symmetric_group_iso(r).cayley_mismatch()
    return None if mismatch is None else "p={} q={}".format(*mismatch)


def _weight_zero_quotient(r: int) -> str | None:
    quotient = udot_mod.symmetric_group_quotient(r)
    return None if quotient.passed else str(quotient.to_json())


def suite_properties(seed: int = 2024) -> VerificationReport:
    """Seeded randomized structure checks: associativity in all three
    algebras, the anti-automorphism law, weight grading, the tensor
    representation being a homomorphism, integrality closures, and shift
    invariance of modified-algebra structure constants."""
    return _run("properties", {"seed": seed}, _property_rows(random.Random(seed)))


def _property_rows(rng: random.Random) -> Iterator[Row]:
    """The property checks in order.  Each case generator draws from rng
    only while the runner consumes it, so the draws follow row order."""

    def random_schur(n: int, r: int) -> schur_mod.SchurElement:
        lams = compositions(n, r)
        matrices = [a for lam in lams for mu in lams for a in margin_matrices(lam, mu)]
        terms = {a: rng.randint(-3, 3) for a in rng.sample(matrices, k=min(3, len(matrices)))}
        return schur_mod.SchurElement._build((n, r), terms)

    def schur_draws(count: int, k: int) -> Iterator[tuple]:
        for _ in range(count):
            n = rng.randint(1, 3)
            r = rng.randint(0, 3)
            yield (n, r, *(random_schur(n, r) for _ in range(k)))

    def graded_draws() -> Iterator[tuple]:
        for n, r, x in schur_draws(40, 1):
            lams = compositions(n, r)
            yield x, rng.choice(lams), rng.choice(lams)

    def random_u(n: int, max_deg: int) -> env.UElement:
        npairs = len(env.root_pairs(n))
        terms = {}
        for _ in range(2):
            exponents = [[0] * npairs, [0] * n, [0] * npairs]  # f, H, e
            for _ in range(rng.randint(0, max_deg)):
                part = exponents[rng.randint(0, 2)]
                if part:
                    part[rng.randrange(len(part))] += 1
            terms[tuple(map(tuple, exponents))] = rng.randint(-2, 3)
        return env.UElement._build((n,), terms)

    def divided_draws() -> Iterator[tuple]:
        # gl_2 letters as (raising?, divided power)
        for _ in range(20):
            yield ([(rng.random() < 0.5, rng.randint(1, 3)) for _ in range(rng.randint(2, 3))],)

    def shift_draws() -> Iterator[tuple]:
        for _ in range(100):
            n = rng.randint(2, 3)
            cells = udot_mod.offdiag_cells(n)
            mu = tuple(rng.randint(-3, 3) for _ in range(n))
            p1 = tuple(rng.randint(0, 2) for _ in cells)
            p2 = tuple(rng.randint(0, 2) for _ in cells)
            yield mu, p1, p2, rng.randint(-4, 4)

    def diagonal_block(n: int) -> list[udot_mod.UdotElement]:
        lam = tuple(rng.randint(-2, 2) for _ in range(n))
        return udot_mod.udot_basis_upto(lam, lam, 2)

    def udot_triples() -> Iterator[tuple]:
        for _ in range(30):
            us = diagonal_block(rng.randint(2, 3))
            if us:
                yield tuple(rng.choice(us) for _ in range(3))

    def relabel_draws() -> Iterator[tuple]:
        for _ in range(30):
            w = tuple(rng.sample([1, 2, 3], 3))
            us = diagonal_block(3)
            if us:
                yield w, rng.choice(us), rng.choice(us)

    inv, umul, dmul = schur_mod.involution, env.u_multiply, udot_mod.udot_multiply
    yield "schur-associativity", schur_draws(60, 3), lambda n, r, x, y, z: (
        None if (x * y) * z == x * (y * z) else f"n={n} r={r}"
    )
    yield "involution-anti-automorphism", schur_draws(40, 2), lambda n, r, x, y: (
        None if inv(x * y) == inv(y) * inv(x) else f"n={n} r={r}"
    )
    yield "weight-grading", graded_draws(), _weight_graded
    u_pairs = ((random_u(3, 4), random_u(3, 4)) for _ in range(50))
    u_triples = (tuple(random_u(2, 3) for _ in range(3)) for _ in range(30))
    yield "tensor-rep-homomorphism", u_pairs, lambda x, y: (
        None
        if env.tensor_rep(umul(x, y), 3) == env.tensor_rep(x, 3).compose(env.tensor_rep(y, 3))
        else "tensor representation failed to be multiplicative"
    )
    yield "enveloping-associativity", u_triples, lambda x, y, z: (
        None if umul(umul(x, y), z) == umul(x, umul(y, z)) else f"x={x} y={y} z={z}"
    )
    yield "divided-power-integrality", divided_draws(), _divided_product_integral
    yield "shift-invariance", shift_draws(), _shift_invariant
    yield "udot-associativity", udot_triples(), lambda x, y, z: (
        None if dmul(dmul(x, y), z) == dmul(x, dmul(y, z)) else f"x={x} y={y} z={z}"
    )
    yield "relabel-isomorphism", relabel_draws(), _relabel_multiplicative


def _weight_graded(x: schur_mod.SchurElement, lam: tuple, mu: tuple) -> str | None:
    block = schur_mod.idempotent(lam) * x * schur_mod.idempotent(mu)
    for a in block.num:
        if row_sums(a) != tuple(lam) or col_sums(a) != tuple(mu):
            return f"matrix {a} outside block lam={lam} mu={mu}"
    return None


def _divided_product_integral(letters: list) -> str | None:
    patterns = (((0, a), (0, 0)) if raising else ((0, 0), (a, 0)) for raising, a in letters)
    factors = (env.divided_monomial(2, p, (), "fe") for p in patterns)
    _, integral = env.integrality_coords(reduce(env.u_multiply, factors))
    return None if integral else f"letters={letters}"


def _shift_invariant(mu: tuple, p1: tuple, p2: tuple, k: int) -> str | None:
    n = len(mu)
    d1 = udot_mod.pattern_delta(p1, n)
    d2 = udot_mod.pattern_delta(p2, n)
    u = udot_mod.udot_element(tuple(m + d for m, d in zip(mu, d1)), mu, p1)
    v = udot_mod.udot_element(mu, tuple(m - d for m, d in zip(mu, d2)), p2)
    lhs = udot_mod.shift(udot_mod.udot_multiply(u, v), k)
    rhs = udot_mod.udot_multiply(udot_mod.shift(u, k), udot_mod.shift(v, k))
    return None if lhs == rhs else f"mu={mu} p1={p1} p2={p2} k={k}"


def _relabel_multiplicative(w: tuple, u: udot_mod.UdotElement, v: udot_mod.UdotElement) -> str | None:
    lhs = udot_mod.udot_relabel(udot_mod.udot_multiply(u, v), w)
    rhs = udot_mod.udot_multiply(udot_mod.udot_relabel(u, w), udot_mod.udot_relabel(v, w))
    return None if lhs == rhs else f"w={w} u={u} v={v}"


SUITES: dict[str, Callable[..., VerificationReport]] = {
    "gbasis": suite_gbasis,
    "codet": suite_codet,
    "zbas": suite_zbas,
    "idem-lemma": suite_idem_lemma,
    "cellular": suite_cellular,
    "relations": suite_relations,
    "psi": suite_psi,
    "gl2": suite_gl2,
    "sym-quotient": suite_sym_quotient,
    "properties": suite_properties,
}


def run_suite(name: str, **kwargs) -> VerificationReport:
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    return SUITES[name](**kwargs)
