"""Inputs and operations of the four benchmark workloads.

A workload turns (seed, iteration, size) into a list of Requests.  Each
Request has a key naming its input, a `call` that is the timed part (it
calls into schuralg and returns the raw result), and a `check` that runs
after timing and returns the SHA-256 digest of the canonical output plus
a verdict.  Library functions are looked up on the `schuralg` package at
call time, so the tracer's wrappers are seen when tracing is on.

Input generation uses only this module's own code and `random`, never
the library, so set-up time measures importing schuralg, not computing
with it.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import permutations
from math import comb
from typing import Callable

import schuralg
import schuralg.cli

WORKLOADS = ("cellular", "gl2-table", "psi", "cli-session")

# Sizes from the workload definitions; "tiny" is the self-check mode.
SIZES = {
    "full": {
        "cellular": {"base": (2, 2, 1)},
        "gl2-table": {"degree": 13, "box": 4},
        "psi": {"n_max": 3, "r_max": 4},
        "cli-session": {"copies": 2, "valid": 1412, "per_malformed_kind": 10},
    },
    "tiny": {
        "cellular": {"base": (2, 1)},
        "gl2-table": {"degree": 3, "box": 4},
        "psi": {"n_max": 2, "r_max": 2},
        "cli-session": {"copies": 1, "valid": 63, "per_malformed_kind": 1},
    },
}

# The psi suite seed is drawn from this many values so that the stored
# reference digests cover every benchmark seed.
PSI_SUITE_SEEDS = 16

# The cli-session pool of valid requests is fixed.  A full session sends
# every pool request twice in a seed-chosen order, so the mix, and with
# it the latency tail, is the same for every seed, and the reference can
# hold one digest per distinct request.
CLI_POOL_SEED = 20240

# Malformed requests the README says must exit 2.  The last two raise out
# of schuralg.cli.main at the commit that defined the benchmark
# (ZeroDivisionError and ValueError); they are counted as failures, not
# filtered out.
MALFORMED_KINDS = (
    "bad-integer",
    "length-mismatch",
    "unknown-command",
    "missing-argument",
    "csv-unavailable",
    "mul-zero-denominator",
    "codet-negative-weight",
)
KNOWN_CRASH_KINDS = ("mul-zero-denominator", "codet-negative-weight")


@dataclass
class Request:
    key: str
    call: Callable[[], object]
    check: Callable[[object], "Verdict"]
    malformed: str | None = None


@dataclass
class Verdict:
    digest: str | None
    # "wrong": an output contradicts its reference or a semantic check.
    # "error": an exception escaped or the exit code breaks the README.
    failure: str | None = None
    kind: str | None = None
    stdout_bytes: int = 0


def canonical_digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _weight_arg(flag: str, w) -> str:
    # the "=" form lets a weight start with a minus sign
    return f"{flag}={','.join(str(x) for x in w)}"


def _composition(rng: random.Random, n: int, r: int) -> tuple[int, ...]:
    cuts = sorted(rng.randint(0, r) for _ in range(n - 1))
    bounds = [0] + cuts + [r]
    return tuple(bounds[k + 1] - bounds[k] for k in range(n))


def _margin_matrix(rng: random.Random, n: int, r: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for _ in range(r):
        m[rng.randrange(n)][rng.randrange(n)] += 1
    return m


def _coeff(rng: random.Random) -> tuple[int, int]:
    return rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 1, 2, 3))


def _schur_json(rng: random.Random, n: int, r: int, den_zero: bool = False) -> str:
    terms = []
    for _ in range(rng.randint(1, 3)):
        num, den = _coeff(rng)
        terms.append(
            {"matrix": _margin_matrix(rng, n, r), "coeff_num": num, "coeff_den": 0 if den_zero else den}
        )
    return json.dumps({"n": n, "r": r, "terms": terms})


def _udot_pair_n2(rng: random.Random) -> tuple[str, str]:
    # v: mu <- nu, then u: lam <- mu; every term of a block moves the same weight
    def element(right: tuple[int, int]) -> tuple[dict, tuple[int, int]]:
        d = rng.randint(-2, 2)
        terms = []
        for a in sorted(rng.sample(range(max(0, d), max(0, d) + 3), rng.randint(1, 2))):
            num, den = _coeff(rng)
            terms.append({"pattern": [[0, a], [a - d, 0]], "coeff": f"{num}/{den}"})
        left = (right[0] + d, right[1] - d)
        return {"n": 2, "left": list(left), "right": list(right), "terms": terms}, left

    nu = (rng.randint(-3, 3), rng.randint(-3, 3))
    v, mu = element(nu)
    u, _ = element(mu)
    return json.dumps(u), json.dumps(v)


def _udot_pair_n3(rng: random.Random) -> tuple[str, str]:
    def element(right: tuple[int, ...]) -> tuple[dict, tuple[int, ...]]:
        p = [[0] * 3 for _ in range(3)]
        for _ in range(rng.randint(0, 2)):
            i, j = rng.sample(range(3), 2)
            p[i][j] += 1
        left = tuple(right[i] + sum(p[i][j] - p[j][i] for j in range(3)) for i in range(3))
        num, den = _coeff(rng)
        return {"n": 3, "left": list(left), "right": list(right),
                "terms": [{"pattern": p, "coeff": f"{num}/{den}"}]}, left

    nu = tuple(rng.randint(-2, 2) for _ in range(3))
    v, mu = element(nu)
    u, _ = element(mu)
    return json.dumps(u), json.dumps(v)


def cli_pool() -> list[list[str]]:
    """The fixed pool of valid CLI requests (argv lists), all exit 0."""
    rng = random.Random(CLI_POOL_SEED)
    pool: list[list[str]] = []
    for n in range(1, 5):
        for r in range(7):
            pool.append(["compositions", "--n", str(n), "--r", str(r)])
            pool.append(["compositions", "--n", str(n), "--r", str(r), "--dominant"])
    for _ in range(150):
        n = rng.choice((2, 3, 4))
        r = rng.randint(1, 5 if n < 4 else 4)
        argv = ["dim", _weight_arg("--lambda", _composition(rng, n, r)),
                _weight_arg("--mu", _composition(rng, n, r))]
        if rng.random() < 0.3:
            argv += ["--r", str(r)]
        pool.append(argv)
    for _ in range(100):
        n = rng.choice((2, 3, 4))
        r = rng.randint(1, 6 if n < 4 else 5)
        shape = sorted(_composition(rng, n, r), reverse=True)
        pool.append(["kostka", _weight_arg("--mu", shape),
                     _weight_arg("--lambda", _composition(rng, n, r))])
    for _ in range(60):
        n = rng.choice((2, 3, 4))
        pool.append(["simples", _weight_arg("--lambda", _composition(rng, n, rng.randint(1, 5)))])
    for _ in range(20):
        n = rng.choice((2, 3))
        w = [rng.randint(-2, 2) for _ in range(n)]
        pool.append(["simples", _weight_arg("--lambda", w), "--window", str(rng.randint(1, 2))])
    for kind, count in (("xi", 40), ("codet", 40), ("pbw", 40)):
        for _ in range(count):
            n = rng.choice((2, 3))
            r = rng.randint(1, 4 if n == 2 else 3)
            argv = ["basis", "--kind", kind, _weight_arg("--lambda", _composition(rng, n, r)),
                    _weight_arg("--mu", _composition(rng, n, r))]
            if kind == "pbw":
                argv += ["--form", rng.choice(("fe", "ef", "fe-middle", "ef-middle"))]
            pool.append(argv)
    for _ in range(80):
        n = rng.choice((2, 3))
        r = rng.randint(1, 4 if n == 2 else 3)
        pool.append(["mul", "--left", _schur_json(rng, n, r), "--right", _schur_json(rng, n, r)])
    for _ in range(60):
        left, right = _udot_pair_n2(rng)
        pool.append(["udot", "mul", "--left", left, "--right", right])
    for _ in range(20):
        left, right = _udot_pair_n3(rng)
        pool.append(["udot", "mul", "--left", left, "--right", right])
    for _ in range(40):
        n = rng.choice((2, 3))
        lam = [rng.randint(-2, 3) for _ in range(n)]
        move = [rng.randint(-1, 1) for _ in range(n - 1)]
        mu = [lam[k] + move[k] for k in range(n - 1)] + [lam[-1] - sum(move)]
        pool.append(["udot", "basis", _weight_arg("--lambda", lam), _weight_arg("--mu", mu),
                     "--degree", str(rng.randint(1, 3 if n == 2 else 2))])
    return pool


def _malformed(kind: str, rng: random.Random) -> list[str]:
    n = rng.choice((2, 3))
    w = list(_composition(rng, n, rng.randint(1, 4)))
    if kind == "bad-integer":
        text = [str(x) for x in w]
        text[rng.randrange(n)] = rng.choice(("x", "1.5", ""))
        return ["dim", "--lambda=" + ",".join(text)]
    if kind == "length-mismatch":
        return ["dim", _weight_arg("--lambda", w), _weight_arg("--mu", w + [0])]
    if kind == "unknown-command":
        return [rng.choice(("transpose", "det", "spin")), _weight_arg("--lambda", w)]
    if kind == "missing-argument":
        return ["kostka", _weight_arg("--mu", sorted(w, reverse=True))]
    if kind == "csv-unavailable":
        return ["--format", "csv", "basis", "--kind", "xi", _weight_arg("--lambda", w)]
    if kind == "mul-zero-denominator":
        r = rng.randint(1, 3)
        return ["mul", "--left", _schur_json(rng, 2, r, den_zero=True), "--right", _schur_json(rng, 2, r)]
    if kind == "codet-negative-weight":
        return ["basis", "--kind", "codet", _weight_arg("--lambda", [rng.randint(1, 3), -rng.randint(1, 3)])]
    raise ValueError(f"unknown malformed kind {kind!r}")


def cli_session(seed: int, size: str) -> list[tuple[list[str], str | None]]:
    """The seeded request stream: (argv, malformed kind or None)."""
    spec = SIZES[size]["cli-session"]
    rng = random.Random(f"cli-session:{seed}")
    valid = cli_pool() * spec["copies"]
    rng.shuffle(valid)
    stream: list[tuple[list[str], str | None]] = [(argv, None) for argv in valid[:spec["valid"]]]
    for kind in MALFORMED_KINDS:
        stream.extend((_malformed(kind, rng), kind) for _ in range(spec["per_malformed_kind"]))
    rng.shuffle(stream)
    return stream


def cli_key(argv: list[str]) -> str:
    return hashlib.sha256(json.dumps(argv).encode()).hexdigest()[:16]


def _run_cli(argv: list[str]) -> tuple[int | None, str, str | None]:
    out, err = io.StringIO(), io.StringIO()
    code: int | None = None
    escaped = None
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = schuralg.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # a traceback the README contract forbids
            escaped = type(exc).__name__
    return code, out.getvalue(), escaped


def _check_cli(argv: list[str], malformed: str | None, result) -> Verdict:
    code, stdout, escaped = result
    nbytes = len(stdout.encode())
    if escaped is not None:
        return Verdict(None, f"exception {escaped}", "error", nbytes)
    if malformed is not None:
        if code != 2 or stdout:
            return Verdict(None, f"exit {code} on malformed input", "error", nbytes)
        return Verdict(None, stdout_bytes=nbytes)
    digest = hashlib.sha256(stdout.encode()).hexdigest()
    if code != 0:
        return Verdict(digest, f"exit {code}", "error", nbytes)
    payload = json.loads(stdout)
    if argv[0] == "dim" and payload["dim"] != payload["kostka_sum"]:
        return Verdict(digest, "dim differs from kostka_sum", "wrong", nbytes)
    if argv[0] == "compositions":
        if payload["count"] != len(payload["compositions"]):
            return Verdict(digest, "count differs from list length", "wrong", nbytes)
        n, r = payload["n"], payload["r"]
        if not payload["dominant_only"] and payload["count"] != comb(r + n - 1, n - 1):
            return Verdict(digest, "composition count differs from the binomial", "wrong", nbytes)
    return Verdict(digest, stdout_bytes=nbytes)


def _check_report(result) -> Verdict:
    payload = result.to_json()
    digest = canonical_digest(payload)
    if not payload["passed"]:
        return Verdict(digest, "passed is false", "wrong")
    return Verdict(digest)


def rearrangements(base: tuple[int, ...]) -> list[tuple[int, ...]]:
    return sorted(set(permutations(base)), reverse=True)


def cellular_order(seed: int, size: str) -> list[tuple[int, ...]]:
    """Rearrangements of the base weight in a seed-chosen order.  The
    rearrangements differ in cost (1.6x at (2,2,1)), so a run cycles
    through all of them: iteration i checks order[i % len(order)]."""
    order = rearrangements(SIZES[size]["cellular"]["base"])
    random.Random(f"cellular:{seed}").shuffle(order)
    return order


def gl2_weight(seed: int, size: str) -> tuple[int, int]:
    box = SIZES[size]["gl2-table"]["box"]
    rng = random.Random(f"gl2-table:{seed}")
    return rng.randint(-box, box), rng.randint(-box, box)


def psi_seed(seed: int) -> int:
    return random.Random(f"psi:{seed}").randrange(PSI_SUITE_SEEDS)


def cellular_request(lam: tuple[int, ...]) -> Request:
    return Request(
        "lam=" + ",".join(map(str, lam)),
        lambda: schuralg.cell_datum_check(lam),
        _check_report,
    )


def gl2_request(lam: tuple[int, int], degree: int) -> Request:
    return Request(
        f"lam={lam[0]},{lam[1]};degree={degree}",
        lambda: schuralg.gl2_generic_table(lam, degree),
        _check_report,
    )


def psi_request(n_max: int, r_max: int, suite_seed: int) -> Request:
    return Request(
        f"n_max={n_max};r_max={r_max};seed={suite_seed}",
        lambda: schuralg.run_suite("psi", n_max=n_max, r_max=r_max, seed=suite_seed),
        _check_report,
    )


def cli_request(argv: list[str], malformed: str | None) -> Request:
    return Request(
        cli_key(argv),
        lambda: _run_cli(argv),
        lambda result: _check_cli(argv, malformed, result),
        malformed,
    )


def make_requests(workload: str, seed: int, iteration: int, size: str) -> list[Request]:
    """The requests one fresh interpreter runs for this iteration."""
    spec = SIZES[size][workload]
    if workload == "cellular":
        order = cellular_order(seed, size)
        return [cellular_request(order[iteration % len(order)])]
    if workload == "gl2-table":
        return [gl2_request(gl2_weight(seed, size), spec["degree"])]
    if workload == "psi":
        return [psi_request(spec["n_max"], spec["r_max"], psi_seed(seed))]
    if workload == "cli-session":
        return [cli_request(argv, kind) for argv, kind in cli_session(seed, size)]
    raise ValueError(f"unknown workload {workload!r}")


def reference_requests(workload: str, size: str) -> list[Request]:
    """Every input any seed can produce, for recording reference digests."""
    spec = SIZES[size][workload]
    if workload == "cellular":
        return [cellular_request(lam) for lam in rearrangements(spec["base"])]
    if workload == "gl2-table":
        box = spec["box"]
        return [
            gl2_request((a, b), spec["degree"])
            for a in range(-box, box + 1)
            for b in range(-box, box + 1)
        ]
    if workload == "psi":
        return [psi_request(spec["n_max"], spec["r_max"], s) for s in range(PSI_SUITE_SEEDS)]
    if workload == "cli-session":
        return [cli_request(argv, None) for argv in cli_pool()]
    raise ValueError(f"unknown workload {workload!r}")
