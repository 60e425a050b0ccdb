import hashlib
import io
import itertools
import json
import re
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from schuralg import cli, errors, udot, verify, weights
from schuralg.cli import PBW_FORMS, main
from schuralg.errors import ResourceLimitError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compositions_json(capsys):
    code, out, err = run_cli(capsys, "compositions", "--n", "2", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["compositions"] == [[2, 0], [1, 1], [0, 2]]
    assert payload["count"] == 3
    assert "wall-time-seconds" in err
    assert "wall-time" not in out


def test_compositions_refused_before_enumerating(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "compositions", "--n", "30", "--r", "30")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "resource limit" in err


def test_compositions_dominant_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "compositions", "--n", "2", "--r", "3", "--dominant"
    )
    assert code == 0
    assert out == "c1,c2\n3,0\n2,1\n"


def test_dim(capsys):
    code, out, _ = run_cli(capsys, "dim", "--lambda", "2,1", "--mu", "1,2")
    assert code == 0
    payload = json.loads(out)
    assert payload["dim"] == 2
    assert payload["kostka_sum"] == 2


def test_dim_degree_crosscheck(capsys):
    code, _, err = run_cli(capsys, "dim", "--lambda", "2,1", "--r", "5")
    assert code == 2
    assert "cross-check" in err


def test_dim_mismatched_weights(capsys):
    code, _, _ = run_cli(capsys, "dim", "--lambda", "2,1", "--mu", "2,0")
    assert code == 2


def test_basis_xi(capsys):
    code, out, _ = run_cli(capsys, "basis", "--kind", "xi", "--lambda", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert payload["elements"][0]["matrix"] == [[0, 1], [1, 0]]


def test_basis_codet(capsys):
    code, out, _ = run_cli(capsys, "basis", "--kind", "codet", "--lambda", "1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    shapes = [e["shape"] for e in payload["elements"]]
    assert shapes == [[2, 0], [1, 1]]


def test_basis_pbw_form(capsys):
    code, out, _ = run_cli(
        capsys, "basis", "--kind", "pbw", "--lambda", "1,1", "--form", "ef"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["form"] == "ef"
    assert payload["count"] == 2


def test_mul(capsys):
    x = json.dumps(
        {
            "n": 2,
            "r": 2,
            "terms": [
                {"matrix": [[0, 1], [1, 0]], "coeff_num": 1, "coeff_den": 1}
            ],
        }
    )
    code, out, _ = run_cli(capsys, "mul", "--left", x, "--right", x)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [
        {"matrix": [[1, 0], [0, 1]], "coeff_num": 1, "coeff_den": 1}
    ]


def test_mul_zero_denominator(capsys):
    x = json.dumps(
        {"n": 2, "r": 1, "terms": [{"matrix": [[1, 0], [0, 0]], "coeff_num": 1, "coeff_den": 0}]}
    )
    code, out, err = run_cli(capsys, "mul", "--left", x, "--right", x)
    assert code == 2
    assert out == ""
    assert "bad element JSON" in err


def test_udot_mul_zero_denominator(capsys):
    u = json.dumps(
        {"n": 2, "left": [1, 1], "right": [1, 1], "terms": [{"pattern": [[0, 1], [1, 0]], "coeff": "1/0"}]}
    )
    code, out, err = run_cli(capsys, "udot", "mul", "--left", u, "--right", u)
    assert code == 2
    assert out == ""
    assert "bad element JSON" in err


def test_basis_codet_negative_weight(capsys):
    code, out, err = run_cli(capsys, "basis", "--kind", "codet", "--lambda=1,-1")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_mul_bad_json(capsys):
    code, _, err = run_cli(capsys, "mul", "--left", "nope", "--right", "{}")
    assert code == 2
    assert "bad element JSON" in err


def test_kostka(capsys):
    # shape and weight may have different lengths
    code, out, _ = run_cli(capsys, "kostka", "--mu", "2,1", "--lambda", "1,1,1")
    assert code == 0
    assert json.loads(out)["kostka"] == 2
    code, out, _ = run_cli(capsys, "kostka", "--mu", "2,1,0", "--lambda", "1,1,1")
    assert code == 0
    assert json.loads(out)["kostka"] == 2


def test_simples(capsys):
    code, out, _ = run_cli(capsys, "simples", "--lambda", "1,1,1")
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "composition"
    assert payload["entries"][1] == {"mu": [2, 1, 0], "multiplicity": 2}


def test_simples_window_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "simples", "--lambda", "0,-2", "--window", "1"
    )
    assert code == 0
    assert out == 'mu,multiplicity\n"1,-3",1\n"0,-2",1\n'


def test_simples_negative_needs_window(capsys):
    code, _, err = run_cli(capsys, "simples", "--lambda", "0,-2")
    assert code == 2
    assert "window" in err


def test_simples_wide_window(capsys):
    code, out, err = run_cli(capsys, "simples", "--lambda=0,-2", "--window", "1000")
    assert code == 0
    assert "Traceback" not in err
    assert json.loads(out)["entries"][0] == {"mu": [1000, -1002], "multiplicity": 1}


def test_negative_weight_as_separate_token(capsys):
    rest = ["--mu", "0,1", "--degree", "2"]
    code, joined, _ = run_cli(capsys, "udot", "basis", "--lambda=-1,2", *rest)
    assert code == 0
    code, separate, _ = run_cli(capsys, "udot", "basis", "--lambda", "-1,2", *rest)
    assert code == 0
    assert separate == joined
    code, out, _ = run_cli(capsys, "dim", "--lambda", "1,0", "--mu", "-1,2")
    assert code == 2
    assert out == ""


def test_sym_iso(capsys):
    code, out, _ = run_cli(capsys, "sym-iso", "--r", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"group_order": 2, "r": 2, "table_match": True}


def test_sym_iso_resource_guard(capsys):
    code, _, err = run_cli(capsys, "sym-iso", "--r", "6")
    assert code == 2
    assert "bounded" in err


def test_udot_mul(capsys):
    u = json.dumps(
        {
            "n": 2,
            "left": [1, 1],
            "right": [1, 1],
            "terms": [{"pattern": [[0, 1], [1, 0]], "coeff": "1"}],
        }
    )
    code, out, _ = run_cli(capsys, "udot", "mul", "--left", u, "--right", u)
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [
        {"pattern": [[0, 1], [1, 0]], "coeff": "2"},
        {"pattern": [[0, 2], [2, 0]], "coeff": "4"},
    ]


def test_udot_basis(capsys):
    code, out, _ = run_cli(
        capsys, "udot", "basis", "--lambda", "1,1", "--mu", "1,1", "--degree", "4"
    )
    assert code == 0
    assert json.loads(out)["count"] == 3


def test_udot_gl2_table(capsys):
    code, out, _ = run_cli(capsys, "udot", "gl2-table", "--lambda", "1,-2", "--degree", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True


@pytest.mark.parametrize(
    "argv",
    [
        ("udot", "basis", "--lambda", "1,1", "--mu", "1,1", "--degree", "-1"),
        ("udot", "gl2-table", "--lambda", "1,-2", "--degree", "-1"),
    ],
)
def test_udot_negative_degree(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "degree must be nonnegative" in err


def test_udot_verify_psi(capsys):
    code, out, _ = run_cli(capsys, "verify", "psi", "--n-max", "2", "--r-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suite"] == "psi"


def test_verify_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "idem-lemma", "--n-max", "2", "--r-max", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert all(c["passed"] for c in payload["checks"])


def test_verify_suite_csv(capsys):
    code, out, _ = run_cli(
        capsys, "--format", "csv", "verify", "idem-lemma", "--n-max", "1", "--r-max", "1"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "check,passed"
    assert all(line.endswith(",true") for line in lines[1:])


def test_verify_idem_lemma_refused_before_checking(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", "idem-lemma", "--n-max", "3", "--r-max", "16")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "resource limit" in err
    assert "Traceback" not in err


# SHA-256 and length of the CSV of the one-row commands, recorded before
# they shared one writer
ONE_ROW_CSV_DIGESTS = {
    "dim": (
        ("dim", "--lambda", "3,1,2", "--mu", "2,2,2"),
        ("a60ea578820183c6b9f6720df79a3424ec0964121aa3a7695fb615d0b79ad9e5", 43),
    ),
    "kostka": (
        ("kostka", "--mu", "3,2", "--lambda", "2,1,1,1"),
        ("9b0817e6a963e74e34d35dd2f672ad3ed8a732f88e566d2ae8f5be9a8b9162f4", 34),
    ),
    "sym-iso": (
        ("sym-iso", "--r", "3"),
        ("753a1b438e4393948d143344d7a01cd6b6adf9c06fe5d3c76268450cfedac032", 35),
    ),
}


@pytest.mark.parametrize("command", sorted(ONE_ROW_CSV_DIGESTS))
def test_one_row_csv_pinned(capsys, command):
    argv, digest = ONE_ROW_CSV_DIGESTS[command]
    code, out, _ = run_cli(capsys, "--format", "csv", *argv)
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == digest


def test_main_carries_nothing_into_the_next_call(capsys):
    # one process, two calls each: the second sees only its own arguments
    _, out, _ = run_cli(capsys, "basis", "--kind", "pbw", "--lambda", "1,1", "--form", "ef")
    assert json.loads(out)["form"] == "ef"
    _, out, _ = run_cli(capsys, "basis", "--kind", "pbw", "--lambda", "1,1")
    assert json.loads(out)["form"] == "fe"
    _, out, _ = run_cli(capsys, "--format", "csv", "dim", "--lambda", "2,1")
    assert out.startswith("lambda,mu,dim,kostka_sum\n")
    _, out, _ = run_cli(capsys, "dim", "--lambda", "2,1")
    assert json.loads(out)["dim"] == 2
    _, out, _ = run_cli(capsys, "verify", "psi", "--seed", "7")
    assert json.loads(out)["params"]["seed"] == 7
    _, out, _ = run_cli(capsys, "verify", "psi")
    assert json.loads(out)["params"]["seed"] == 2024


def test_verify_rejects_wrong_flag(capsys):
    code, _, err = run_cli(capsys, "verify", "gl2", "--n-max", "2")
    assert code == 2
    assert "does not accept" in err


def test_verify_unknown_suite(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "nope"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_csv_unavailable(capsys):
    code, _, err = run_cli(capsys, "--format", "csv", "basis", "--kind", "xi", "--lambda", "1,1")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize("argv", [
    ["basis", "--kind", "pbw", "--lambda", "3,3,3,3"],
    ["mul", "--left", "{}", "--right", "{}"],
    ["udot", "gl2-table", "--lambda", "1,0"],
])
def test_csv_refused_before_the_command_runs(monkeypatch, capsys, argv):
    def refuse(args):
        raise AssertionError(f"{args.command} ran")

    monkeypatch.setitem(cli.JSON_COMMANDS, argv[0], refuse)
    code, out, err = run_cli(capsys, "--format", "csv", *argv)
    assert code == 2
    assert out == ""
    assert err == "error: csv output is not available for this subcommand\n"


def test_bad_weight_string(capsys):
    code, _, err = run_cli(capsys, "dim", "--lambda", "2,x")
    assert code == 2
    assert "comma-separated" in err


def test_stdout_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "verify", "properties")
    _, out2, _ = run_cli(capsys, "verify", "properties")
    assert out1 == out2


def test_cellular_with_lambda(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "cellular", "--n", "2", "--r", "2", "--lambda", "1,1"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["params"]["lambda"] == [1, 1]
    assert payload["passed"] is True


def test_cellular_refuses_lambda_outside_n_and_r(capsys):
    code, out, err = run_cli(capsys, "verify", "cellular", "--lambda", "2,2,2")
    assert code == 2
    assert out == ""
    assert "--n 3 --r 6" in err
    code, out, _ = run_cli(capsys, "verify", "cellular", "--n", "3", "--r", "3", "--lambda", "2,1,0")
    assert code == 0
    assert json.loads(out)["params"] == {"lambda": [2, 1, 0], "n": 3, "r": 3}


def test_cellular_refuses_a_lambda_that_is_not_a_composition(capsys):
    code, out, err = run_cli(capsys, "verify", "cellular", "--lambda", "1,-1")
    assert code == 2
    assert out == ""
    assert err == "error: lambda=[1, -1] must be a composition (nonnegative integers)\n"


def test_dim_refused_before_listing_matrices(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("no matrix may be listed once the bound is over the limit")

    monkeypatch.setattr(weights, "_bounded_rows", refuse)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "dim", "--lambda", "1,1,1,1,1,1,1,1,1,1")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "may have 1000000000 matrices" in err
    with pytest.raises(ResourceLimitError):
        weights.margin_matrices((1,) * 8, (1,) * 8)


# SHA-256 of `schuralg verify all` stdout, JSON and CSV, pinned so that
# refactors of the suites, the runner or the element types stay
# byte-identical.
VERIFY_ALL_DIGESTS = {
    "json": ("3f1a0f5af1e85187629dd46918174d7c098a11a75a0cc5c775837f6e6f13ffe4", 7759),
    "csv": ("8b86e61e4ca0875e54f9b0c6356349982a7a15b182920139f06aaff86b5ed769", 3470),
}


@pytest.mark.parametrize("fmt", sorted(VERIFY_ALL_DIGESTS))
def test_verify_all_stdout_pinned(capsys, fmt):
    code, out, _ = run_cli(capsys, "--format", fmt, "verify", "all")
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == VERIFY_ALL_DIGESTS[fmt]


# (SHA-256, length) of stdout, recorded while the codeterminant cells were
# still built from Tableau row words
CODET_DIGESTS = {
    "basis-2222": (
        ("basis", "--kind", "codet", "--lambda", "2,2,2,2"),
        ("4791088622f177225b7d3156bf2c18aeb106ca623ccd7feb6a50e3a5e37a3f4e", 829600),
    ),
    "basis-211-112": (
        ("basis", "--kind", "codet", "--lambda", "2,1,1", "--mu", "1,1,2"),
        ("78c3cc19aa29aadccf835cab1dbff61fa8e38ad3fc63f288f62e2dca253e0e8c", 2374),
    ),
    "verify-codet-n3-r4": (
        ("verify", "codet", "--n-max", "3", "--r-max", "4"),
        ("1dd6315ffed494fe99c52af87f7d5696fce8afd83554cb3b05e475c9dd1744dc", 1013),
    ),
}


@pytest.mark.parametrize("command", sorted(CODET_DIGESTS))
def test_codet_stdout_pinned(capsys, command):
    argv, digest = CODET_DIGESTS[command]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == digest


def test_verify_cellular_above_the_default_is_pinned(capsys):
    # SHA-256 of `schuralg verify cellular --n 3 --r 5` stdout, recorded
    # before the cellular rows shared one cell datum per weight
    code, out, _ = run_cli(capsys, "verify", "cellular", "--n", "3", "--r", "5")
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (
        "cd935cc28c6c07707da609502b82d0558a21e3e7de3141564df90d681dbe91cc", 2782
    )


SCHUR_X = {"n": 2, "r": 2, "terms": [{"matrix": [[0, 1], [1, 0]], "coeff_num": 1, "coeff_den": 1}]}
UDOT_X = {"n": 2, "left": [1, 1], "right": [1, 1], "terms": [{"pattern": [[0, 1], [1, 0]], "coeff": "1"}]}


def _replaced(payload, path, value):
    out = json.loads(json.dumps(payload))
    target = out
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(out)


@pytest.mark.parametrize(
    "command, base, path, value",
    [
        ("mul", SCHUR_X, ("terms", 0, "matrix", 0, 1), 1.7),
        ("mul", SCHUR_X, ("terms", 0, "coeff_num"), 1.5),
        ("mul", SCHUR_X, ("terms", 0, "coeff_den"), True),
        ("udot", UDOT_X, ("left",), [1.5, 1]),
        ("udot", UDOT_X, ("terms", 0, "pattern"), [[0, 0.9], [0.9, 0]]),
    ],
    ids=["matrix-entry", "coeff-num", "coeff-den-bool", "udot-weight", "udot-pattern"],
)
def test_element_json_refuses_non_integers(capsys, command, base, path, value):
    # each of these was truncated by int() and multiplied as another element
    bad = _replaced(base, path, value)
    good = json.dumps(base)
    argv = ["mul"] if command == "mul" else ["udot", "mul"]
    code, out, err = run_cli(capsys, *argv, "--left", bad, "--right", good)
    assert code == 2
    assert out == ""
    assert "bad element JSON" in err and "expected an integer" in err


@pytest.mark.parametrize("pattern", [[[0], [1, 0]], [[1, 1], [1, 0]], [[0, 1, 0], [1, 0, 0], [0, 0, 0]]])
def test_udot_json_refuses_malformed_patterns(capsys, pattern):
    # a short row raised IndexError out of the CLI; a diagonal entry was
    # dropped without a word
    bad = _replaced(UDOT_X, ("terms", 0, "pattern"), pattern)
    code, out, err = run_cli(capsys, "udot", "mul", "--left", bad, "--right", json.dumps(UDOT_X))
    assert code == 2
    assert out == ""
    assert "bad element JSON" in err


# Fuzzing the element JSON of `mul` and `udot mul`: well-formed elements
# (n <= 4, n = 3 and 4 products straighten in the enveloping algebra) with
# up to two leaves replaced by arbitrary JSON or keys dropped.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.floats(-3, 3),
    st.text(max_size=3),
    st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 1), max_size=2),
)


def _paths(x, path=()):
    yield path
    if isinstance(x, dict):
        for k, v in x.items():
            yield from _paths(v, path + (k,))
    elif isinstance(x, list):
        for i, v in enumerate(x):
            yield from _paths(v, path + (i,))


def _mutate(draw, payload):
    for _ in range(draw(st.sampled_from((0, 0, 1, 2)))):
        path = draw(st.sampled_from(list(_paths(payload))))
        if not path:
            payload = draw(JUNK)
            continue
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = draw(JUNK)
    return json.dumps(payload)


@st.composite
def schur_requests(draw):
    n, r = draw(st.integers(1, 4)), draw(st.integers(0, 3))

    def element():
        terms = []
        for _ in range(draw(st.integers(0, 2))):
            a = [[0] * n for _ in range(n)]
            for _ in range(r):
                a[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] += 1
            terms.append({"matrix": a, "coeff_num": draw(st.integers(-3, 3)), "coeff_den": draw(st.integers(1, 3))})
        return _mutate(draw, {"n": n, "r": r, "terms": terms})

    return ["mul", "--left", element(), "--right", element()]


@st.composite
def udot_requests(draw):
    n = draw(st.sampled_from((1, 2, 3, 3, 4)))

    def element(right):
        p = [[0] * n for _ in range(n)]
        for _ in range(draw(st.integers(0, 2)) if n > 1 else 0):
            i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            p[i][j] += 1
        left = [right[i] + sum(p[i][j] - p[j][i] for j in range(n)) for i in range(n)]
        coeff = draw(st.sampled_from(["1", "-2", "3/2", "-1/3"]))
        return {"n": n, "left": left, "right": list(right), "terms": [{"pattern": p, "coeff": coeff}]}

    v = element([draw(st.integers(-2, 2)) for _ in range(n)])
    u = element(v["left"])
    return ["udot", "mul", "--left", _mutate(draw, u), "--right", _mutate(draw, v)]


@settings(max_examples=150, deadline=None)
@given(st.one_of(schur_requests(), udot_requests()))
def test_element_json_fuzz(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse's usage error, for a value that starts with "-"
            code = exc.code
    assert code in (0, 2)
    if code == 2:
        assert out.getvalue() == ""
    else:
        json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()


def _schur_json(n, r, terms):
    return json.dumps({"n": n, "r": r, "terms": [
        {"matrix": m, "coeff_num": a, "coeff_den": b} for m, a, b in terms]})


def _udot_json(n, left, right, terms):
    return json.dumps({"n": n, "left": left, "right": right, "terms": [
        {"pattern": p, "coeff": c} for p, c in terms]})


S23 = [[[a, b], [c, 3 - a - b - c]] for a, b, c in itertools.product(range(4), repeat=3) if a + b + c <= 3]
Z3 = [[0, 0, 0], [0, 0, 0], [0, 0, 0]]

# Element commands with fractional coefficients, and PBW images: the
# SHA-256 and length of their stdout, recorded while elements still held
# one Fraction per term.
ELEMENT_REQUESTS = {
    "mul-s2-3": (
        ["mul", "--left", _schur_json(2, 3, [(m, i % 5 - 2, i % 3 + 1) for i, m in enumerate(S23)]),
         "--right", _schur_json(2, 3, [(m, 3 - i % 4, i % 5 + 2) for i, m in enumerate(S23)])],
        ("5147e7f177767d6bffd31d8deea112e38c4e8da06d90737fd2b8d609b0ba25f9", 1305),
    ),
    "mul-s3-3": (
        ["mul",
         "--left", _schur_json(3, 3, [([[1, 1, 0], [0, 0, 1], [0, 0, 0]], 1, 2), ([[0, 1, 0], [1, 0, 1], [0, 0, 0]], -2, 3),
                                      ([[2, 0, 0], [0, 0, 0], [0, 0, 1]], 3, 4)]),
         "--right", _schur_json(3, 3, [([[1, 0, 0], [0, 1, 1], [0, 0, 0]], 5, 6), ([[0, 0, 1], [1, 1, 0], [0, 0, 0]], -1, 2),
                                       ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 7, 3)])],
        ("8e78762219b81adc78221ca7f2bf241e1bd883eab8dfb68646084ad352699814", 188),
    ),
    "udot-mul-n2": (
        ["udot", "mul",
         "--left", _udot_json(2, [1, 1], [1, 1], [([[0, a], [a, 0]], c) for a, c in enumerate(("1/2", "-2/3", "3/4", "5/6"))]),
         "--right", _udot_json(2, [1, 1], [1, 1], [([[0, a], [a, 0]], c) for a, c in enumerate(("-1/3", "2/5", "7/4"))])],
        ("8c9907b9bcc1a10446fccd9265b0f203cc1011c94dea1e3d9f2274ac12b2031b", 349),
    ),
    "udot-mul-n3": (
        ["udot", "mul",
         "--left", _udot_json(3, [0, 0, 0], [0, 0, 0], [(Z3, "1/2"), ([[0, 1, 0], [1, 0, 0], [0, 0, 0]], "-2/3"),
                                                          ([[0, 1, 0], [0, 0, 1], [1, 0, 0]], "3/4")]),
         "--right", _udot_json(3, [0, 0, 0], [0, 0, 0], [([[0, 0, 1], [1, 0, 0], [0, 1, 0]], "5/6"),
                                                           ([[0, 0, 0], [0, 0, 1], [0, 1, 0]], "-1/5"), (Z3, "2")])],
        ("21996240011fd61b81034f5a02c6a1196c53b07eea4c9ccf0b3e94d1abd09110", 836),
    ),
    "basis-pbw-ef": (
        ["basis", "--kind", "pbw", "--lambda", "2,1,2", "--mu", "1,2,2", "--form", "ef"],
        ("dc002c44261579ed73df9e17822721244d1e851a2a92b27732a2df7378b44847", 4032),
    ),
    "basis-pbw-fe-middle": (
        ["basis", "--kind", "pbw", "--lambda", "3,2", "--form", "fe-middle"],
        ("9cc43466e45f86aeeb35b65ed47540a4f40ee13ce4f0cb1cf3a55444f543b9d2", 671),
    ),
}


@pytest.mark.parametrize("name", sorted(ELEMENT_REQUESTS))
def test_element_json_pinned(capsys, name):
    argv, digest = ELEMENT_REQUESTS[name]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    data = out.encode()
    assert (hashlib.sha256(data).hexdigest(), len(data)) == digest


# Fuzzing the weight commands: weights of one to four entries in [-3, 6],
# passed as `--lambda=-1,2` or as `--lambda -1,2`, with each command's
# flags.  basis draws entries up to 2 only: its PBW images of the
# (4,4,4,4) block alone take about 30 s.
@st.composite
def weight_requests(draw):
    def weight(hi=6):
        return ",".join(str(draw(st.integers(-3, hi))) for _ in range(draw(st.integers(1, 4))))

    def flag(name, value):
        return draw(st.sampled_from(([f"{name}={value}"], [name, str(value)])))

    def maybe(name, value):
        return flag(name, value) if draw(st.booleans()) else []

    command = draw(st.sampled_from(["dim", "kostka", "compositions", "simples", "basis", "udot basis"]))
    if command == "dim":
        args = flag("--lambda", weight()) + maybe("--mu", weight()) + maybe("--r", draw(st.integers(-1, 24)))
    elif command == "kostka":
        args = flag("--mu", weight()) + flag("--lambda", weight())
    elif command == "compositions":
        args = flag("--n", draw(st.integers(-1, 4))) + flag("--r", draw(st.integers(-1, 6)))
        args += draw(st.sampled_from(([], ["--dominant"])))
    elif command == "simples":
        args = flag("--lambda", weight()) + maybe("--window", draw(st.integers(-1, 3)))
    elif command == "basis":
        args = ["--kind", draw(st.sampled_from(["xi", "codet", "pbw"]))] + flag("--lambda", weight(2))
        args += maybe("--mu", weight(2)) + maybe("--form", draw(st.sampled_from(PBW_FORMS)))
    else:
        args = flag("--lambda", weight()) + flag("--mu", weight()) + flag("--degree", draw(st.integers(-1, 6)))
    return draw(st.sampled_from(([], ["--format", "csv"]))) + command.split() + args


def assert_exits_cleanly(argv):
    """Exit 0, 1 or 2, no output on a refusal, and no escaped exception."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()


@settings(max_examples=120, deadline=None)
@given(weight_requests())
def test_weight_commands_fuzz(argv):
    assert_exits_cleanly(argv)


# Fuzzing the block suites with their range flags, from below the least
# allowed values (n_max 1, r_max 0) up to gbasis at n <= 3, r <= 5, gl2
# at r <= 14, zbas, codet and psi at n <= 3, r <= 4, sym-quotient past
# its bound r <= 4 and cellular in S(3, 4), each run well under a second.
@st.composite
def block_suite_requests(draw):
    def maybe(name, lo, hi):
        return [name, str(draw(st.integers(lo, hi)))] if draw(st.booleans()) else []

    suite = draw(st.sampled_from(["gbasis", "gl2", "zbas", "codet", "psi", "sym-quotient", "cellular"]))
    if suite == "gbasis":
        args = maybe("--n-max", -1, 3) + maybe("--r-max", -2, 5)
    elif suite == "gl2":
        args = maybe("--r-max", -2, 14)
    elif suite == "sym-quotient":
        args = maybe("--r-max", -2, 6)
    elif suite == "cellular":
        args = maybe("--n", 0, 3) + maybe("--r", -1, 4)
        if draw(st.booleans()):
            entries = draw(st.lists(st.integers(-1, 3), min_size=1, max_size=3))
            args.append("--lambda=" + ",".join(map(str, entries)))
    else:
        args = maybe("--n-max", -1, 3) + maybe("--r-max", -2, 4)
        if suite == "psi":
            args += maybe("--seed", 0, 2**31)
    return draw(st.sampled_from(([], ["--format", "csv"]))) + ["verify", suite] + args


@settings(max_examples=120, deadline=None)
@given(block_suite_requests())
def test_block_suites_fuzz(argv):
    assert_exits_cleanly(argv)


# Fuzzing the extremes: weights of 1,100 to 1,600 parts and blocks of 32
# to 40 parts (deeper than CPython's default recursion limit, 1,000), and
# --r-max or --degree values of up to 4,300 digits (the most argparse
# reads); each is refused at once, and no refusal prints Python's own
# digit-limit error.
@st.composite
def extreme_requests(draw):
    def nines(lo):
        return "9" * draw(st.integers(lo, 4300))

    kind = draw(st.sampled_from(["long-weight", "wide-block", "suite-range", "degree"]))
    if kind == "long-weight":
        n = draw(st.integers(1100, 1600))
        w = ",".join(["0"] * (n - 1) + [str(draw(st.integers(0, 2)))])
        return draw(st.sampled_from([
            ["dim", "--lambda", w],
            ["simples", "--lambda", w],
            ["basis", "--kind", draw(st.sampled_from(["xi", "codet"])), "--lambda", w],
            ["compositions", "--n", str(n), "--r", str(draw(st.integers(0, 2)))],
        ]))
    if kind == "wide-block":
        zeros = ",".join(["0"] * draw(st.integers(32, 40)))
        return ["udot", "basis", "--lambda", zeros, "--mu", zeros, "--degree", "0"]
    if kind == "suite-range":
        suite = draw(st.sampled_from(["gbasis", "codet", "zbas", "psi", "idem-lemma"]))
        n_max = [] if draw(st.booleans()) else ["--n-max", str(draw(st.integers(-1, 3)))]
        return ["verify", suite, "--r-max", nines(7)] + n_max
    if draw(st.booleans()):
        return ["udot", "gl2-table", "--lambda", "1,2", "--degree", nines(3)]
    return ["udot", "basis", "--lambda", "0,0", "--mu", "0,0", "--degree", nines(7)]


@settings(max_examples=60, deadline=None)
@given(extreme_requests())
def test_extreme_requests_fuzz(argv):
    # Hypothesis raises the recursion limit while a test runs, and under
    # that limit the long inputs run for minutes and fill memory; a CLI
    # process has the default
    out, err = io.StringIO(), io.StringIO()
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue().startswith(("resource limit: ", "error: --n-max must be at least 1"))
    assert "Traceback" not in err.getvalue() and "Exceeds the limit" not in err.getvalue()


@pytest.mark.parametrize("argv", [
    ["udot", "basis", "--lambda", ",".join(["0"] * 32), "--mu", ",".join(["0"] * 32), "--degree", "0"],
    ["verify", "psi", "--n-max", "40", "--r-max", "0"],
    ["compositions", "--n", "1500", "--r", "1"],
    ["dim", "--lambda", ",".join(["0"] * 1499 + ["1"])],
    ["simples", "--lambda", ",".join(["0"] * 1499 + ["1"])],
    ["basis", "--kind", "xi", "--lambda", ",".join(["0"] * 1499 + ["1"])],
    ["basis", "--kind", "codet", "--lambda", ",".join(["0"] * 1499 + ["1"])],
])
def test_recursion_depth_is_a_resource_limit(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("resource limit: the input nests deeper than the recursion limit")


@pytest.mark.parametrize("suite", ["gbasis", "codet", "zbas", "psi", "idem-lemma"])
def test_slices_are_refused_before_any_is_made(capsys, suite):
    code, out, err = run_cli(capsys, "verify", suite, "--r-max", "9" * 30)
    assert code == 2
    assert out == ""
    # the default n_max = 3 weighs 1 + 4 + 9 per value of r
    assert err == f"resource limit: 14{'0' * 30} matrix entries in the slices (n, r), n^2 per slice, above the limit 1000000\n"


@pytest.mark.parametrize("suite", ["gbasis", "codet", "zbas", "psi"])
def test_slices_weigh_their_letters(capsys, suite):
    # 10^6 slices of one degree each: counted as slices, codet ran 70 s and psi did not finish
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "verify", suite, "--n-max", "1000000", "--r-max", "0")
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == "resource limit: 333333833333500000 matrix entries in the slices (n, r), n^2 per slice, above the limit 1000000\n"


def test_slice_cap_edge():
    assert next(verify._slices(1, 999999)) == (1, 0)
    # 143 * 144 * 287 / 6 = 984984 and 144 * 145 * 289 / 6 = 1005720
    assert next(verify._slices(143, 0)) == (1, 0)
    assert list(verify._slices(0, 10 ** 40)) == list(verify._slices(10 ** 40, -1)) == []
    with pytest.raises(ResourceLimitError, match=re.escape("1000001 matrix entries in the slices (n, r)")):
        verify._slices(1, 10 ** 6)
    with pytest.raises(ResourceLimitError, match=re.escape("1005720 matrix entries in the slices (n, r)")):
        verify._slices(144, 0)
    with pytest.raises(ResourceLimitError, match=re.escape("333335833339500005 matrix entries in the slices (n, r)")):
        verify._slices(1000002, 0)


def test_idem_lemma_work_stops_at_the_budget():
    # n = 1 adds 1 term at r = 0 and r terms at r > 0: 1 + 1414 * 1415 / 2
    # passes the budget at r = 1414, long before the last of 10^6 slices
    with pytest.raises(ResourceLimitError, match=re.escape("sums 1000406 terms by n=1, r=1414,")):
        verify.suite_idem_lemma(1, 999999)


@pytest.mark.parametrize("argv, message", [
    (["compositions", "--n", "100000", "--r", "100000"],
     "a 60203-digit number of compositions of 100000 into 100000 parts, above the limit 1000000"),
    (["udot", "gl2-table", "--lambda", "1,2", "--degree", "9" * 2000],
     f"a gl_2 table of degree {'9' * 2000} costs a 6001-digit number of terms, above the limit 1000000"),
    (["verify", "gbasis", "--n-max", "9" * 2200, "--r-max", "9" * 2200],
     "a 8800-digit number of matrix entries in the slices (n, r), n^2 per slice, above the limit 1000000"),
])
def test_refusals_print_huge_counts_by_their_digits(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"resource limit: {message}\n"


def test_count_text():
    assert errors.count_text(10 ** 100 - 1) == "9" * 100
    for x, digits in [(10 ** 100, 101), (10 ** 101 - 1, 101), (2 ** 100000, 30103), (10 ** 60000, 60001)]:
        assert errors.count_text(x) == f"a {digits}-digit number of"


def test_verify_gl2_refuses_its_range_at_once(capsys):
    # the rows up to r = 19 used to run for seconds before this refusal
    code, out, err = run_cli(capsys, "verify", "gl2", "--r-max", "20")
    assert code == 2
    assert out == ""
    assert "tensor space has 2^20 basis words" in err


def test_verify_psi_refuses_its_range_at_once(monkeypatch, capsys):
    # the walk of a slice (n, r) counts C(r + n(n-1), n(n-1)) patterns: at
    # n = 3 that is 906,192 at r = 26 and 1,107,568 at r = 27
    def refuse(mu, r):
        raise AssertionError(f"row mu={mu} ran")

    monkeypatch.setattr(verify, "_psi_unit_and_rank", refuse)
    with pytest.raises(AssertionError, match=r"row mu=\(0,\) ran"):
        verify.run_suite("psi", n_max=3, r_max=26)
    with pytest.raises(ResourceLimitError) as walk:
        udot._walk_images((0, 0, 0), 27, print)
    with pytest.raises(ResourceLimitError, match=re.escape(str(walk.value))):
        verify.run_suite("psi", n_max=3, r_max=27)
    code, out, err = run_cli(capsys, "verify", "psi", "--n-max", "3", "--r-max", "27")
    assert code == 2
    assert out == ""
    assert str(walk.value) in err


def test_verify_relations_refuses_its_window_at_once(monkeypatch, capsys):
    # sum over n of (2 window + 1)^n (n - 1)^2 commutator cases: at the
    # default n_max = 3, 911,645 at window 30 and 1,004,157 at window 31;
    # 62,046 at n_max = 4, window 4
    def refuse(lam, i, j):
        raise AssertionError(f"row lam={lam} ran")

    monkeypatch.setattr(verify, "_commutator", refuse)
    for n_max, window in [(3, 30), (4, 4)]:
        with pytest.raises(AssertionError, match=re.escape(f"row lam={(-window,) * 2} ran")):
            verify.run_suite("relations", n_max=n_max, window=window)
    message = "relations up to n=3, window=31 check 1004157 cases by n=3, above the limit 1000000"
    with pytest.raises(ResourceLimitError, match=re.escape(message)):
        verify.run_suite("relations", n_max=3, window=31)
    # listing the range of a window this wide raised OverflowError (exit 1)
    code, out, err = run_cli(capsys, "verify", "relations", "--window", "9" * 30)
    assert code == 2
    assert out == ""
    cases = (2 * 10 ** 30 - 1) ** 2
    assert err == f"resource limit: relations up to n=3, window={'9' * 30} check {cases} cases by n=2, above the limit 1000000\n"


def test_verify_relations_refuses_an_n_its_products_would_refuse(monkeypatch, capsys):
    # a commutator case makes degree-2 products, which udot_multiply holds
    # to C((n-1)^2 + 2, 2) patterns from n = 3 on: 939,135 at n = 38 and
    # 1,044,735 at n = 39
    monkeypatch.setattr(verify, "_commutator", lambda lam, i, j: None)
    assert verify.run_suite("relations", n_max=38, window=0).passed
    lam = (0,) * 39
    f = udot.divided_generators(1, 1, lam, "f")
    with pytest.raises(ResourceLimitError) as product:
        udot.udot_multiply(udot.divided_generators(1, 1, f.left, "e"), f)
    monkeypatch.setattr(verify, "_commutator", lambda lam, i, j: pytest.fail("a case ran"))
    with pytest.raises(ResourceLimitError, match=re.escape(str(product.value))):
        verify.run_suite("relations", n_max=39, window=0)
    code, out, err = run_cli(capsys, "verify", "relations", "--n-max", "39", "--window", "0")
    assert (code, out) == (2, "")
    assert err == f"resource limit: {product.value}\n"


def test_verify_sym_quotient_refuses_its_range_at_once(monkeypatch, capsys):
    # the rows up to r = 4 used to run before the refusal of r = 5
    def refuse(r):
        raise AssertionError(f"row r={r} ran")

    monkeypatch.setattr(verify, "_cayley_table", refuse)
    with pytest.raises(ResourceLimitError, match=r"full table check is bounded at r <= 4 \(got r=5\)"):
        verify.run_suite("sym-quotient", r_max=5)
    code, out, err = run_cli(capsys, "verify", "sym-quotient", "--r-max", "5")
    assert code == 2
    assert out == ""
    assert "full table check is bounded at r <= 4 (got r=5)" in err


def _cyclic_pattern_pair(k):
    """1_0 with pattern [[0,k,0],[0,0,k],[k,0,0]] and with its transpose
    arrangement [[0,0,k],[k,0,0],[0,k,0]], as udot element JSON."""
    def element(pattern):
        return json.dumps({"n": 3, "left": [0, 0, 0], "right": [0, 0, 0], "terms": [{"pattern": pattern, "coeff": "1"}]})

    return element([[0, k, 0], [0, 0, k], [k, 0, 0]]), element([[0, 0, k], [k, 0, 0], [0, k, 0]])


# SHA-256 and length of the stdout of the k = 2, 3, 4 products, recorded
# before the guard existed, and of the k = 5, 8 and 11 products (36, 81
# and 144 terms; 11 is the last one the guard admits), recorded on the
# earlier rewriting with the guard lifted
UDOT_CYCLIC_DIGESTS = {
    2: ("d9dd26488310a45e4f35d094d13dc133263fdf321b0e0134248f98a76635aebd", 617),
    3: ("fff8ab5469e37962003eef4ddd72e8e645d21938983631d2a2fd9a37359c637b", 1051),
    4: ("a5ce93229ce2bfc824b0d4cbbd4468ec866fa9fa677c9b9ad3b4d3151a3fd483", 1618),
    5: ("5a389769cb926fbde973053e54082cd5b1c795716e1d8d63b7778ed57cebc85b", 2319),
    8: ("d4b86cde967ced7d46eb8adda0ecdc1ef17cc82d479c9640d9fbe19f5f57422e", 5216),
    11: ("a1a58fa663b7490e951cd954fe44b6b4273a65ec793bd1096d1a06b54b005a90", 9791),
}


@pytest.mark.parametrize("k", sorted(UDOT_CYCLIC_DIGESTS))
def test_udot_mul_gl3_under_the_bound_is_unchanged(capsys, k):
    left, right = _cyclic_pattern_pair(k)
    code, out, _ = run_cli(capsys, "udot", "mul", "--left", left, "--right", right)
    assert code == 0
    assert (hashlib.sha256(out.encode()).hexdigest(), len(out)) == UDOT_CYCLIC_DIGESTS[k]


@pytest.mark.parametrize("k", [12, 20])
def test_udot_mul_gl3_refused_before_straightening(capsys, k):
    # the product lies in the block 1_0 .. 1_0, whose patterns are fixed by
    # their four entries off column 3: C(6k + 4, 4) patterns of degree at
    # most 6k, 916,895 at k = 11 and 1,282,975 at k = 12
    left, right = _cyclic_pattern_pair(k)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "udot", "mul", "--left", left, "--right", right)
    assert time.perf_counter() - start < 2.0
    assert code == 2
    assert out == ""
    assert f"product of degree {6 * k} in U̇(gl_3)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("zbas", "--n-max", "0"), "--n-max must be at least 1"),
        (("codet", "--n-max", "0"), "--n-max must be at least 1"),
        (("idem-lemma", "--n-max", "0"), "--n-max must be at least 1"),
        (("psi", "--n-max", "0"), "--n-max must be at least 1"),
        (("gbasis", "--r-max", "-1"), "--r-max must be at least 0"),
        (("relations", "--n-max", "1"), "--n-max must be at least 2"),
        (("relations", "--window", "-1"), "--window must be at least 0"),
        (("sym-quotient", "--r-max", "0"), "--r-max must be at least 1"),
    ],
)
def test_verify_refuses_ranges_that_check_nothing(capsys, argv, flag):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2
    assert out == ""
    assert flag in err
    assert "Traceback" not in err
