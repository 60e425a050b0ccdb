import hashlib
import json
import time

import pytest

from schuralg.cli import main


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
