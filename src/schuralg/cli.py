"""Command line interface.

Every subcommand writes one JSON document (or CSV where the output is
naturally tabular) to stdout and nothing else; wall time goes to stderr
so stdout is byte-identical across runs.  Exit codes: 0 success, 1 a
verification ran and failed, 2 usage error, invalid value (a ValueError
from the library) or resource bound.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
import time
from math import factorial
from typing import Sequence

from .codet import codet_basis, codet_count
from .enveloping import _pbw_image
from .errors import ResourceLimitError
from .schur import SchurElement, schur_multiply, symmetric_group_iso
from .simples import simple_index_set, simple_index_set_window
from .udot import UdotElement, gl2_generic_table, udot_basis_upto, udot_multiply
from .verify import SUITES, run_suite
from .weights import compositions, dominant_shapes, kostka, margin_count, margin_matrices, tableau_rows

__all__ = ["main", "build_parser"]

PBW_FORMS = ("fe", "ef", "fe-middle", "ef-middle")


def _parse_weight(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _attach_negative_weights(argv: Sequence[str]) -> list[str]:
    """Join `--lambda -1,2` (and `--mu`) into `--lambda=-1,2`: argparse
    would read a value that starts with a minus sign as an option."""
    out: list[str] = []
    for token in argv:
        if out and out[-1] in ("--lambda", "--mu") and token[:1] == "-" and token[1:2].isdigit():
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def _parse_element(cls, text: str):
    try:
        return cls.from_json(json.loads(text))
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise ValueError(f"bad element JSON: {exc}")


def _row_csv(payload: dict) -> str:
    """The payload's keys as a header and its values as one row: a list
    joins with spaces, and a bool or an int prints as str, lower case."""
    row = (" ".join(map(str, v)) if isinstance(v, list) else str(v).lower() for v in payload.values())
    return ",".join(payload) + "\n" + ",".join(row) + "\n"


# suite parameter -> verify flag, read once from the suite table, in its order
_SUITE_FLAGS = {
    p: "--lambda" if p == "lam" else "--" + p.replace("_", "-")
    for suite in SUITES.values()
    for p in inspect.signature(suite).parameters
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="schuralg",
        description="Exact computations in Schur algebras and their weight blocks.",
    )
    parser.add_argument(
        "--format",
        choices=("json", "csv"),
        default="json",
        help="output format (csv only for tabular subcommands)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compositions", help="weights of n parts summing to r")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--dominant", action="store_true", help="keep only weakly decreasing weights")

    p = sub.add_parser("dim", help="dimension of a weight block")
    p.add_argument("--lambda", dest="lam", required=True, help="comma-separated weight")
    p.add_argument("--mu", default=None, help="second weight, default same as --lambda")
    p.add_argument("--r", type=int, default=None, help="cross-check the degree")

    p = sub.add_parser("basis", help="explicit basis of a weight block")
    p.add_argument("--kind", choices=("xi", "codet", "pbw"), required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--mu", default=None)
    p.add_argument("--form", choices=PBW_FORMS, default="fe", help="pbw arrangement")

    p = sub.add_parser("mul", help="multiply two Schur algebra elements given as JSON")
    p.add_argument("--left", required=True, help="element JSON")
    p.add_argument("--right", required=True, help="element JSON")

    p = sub.add_parser("kostka", help="semistandard tableau count")
    p.add_argument("--mu", required=True, help="shape, a partition")
    p.add_argument("--lambda", dest="lam", required=True, help="content weight")

    p = sub.add_parser("simples", help="index set of simple modules with weight multiplicities")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--window", type=int, default=None, help="integer window around the entries")

    p = sub.add_parser("sym-iso", help="check the symmetric group embedding table")
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("udot", help="modified enveloping algebra operations")
    usub = p.add_subparsers(dest="udot_command", required=True)

    q = usub.add_parser("mul", help="multiply two block elements given as JSON")
    q.add_argument("--left", required=True)
    q.add_argument("--right", required=True)

    q = usub.add_parser("basis", help="block basis up to a degree bound")
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--mu", required=True)
    q.add_argument("--degree", type=int, required=True)

    q = usub.add_parser("gl2-table", help="generic multiplication table of a gl_2 diagonal block")
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--degree", type=int, default=None)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite", choices=sorted(SUITES) + ["all"])
    for name, flag in _SUITE_FLAGS.items():
        p.add_argument(flag, dest=name, type=None if name == "lam" else int, default=None)

    return parser


def _cmd_compositions(args) -> tuple[dict, str, int]:
    weights = (dominant_shapes if args.dominant else compositions)(args.n, args.r)
    payload = {
        "n": args.n,
        "r": args.r,
        "dominant_only": bool(args.dominant),
        "count": len(weights),
        "compositions": [list(w) for w in weights],
    }
    header = ",".join(f"c{i + 1}" for i in range(args.n))
    csv = "\n".join([header] + [",".join(map(str, w)) for w in weights]) + "\n"
    return payload, csv, 0


def _cmd_dim(args) -> tuple[dict, str, int]:
    lam = _parse_weight(args.lam)
    mu = _parse_weight(args.mu) if args.mu else lam
    if args.r is not None and args.r != sum(lam):
        raise ValueError(f"degree cross-check failed: sum(lambda)={sum(lam)} but --r={args.r}")
    dim = margin_count(lam, mu)
    ksum = codet_count(lam, mu)
    payload = {
        "lambda": list(lam),
        "mu": list(mu),
        "dim": dim,
        "kostka_sum": ksum,
    }
    return payload, _row_csv(payload), 0


def _cmd_basis(args) -> tuple[dict, int]:
    lam = _parse_weight(args.lam)
    mu = _parse_weight(args.mu) if args.mu else lam
    payload: dict = {"kind": args.kind, "lambda": list(lam), "mu": list(mu)}
    if args.kind == "codet":
        cells = codet_basis(lam, mu)
        payload["count"] = len(cells)
        payload["elements"] = [
            {
                "shape": list(c.shape),
                "left": [list(row) for row in tableau_rows(c.left)],
                "right": [list(row) for row in tableau_rows(c.right)],
                "value": c.value.to_json(),
            }
            for c in cells
        ]
    else:
        margins = margin_matrices(lam, mu)
        payload["count"] = len(margins)
        payload["elements"] = [{"matrix": [list(row) for row in a]} for a in margins]
        if args.kind == "pbw":
            payload["form"] = args.form
            for a, element in zip(margins, payload["elements"]):
                element["image"] = _pbw_image(a, args.form).to_json()
    return payload, 0


def _cmd_mul(args) -> tuple[dict, int]:
    left = _parse_element(SchurElement, args.left)
    right = _parse_element(SchurElement, args.right)
    return schur_multiply(left, right).to_json(), 0


def _cmd_kostka(args) -> tuple[dict, str, int]:
    mu = _parse_weight(args.mu)
    lam = _parse_weight(args.lam)
    value = kostka(mu, lam)
    payload = {"shape": list(mu), "weight": list(lam), "kostka": value}
    return payload, _row_csv(payload), 0


def _cmd_simples(args) -> tuple[dict, str, int]:
    lam = _parse_weight(args.lam)
    if args.window is not None:
        report = simple_index_set_window(lam, args.window)
    else:
        report = simple_index_set(lam)
    return report.to_json(), report.to_csv(), 0


def _cmd_sym_iso(args) -> tuple[dict, str, int]:
    match = symmetric_group_iso(args.r).cayley_mismatch() is None
    order = factorial(args.r)
    payload = {"r": args.r, "group_order": order, "table_match": match}
    return payload, _row_csv(payload), 0 if match else 1


def _cmd_udot(args) -> tuple[dict, int]:
    if args.udot_command == "mul":
        left = _parse_element(UdotElement, args.left)
        right = _parse_element(UdotElement, args.right)
        return udot_multiply(left, right).to_json(), 0
    if args.udot_command == "basis":
        lam = _parse_weight(args.lam)
        mu = _parse_weight(args.mu)
        basis = udot_basis_upto(lam, mu, args.degree)
        payload = {
            "lambda": list(lam),
            "mu": list(mu),
            "degree": args.degree,
            "count": len(basis),
            "elements": [b.to_json() for b in basis],
        }
        return payload, 0
    # gl2-table
    lam = _parse_weight(args.lam)
    degree = args.degree if args.degree is not None else 4
    table = gl2_generic_table(lam, degree)
    return table.to_json(), 0 if table.passed else 1


def _cmd_verify(args) -> tuple[dict, str, int]:
    provided = {
        name: getattr(args, name) for name in _SUITE_FLAGS if getattr(args, name) is not None
    }
    if args.suite == "all":
        if provided:
            raise ValueError("verify all takes no parameter flags")
        reports = [run_suite(name) for name in sorted(SUITES)]
        payload = {
            "suites": [rep.to_json() for rep in reports],
            "passed": all(rep.passed for rep in reports),
        }
        lines = ["suite,check,passed"]
        for rep in reports:
            for c in rep.checks:
                lines.append(f"{rep.suite},{c.id},{str(c.passed).lower()}")
        csv = "\n".join(lines) + "\n"
        return payload, csv, 0 if payload["passed"] else 1
    allowed = inspect.signature(SUITES[args.suite]).parameters
    for name in provided:
        if name not in allowed:
            raise ValueError(f"suite {args.suite!r} does not accept {_SUITE_FLAGS[name]}")
    if "lam" in provided:
        provided["lam"] = _parse_weight(provided["lam"])
    report = run_suite(args.suite, **provided)
    return report.to_json(), report.to_csv(), 0 if report.passed else 1


# subcommands with a table: each returns (payload, csv, exit code)
COMMANDS = {
    "compositions": _cmd_compositions,
    "dim": _cmd_dim,
    "kostka": _cmd_kostka,
    "simples": _cmd_simples,
    "sym-iso": _cmd_sym_iso,
    "verify": _cmd_verify,
}

# subcommands without one: each returns (payload, exit code), and --format
# csv is refused before it runs
JSON_COMMANDS = {"basis": _cmd_basis, "mul": _cmd_mul, "udot": _cmd_udot}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_weights(sys.argv[1:] if argv is None else argv))
    tabular = args.command in COMMANDS
    if args.format == "csv" and not tabular:
        print("error: csv output is not available for this subcommand", file=sys.stderr)
        return 2
    start = time.perf_counter()
    try:
        if tabular:
            payload, csv, code = COMMANDS[args.command](args)
        else:
            payload, code = JSON_COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        limit = sys.getrecursionlimit()
        print(f"resource limit: the input nests deeper than the recursion limit {limit}", file=sys.stderr)
        return 2
    if args.format == "csv":
        sys.stdout.write(csv)
    else:
        print(json.dumps(payload, sort_keys=True))
    print(f"wall-time-seconds: {time.perf_counter() - start:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
