"""The schuralg benchmark.

    python3 bench/run.py --workload cellular --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-check
    python3 bench/run.py --record-reference

A run repeats one workload, each iteration in a fresh interpreter
(bench/child.py), until the next round of iterations would end after
--seconds.  Every output is checked against the reference digests in
bench/reference.json and against semantic checks that need no reference.
The end-to-end metrics named in BENCHMARK.json are medians over the
untraced iterations, with times at the reference speed that child.py
measures (see bench/README.md).  With --trace 1 every iteration runs
once untraced and once traced, on the same input; the per-layer metrics
are medians over the traced iterations, and trace.overhead_s is the
median traced-minus-untraced wall time.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  `correct` is false when an output
contradicts its reference digest or a semantic check, or when two
iterations (traced or not) of the same input disagree.  `failed` also
counts operations that raised out of the library or broke the README's
exit-code contract; cli-session includes malformed requests that do so
at the commit that defined the benchmark.

--record-reference recomputes bench/reference.json from the current
library; do that only when a change of output is intended.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
# iterations a run makes at least, untraced and traced (a traced run
# makes each iteration twice)
MIN_ITERATIONS = {0: 3, 1: 2}
# a run must exit within 180 s, whatever --seconds says
RUN_LIMIT_S = 170.0


def _percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(workload: str, seed: int, iteration: int, size: str, trace: int, timeout: float) -> dict:
    cmd = [
        sys.executable, str(BENCH / "child.py"),
        "--workload", workload, "--seed", str(seed), "--iteration", str(iteration),
        "--size", size, "--trace", str(trace), "--reference", str(REFERENCE),
    ]
    if trace:
        out_dir = BENCH / "_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{workload}.json")]
    proc = subprocess.run(
        cmd, cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=max(timeout, 1.0)
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{workload} iteration {iteration} (trace {trace}) exited {proc.returncode}:\n{proc.stderr}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _workloads():
    for path in (str(ROOT / "src"), str(BENCH)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    return workloads


def round_size(workload: str, size: str) -> int:
    if workload == "cellular":
        workloads = _workloads()
        return len(workloads.rearrangements(workloads.SIZES[size]["cellular"]["base"]))
    return 1


def run_workload(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    """Run iterations until the next round would end after `seconds`."""
    per_round = round_size(workload, size)
    untraced: list[dict] = []
    traced: list[dict] = []
    start = time.monotonic()
    rounds = 0
    iteration = 0
    while True:
        for _ in range(per_round):
            left = RUN_LIMIT_S - (time.monotonic() - start)
            untraced.append(run_child(workload, seed, iteration, size, 0, left))
            if trace:
                left = RUN_LIMIT_S - (time.monotonic() - start)
                traced.append(run_child(workload, seed, iteration, size, 1, left))
            iteration += 1
        rounds += 1
        elapsed = time.monotonic() - start
        next_end = elapsed + elapsed / rounds
        if len(untraced) >= MIN_ITERATIONS[trace] and next_end > seconds:
            break
        if next_end > RUN_LIMIT_S:
            break
    return summarize(untraced, traced, per_round)


def summarize(untraced: list[dict], traced: list[dict], per_round: int) -> dict:
    """Medians of the untraced iterations at the reference speed; per-layer
    medians of the traced ones.  wall_s is the median over rounds of a
    round's total: a round is one iteration, or for cellular one check of
    each rearrangement, whose costs differ."""
    children = untraced + traced
    attempted = sum(len(c["ops"]) for c in children)
    failures = [op for c in children for op in c["ops"] if op["failure"]]
    wrong = [op for op in failures if op["kind"] == "wrong"]
    digests: dict[str, set] = {}
    for c in children:
        for op in c["ops"]:
            digests.setdefault(op["key"], set()).add(op["digest"])
    inconsistent = sorted(k for k, d in digests.items() if len(d) > 1)
    rounds = [untraced[k:k + per_round] for k in range(0, len(untraced), per_round)]
    latencies = [x for c in untraced for x in c["latencies_ref_ms"]]
    e2e = {
        "wall_s": statistics.median(sum(c["wall_ref_s"] for c in r) for r in rounds),
        "setup_s": statistics.median(c["setup_ref_s"] for c in untraced),
        "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in untraced),
        "request_p50_ms": statistics.median(latencies),
        "request_p99_ms": _percentile(latencies, 99),
    }
    raw = {
        "wall_s": statistics.median(sum(c["wall_s"] for c in r) for r in rounds),
        "setup_s": statistics.median(c["setup_s"] for c in untraced),
        "speed": statistics.median(c["speed"] for c in untraced),
    }
    out = {
        "correct": not wrong and not inconsistent,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "inconsistent": inconsistent,
        "e2e": e2e,
        "raw": raw,
        "samples": {"rounds": len(rounds), "iterations": len(untraced), "requests": len(latencies)},
        "error_rate": len(failures) / attempted,
    }
    if traced:
        names = set().union(*(c["layers"] for c in traced))
        layers = {
            name: statistics.median(c["layers"].get(name, 0) for c in traced) for name in names
        }
        layers["trace.overhead_s"] = statistics.median(
            t["wall_ref_s"] - u["wall_ref_s"] for u, t in zip(untraced, traced)
        )
        layers["error_rate"] = out["error_rate"]
        out["layers"] = layers
        out["traced"] = traced
        out["caches"] = traced[-1]["caches"]
    return out


def report(workload: str, summary: dict, trace: int, spec: dict) -> dict:
    """Print the metrics by name and unit; return the contract's metrics."""
    print(f"== {workload}")
    samples = summary["samples"]
    print(f"  rounds: {samples['rounds']}, iterations: {samples['iterations']} untraced,"
          f" {len(summary.get('traced', []))} traced")
    raw = summary["raw"]
    print(f"  raw wall_s = {raw['wall_s']:.6g} s, raw setup_s = {raw['setup_s']:.6g} s,"
          f" speed = {raw['speed']:.4g} x reference (times below are at the reference speed)")
    metrics = {}
    for m in spec["end_to_end"]:
        name = m["name"]
        value = summary["e2e"][name]
        if name.startswith("request_"):
            how = f"of {samples['requests']} requests"
        elif name == "wall_s":
            how = f"median of {samples['rounds']} rounds"
        else:
            how = f"median of {samples['iterations']} iterations"
        print(f"  {name} = {value:.6g} {m['unit']} ({how})")
        if not trace:
            metrics[name] = {"value": value, "unit": m["unit"]}
    print(f"  error_rate = {summary['error_rate']:.6g} ({summary['failed']} of {summary['attempted']} operations)")
    reasons: dict[str, int] = {}
    for op in summary["failures"]:
        label = f"{op['failure']}" + (f" [{op['malformed']}]" if op["malformed"] else "")
        reasons[label] = reasons.get(label, 0) + 1
    for label, count in sorted(reasons.items()):
        print(f"    {count} x {label}")
    if summary["inconsistent"]:
        print(f"  outputs differ between iterations for {len(summary['inconsistent'])} inputs")
    if trace:
        layers = summary["layers"]
        for m in spec["per_layer"]:
            present = m["name"] in layers
            value = layers.get(m["name"], 0)
            note = "" if present else " (absent)"
            print(f"  {m['name']} = {value:.6g} {m['unit']}{note}")
            metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"  caches found: {', '.join(summary['caches']) or 'none'}")
    return metrics


def self_check(spec: dict) -> int:
    """Tiny-size run of every workload, traced and untraced, asserting
    that every named metric is emitted and the accounting adds up."""
    workloads = _workloads()
    problems = []
    for workload in workloads.WORKLOADS:
        summary = run_workload(workload, seed=1, seconds=0, trace=1, size="tiny")
        report(workload, summary, 1, spec)
        for m in spec["end_to_end"]:
            if m["name"] not in summary["e2e"]:
                problems.append(f"{workload}: end-to-end metric {m['name']} not emitted")
        for m in spec["per_layer"]:
            if m["name"] not in summary["layers"]:
                problems.append(f"{workload}: per-layer metric {m['name']} not emitted")
        for child in summary["traced"]:
            layer_self = sum(
                v for k, v in child["layers"].items() if k.count(".") == 1 and k.endswith(".self_s")
            )
            if layer_self > child["layers"]["trace.wall_s"]:
                problems.append(f"{workload}: layer self time {layer_self} exceeds traced wall time")
        if not summary["correct"]:
            problems.append(f"{workload}: outputs not correct")
        if workload == "cli-session":
            spec_size = workloads.SIZES["tiny"]["cli-session"]
            per_child = spec_size["valid"] + spec_size["per_malformed_kind"] * len(workloads.MALFORMED_KINDS)
            crashes = spec_size["per_malformed_kind"] * len(workloads.KNOWN_CRASH_KINDS)
            expected = crashes / per_child
            if abs(summary["error_rate"] - expected) > 1e-12 and summary["error_rate"] != 0:
                problems.append(f"cli-session: error_rate {summary['error_rate']} is neither 0 nor {expected}")
        elif summary["error_rate"] != 0:
            problems.append(f"{workload}: error_rate {summary['error_rate']} is not 0")
    for p in problems:
        print(f"FAIL {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def record_reference() -> int:
    workloads = _workloads()
    ref: dict = {}
    for size in ("tiny", "full"):
        for workload in workloads.WORKLOADS:
            table = ref.setdefault(size, {}).setdefault(workload, {})
            for req in workloads.reference_requests(workload, size):
                verdict = req.check(req.call())
                if verdict.failure is not None or verdict.digest is None:
                    print(f"{size} {workload} {req.key}: {verdict.failure}", file=sys.stderr)
                    return 1
                table[req.key] = verdict.digest
            print(f"{size} {workload}: {len(table)} digests", file=sys.stderr)
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds in BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args()

    if not (ROOT / "src" / "schuralg" / "__init__.py").is_file():
        print(f"error: no schuralg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_reference:
        return record_reference()
    if not REFERENCE.is_file() or not SPEC.is_file():
        print("error: bench/reference.json or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    if args.self_check:
        return self_check(spec)

    names = _workloads().WORKLOADS
    if args.workload != "all" and args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(names)} or all", file=sys.stderr)
        return 2
    chosen = names if args.workload == "all" else (args.workload,)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        summary = run_workload(workload, args.seed, seconds, args.trace, "full")
        metrics = report(workload, summary, args.trace, spec)
        result["correct"] = result["correct"] and summary["correct"]
        result["attempted"] += summary["attempted"]
        result["failed"] += summary["failed"]
        if len(chosen) == 1:
            result["metrics"] = metrics
        else:
            result["metrics"].update({f"{workload}/{k}": v for k, v in metrics.items()})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
