"""One benchmark iteration in a fresh interpreter.

run.py starts this script once per iteration, so the library's
process-wide lru_caches start empty, as they do for a CLI call.  It
imports schuralg, builds the iteration's inputs (that is set-up), runs
the requests, checks every output against the reference digests, and
prints one JSON object on stdout.

The host's CPU speed drifts by 10-30% over seconds to tens of seconds,
and the drift on one vCPU does not follow the other.  So the iteration
samples its own speed: every 20 ms a SIGALRM handler times a fixed
piece of pure-Python work (the probe: integer arithmetic, then dict,
tuple and Fraction operations like the library's) on the same thread;
its speed is
REFERENCE_PROBE_S / probe time.  Each timed interval is reported both as
measured and at the reference speed, multiplied by the mean speed of the
probes taken within PROBE_WINDOW_S of it.  The probe costs under 1% of a
run.

    python3 bench/child.py --workload psi --seed 3 --iteration 0 --size full --trace 0
"""

from __future__ import annotations

import argparse
import bisect
import json
import resource
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

PROBE_INTERVAL_S = 0.02
PROBE_WINDOW_S = 0.25
# the probe's typical time on the machine that defined the benchmark
# (2 vCPUs, Python 3.11.7); any constant works, it only fixes the scale
REFERENCE_PROBE_S = 250e-6


def _probe_work():
    s = 0
    for i in range(500):
        s += i * i % 7
    d: dict = {}
    f = Fraction(0)
    for i in range(80):
        k = (i % 17, i % 5)
        d[k] = d.get(k, 0) + i
        if i % 8 == 0:
            f += Fraction(i, 3)
    return s, f, tuple(sorted(d.items()))


class SpeedProbe:
    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []

    def _probe(self, signum=None, frame=None) -> None:
        t = time.perf_counter()
        _probe_work()
        end = time.perf_counter()
        self.times.append(end)
        self.speeds.append(REFERENCE_PROBE_S / (end - t))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        if not self.times:
            self._probe()

    def speed(self, t0: float, t1: float) -> float:
        """Mean speed of the probes within PROBE_WINDOW_S of [t0, t1],
        or of the nearest probe when none is that close."""
        lo = bisect.bisect_left(self.times, t0 - PROBE_WINDOW_S)
        hi = bisect.bisect_right(self.times, t1 + PROBE_WINDOW_S)
        if lo == hi:
            lo = min(lo, len(self.times) - 1)
            hi = lo + 1
        window = self.speeds[lo:hi]
        return sum(window) / len(window)


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--iteration", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--reference", required=True, help="reference digests (JSON)")
    parser.add_argument("--spans", default=None, help="where a traced run writes its spans")
    args = parser.parse_args()

    probe = SpeedProbe()
    probe.start()
    start = time.perf_counter()
    import schuralg
    import workloads

    requests = workloads.make_requests(args.workload, args.seed, args.iteration, args.size)
    setup_end = time.perf_counter()

    tracer = caches = None
    if args.trace:
        import tracer as tracer_mod

        caches = tracer_mod.find_caches(schuralg)
        tracer = tracer_mod.Tracer(schuralg)
        tracer.install()

    results = []
    intervals = []
    clock = time.perf_counter
    run_start = clock()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.run_id = i
        t = clock()
        results.append(req.call())
        intervals.append((t, clock()))
    run_end = clock()
    probe.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        tracer.uninstall()

    reference = json.loads(Path(args.reference).read_text()).get(args.size, {}).get(args.workload, {})
    ops = []
    stdout_bytes = 0
    for req, result in zip(requests, results):
        verdict = req.check(result)
        stdout_bytes += verdict.stdout_bytes
        if verdict.failure is None and verdict.digest is not None:
            expected = reference.get(req.key)
            if expected is None:
                verdict.failure, verdict.kind = "no reference digest", "wrong"
            elif expected != verdict.digest:
                verdict.failure, verdict.kind = "digest differs from the reference", "wrong"
        ops.append(
            {
                "key": req.key,
                "digest": verdict.digest,
                "failure": verdict.failure,
                "kind": verdict.kind,
                "malformed": req.malformed,
            }
        )

    wall_s = run_end - run_start
    speed = probe.speed(run_start, run_end)
    out = {
        "speed": speed,
        "setup_s": setup_end - start,
        "wall_s": wall_s,
        "setup_ref_s": (setup_end - start) * probe.speed(start, setup_end),
        "wall_ref_s": wall_s * speed,
        "latencies_ref_ms": [(t1 - t0) * 1000 * probe.speed(t0, t1) for t0, t1 in intervals],
        "peak_rss_mb": peak_rss_mb,
        "ops": ops,
    }
    if tracer is not None:
        layers = tracer.metrics()
        layers.update(tracer_mod.read_caches(caches))
        layers["cli.stdout_bytes"] = stdout_bytes
        layers["trace.wall_s"] = wall_s
        out["layers"] = layers
        out["caches"] = sorted(caches)
        if args.spans:
            tracer.dump(args.spans)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
