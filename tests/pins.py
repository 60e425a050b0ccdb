"""The output pins of pins.json, and a runner for them.

Each entry pins one output by its SHA-256, and by its byte length where
one was recorded.  The output is either the stdout of a CLI argv, run in
process through schuralg.cli.main, or the result of a call, a dotted
function name with keyword arguments, hashed as
json.dumps(result.to_json(), sort_keys=True) (a result that is already
JSON is dumped as it is).  An entry's tier is tier1, run by
test_pins.py, or ci: a run too slow for tier-1, or an entry that a test
of its own checks in tier-1 (from the payload it builds, or in a child
under limits), so that tier-1 runs it once.

    PYTHONPATH=src python tests/pins.py TIER...

checks every entry of the given tiers, prints each mismatch, and exits 1
if there is one.
"""

import hashlib
import importlib
import io
import json
import os
import resource
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from schuralg import cli

TIERS = ("tier1", "ci")
ENTRIES = json.loads(Path(__file__).with_name("pins.json").read_text(encoding="utf-8"))
PINS = {entry["name"]: entry for entry in ENTRIES}
SRC = Path(__file__).resolve().parents[1] / "src"


def output(entry) -> tuple[int, bytes]:
    """The entry's exit code (0 for a call) and output bytes."""
    if "argv" in entry:
        out = io.StringIO()
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            code = cli.main(entry["argv"])
        return code, out.getvalue().encode()
    module, _, name = entry["call"].rpartition(".")
    result = getattr(importlib.import_module(module), name)(**entry.get("kwargs", {}))
    payload = result.to_json() if hasattr(result, "to_json") else result
    return 0, json.dumps(payload, sort_keys=True).encode()


def mismatch(entry, code: int, data: bytes) -> str | None:
    """None when the exit code is 0 and the bytes are the pinned ones, else
    a line that names the entry and what it got."""
    digest = hashlib.sha256(data).hexdigest()
    if code == 0 and digest == entry["sha256"] and len(data) == entry.get("bytes", len(data)):
        return None
    return f"{entry['name']}: exit {code}, {digest}, {len(data)} B; pinned {entry['sha256']}, {entry.get('bytes', '?')} B"


def run_limited(argv, cpu_seconds: int, memory_mb: int) -> subprocess.CompletedProcess:
    """`python -m schuralg.cli argv` in a child process whose own CPU time
    and address space are capped (RLIMIT_CPU and RLIMIT_AS, set in the
    child before it starts); a child over its CPU limit is killed."""
    def limit():
        resource.setrlimit(resource.RLIMIT_CPU, (cpu_seconds, cpu_seconds))
        resource.setrlimit(resource.RLIMIT_AS, (memory_mb << 20, memory_mb << 20))

    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "schuralg.cli", *argv], capture_output=True,
                          preexec_fn=limit, env={**os.environ, "PYTHONPATH": path})


def main(tiers) -> int:
    if not tiers or set(tiers) - set(TIERS):
        print(f"usage: python tests/pins.py TIER..., TIER one of {', '.join(TIERS)}", file=sys.stderr)
        return 2
    checked = [entry for entry in ENTRIES if entry["tier"] in tiers]
    failed = [line for entry in checked if (line := mismatch(entry, *output(entry)))]
    print(*failed, f"{len(checked)} pins checked, {len(failed)} mismatched", sep="\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
