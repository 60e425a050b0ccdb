import re
from pathlib import Path

import pytest

from pins import ENTRIES, PINS, TIERS, mismatch, output

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [entry["name"] for entry in ENTRIES if entry["tier"] == "tier1"])
def test_pin(name):
    entry = PINS[name]
    assert mismatch(entry, *output(entry)) is None


def test_every_pin_is_in_the_manifest():
    # a SHA-256 written anywhere else would be a pin the manifest does not hold
    sources = [*sorted((ROOT / "tests").glob("*.py")), ROOT / ".github" / "workflows" / "tests.yml"]
    assert [p.name for p in sources if re.search(r"\b[0-9a-f]{64}\b", p.read_text(encoding="utf-8"))] == []
    assert len(PINS) == len(ENTRIES)
    for entry in ENTRIES:
        assert entry["tier"] in TIERS, entry["name"]
        assert ("argv" in entry) != ("call" in entry), entry["name"]
        assert re.fullmatch(r"[0-9a-f]{64}", entry["sha256"]), entry["name"]
