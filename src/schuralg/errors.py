"""Shared exception type, the one work budget, and how a refusal prints counts."""

from typing import Callable

# the one budget: tensor-space words, product tables and enumerated
# compositions are each refused above it before any work starts
TENSOR_SPACE_LIMIT = 10 ** 6

# the symmetric-group checks multiply all (r!)^2 pairs of permutations
SYMMETRIC_GROUP_MAX_R = 4


class ResourceLimitError(RuntimeError):
    """Raised when a requested computation exceeds the desk-scale bounds.

    The message names the bound that was exceeded, so callers (and the CLI)
    can report exactly why the computation was refused.
    """


def check_budget(work: int, what: Callable[[], str]) -> None:
    """Refuse work above the budget before it starts: what() names the
    predicted work, and the message adds the limit.  what is called only
    on a refusal, so a guard formats its message only when it refuses."""
    if work > TENSOR_SPACE_LIMIT:
        raise ResourceLimitError(f"{what()}, above the limit {TENSOR_SPACE_LIMIT}")


def count_text(x: int) -> str:
    """x, or "a d-digit number of" from 10^100 on: a refusal never builds
    a decimal string past the interpreter's limit."""
    if x < 10 ** 100:
        return str(x)
    d = int(x.bit_length() * 0.30102)  # below log10(2), so d <= the digit count
    while 10 ** d <= x:
        d += 1
    return f"a {d}-digit number of"
