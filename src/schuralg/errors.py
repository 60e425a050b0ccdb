"""Shared exception type and the one work budget."""

# the one budget: tensor-space words, product tables and enumerated
# compositions are each refused above it before any work starts
TENSOR_SPACE_LIMIT = 10 ** 6


class ResourceLimitError(RuntimeError):
    """Raised when a requested computation exceeds the desk-scale bounds.

    The message names the bound that was exceeded, so callers (and the CLI)
    can report exactly why the computation was refused.
    """
