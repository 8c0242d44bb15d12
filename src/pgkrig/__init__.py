"""Physics-guided inductive spatiotemporal kriging for sparse sensor networks."""

__version__ = "0.1.0"


class DataError(Exception):
    """Root of every error fixed by correcting an input file or setting (exit 2)."""


class NumericFailure(Exception):
    """Root of every error raised when a computation goes non-finite (exit 3)."""
