"""Physics-guided inductive spatiotemporal kriging for sparse sensor networks."""

__version__ = "0.1.0"

# the testbed's scenario presets, named here so that the CLI can list them
# without loading the testbed
PRESET_NAMES = ("s1-advection", "aod-ideal", "aod-missing", "aod-conflict", "aod-biased")


class DataError(Exception):
    """Root of every error fixed by correcting an input file or setting (exit 2)."""


class NumericFailure(Exception):
    """Root of every error raised when a computation goes non-finite (exit 3)."""
