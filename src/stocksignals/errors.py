"""Exception hierarchy for the pipeline.

The three branches map onto CLI exit codes: UsageError -> 1,
DataError -> 2, NumericError -> 3, and code raises a branch directly. A
subclass exists only when some code catches it by name: the five below are
the errors on which `evaluate --by-sector` skips a sector.
"""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class UsageError(PipelineError):
    """Invalid flag, option value, or configuration."""


class DataError(PipelineError):
    """Input data is malformed, inconsistent, or insufficient."""


class NumericError(PipelineError):
    """A numeric kernel failed to produce a usable result."""


class EmptyDataset(DataError):
    """An operation received no rows."""


class TooFewRows(DataError):
    """Not enough rows to fit (need at least two)."""


class EmptyTraining(DataError):
    """A classifier was fitted with no training rows."""


class KTooLarge(UsageError):
    """k exceeds what the data can support."""


class NoEvaluableHorizon(DataError):
    """No horizon had labeled rows on both sides of the split."""
