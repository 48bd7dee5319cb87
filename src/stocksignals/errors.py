"""Exception hierarchy for the pipeline.

The three branches map onto CLI exit codes: UsageError -> 1,
DataError -> 2, NumericError -> 3.
"""


class PipelineError(Exception):
    """Base class for every error raised by this package."""


class UsageError(PipelineError):
    """Invalid flag, option value, or configuration."""


class DataError(PipelineError):
    """Input data is malformed, inconsistent, or insufficient."""


class NumericError(PipelineError):
    """A numeric kernel failed to produce a usable result."""


# --- ingest ---------------------------------------------------------------

class EmptyInput(DataError):
    """The input stream has no header row."""


class SchemaError(DataError):
    """A required column is absent from the header."""


class MalformedRow(DataError):
    """A data row has the wrong column count or an unreadable date."""


class AllRowsDropped(DataError):
    """Null-policy cleaning removed every row."""


class DuplicateKey(DataError):
    """The same (ticker, date) pair appears twice."""


class SectorConflict(DataError):
    """One ticker is mapped to two different sectors."""


# --- transform ------------------------------------------------------------

class WindowTooSmall(UsageError):
    """Rolling window needs at least two observations."""


class EmptySeries(DataError):
    """A ticker series has no rows."""


class InvalidFraction(UsageError):
    """Train fraction must lie strictly between 0 and 1."""


class EmptyDataset(DataError):
    """An operation received no rows."""


class TooFewRows(DataError):
    """Not enough rows to fit (need at least two)."""


class DimensionMismatch(DataError):
    """Vector width differs from the fitted width."""


# --- classifiers ----------------------------------------------------------

class EmptyTraining(DataError):
    """A classifier was fitted with no training rows."""


class KTooLarge(UsageError):
    """k exceeds what the data can support."""


# --- evaluation -----------------------------------------------------------

class LengthMismatch(DataError):
    """Paired label sequences have different lengths."""


class NoEvaluableHorizon(DataError):
    """No horizon had labeled rows on both sides of the split."""


# --- pca ------------------------------------------------------------------

class NotSymmetric(NumericError):
    """Eigensolver input is not symmetric within tolerance."""


class NoConvergence(NumericError):
    """Jacobi sweeps did not reach the off-diagonal tolerance."""


class ZeroTotalVariance(NumericError):
    """Eigenvalue total is zero; variance ratios are undefined."""


# --- backtest -------------------------------------------------------------

class MisalignedSeries(DataError):
    """Date, close and signal columns differ in length, or dates do not ascend."""


class NonPositiveInitialPrice(DataError):
    """Return percentage needs a positive initial price."""
