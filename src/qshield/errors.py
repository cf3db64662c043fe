"""Exception hierarchy.

Three families map onto CLI exit codes: configuration/usage problems
exit 1, data problems exit 2, numerical failures exit 3.
"""


class QShieldError(Exception):
    """Base class for all toolkit errors."""

    exit_code = 1


class ConfigError(QShieldError):
    """Invalid configuration, usage, or construction parameters."""

    exit_code = 1


class DataError(QShieldError):
    """Bad or degenerate input data."""

    exit_code = 2


class NumericalError(QShieldError):
    """Numerical failure: non-convergence, PSD violation, bad pivot."""

    exit_code = 3


class QubitCapError(ConfigError):
    """Qubit count outside the supported range."""


class UnsupportedMethodError(ConfigError):
    """Requested method does not apply to the given model."""


class ShapeError(DataError):
    """Dimension or length mismatch between operands."""


class InvalidInputError(DataError):
    """Input violates a precondition (NaN entries, bad labels, bad fraction)."""


class DegenerateInputError(DataError):
    """Input is empty or numerically degenerate (near-zero norm, one class)."""


class DegenerateOutputError(DataError):
    """An operation would produce an empty or unusable result."""


class IngestionError(DataError):
    """CSV parsing failure; the message carries file location details."""


class ModelFormatError(DataError):
    """Model file unreadable: bad JSON, unknown version, or wrong type."""


class PipelineStageError(QShieldError):
    """Failure inside a named pipeline stage; wraps the causal error."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause
        self.exit_code = getattr(cause, "exit_code", 3)
