"""Exception hierarchy shared across the package.

CLI exit codes: argument errors (ValueError, bad flags) exit 2, data errors
exit 3, convergence errors exit 4.
"""


class EdgeSignError(Exception):
    """Base class for package-specific errors."""


class DataError(EdgeSignError):
    """Input data violates a structural requirement (shape, coverage, format)."""


class EdgeListParseError(DataError):
    """Malformed edge-list record; carries the 1-based line number."""

    def __init__(self, line_number, message):
        self.line_number = line_number
        super().__init__(f"line {line_number}: {message}")


class DegenerateFitError(DataError):
    """Training data cannot identify the model (e.g. single-class labels)."""


class ConvergenceError(EdgeSignError):
    """Iterative solver exhausted its budget; carries the best state found."""

    def __init__(self, message, state=None):
        self.state = state
        super().__init__(message)


class ProtocolError(EdgeSignError):
    """Online prediction protocol violated (repeat reveal, update before predict)."""
