"""Exception types shared across the package."""


class FtcfdError(Exception):
    """Base class for package errors."""


class ArgumentError(FtcfdError, ValueError):
    """Invalid argument or violated precondition; `curve` is the 0-based row it names."""

    def __init__(self, message, curve=None):
        super().__init__(message)
        self.curve = curve


class ParseError(FtcfdError, ValueError):
    """Malformed input data (CSV)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NumericalError(FtcfdError, RuntimeError):
    """Numerical failure (rank deficiency, degenerate resampling, ...)."""
