"""Exception types shared across the package."""


class GraphFormatError(ValueError):
    """Raised when an edge-list file or graph description is malformed."""


class NumericalError(RuntimeError):
    """Raised when a computation fails numerically (breakdown, overflow,
    residue above tolerance).  CLI maps this to exit code 2."""


class ConvergenceError(NumericalError):
    """Raised when an iterative evaluation fails to reach its tolerance."""
