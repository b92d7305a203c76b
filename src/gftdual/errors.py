"""Typed exceptions raised by the library.

Every error raised on purpose derives from GftDualError so callers (and the
CLI) can distinguish library failures from programming mistakes.
"""


class GftDualError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- graphs


class IndexOutOfRangeError(GftDualError):
    """A vertex index falls outside 0..n-1."""


class SelfLoopError(GftDualError):
    """An edge connects a vertex to itself."""


class DuplicateEdgeError(GftDualError):
    """The same vertex pair appears twice in an edge list."""


class NonPositiveWeightError(GftDualError):
    """An edge weight is zero or negative."""


class OffsetOutOfRangeError(GftDualError):
    """A circulant offset falls outside 1..n//2."""


class ParseError(GftDualError):
    """A graph file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SizeMismatchError(GftDualError):
    """Two inputs that must share a dimension do not."""


# -------------------------------------------------------------- numerics


class ConvergenceFailure(GftDualError):
    """The LAPACK symmetric eigensolver did not converge."""


class NotSquareError(GftDualError):
    """A matrix argument is not square."""


class NonFiniteEntryError(GftDualError):
    """A matrix or vector argument contains NaN or infinity."""


class TooLargeError(GftDualError):
    """An input exceeds the size limit of an exhaustive routine."""


class NumericalBreakdown(GftDualError):
    """The LP solver stopped without an answer, or the bound's feasibility
    repair could not certify its iterate."""


class NonOrthogonalInputError(GftDualError):
    """A matrix that must be orthogonal fails the orthogonality check."""


class RepeatedEigenvaluesError(GftDualError):
    """A spectrum is too degenerate for phase/permutation alignment.

    Carries the smallest consecutive eigenvalue gap that was observed.
    """

    def __init__(self, message: str, min_gap: float):
        super().__init__(message)
        self.min_gap = min_gap


class NotCirculantError(GftDualError):
    """An adjacency matrix is not circulant."""


class IterationCapExceeded(GftDualError):
    """A cut or iteration budget was exhausted before convergence."""


class ResampleCapExceeded(GftDualError):
    """Too many sampled graph pairs were rejected in a row."""


class EmptyInputError(GftDualError):
    """A non-empty collection was required."""
