"""Typed exceptions raised by the library.

Every error raised on purpose derives from GftDualError so callers (and the
CLI) can distinguish library failures from programming mistakes.
"""


class GftDualError(Exception):
    """Base class for all library errors.

    line_number is the 1-based line of the input text at fault, or None
    when the error does not come from a line of an input file.
    """

    line_number = None


# ---------------------------------------------------------------- graphs


class IndexOutOfRangeError(GftDualError):
    """A vertex index or count is not an integer or falls outside its
    range (0..n-1 for an index), or a permutation is not a bijection."""


class SelfLoopError(GftDualError):
    """An edge connects a vertex to itself."""


class DuplicateEdgeError(GftDualError):
    """The same vertex pair appears twice in an edge list."""


class NonPositiveWeightError(GftDualError):
    """An edge weight is zero, negative or not finite."""


class OffsetOutOfRangeError(GftDualError):
    """A circulant offset is not an integer or falls outside 1..n//2."""


class ParseError(GftDualError):
    """A graph file could not be parsed. Carries the 1-based line number."""

    def __init__(self, message: str, line_number: int):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class SizeMismatchError(GftDualError):
    """An input has the wrong shape (a matrix that must be square is not,
    for one) or is not real where it must be, or two inputs that must
    share a dimension do not."""


# -------------------------------------------------------------- numerics


class ConvergenceFailure(GftDualError):
    """The LAPACK symmetric eigensolver did not converge."""


class NonFiniteEntryError(GftDualError):
    """A matrix or vector argument contains NaN or infinity."""


class NumericalBreakdown(GftDualError):
    """The LP solver stopped without an answer, the bound's feasibility
    repair could not certify its iterate, or the bound overflows to a
    value that is not finite."""


class NonOrthogonalInputError(GftDualError):
    """A matrix that must be orthogonal fails the orthogonality check."""


class NonUnitPhaseError(GftDualError):
    """A phase vector holds an entry that is not finite or not of modulus 1."""


class RepeatedEigenvaluesError(GftDualError):
    """A spectrum is too degenerate for phase/permutation alignment.

    Carries the smallest consecutive eigenvalue gap that was observed.
    """

    def __init__(self, message: str, min_gap: float):
        super().__init__(message)
        self.min_gap = min_gap


class NotCirculantError(GftDualError):
    """An adjacency matrix is not circulant."""


class ResampleCapExceeded(GftDualError):
    """Too many sampled graph pairs were rejected in a row."""


class EmptyInputError(GftDualError):
    """A non-empty collection was required."""
