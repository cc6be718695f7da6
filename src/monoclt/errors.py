"""Exception hierarchy shared across the package."""


class MonocltError(Exception):
    """Base class for all package errors."""


class DomainError(MonocltError):
    """Input outside the mathematical domain of an operation (e.g. Im z <= 0)."""


class NumericBreakdown(MonocltError):
    """An intermediate value left the upper half-plane beyond tolerance.

    Signals a representation bug, not a legal state.
    """


class DegenerateMeasure(MonocltError):
    """Operation requires a nondegenerate measure but got a point mass."""


class CapacityExceeded(MonocltError):
    """Atom count exceeded the configured cap even after pruning."""


class NonConvergence(MonocltError):
    """Fixed-point iteration hit the step cap; raise Im z (or eta) and retry."""


class CoverageError(MonocltError):
    """Too much mass outside the comparison grid for a CDF-distance call."""


class PoleProximity(MonocltError):
    """Evaluation point is numerically on a pole of a boundary map."""
