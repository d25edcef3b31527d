"""Exception hierarchy shared by the solver modules."""


class ShiftSpecError(Exception):
    """Base class for all library errors."""


class HypothesisError(ShiftSpecError):
    """A solvability/contraction hypothesis is violated by the inputs.

    These are not internal faults: the requested problem is outside the
    regime in which the solvers are defined.  report, when given, is the
    solvability or kernel report that shows the violation.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class ResonantNotSolvable(HypothesisError):
    """Resonant shift with a right-hand side violating the orthogonality
    conditions at the singular frequencies +-sqrt(a)."""


class NotFinite(HypothesisError):
    """Stability constant is infinite: resonant shift with a kernel whose
    transform does not vanish at +-sqrt(a)."""


class ContractionHypothesisFailed(HypothesisError):
    """2*sqrt(pi)*N*l >= 1: the auxiliary map is not a strict contraction."""


class NearSingularGrid(ShiftSpecError):
    """Non-resonant classification but the grid carries near-zero symbol
    values; indicates misclassification or a pathological grid."""


class MaxIterExceeded(ShiftSpecError):
    """Fixed-point iteration exceeded its cap; signals a bug because the
    contraction hypothesis guarantees an a priori iteration bound."""
