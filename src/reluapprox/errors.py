"""Exception hierarchy shared across the package.

Every error is a :class:`ReluApproxError`. The CLI maps each to its exit
code by class: :class:`WrongRegime` exits 3, every :class:`SolverFailure`
exits 4, and every other package error (bad input) exits 2.
"""


class ReluApproxError(Exception):
    """Base class for all package errors."""


class SolverFailure(ReluApproxError):
    """A solver, generator or certificate check could not produce a certified result."""


class MalformedRow(ReluApproxError):
    """A dataset row has the wrong number of fields or unparseable entries."""


class BadLabel(ReluApproxError):
    """A label is not -1 or +1."""


class ZeroSample(ReluApproxError):
    """A sample is the all-zero vector, which makes margin constraints infeasible."""


class GenerationFailed(SolverFailure):
    """Synthetic generation exhausted its rejection budget."""


class WrongRegime(ReluApproxError):
    """The dataset does not classify into the regime the solver requires."""


class SignViolation(ReluApproxError):
    """A dual vector violates the sign condition diag(y) @ lam >= 0."""


class NonConvergence(SolverFailure):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class Infeasible(SolverFailure):
    """A constrained problem has no feasible point."""


class Unbounded(SolverFailure):
    """A maximization problem has unbounded value (non-separable max-margin dual)."""


class FactorizationFailure(SolverFailure):
    """A covariance factorization needed for Gaussian sampling failed."""


class Unrealizable(SolverFailure):
    """No gate vector realizes the requested activation pattern."""


class ZeroDirection(ReluApproxError):
    """A network construction received a zero weight direction."""


class ZeroDenominator(SolverFailure):
    """The geometric ratio has an empty or zero denominator side."""


class DimensionMismatch(ReluApproxError):
    """Network and dataset dimensions are inconsistent."""


class CapExceeded(SolverFailure):
    """An exact enumeration (patterns, zonotope vertices, Max-Cut signs) exceeded its cap."""


class CertificateViolation(SolverFailure):
    """A certificate check failed: weak duality or an exact verification did not hold."""
