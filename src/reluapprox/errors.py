"""Exception hierarchy shared across the package."""


class ReluApproxError(Exception):
    """Base class for all package errors."""


class MalformedRow(ReluApproxError):
    """A dataset row has the wrong number of fields or unparseable entries."""


class BadLabel(ReluApproxError):
    """A label is not -1 or +1."""


class ZeroSample(ReluApproxError):
    """A sample is the all-zero vector, which makes margin constraints infeasible."""


class GenerationFailed(ReluApproxError):
    """Synthetic generation exhausted its rejection budget."""


class WrongRegime(ReluApproxError):
    """The dataset does not classify into the regime the solver requires."""


class TooLarge(ReluApproxError):
    """Problem size exceeds the exact-enumeration cap."""


class SignViolation(ReluApproxError):
    """A dual vector violates the sign condition diag(y) @ lam >= 0."""


class NonConvergence(ReluApproxError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class Infeasible(ReluApproxError):
    """A constrained problem has no feasible point."""


class Unbounded(ReluApproxError):
    """A maximization problem has unbounded value (non-separable max-margin dual)."""


class FactorizationFailure(ReluApproxError):
    """A covariance factorization needed for Gaussian sampling failed."""


class Unrealizable(ReluApproxError):
    """No gate vector realizes the requested activation pattern."""


class ZeroDirection(ReluApproxError):
    """A network construction received a zero weight direction."""


class ZeroDenominator(ReluApproxError):
    """The geometric ratio has an empty or zero denominator side."""


class DimensionMismatch(ReluApproxError):
    """Network and dataset dimensions are inconsistent."""


class CapExceeded(ReluApproxError):
    """Activation-pattern enumeration exceeded its cap."""


class CertificateViolation(ReluApproxError):
    """A certificate check failed: weak duality or an exact verification did not hold."""
