"""Exception hierarchy shared by all skybps modules."""


class SkybpsError(Exception):
    """Base class for all errors raised by this package."""


class BoundsError(SkybpsError):
    """Coordinate bounds are not ordered, or a margin eats too much of an axis."""


class ResolutionError(SkybpsError):
    """Too few grid points along some axis."""


class GridMismatch(SkybpsError):
    """Two fields that must share a grid do not."""


class DegreeOverflow(SkybpsError):
    """A wedge or pullback would produce a form of degree > 3."""


class SingularMetric(SkybpsError):
    """det(g) <= 0 somewhere a Hodge star is required."""


class NotRiemannian(SkybpsError):
    """A metric that must be positive definite is not."""


class ConstraintViolated(SkybpsError):
    """A structural constraint (trace identity, profile relation) fails."""


class MomentConditionFailed(SkybpsError):
    """The moment-map defining condition or its contraction constraint fails."""


class ChartExit(SkybpsError):
    """A transformed field leaves the target coordinate chart."""


class ParamInconsistent(SkybpsError):
    """Family parameters violate a compatibility relation."""


class NormalizationFailed(SkybpsError):
    """A construction-time normalization identity fails beyond tolerance."""


class NonFinite(SkybpsError):
    """A field holds a NaN or an infinity."""


class ConfigError(SkybpsError):
    """A run configuration is malformed (CLI exit code 2)."""
