"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: schedule exponent out of range, malformed config file,
    unwritable output path, or parameters inconsistent with the chosen regime."""


class LinkDomainError(ValueError):
    """An argument left the domain of a link-function inverse (e.g. |a| >= 1 for the
    logistic mean inverse, a <= 0 for the Poisson one)."""


class InvalidPolytopeError(ValueError):
    """The chosen response-mean subset makes one of the link constants infinite or
    leaves an empty intersection with the clipped response range."""


class SingularGramError(ArithmeticError):
    """Gram matrix condition number exceeds the configured cap; the instance is too
    small or the covariates are degenerate."""


class InsufficientMassError(RuntimeError):
    """Too many histogram bins hold fewer samples than the estimability floor, so the
    ratio test cannot be evaluated."""


class NonConvergenceError(RuntimeError):
    """A bracketing or bisection search failed to converge within its iteration cap."""


class PartitionTooSmallError(ValueError):
    """A mechanism group ended up with fewer rows than the parameter dimension."""
