"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration or input: a schedule exponent out of range, a
    malformed config file, an unwritable output path, a response subset whose
    link constants are infinite, a response outside a link inverse's domain,
    a ratio check with too few samples per bin, or parameters inconsistent
    with the chosen regime."""


class SingularGramError(ArithmeticError):
    """The design is rank deficient, has fewer rows than d, or its condition
    number exceeds the cap; the instance is too small or the covariates are
    degenerate."""
