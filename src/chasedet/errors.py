"""Exception types callers are expected to branch on."""


class ConfigError(ValueError):
    """Invalid configuration value (unsupported modulation, bad dimensions, ...)."""


class SingularMatrixError(ArithmeticError):
    """Numerically rank-deficient matrix where full rank is required.

    The Monte Carlo simulator re-raises it with the SNR points and blocks of
    the chunk that met it.
    """


class NotPositiveDefiniteError(ArithmeticError):
    """Cholesky factorization hit a non-positive pivot."""
