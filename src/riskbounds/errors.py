"""Exception types shared across the package."""


class RiskboundsError(Exception):
    """Base class for all package-specific errors."""


class NonPositiveAlpha(RiskboundsError, ValueError):
    """Order parameter must be strictly positive."""


class AlphaOne(RiskboundsError, ValueError):
    """Order 1 is excluded; use the KL / mutual-information routines."""


class AlphaAtMostOne(RiskboundsError, ValueError):
    """Operation requires an order strictly greater than 1."""


class QuadratureFailure(RiskboundsError, ArithmeticError):
    """Numerical integration did not reach the requested tolerance."""


class EtaOutOfRange(RiskboundsError, ValueError):
    """Contraction coefficient must lie in [0, 1]."""


class LambdaOutOfRange(RiskboundsError, ValueError):
    """Binary-symmetric-channel crossover must lie in [0, 1/2]."""


class ZeroDenominator(RiskboundsError, ZeroDivisionError):
    """Contraction ratio is undefined when the reference divergence is 0."""


class NanValue(RiskboundsError, ValueError):
    """A divergence input or a bound value is NaN."""


class UnsupportedEstimator(RiskboundsError, ValueError):
    """The requested reference estimator is not defined for this model."""


class TooLarge(RiskboundsError, ValueError):
    """Instance exceeds the size limit for brute-force enumeration."""
