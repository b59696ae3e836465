"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
violated mathematical invariants exit 2, numerical breakdown exits 3.
"""


class QcregError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(QcregError):
    """Bad configuration input: unknown keys, unparsable subjects, empty grids."""


class FieldValidationError(QcregError):
    """A coefficient field violates its declared bound (|mu| or ellipticity)."""


class InvariantViolationError(QcregError):
    """A mathematical invariant failed beyond tolerance (e.g. roundness sup > 1)."""


class NumericalError(QcregError):
    """Numerical breakdown: non-finite values, degenerate images, oracle mismatch.

    `circle` is the circle it happened on, when one circle is to blame.
    """

    def __init__(self, message: str = "", circle=None):
        super().__init__(message)
        self.circle = circle


class SingularPointError(NumericalError):
    """Evaluation requested at or too close to a singular point of a map."""


class OrientationError(NumericalError):
    """Negative Jacobian encountered: the map is not orientation-preserving there."""
