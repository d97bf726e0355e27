"""Exception types shared across the package."""


class NotPrimePowerError(ValueError):
    """Requested field size is not a prime power."""


class ParameterError(ValueError):
    """A parameter is outside its documented range."""


class DimensionMismatchError(ValueError):
    """Matrix or vector shapes are incompatible."""


class PreconditionError(ValueError):
    """A construction's mathematical preconditions do not hold."""


class TooLargeError(RuntimeError):
    """An enumeration guard was exceeded; nothing was computed."""


class CertificateError(RuntimeError):
    """A non-purity certificate failed one of its own checks."""


class CrossCheckError(RuntimeError):
    """Two independent computation routes disagreed."""
