"""Exception types shared across the package: one per nonzero exit code of
the command line (2 to 5).  Every refusal of an argument, whatever its kind
(a range, a shape, a type, a construction's preconditions), is a
ParameterError."""


class ParameterError(ValueError):
    """An argument is outside its documented range, shape or type (exit 2)."""


class TooLargeError(RuntimeError):
    """An enumeration guard was exceeded; nothing was computed (exit 3)."""


class CertificateError(RuntimeError):
    """A non-purity certificate failed one of its own checks (exit 4)."""


class CrossCheckError(RuntimeError):
    """Two independent computation routes disagreed (exit 5)."""
