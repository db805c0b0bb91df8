"""Exception and warning types shared across the package."""


class SteinKitError(Exception):
    """Base class for all steinkit errors."""


class SpecError(SteinKitError):
    """Malformed or invalid distribution specification."""


class ExistenceError(SteinKitError):
    """No Stein kernel exists for the requested distribution.

    Carries the :class:`~steinkit.kernels.ExistenceReport` that triggered
    the failure, when available.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class DegenerateError(SteinKitError):
    """Operation undefined for a point mass (zero variance)."""


class NumericsError(SteinKitError):
    """A numerical routine could not meet its accuracy contract."""


class IntegrationWarning(UserWarning):
    """An adaptive quadrature stopped at its subdivision limit before its
    error estimate met the tolerance; the best value is still returned."""
