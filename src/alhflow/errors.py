"""Exception types shared by the toolkit modules."""

__all__ = ["DomainError", "HypothesesNotMet", "ConfigError", "NumericalError",
           "FlowError", "ExtractionError"]


class DomainError(ValueError):
    """An input lies outside the mathematical domain of an operation."""


class HypothesesNotMet(DomainError):
    """A check was invoked with its stated hypotheses violated.

    Raised so that a failed precondition is never confused with a failed
    inequality.
    """


class ConfigError(ValueError):
    """A scenario configuration failed validation."""


class NumericalError(RuntimeError):
    """A numerical procedure failed to converge or lost accuracy."""


class FlowError(NumericalError):
    """Inverse mean curvature flow left its validity region."""


class ExtractionError(NumericalError):
    """An asymptotic extrapolation did not settle to tolerance."""
