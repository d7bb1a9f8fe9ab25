"""Exception types shared across the toolkit."""


class GramsynthError(Exception):
    """Base class for all errors raised by this package."""


class StepLimitExceeded(GramsynthError):
    """The adaptive integrator hit its step budget before reaching t_end."""


class NonFiniteState(GramsynthError):
    """NaN or Inf encountered during integration (blow-up or bad field)."""


class OutOfSpan(GramsynthError):
    """A dense solution was queried outside its time span."""


class UnknownSystem(GramsynthError):
    """Requested benchmark name is not in the catalog."""


class InvalidQuadrature(GramsynthError, ValueError):
    """Simpson rule requested with a node count that is not an odd integer
    >= 3 (a ValueError, so a config that sets one is a config error)."""


class SingularGramian(GramsynthError):
    """Gramian solve failed: the iterate left the coercive feasibility set."""

    def __init__(self, message, residual=None, rel_residual=None):
        super().__init__(message)
        self.residual = residual
        self.rel_residual = rel_residual


class NotFullyActuated(GramsynthError):
    """Operation requires a square, invertible input matrix."""


class ConfigError(GramsynthError):
    """Experiment configuration failed validation."""
