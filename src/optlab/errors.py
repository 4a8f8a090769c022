"""Exception hierarchy shared across the lab."""

__all__ = [
    "OptlabError",
    "LemmaPreconditionError",
    "SingularKernelError",
    "DataGenerationError",
    "AllTrialsDivergedError",
]


class OptlabError(Exception):
    """Base class for all optlab-specific failures."""


class LemmaPreconditionError(OptlabError):
    """A closed-form shortcut was requested for data that does not admit it."""


class SingularKernelError(OptlabError):
    """``X w = y`` has no interpolant: the Gram solve leaves a large residual."""


class DataGenerationError(OptlabError):
    """The synthetic generator exhausted its redraw budget."""


class AllTrialsDivergedError(OptlabError):
    """Every step size in a tuning grid diverged, extensions included."""
