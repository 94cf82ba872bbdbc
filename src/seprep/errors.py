"""Exception types shared across the package."""


class SeprepError(Exception):
    """Base class for all seprep errors."""


class DomainError(SeprepError, ValueError):
    """Input lies outside the basis family's domain."""


class DegenerateModelError(SeprepError):
    """Model second moment is zero (or numerically indefinite) where positivity is required."""


class DegenerateFactorError(SeprepError):
    """A factor has zero empirical norm on the sample set."""


class ConditioningError(SeprepError):
    """A linear system is singular or rank-deficient beyond recovery."""


class InvariantError(SeprepError):
    """An internal numerical invariant (such as residual monotonicity) was violated."""


class SelectionError(SeprepError):
    """Regularization-parameter or model selection found no finite candidate."""


class PositivityError(SeprepError):
    """Sampled diffusion coefficient or solution violates a positivity requirement."""


class ResolutionError(SeprepError):
    """Discretization too coarse to resolve the requested number of eigenpairs."""


class DatasetFormatError(SeprepError, ValueError):
    """Dataset file violates the CSV contract."""
