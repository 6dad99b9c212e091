"""Exception types shared across the planning toolkit."""


class PlanError(Exception):
    """Base class for toolkit errors."""


class GeometryError(PlanError):
    """Raised for degenerate geometry, e.g. coincident endpoints."""


class VenueFormatError(PlanError, ValueError):
    """Raised when an input file or object breaks the rules of ``inputs``."""


class DeploymentValidationError(PlanError):
    """Raised when a deployment violates structural constraints.

    ``violations`` holds one human-readable string per violated constraint.
    """

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations or [])


class InfeasibleError(PlanError):
    """Raised when a solver cannot reach the requested network coverage.

    ``partial`` carries the best deployment found before giving up (may be
    None for the exact solver). ``diagnostics`` is a dict settable by the
    solver: target, achieved coverage, and why the search stopped.
    """

    def __init__(self, message, partial=None, diagnostics=None):
        super().__init__(message)
        self.partial = partial
        self.diagnostics = dict(diagnostics or {})


class SizeLimitError(PlanError):
    """Raised when an instance exceeds the exact solver's size guard."""

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = dict(report or {})
