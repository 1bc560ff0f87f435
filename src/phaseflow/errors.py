"""Exception types shared across the solver."""


class GeometryError(Exception):
    """Mesh or dual-grid construction failed a geometric precondition."""


class SolverError(Exception):
    """A linear or nonlinear solve did not meet its contract."""


class IterativeFailure(SolverError):
    """Krylov breakdown or iteration budget exhausted; callers may fall back
    to a direct factorization."""


class StepRejected(Exception):
    """A time step could not be completed and should be retried with a
    smaller increment."""


class CflError(StepRejected):
    """Explicit transport step violated the CFL bound."""


class RunAborted(Exception):
    """A run stopped before its end time.  ``result`` holds the steps
    accepted before the failure, so their ledger can still be written; the
    failure itself is the ``__cause__``."""

    def __init__(self, message: str, result):
        super().__init__(message)
        self.result = result


class AuditFailure(RunAborted):
    """The strict energy audit flagged a step."""
