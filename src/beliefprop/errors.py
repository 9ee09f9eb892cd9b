"""Exceptions shared across the inference engines."""


class ImpossibleEvidenceError(Exception):
    """The observed evidence has probability zero under the model."""

    def __init__(self, message: str, variable: str | None = None) -> None:
        super().__init__(message)
        self.variable = variable


class ConvergenceError(Exception):
    """Relaxation failed to reach a fixpoint within its iteration budget.

    Must not happen on a valid singly-connected network; reaching this is an
    internal error.  `arc` (parent, child) and `direction` ("pi" or
    "lambda") name the message that moved most in the last sweep, or the
    last one picked, and `residual` how far it moved (max-norm)."""

    def __init__(
        self,
        message: str,
        arc: tuple[str, str] | None = None,
        direction: str | None = None,
        residual: float | None = None,
    ) -> None:
        super().__init__(message)
        self.arc = arc
        self.direction = direction
        self.residual = residual


class SizeError(ValueError):
    """A run would hold more floats than its documented guard allows
    (`plan.RUN_FLOATS_GUARD`); raised before anything that large is
    allocated."""
