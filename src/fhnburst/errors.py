"""Exception types shared across the toolkit."""


class FhnBurstError(Exception):
    """Base class for all toolkit errors."""


class DomainError(FhnBurstError, ValueError):
    """Inputs outside the mathematical domain of a closed-form expression."""


class SaddleNodeBoundary(FhnBurstError):
    """Forcing amplitude within tolerance of a folded saddle-node threshold."""


class NewtonDiverged(FhnBurstError):
    """A manifold coefficient solve missed its residual tolerance
    (`perfbench/reference/atlas.npz` records it by this name)."""


class NoSaddle(FhnBurstError):
    """No folded saddle exists for the given parameters."""


class OutOfValidity(FhnBurstError, ValueError):
    """Evaluation requested outside the local validity window of a series."""


class NoIntersection(FhnBurstError):
    """A root was not found inside the search window."""


class NoPassage(FhnBurstError):
    """Trajectory never passes the requested phase plane, or the passage is inconclusive."""


class NoFirstSpike(FhnBurstError):
    """Trajectory has no spike, so the first-return phase is undefined."""


class IncompleteGrid(FhnBurstError):
    """Sweep grid still has pending cells."""


class WorkerDied(FhnBurstError):
    """A sweep worker process died, so its pool could not finish the sweep."""


class OutOfRange(FhnBurstError, ValueError):
    """Dense-output evaluation outside the integrated time span."""


class IntegrationError(FhnBurstError):
    """Integration aborted; the partial trajectory is attached when available."""

    def __init__(self, message, trajectory=None):
        super().__init__(message)
        self.trajectory = trajectory


class StepSizeUnderflow(IntegrationError):
    """Adaptive step size collapsed below the resolvable limit."""


class MaxStepsExceeded(IntegrationError):
    """Step budget exhausted before reaching the end of the time span."""


class NonFiniteState(IntegrationError):
    """The right-hand side or state became non-finite and could not recover."""
