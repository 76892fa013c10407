"""Exception types shared by the solver and enumeration modules."""

from __future__ import annotations

__all__ = ["ConvergenceError", "CapacityError"]


class ConvergenceError(RuntimeError):
    """An iteration hit its cap before its stopping rule held.

    Attributes
    ----------
    last_estimate : the final iterate (scalar or tuple), best value available
    iterations : number of iterations performed before giving up
    history : per-iteration convergence measure, where the solver keeps one
        (the 3D solve records the largest relative update of each sweep)
    """

    def __init__(
        self, message: str, last_estimate=None, iterations: int = 0, history=()
    ):
        super().__init__(message)
        self.last_estimate = last_estimate
        self.iterations = iterations
        self.history = tuple(history)


class CapacityError(RuntimeError):
    """A request passes the work budget of a level enumeration or 3D lattice
    walk, float64 resolution, or the float64 range; its message names which.

    Raised instead of silently truncating the spectrum or returning NaN.
    """
