"""Exception hierarchy for the :mod:`repro` package."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class GameError(ReproError):
    """A game rule or position was used inconsistently."""


class IllegalMoveError(GameError):
    """An attempt was made to play a move that the rules forbid."""


class SearchError(ReproError):
    """A search algorithm was configured or invoked incorrectly."""


class SimulationError(ReproError):
    """The discrete-event simulator detected an inconsistent state."""


class DeadlockError(SimulationError):
    """All simulated processors are blocked and no event can fire."""


class WorkerProtocolError(SimulationError):
    """A worker coroutine yielded an operation the engine cannot honor."""


class LockOrderError(SimulationError):
    """Two locks were acquired in both nesting orders (potential deadlock)."""


class VerificationError(ReproError):
    """A :mod:`repro.verify` pass found a violated invariant."""


class ServeError(ReproError):
    """The search service was asked something it cannot honor."""


class WorkerPoolError(ReproError):
    """A worker-process pool lost a worker or was used after shutdown."""
