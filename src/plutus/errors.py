"""Exception types shared across the package.

Every error that carries a vertex (or vertex set) witness exposes it as a
``witness`` attribute so callers can report or replay it.
"""

from __future__ import annotations


class PlutusError(Exception):
    """Base class for all package errors."""


class GraphInputError(PlutusError, ValueError):
    """Malformed construction input: bad ids, bad coordinates, bad JSON,
    or a violated operation precondition."""


class SelfLoopError(GraphInputError):
    """An edge (v, v) was supplied."""


class EmptyGraphError(PlutusError):
    """An operation that needs at least one node received an empty graph."""


class DisconnectedInputError(PlutusError):
    """The (induced) graph is disconnected where connectivity is required."""


class GraphNotMConnectedError(PlutusError):
    """Preflight failure: the input graph is not m-connected, so no
    m-connected backbone can exist inside it."""

    def __init__(self, m: int) -> None:
        super().__init__(f"input graph is not {m}-connected")
        self.m = m


class Infeasible2ConnectivityError(PlutusError):
    """No augmenting path exists to 2-connect the backbone.  ``witness``
    is the whole backbone when nothing remains to promote, else the lone
    member with no neighbour, the pair with no second route, or the stuck
    leaf block."""

    def __init__(self, witness: tuple[int, ...]) -> None:
        super().__init__(f"cannot 2-connect backbone; stuck at {sorted(witness)}")
        self.witness = tuple(sorted(witness))


class Infeasible3ConnectivityError(PlutusError):
    """No augmenting path exists to repair a bad point.  ``witness`` is
    the irreparable bad point."""

    def __init__(self, witness: int) -> None:
        super().__init__(f"cannot 3-connect backbone; bad point {witness} is stuck")
        self.witness = witness


class IterationCapExceededError(PlutusError):
    """An augmentation loop ran past its safety cap."""

    def __init__(self, phase: str, cap: int) -> None:
        super().__init__(f"{phase} exceeded the augmentation cap of {cap} iterations")
        self.phase = phase
        self.cap = cap


class OracleSizeError(PlutusError):
    """The exhaustive oracle was asked for a graph above its node limit."""

    def __init__(self, n: int, limit: int) -> None:
        super().__init__(f"oracle limited to {limit} nodes, got {n}")
        self.n = n
        self.limit = limit
