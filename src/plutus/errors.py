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
    """The input graph is not m-connected: a diversification or
    sustainability round got stuck.  Its ``witness`` is the stuck set: the
    lone member with no neighbour, the pair with no second route or the
    stuck leaf block at m = 2, and the one-element tuple of the
    irreparable bad point at m = 3.  At k >= m no m-connected k-dominating
    set exists then; at k < m one may still exist."""

    def __init__(self, m: int, witness: tuple[int, ...]) -> None:
        super().__init__(f"input graph is not {m}-connected; stuck at {list(witness)}")
        self.m = m
        self.witness = witness


class OracleSizeError(PlutusError):
    """The exhaustive oracle was asked for a graph above its node limit."""

    def __init__(self, n: int, limit: int) -> None:
        super().__init__(f"oracle limited to {limit} nodes, got {n}")
        self.n = n
        self.limit = limit
