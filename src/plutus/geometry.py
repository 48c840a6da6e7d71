"""Unit-disk instances and their seeded, counter-based point generator.

The generator is SplitMix64 used in counter mode, so any language can
reproduce a corpus bit-for-bit from ``(n, radius, seed)`` alone:

    out(seed, i) = mix64((seed + (i + 1) * 0x9E3779B97F4A7C15) mod 2^64)

where ``mix64`` is the standard SplitMix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

(all arithmetic mod 2^64).  ``out(seed, i)`` equals the (i+1)-th output of
the conventional stateful SplitMix64 seeded with ``seed``.  A 64-bit output
is mapped to a double in [0, 1) by taking its top 53 bits over 2^53.  Point
``p`` of an instance uses counters ``2p`` (x) and ``2p + 1`` (y).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphInputError
from .graph import Graph, _check_node_count, _finite_real, _is_int, from_points

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_DOUBLE_SCALE = 1.0 / (1 << 53)


def splitmix64(seed: int, index: int) -> int:
    """The ``index``-th 64-bit SplitMix64 output for ``seed`` (counter mode)."""
    z = (seed + (index + 1) * _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def unit_interval(seed: int, index: int) -> float:
    """Deterministic double in [0, 1): top 53 bits of :func:`splitmix64`."""
    return (splitmix64(seed, index) >> 11) * _DOUBLE_SCALE


@dataclass(frozen=True)
class UdgInstance:
    """A unit-disk graph instance: plane points plus a communication radius.

    The induced edge set is pairs at euclidean distance <= radius (closed
    disk); :meth:`graph` materialises it.
    """

    points: tuple[tuple[float, float], ...]
    radius: float

    @property
    def n(self) -> int:
        return len(self.points)

    def graph(self) -> Graph:
        return from_points(self.points, self.radius)


def random_geometric(n: int, radius: float, seed: int) -> UdgInstance:
    """``n`` points uniform in the unit square from the counter-based
    SplitMix64 stream of ``seed``.  Identical arguments reproduce the
    instance bit-for-bit.  Seeds are taken mod 2^64.  ``n`` may not
    exceed ``graph.NODE_LIMIT``.
    """
    if not _is_int(n) or n < 1:
        raise GraphInputError(f"n must be a positive integer, got {n!r}")
    _check_node_count(n)
    r = _finite_real(radius, "radius")
    if r <= 0:
        raise GraphInputError(f"radius must be positive, got {radius!r}")
    if not _is_int(seed):
        raise GraphInputError(f"seed must be an integer, got {seed!r}")
    s = seed & _MASK64
    points = tuple(
        (unit_interval(s, 2 * i), unit_interval(s, 2 * i + 1)) for i in range(n)
    )
    return UdgInstance(points, r)
