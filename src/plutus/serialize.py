"""JSON and DOT serialisation.

Graph files carry either an explicit edge list or a unit-disk instance
(points plus radius, edges derived); the two are mutually exclusive.  All
writers emit stable key order and two-space indentation, so re-serialising
identical values is byte-identical.

Every JSON file is exactly ``json.dumps(payload, indent=2) + "\n"``.  On
CPython 3.13 and later ``dumps`` is that call.  Before 3.13, json takes its
C encoder only when ``indent`` is None and indents in pure Python, so
``dumps`` uses the writer below instead.  It writes the values Plutus's
payloads hold, and the shapes that carry the bytes (a list of plain
finite numbers, a list of equal-width rows of them, a map of strings to
strings) in one C-level join each; every other value is json's own text.
"""

from __future__ import annotations

import json
import math
import sys
from itertools import chain, starmap
from json.encoder import encode_basestring_ascii as _encode
from pathlib import Path
from typing import Any, Iterable, Mapping

from .errors import GraphInputError
from .geometry import UdgInstance
from .graph import Graph, _as_subset, _is_int, from_edge_list, from_points
from .pipeline import PlutusConfig, PlutusResult, Role
from .verify import OracleResult, VerificationReport

SCHEMA_VERSION = 1

_NUMBERS = frozenset((int, float))
_SEQUENCES = frozenset((list, tuple))
_STRINGS = frozenset((str,))


def _packed_list(values: list | tuple, level: int) -> str | None:
    """The text of a non-empty list of plain finite numbers, or of
    equal-width non-empty rows of them; None for any other list."""
    kinds = set(map(type, values))
    outer = "\n" + "  " * level
    inner = outer + "  "
    if kinds <= _NUMBERS:
        body = ("," + inner).join(map(repr, values))
    elif (
        kinds <= _SEQUENCES
        and len(widths := set(map(len, values))) == 1
        and 0 not in widths
        and set(map(type, chain.from_iterable(values))) <= _NUMBERS
    ):
        cell = inner + "  "
        row = "[" + cell + ("," + cell).join(["{!r}"] * widths.pop()) + inner + "]"
        body = ("," + inner).join(starmap(row.format, values))
    else:
        return None
    # repr writes nan and inf where json writes NaN and Infinity; the repr
    # of a plain int or finite float never holds an "n".
    if "n" in body:
        return None
    return "[" + inner + body + outer + "]"


def _write(value: Any, level: int, markers: set[int]) -> str:
    """``value`` as json writes it with indent=2 at nesting depth ``level``.
    The writer writes what Plutus's payloads hold: plain strings, ints,
    finite floats, booleans and None, lists and tuples, and dicts whose
    keys are plain strings.  Every other value is json's own text.
    ``markers`` holds the ids of the containers being written, as json's
    circular-reference check does."""
    kind = type(value)
    if kind is str:
        return _encode(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if kind is int or (kind is float and math.isfinite(value)):
        return repr(value)
    outer = "\n" + "  " * level
    inner = outer + "  "
    if kind in _SEQUENCES:
        if not value:
            return "[]"
        if text := _packed_list(value, level):
            return text
        brackets = "[]"
    elif kind is dict and set(map(type, value)) <= _STRINGS:
        if not value:
            return "{}"
        brackets = "{}"
    else:
        # json escapes every newline inside a string, so each newline of
        # its text starts a line
        return json.dumps(value, indent=2).replace("\n", outer)
    if id(value) in markers:
        raise ValueError("Circular reference detected")
    markers.add(id(value))
    if kind is not dict:
        items = [_write(item, level + 1, markers) for item in value]
    elif set(map(type, value.values())) <= _STRINGS:
        items = map(": ".join, zip(map(_encode, value), map(_encode, value.values())))
    else:
        items = [
            _encode(key) + ": " + _write(item, level + 1, markers) for key, item in value.items()
        ]
    markers.remove(id(value))
    return brackets[0] + inner + ("," + inner).join(items) + outer + brackets[1]


def _json_text(value: Any) -> str:
    """``json.dumps(value, indent=2)``, without json's pure-Python encoder."""
    return _write(value, 0, set())


if sys.version_info >= (3, 13):
    # json indents in C from 3.13 on and is faster than the writer above;
    # delete the writer when requires-python reaches 3.13.
    def dumps(payload: Mapping[str, Any]) -> str:
        return json.dumps(payload, indent=2) + "\n"

else:

    def dumps(payload: Mapping[str, Any]) -> str:
        return _json_text(payload) + "\n"


def write_json(path: str | Path, payload: Mapping[str, Any]) -> None:
    Path(path).write_text(dumps(payload), encoding="utf-8")


def read_json(path: str | Path) -> Any:
    """Parse a JSON file.  Text that is not UTF-8, not JSON, nested too
    deeply for the parser or holding an integer too long to convert is an
    input error."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise GraphInputError(f"invalid JSON in {path}: {exc}") from exc


def udg_to_dict(instance: UdgInstance) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "n": instance.n,
        "points": [[x, y] for x, y in instance.points],
        "radius": instance.radius,
    }


def _check_schema(payload: dict) -> None:
    """A missing schema is accepted (hand-written files omit it)."""
    schema = payload.get("schema", SCHEMA_VERSION)
    if not (_is_int(schema) and schema == SCHEMA_VERSION):
        raise GraphInputError(f"unsupported schema {schema!r}, expected {SCHEMA_VERSION}")


def graph_from_dict(payload: Any) -> tuple[Graph, UdgInstance | None]:
    """Parse a graph file: returns the graph and, for unit-disk files, the
    underlying instance.  Values are never coerced: node ids and ``n`` must
    be ints, coordinates and the radius real numbers."""
    if not isinstance(payload, dict):
        raise GraphInputError("graph JSON must be an object")
    _check_schema(payload)
    if "points" in payload or "radius" in payload:
        if "edges" in payload:
            raise GraphInputError("edges must be absent when points are given")
        if "points" not in payload or "radius" not in payload:
            raise GraphInputError("points and radius must be given together")
        points = payload["points"]
        if not isinstance(points, list):
            raise GraphInputError("points must be a list of [x, y] pairs")
        n = payload.get("n", len(points))
        if not (_is_int(n) and n == len(points)):
            raise GraphInputError(f"n={n!r} does not match {len(points)} points")
        g = from_points(points, payload["radius"])
        instance = UdgInstance(
            tuple((float(x), float(y)) for x, y in points), float(payload["radius"])
        )
        return g, instance
    if "n" not in payload or "edges" not in payload:
        raise GraphInputError("graph JSON needs either n+edges or points+radius")
    edges = payload["edges"]
    if not isinstance(edges, list):
        raise GraphInputError("edges must be a list of [u, v] pairs")
    return from_edge_list(payload["n"], edges), None


def load_graph(path: str | Path) -> tuple[Graph, UdgInstance | None]:
    return graph_from_dict(read_json(path))


def result_to_dict(result: PlutusResult, cfg: PlutusConfig) -> dict[str, Any]:
    """The result file; its ``roles`` map is derived from D (members are
    dominators, every other node ends the run reluctant)."""
    dominator, reluctant = Role.DOMINATOR.value, Role.DOMINATION_RELUCTANT.value
    return {
        "schema": SCHEMA_VERSION,
        "D": sorted(result.dominating_set),
        "k": cfg.k,
        "m": cfg.m,
        "phases": [
            {"name": phase.name, "size": phase.size, "added": list(phase.added)}
            for phase in result.phase_trace
        ],
        "roles": {
            str(v): dominator if v in result.dominating_set else reluctant
            for v in range(result.node_count)
        },
    }


def result_from_dict(payload: Any) -> tuple[frozenset[int], int, int]:
    """Extract (D, k, m) from a result file; enough to re-verify it.  D
    must be a list of ints and k, m ints; ranges are checked on use."""
    if not isinstance(payload, dict) or "D" not in payload:
        raise GraphInputError("result JSON must be an object with a D field")
    _check_schema(payload)
    backbone = payload["D"]
    k = payload.get("k", 1)
    m = payload.get("m", 1)
    if not (isinstance(backbone, list) and all(_is_int(v) for v in backbone)):
        raise GraphInputError("D must be a list of integer node ids")
    if not (_is_int(k) and _is_int(m)):
        raise GraphInputError(f"k and m must be integers, got k={k!r}, m={m!r}")
    return frozenset(backbone), k, m


def report_to_dict(
    report: VerificationReport, stretch: tuple[float, Any] | None = None
) -> dict[str, Any]:
    """The verify report.  A witness becomes a list, its tuple members
    (node ids, ascending as the checkers emit them) lists too."""
    payload: dict[str, Any] = {
        "schema": SCHEMA_VERSION,
        "overall": report.overall,
        "checks": [
            {
                "name": check.name,
                "pass": check.passed,
                "witness": None
                if check.witness is None
                else [list(x) if isinstance(x, tuple) else x for x in check.witness],
            }
            for check in report.checks
        ],
    }
    if stretch is not None:
        value, worst = stretch
        payload["stretch"] = {
            "max": value,
            "pair": list(worst.pair) if worst is not None else None,
        }
    return payload


def oracle_to_dict(result: OracleResult, k: int, m: int) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "k": k,
        "m": m,
        "feasible": result.feasible,
        "optimum_size": result.optimum_size,
        "witness": sorted(result.optimum_witness) if result.feasible else None,
        "sets_examined": result.sets_examined,
    }


def manifest_to_dict(
    command: str,
    seed: int | None,
    inputs: Iterable[str],
    outputs: Iterable[str],
    config: Mapping[str, Any] | None = None,
) -> dict[str, Any]:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "seed": seed,
        "inputs": list(inputs),
        "outputs": list(outputs),
        "config": dict(config) if config else None,
    }


def to_dot(g: Graph, dominating_set: Iterable[int]) -> str:
    """Graphviz rendering: the backbone grouped as a subgraph and filled
    black, every other (reluctant) node filled gray.  Write-only format.
    A backbone member that is not a node of g is a GraphInputError."""
    backbone = _as_subset(g, dominating_set)
    lines = ["graph backbone {", "  node [style=filled];"]
    lines.append("  subgraph cluster_dominating_set {")
    lines.append('    label="D";')
    for v in backbone:
        lines.append(f'    {v} [fillcolor=black, fontcolor=white];')
    lines.append("  }")
    member = set(backbone)
    for v in range(g.node_count):
        if v in member:
            continue
        lines.append(f"  {v} [fillcolor=gray];")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
