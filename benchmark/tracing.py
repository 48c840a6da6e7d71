"""Spans around the calls into each Plutus module, recorded from outside.

While a :class:`Tracer` is installed, the public functions listed in
``WRAPPED`` are replaced, in every module namespace that refers to them,
by wrappers that record a span (name, start, end, parent).  The program
itself is unchanged; removing the tracer restores the originals.
"""

from __future__ import annotations

import importlib
import json
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass
from pathlib import Path

# (defining module, function, span name); the wrapper replaces the function
# in every namespace of NAMESPACES that refers to it.
WRAPPED = (
    ("plutus.geometry", "random_geometric", "geometry.random_geometric"),
    ("plutus.serialize", "load_graph", "serialize.load_graph"),
    ("plutus.serialize", "graph_from_dict", "serialize.graph_from_dict"),
    ("plutus.serialize", "read_json", "serialize.read_json"),
    ("plutus.serialize", "result_from_dict", "serialize.result_from_dict"),
    ("plutus.serialize", "result_to_dict", "serialize.result_to_dict"),
    ("plutus.serialize", "report_to_dict", "serialize.report_to_dict"),
    ("plutus.serialize", "oracle_to_dict", "serialize.oracle_to_dict"),
    ("plutus.serialize", "dumps", "serialize.dumps"),
    ("plutus.graph", "from_points", "graph.from_points"),
    ("plutus.pipeline", "run_plutus", "pipeline.run_plutus"),
    ("plutus.pipeline", "isolation", "pipeline.isolation"),
    ("plutus.pipeline", "domination", "pipeline.domination"),
    ("plutus.pipeline", "synergy_layers", "pipeline.synergy"),
    ("plutus.pipeline", "diversification", "pipeline.diversification"),
    ("plutus.pipeline", "sustainability", "pipeline.sustainability"),
    ("plutus.verify", "is_m_connected_k_dominating", "verify.check"),
    ("plutus.verify", "is_k_dominating", "verify.k_dominating"),
    ("plutus.verify", "backbone_stretch", "verify.stretch"),
    ("plutus.verify", "brute_force_min_mcds", "verify.oracle"),
)
# is_m_connected is the whole-graph preflight when the pipeline calls it
# and the backbone check when the checkers do.
WRAPPED_BY_CALLER = (
    ("plutus.graph", "is_m_connected", "plutus.pipeline", "graph.preflight"),
    ("plutus.graph", "is_m_connected", "plutus.verify", "verify.m_connected"),
)
NAMESPACES = (
    "plutus.cli",
    "plutus.geometry",
    "plutus.graph",
    "plutus.pipeline",
    "plutus.serialize",
    "plutus.verify",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    result: object = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int, result: object = None) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        span.result = result
        self._stack.pop()

    def _wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            index = self.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self.close(index, result)

        return traced

    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in NAMESPACES}
        for home, attr, span in WRAPPED:
            original = getattr(modules[home], attr, None)
            if original is None:
                continue
            for module in modules.values():
                if getattr(module, attr, None) is original:
                    self._replace(module, attr, self._wrap(original, span))
        for home, attr, caller, span in WRAPPED_BY_CALLER:
            original = getattr(modules[home], attr, None)
            if original is not None and getattr(modules[caller], attr, None) is original:
                self._replace(modules[caller], attr, self._wrap(original, span))

    def _replace(self, module, attr: str, value) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                row = asdict(span)
                row.pop("result")
                row["id"] = index
                fh.write(json.dumps(row) + "\n")

    def net_durations(self, pauses: list[tuple[float, float]]) -> list[float]:
        """Span durations without the (start, end) pauses, sorted by start,
        that fall inside them."""
        starts = [start for start, _ in pauses]
        ends = [0.0]
        for start, end in pauses:
            ends.append(ends[-1] + end - start)
        net = []
        for span in self.spans:
            lo = bisect_left(starts, span.start)
            hi = bisect_left(starts, span.end)
            net.append(span.end - span.start - (ends[hi] - ends[lo]))
        return net

    def self_times(self, net: list[float]) -> dict[str, float]:
        """Per layer (the span-name prefix before the first dot): summed
        net span durations minus those of the child spans."""
        totals: dict[str, float] = {}
        for span, duration in zip(self.spans, net):
            layer = span.name.split(".")[0]
            totals[layer] = totals.get(layer, 0.0) + duration
            if span.parent is not None:
                parent = self.spans[span.parent].name.split(".")[0]
                totals[parent] = totals.get(parent, 0.0) - duration
        return totals
