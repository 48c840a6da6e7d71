from __future__ import annotations

import json
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plutus import (
    GraphInputError,
    PlutusConfig,
    random_geometric,
    run_plutus,
)
import plutus.cli
import plutus.serialize
from plutus.cli import main
from plutus.serialize import (
    _json_text,
    dumps,
    graph_from_dict,
    manifest_to_dict,
    report_to_dict,
    result_from_dict,
    result_to_dict,
    to_dot,
    udg_to_dict,
)
from plutus.verify import backbone_stretch, is_m_connected_k_dominating

class TestGraphJson:
    def test_edge_list_round_trip(self, p5):
        payload = json.loads(json.dumps({"n": 5, "edges": list(p5.edges())}))
        assert payload["edges"] == [[0, 1], [1, 2], [2, 3], [3, 4]]
        parsed, instance = graph_from_dict(payload)
        assert parsed == p5
        assert instance is None

    def test_udg_round_trip(self):
        instance = random_geometric(12, 0.4, 3)
        payload = udg_to_dict(instance)
        parsed, parsed_instance = graph_from_dict(payload)
        assert parsed_instance == instance
        assert parsed == instance.graph()

    def test_udg_bytes_stable(self):
        instance = random_geometric(12, 0.4, 3)
        assert dumps(udg_to_dict(instance)) == dumps(udg_to_dict(instance))

    def test_points_and_edges_mutually_exclusive(self):
        with pytest.raises(GraphInputError):
            graph_from_dict(
                {"n": 2, "edges": [[0, 1]], "points": [[0, 0], [1, 0]], "radius": 1.0}
            )

    def test_points_require_radius(self):
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 1, "points": [[0, 0]]})

    def test_mismatched_n_rejected(self):
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 3, "points": [[0, 0]], "radius": 1.0})

    def test_malformed_rejected(self):
        with pytest.raises(GraphInputError):
            graph_from_dict([1, 2, 3])
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 2})
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 2, "edges": [["a", "b"]]})
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 2, "edges": {}})
        with pytest.raises(GraphInputError):
            graph_from_dict({"n": 1, "points": {}, "radius": 1.0})


class TestResultJson:
    def test_schema(self, c4):
        cfg = PlutusConfig(k=1, m=2)
        result = run_plutus(c4, cfg)
        payload = result_to_dict(result, cfg)
        assert payload["D"] == sorted(result.dominating_set)
        assert payload["k"] == 1 and payload["m"] == 2
        assert [p["name"] for p in payload["phases"]] == [
            "isolation",
            "domination",
            "synergy",
            "diversification",
        ]
        assert all(set(p) == {"name", "size", "added"} for p in payload["phases"])
        assert payload["roles"] == {
            str(v): "dominator" if v in result.dominating_set else "reluctant" for v in range(4)
        }
        backbone, k, m = result_from_dict(payload)
        assert backbone == result.dominating_set
        assert (k, m) == (1, 2)

    def test_round_trip_bytes_identical(self, c4):
        cfg = PlutusConfig(k=1, m=2)
        a = dumps(result_to_dict(run_plutus(c4, cfg), cfg))
        b = dumps(result_to_dict(run_plutus(c4, cfg), cfg))
        assert a == b

    def test_malformed_result_rejected(self):
        with pytest.raises(GraphInputError):
            result_from_dict({"k": 1})
        with pytest.raises(GraphInputError):
            result_from_dict({"D": ["x"]})


_FIELDS = ["schema", "n", "edges", "points", "radius", "D", "k", "m"]
# Integers stay within |x| <= 1000: a valid file with a huge n legitimately
# allocates that many adjacency rows, which is not malformed input.
_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(min_value=-1000, max_value=1000)
    | st.floats()
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_FIELDS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=12,
)


@given(_JSON_VALUES | st.fixed_dictionaries({}, optional=dict.fromkeys(_FIELDS, _JSON_VALUES)))
@settings(max_examples=250, deadline=None)
def test_loaders_load_or_reject_any_json(payload):
    for loader in (graph_from_dict, result_from_dict):
        try:
            loader(payload)
        except GraphInputError:
            pass


class TestReportJson:
    def test_witnesses_jsonified(self, p5):
        report = is_m_connected_k_dominating(p5, {1, 2, 3}, 1, 2)
        payload = report_to_dict(report, backbone_stretch(p5, {1, 2, 3}))
        assert payload["overall"] is False
        names = [c["name"] for c in payload["checks"]]
        assert names == ["k-dominating", "m-connected"]
        witness = payload["checks"][1]["witness"]
        assert witness == ["disconnecting-set", [2]]
        assert payload["stretch"] == {"max": 1.0, "pair": None}
        json.dumps(payload)  # witnesses must be serialisable

    def test_passing_report(self, c4):
        report = is_m_connected_k_dominating(c4, range(4), 1, 2)
        payload = report_to_dict(report)
        assert payload["overall"] is True
        assert all(c["witness"] is None for c in payload["checks"])


class TestDot:
    def test_roles_and_subgraph(self, c6):
        result = run_plutus(c6, PlutusConfig(k=1, m=2))
        dot = to_dot(c6, result.dominating_set)
        assert dot.startswith("graph backbone {")
        assert "subgraph cluster_dominating_set" in dot
        fills = dict(re.findall(r"^ +(\d+) \[fillcolor=(\w+)", dot, re.MULTILINE))
        assert fills == {
            str(v): "black" if v in result.dominating_set else "gray" for v in range(6)
        }
        assert "0 -- 1;" in dot and "4 -- 5;" in dot
        assert dot.endswith("}\n")

    @pytest.mark.parametrize("backbone", [[99, -1], [3], ["a"], [True], [1.0]])
    def test_members_that_are_not_nodes_rejected(self, p3, backbone):
        with pytest.raises(GraphInputError, match="subset node"):
            to_dot(p3, backbone)


class TestManifest:
    def test_fields(self):
        payload = manifest_to_dict(
            "solve", 7, ["in.json"], ["out.json"], {"k": 2, "m": 1}
        )
        assert payload == {
            "schema": 1,
            "command": "solve",
            "seed": 7,
            "inputs": ["in.json"],
            "outputs": ["out.json"],
            "config": {"k": 2, "m": 1},
        }


class _Int(int):
    """json writes a subclass by ``int.__repr__``, never by its own text."""

    def __repr__(self):
        return "_Int()"

    __str__ = __repr__


class _Float(float):
    def __repr__(self):
        return "_Float()"

    __str__ = __repr__


class _Str(str):
    def __repr__(self):
        return "_Str()"

    __str__ = __repr__


_SPECIAL_FLOATS = [-0.0, 1e16, 5e-324, math.nan, math.inf, -math.inf]
_SPECIAL_STRINGS = ['"', "\\", '\\"\n\t', "\x00\x1f\x7f", "é", "\u2028", "\ud800", "😀"]
_PLAIN_NUMBERS = (
    st.integers()
    | st.sampled_from([2**64, 2**64 + 1, -(2**64), -(10**30)])
    | st.floats(allow_nan=False, allow_infinity=False)
)
_NUMBERS = (
    _PLAIN_NUMBERS
    | st.sampled_from(_SPECIAL_FLOATS)
    | st.builds(_Int, st.integers())
    | st.builds(_Float, st.floats())
)
_STRINGS = st.text(max_size=6) | st.sampled_from(_SPECIAL_STRINGS) | st.builds(_Str, st.text(max_size=3))
_SCALARS = st.none() | st.booleans() | _NUMBERS | _STRINGS
# Lists of rows: equal-width rows of plain finite numbers (the points
# shape), and rows of mixed widths, empty rows and rows holding anything
# else a row cell may be.
_CELLS = _NUMBERS | st.none() | st.booleans()
_ROWS = st.integers(0, 3).flatmap(
    lambda width: st.lists(st.lists(_PLAIN_NUMBERS, min_size=width, max_size=width), max_size=5)
) | st.lists(st.lists(_CELLS, max_size=3) | st.tuples(_CELLS, _CELLS), max_size=5)
_KEYS = _STRINGS | st.none() | st.booleans() | _NUMBERS
_TREES = st.recursive(
    _SCALARS
    | _ROWS
    | st.lists(_PLAIN_NUMBERS, max_size=6)
    | st.lists(_CELLS, max_size=6)
    | st.dictionaries(_STRINGS, _STRINGS, max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10,
)


@given(_TREES)
@settings(max_examples=600, deadline=None)
def test_writer_writes_what_json_writes(value):
    expected = json.dumps(value, indent=2)
    assert _json_text(value) == expected
    assert dumps(value) == expected + "\n"


_cycle: list = [1]
_cycle.append([2, _cycle])
# a cycle that passes through a dict the writer hands to json
_keyed_cycle: list = [1]
_keyed_cycle.append([2, {3: _keyed_cycle}])
_UNWRITABLE = [
    {"a": {1, 2}},
    [[1.5, 2], [3, {4}]],
    {(1, 2): 0},
    {"roles": {"0": "x", (0,): "y"}},
    [object()],
    _cycle,
    _keyed_cycle,
    {"a": {0: [1, {2, 3}]}},
]


@pytest.mark.parametrize("value", _UNWRITABLE, ids=range(len(_UNWRITABLE)))
def test_writer_raises_what_json_raises(value):
    with pytest.raises((TypeError, ValueError)) as expected:
        json.dumps(value, indent=2)
    for write in (_json_text, dumps):
        with pytest.raises(expected.type, match=f"^{re.escape(str(expected.value))}$"):
            write(value)


def test_dumps_is_json_from_python_3_13(monkeypatch):
    written = []
    monkeypatch.setattr(
        plutus.serialize, "_json_text", lambda value: written.append(value) or "{}"
    )
    dumps({})
    assert bool(written) == (sys.version_info < (3, 13))


def test_plutus_payloads_never_reach_json(tmp_path, monkeypatch):
    # every kind of payload the CLI writes, from the n = 2000 udg-m3
    # instance on, is written by the writer alone: json.dumps indents in
    # pure Python before 3.13
    payloads = []

    def recording(write):
        def record(*args):
            payloads.append(args[-1])
            return write(*args)

        return record

    monkeypatch.setattr(plutus.cli, "dumps", recording(plutus.cli.dumps))
    monkeypatch.setattr(plutus.cli, "write_json", recording(plutus.cli.write_json))
    big, small, tiny, result, m1 = (
        str(tmp_path / name)
        for name in ("udg_n2000_r0.05_s2.json", "udg_n50_r0.3_s8.json",
                     "udg_n16_r0.5_s4.json", "result.json", "m1.json")
    )
    for argv, code in [
        (["generate", "-n", "2000", "-r", "0.05", "--seed", "2", "--out", str(tmp_path)], 0),
        (["solve", big, "-k", "2", "-m", "3", "--out", result], 0),
        (["verify", big, result], 0),
        (["generate", "-n", "50", "-r", "0.3", "--seed", "8", "--out", str(tmp_path)], 0),
        (["solve", small, "-k", "2", "-m", "1", "--out", m1], 0),
        (["verify", small, m1, "-m", "3"], 6),
        (["generate", "-n", "16", "-r", "0.5", "--seed", "4", "--out", str(tmp_path)], 0),
        (["oracle", tiny, "-k", "1", "-m", "2"], 0),
        (["bench", "-n", "12,60", "-r", "0.5", "--seeds", "1..3", "-k", "2", "-m", "2",
          "--out", str(tmp_path / "bench.json")], 0),
    ]:
        assert main(argv) == code
    commands = [payload.get("command") for payload in payloads]
    assert commands.count("generate") == 3 and commands.count("solve") == 2
    report, failing = (payload for payload in payloads if "checks" in payload)
    assert report["stretch"]["max"] > 1 and not failing["overall"]
    assert any(check["witness"] for check in failing["checks"])
    oracle, bench = payloads[-2:]
    assert oracle["feasible"] and "mean_ratio" in bench["summary"]
    assert {row["status"] for row in bench["rows"]} == {"ok", "skipped"}
    expected = [json.dumps(payload, indent=2) for payload in payloads]
    json_dumps, calls = json.dumps, []
    monkeypatch.setattr(
        plutus.serialize.json,
        "dumps",
        lambda *args, **kwargs: calls.append(args) or json_dumps(*args, **kwargs),
    )
    assert [_json_text(payload) for payload in payloads] == expected
    assert calls == []
