from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plutus import GraphInputError, random_geometric, splitmix64, unit_interval

# Published outputs of the stateful SplitMix64 generator for seed 1234567;
# the counter-mode formulation must reproduce them exactly.
SPLITMIX_SEED = 1234567
SPLITMIX_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_splitmix64_reference_vectors():
    assert [splitmix64(SPLITMIX_SEED, i) for i in range(5)] == SPLITMIX_OUTPUTS


def test_unit_interval_is_top_53_bits():
    for i in range(5):
        expected = (SPLITMIX_OUTPUTS[i] >> 11) / float(1 << 53)
        assert unit_interval(SPLITMIX_SEED, i) == expected


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=200)
def test_unit_interval_range(seed, index):
    x = unit_interval(seed, index)
    assert 0.0 <= x < 1.0


def test_same_seed_bit_identical():
    a = random_geometric(50, 0.3, 7)
    b = random_geometric(50, 0.3, 7)
    assert a == b
    assert a.graph() == b.graph()


def test_different_seed_differs():
    assert random_geometric(50, 0.3, 7) != random_geometric(50, 0.3, 8)


def test_single_node_instance():
    inst = random_geometric(1, 0.3, 0)
    g = inst.graph()
    assert g.node_count == 1
    assert g.edge_count() == 0


def test_radius_above_diagonal_gives_complete_graph():
    # unit-square diameter is sqrt(2) < 1.5, so every pair is in range
    g = random_geometric(50, 1.5, 7).graph()
    assert g.edge_count() == 50 * 49 // 2


def test_points_inside_unit_square():
    inst = random_geometric(200, 0.1, 42)
    for x, y in inst.points:
        assert 0.0 <= x < 1.0
        assert 0.0 <= y < 1.0


def test_negative_seed_normalised():
    # seeds are taken mod 2^64, so -1 aliases 2^64 - 1
    assert random_geometric(5, 0.2, -1) == random_geometric(5, 0.2, 2**64 - 1)


def test_bad_arguments_rejected():
    with pytest.raises(GraphInputError):
        random_geometric(0, 0.3, 1)
    with pytest.raises(GraphInputError):
        random_geometric(5, 0.0, 1)
    with pytest.raises(GraphInputError):
        random_geometric(5, 0.3, "x")  # type: ignore[arg-type]
    with pytest.raises(GraphInputError):
        random_geometric(3, True, 1)
    with pytest.raises(GraphInputError):
        random_geometric(3, math.inf, 1)
    with pytest.raises(GraphInputError):
        random_geometric(True, 0.3, 1)
    with pytest.raises(GraphInputError):
        random_geometric(3, 0.3, True)
