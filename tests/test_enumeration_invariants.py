"""Enumeration invariants and closed-count oracles.

Every enumerated graph is canonical, admissible and strictly ordered by
``graph_key``, to dimV 12 and, for the distinguished graphs of B, C and D,
to 16; the fast count equals the weighted enumeration, builds no node and no
distinguished shape but series D's origin-sharing pairs, and meets the
closed principal counts of series A, B and C.
"""

import pytest

from conftest import divisor_count, odd_part, partition_counts
from oracles import graph_key
from skewpairs import skewgraph
from skewpairs.catalog import count_orbits
from skewpairs.skewgraph import (
    KINDS,
    canonical_form,
    classify_component,
    enumerate_admissible,
    enumerate_connected,
    is_admissible,
)


def test_partition_recurrence():
    # OEIS A000041
    assert partition_counts(16) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77, 101, 135, 176, 231]


def _cases(top: int):
    for series in "ABCD":
        for dimv in range(1, top + 1):
            if (series == "B" and dimv % 2 == 0) or (series in "CD" and dimv % 2):
                continue
            for kind in KINDS:
                yield series, dimv, kind


@pytest.mark.parametrize("series", "ABCD")
def test_enumeration_is_canonical_admissible_and_strictly_ordered(series):
    # Distinguished graphs of B, C and D are built from symmetric shapes
    # alone, so they are checked to dimV 16 too.
    for s, dimv, kind in _cases(16):
        if s != series or (dimv > 12 and (series == "A" or kind == "principal")):
            continue
        graphs = enumerate_admissible(series, dimv, kind, max_nodes=16)
        keys = [graph_key(g) for g in graphs]
        assert all(a < b for a, b in zip(keys, keys[1:])), (dimv, kind)
        for g in graphs:
            assert canonical_form(g) == g, (dimv, kind, g)
            assert is_admissible(series, g, kind), (dimv, kind, g)
        weighted = sum(2 if series == "D" and g.is_connected() else 1 for g in graphs)
        assert count_orbits(series, dimv, kind, max_nodes=16) == weighted, (dimv, kind)


def test_canonical_form_returns_an_enumerated_graph_itself():
    # A graph that is canonical already is not rebuilt: build_pair,
    # closed_form_centralizer and render canonicalize every graph they read.
    count = 0
    for series, dimv, kind in _cases(8):
        for g in enumerate_admissible(series, dimv, kind):
            assert canonical_form(g) is g, (series, dimv, kind, g)
            count += 1
    assert count == 681


@pytest.mark.parametrize("n", range(1, 17))
def test_a_principal_count_is_two_partitions_less_divisors(n):
    assert count_orbits("A", n, "principal", max_nodes=16) == 2 * partition_counts(n)[n] - divisor_count(n)


@pytest.mark.parametrize("n", range(1, 13))
def test_a_principal_equals_young_filter_of_connected(n):
    young = tuple(g for g in enumerate_connected(n) if classify_component(g.components[0]).young != "neither")
    assert enumerate_admissible("A", n, "principal") == young


def test_b_and_c_principal_closed_counts():
    for n in range(1, 16, 2):
        assert count_orbits("B", n, "principal", max_nodes=16) == divisor_count(n), n
    for n in range(2, 17, 2):
        assert count_orbits("C", n, "principal", max_nodes=16) == 2 * divisor_count(odd_part(n)), n


def test_fast_count_builds_no_component(monkeypatch):
    def refuse(comp):
        raise AssertionError(f"a component was built: {comp}")

    monkeypatch.setattr(skewgraph, "_to_component", refuse)
    with pytest.raises(AssertionError):
        enumerate_admissible("A", 3, "distinguished")
    for series, dimv, kind in _cases(10):
        count_orbits(series, dimv, kind)
    # A distinguished count of series A, B or C builds no shape at all; series
    # D builds only symmetric shapes, for its origin-sharing pairs.
    skewgraph._connected_shapes.cache_clear()
    skewgraph._symmetric_shapes.cache_clear()
    for series, dimv, kind in _cases(12):
        if kind == "distinguished" and series != "D":
            count_orbits(series, dimv, kind)
    assert skewgraph._connected_shapes.cache_info().currsize == 0
    assert skewgraph._symmetric_shapes.cache_info().currsize == 0
    for dimv in range(2, 13, 2):
        count_orbits("D", dimv, "distinguished")
    assert skewgraph._connected_shapes.cache_info().currsize == 0
