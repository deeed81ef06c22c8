"""Skew-graph axioms, classification, enumeration and serialization."""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graph_to_cellset, iter_desk_graphs, oracle_connected_cellsets, oracle_connected_counts, rectangle_nodes
from oracles import canonical_form as oracle_canonical_form
from oracles import cell_shape as oracle_cell_shape
from oracles import component_cells as oracle_component_cells
from oracles import component_from_nodes as oracle_component_from_nodes
from oracles import graph_findings as oracle_graph_findings
from oracles import graph_key
from oracles import is_connected as oracle_is_connected
from oracles import render_ascii as oracle_render_ascii
from oracles import render_ascii_per_axis as oracle_render_ascii_per_axis
from oracles import symmetry as oracle_symmetry
from skewpairs.skewgraph import (
    KINDS,
    SERIES,
    SYM_INTEGRAL,
    SYM_NON_INTEGRAL,
    SYM_SEMI_COLSORT,
    SYM_SEMI_ROWSORT,
    Component,
    EnumerationLimitError,
    Node,
    ShapeClass,
    SkewGraph,
    _admissible_count,
    _cell_shape,
    _class_sizes,
    _columns,
    _component_cells,
    _connected_shapes,
    _cs_shapes,
    _int_component,
    _keys,
    _near_rectangles,
    _near_rectangular_cellsets,
    _symmetric_shapes,
    _to_component,
    canonical_form,
    classify_component,
    component_from_nodes,
    enumerate_admissible,
    enumerate_connected,
    graph_from_jsonable,
    graph_from_text,
    graph_to_jsonable,
    graph_to_text,
    is_admissible,
    render_ascii,
    validate,
)
from skewpairs.liealg import NotAdmissibleError, build_pair
from skewpairs.linalg import parse_fraction

F = Fraction


def nodes_of(*pairs):
    return [Node(F(x), F(y)) for x, y in pairs]


def one_component(*pairs) -> SkewGraph:
    return SkewGraph((component_from_nodes(nodes_of(*pairs)),))


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------

def test_validate_single_node():
    assert validate(one_component((0, 0))) == []


def test_validate_axiom_iv_violation():
    g = one_component((F(-1, 2), F(-1, 2)), (F(1, 2), F(1, 2)))
    findings = validate(g)
    assert any("axiom (iv)" in f for f in findings)


def test_validate_horizontal_domino():
    g = one_component((F(-1, 2), 0), (F(1, 2), 0))
    assert validate(g) == []
    left, right = g.components[0].nodes
    assert left.shifted(1, 0) == right  # the one implied arrow


@pytest.mark.parametrize("shift", [0, 1], ids=["centred", "moved"])
def test_a_node_repeated_in_a_component_is_named(shift):
    # Two copies of one node once validated as one: is_admissible held and
    # build_pair, which canonical_form merged them for, built dimV 1 for
    # a graph of 2 nodes.
    node = Node(F(shift), F(0))
    g = SkewGraph((Component((node, node)),))
    assert g.n_nodes == 2
    assert f"component 0: node {shift}/1,0/1 appears twice" in validate(g)
    assert validate(canonical_form(g)) == ["component 0: node 0/1,0/1 appears twice"]
    for kind in KINDS:
        assert not is_admissible("A", g, kind)
    with pytest.raises(NotAdmissibleError, match="^graph is not admissible for series A$"):
        build_pair("A", g)


def test_validate_barycentre():
    g = one_component((0, 0), (1, 0))
    assert any("barycentre" in f for f in validate(g))


def test_barycentre_sums_coordinates_of_mixed_denominators():
    # B5 has a point at the origin and a 2x2 square about it: its nodes have
    # denominators 1 and 2, so the coordinate sums need a common one.
    mixed = 0
    for series, dimv in (("B", 5), ("C", 6), ("D", 6)):
        for g in enumerate_admissible(series, dimv, "distinguished"):
            nodes = [nd for c in g.components for nd in c.nodes]
            mixed += len({nd.x.denominator for nd in nodes}) > 1
            for dx, dy in ((1, 0), (Fraction(1, 3), Fraction(-2, 5))):
                shifted = SkewGraph(
                    tuple(component_from_nodes(nd.shifted(dx, dy) for nd in c.nodes) for c in g.components)
                )
                sx = sum(nd.x + dx for nd in nodes)
                sy = sum(nd.y + dy for nd in nodes)
                assert f"barycentre is ({sx},{sy}), not the origin" in validate(shifted)
                assert canonical_form(shifted) == g
    assert mixed > 0


def _random_nodes(rng, count):
    """count nodes with int or Fraction coordinates over mixed denominators,
    some repeated, a repeat sometimes written with the other type."""
    nodes = []
    for _ in range(count):
        if nodes and rng.random() < 0.25:
            nd = rng.choice(nodes)
            nodes.append(Node(F(nd.x), F(nd.y)) if rng.random() < 0.5 else nd)
        else:
            x, y = (rng.choice((rng.randint(-3, 3), F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6))))) for _ in "xy")
            nodes.append(Node(x, y))
    return nodes


def test_int_keys_match_the_fraction_oracles_on_random_nodes():
    # component_from_nodes, canonical_form and the whole-graph findings of
    # validate work on int keys; the oracles sort, hash and sum Fractions.
    # The graphs are off centre, with repeated nodes and components sharing
    # nodes; each canonical form is checked again with its components and
    # nodes shuffled, so on centred graphs too.
    rng = random.Random(20261019)
    for _ in range(1500):
        comps = [_random_nodes(rng, rng.randint(1, 6)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.3:
            comps += [[Node(F(0), F(0)), *rng.choice(comps)[: rng.randint(0, 2)]] for _ in range(rng.randint(1, 3))]
        for nodes in comps:
            assert component_from_nodes(iter(nodes)) == oracle_component_from_nodes(nodes)
        graph = SkewGraph(tuple(Component(tuple(nodes)) for nodes in comps))
        canon = canonical_form(graph)
        assert canon == oracle_canonical_form(graph)
        shuffled = [list(c.nodes) for c in canon.components]
        for nodes in shuffled:
            rng.shuffle(nodes)
        rng.shuffle(shuffled)
        assert canonical_form(SkewGraph(tuple(Component(tuple(c)) for c in shuffled))) == canon
        for g in (graph, canon):
            assert [f for f in validate(g) if not f.startswith("component ")] == oracle_graph_findings(g)


def test_validate_shared_node_rules():
    chain_h = component_from_nodes(nodes_of((-1, 0), (0, 0), (1, 0)))
    chain_v = component_from_nodes(nodes_of((0, -1), (0, 0), (0, 1)))
    assert validate(SkewGraph((chain_h, chain_v))) == []
    # sharing more than the origin is flagged
    five = component_from_nodes(nodes_of((-2, 0), (-1, 0), (0, 0), (1, 0), (2, 0)))
    three = component_from_nodes(nodes_of((-1, 0), (0, 0), (1, 0)))
    findings = validate(SkewGraph((five, three)))
    assert any("share" in f for f in findings)


def test_validate_disconnected_component():
    comp = component_from_nodes(nodes_of((-1, 0), (1, 0)))
    assert any("not connected" in f for f in validate(SkewGraph((comp,))))


# ---------------------------------------------------------------------------
# classify_component
# ---------------------------------------------------------------------------

def test_classify_3x3_block():
    shape = classify_component(component_from_nodes(rectangle_nodes(3, 3)))
    assert shape.symmetry == "integral"
    assert shape.rectangle == (3, 3)
    assert shape.young == "both"
    assert shape.near_rectangular_shape is None


def test_classify_vertical_domino_is_colsort():
    shape = classify_component(component_from_nodes(rectangle_nodes(1, 2)))
    assert shape.symmetry == "semi-integral-colsort"
    assert shape.rectangle == (1, 2)


def test_classify_horizontal_domino_is_rowsort():
    shape = classify_component(component_from_nodes(rectangle_nodes(2, 1)))
    assert shape.symmetry == "semi-integral-rowsort"


def test_classify_near_rectangular_third_shape():
    rect = set(rectangle_nodes(4, 2))
    rect.remove(Node(F(-3, 2), F(-1, 2)))
    rect.remove(Node(F(3, 2), F(1, 2)))
    shape = classify_component(component_from_nodes(rect))
    assert shape.near_rectangular_shape == "third"
    assert len(rect) % 4 == 2
    assert shape.symmetry == "non-integral"
    assert shape.rectangle is None


def test_classify_near_rectangular_first_and_second():
    # 6x2 rectangle: keep only the top of the left column, only the bottom of
    # the right column (coincides with "third" for height 2), so use 4x4.
    rect = set(rectangle_nodes(4, 4))
    ys = sorted({nd.y for nd in rect})
    left = Fraction(-3, 2)
    right = Fraction(3, 2)
    for y in ys[:-1]:
        rect.discard(Node(left, y))
    for y in ys[1:]:
        rect.discard(Node(right, y))
    shape = classify_component(component_from_nodes(rect))
    assert shape.near_rectangular_shape == "first"
    xs = sorted({nd.x for nd in rectangle_nodes(4, 4)})
    rect2 = set(rectangle_nodes(4, 4))
    for x in xs[:-1]:
        rect2.discard(Node(x, Fraction(-3, 2)))
    for x in xs[1:]:
        rect2.discard(Node(x, Fraction(3, 2)))
    shape2 = classify_component(component_from_nodes(rect2))
    assert shape2.near_rectangular_shape == "second"


def test_classify_zigzag_is_neither_young():
    shape = classify_component(
        component_from_nodes(nodes_of((-1, F(1, 2)), (0, F(1, 2)), (0, F(-1, 2)), (1, F(-1, 2))))
    )
    assert shape.young == "neither"
    assert shape.symmetry == "semi-integral-colsort"


def test_classify_rejects_invalid_component():
    with pytest.raises(ValueError):
        classify_component(component_from_nodes(nodes_of((0, 0), (1, 1))))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_connected_counts_frozen():
    # frozen from the subset oracle (see test below for n <= 6)
    assert [len(enumerate_connected(n)) for n in range(1, 9)] == [1, 2, 4, 9, 20, 46, 105, 242]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_enumeration_matches_subset_oracle(n):
    ours = {graph_to_cellset(g) for g in enumerate_connected(n)}
    assert ours == oracle_connected_cellsets(n)


def test_enumeration_matches_subset_oracle_n6():
    ours = {graph_to_cellset(g) for g in enumerate_connected(6)}
    assert ours == oracle_connected_cellsets(6)


def test_count_oracle_is_a006958():
    assert oracle_connected_counts(14) == [1, 2, 4, 9, 20, 46, 105, 242, 557, 1285, 2964, 6842, 15793, 36463]


def test_connected_counts_match_count_oracle():
    built = [len(enumerate_connected(n, max_nodes=14)) for n in range(1, 15)]
    assert built == oracle_connected_counts(14)
    # The fast count runs the column-height recurrence, A13 and A14 included.
    assert [_admissible_count("A", n, "distinguished", 14) for n in range(1, 15)] == built


def test_connected_shapes_come_sorted():
    # The generator sorts by the first cell only and relies on the order it
    # chooses columns in for the rest; past the pinned n, check the order.
    for n in range(1, 13):
        shapes = _connected_shapes(n)
        assert list(shapes) == sorted(set(shapes)), n
        assert all(list(cells) == sorted(cells) for _, cells in shapes), n


def _negation_symmetry(comp) -> str:
    """Central symmetry read off Fraction nodes: closed under negation about
    the origin, class from whether one node's coordinates are integers."""
    if frozenset(-nd for nd in comp.nodes) != comp.node_set:
        return "not-cs"
    nd = comp.nodes[0]
    return {
        (True, True): SYM_INTEGRAL,
        (True, False): SYM_SEMI_COLSORT,
        (False, True): SYM_SEMI_ROWSORT,
        (False, False): SYM_NON_INTEGRAL,
    }[nd.x.denominator == 1, nd.y.denominator == 1]


def test_symmetry_classes_match_negation_oracle():
    for n in range(1, 11):
        comps = [g.components[0] for g in enumerate_connected(n)]
        expected = {c: _negation_symmetry(c) for c in comps}
        for c in comps:
            assert classify_component(c).symmetry == expected[c]
        for sym in (SYM_INTEGRAL, SYM_SEMI_COLSORT, SYM_SEMI_ROWSORT, SYM_NON_INTEGRAL):
            assert [_to_component(c) for c in _cs_shapes(n, sym)] == [c for c in comps if expected[c] == sym]
    # Past n = 10, against every connected shape filtered by the oracle's
    # symmetry, order included.
    for n in range(11, 14):
        for sym in (SYM_INTEGRAL, SYM_SEMI_COLSORT, SYM_SEMI_ROWSORT, SYM_NON_INTEGRAL):
            assert list(_cs_shapes(n, sym)) == [c for c in _connected_shapes(n) if oracle_symmetry(c) == sym], (n, sym)
    # The class sizes the fast count multiplies, from the left-column recurrence.
    for n in range(1, 15):
        assert _class_sizes(n) == {sym: len(_cs_shapes(n, sym)) for sym in _class_sizes(n)}, n
    # symmetry is about the origin: a translated copy is not centrally symmetric
    moved = component_from_nodes(nd.shifted(1, 0) for nd in rectangle_nodes(3, 3))
    assert classify_component(moved).symmetry == "not-cs"


def test_series_b_c_d_build_no_asymmetric_shape():
    _connected_shapes.cache_clear()
    _symmetric_shapes.cache_clear()
    for series, dimv in (("B", 13), ("C", 14), ("D", 14)):
        for kind in ("distinguished", "principal"):
            assert enumerate_admissible(series, dimv, kind, max_nodes=14)
    assert _connected_shapes.cache_info().currsize == 0


# ---------------------------------------------------------------------------
# Node-based oracles for the integer-cell component checks
# ---------------------------------------------------------------------------

def _node_text(nd):
    return f"{nd.x.numerator}/{nd.x.denominator},{nd.y.numerator}/{nd.y.denominator}"


def _nodes_connected(nodes):
    seen = {next(iter(nodes))}
    stack = list(seen)
    while stack:
        nd = stack.pop()
        for nb in (nd.shifted(1, 0), nd.shifted(-1, 0), nd.shifted(0, 1), nd.shifted(0, -1)):
            if nb in nodes and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(nodes)


def _oracle_component_findings(index, comp):
    """The axiom findings, computed on Fraction nodes."""
    tag = f"component {index}"
    nodes = comp.node_set
    if not nodes:
        return [f"{tag}: empty node set"]
    base = comp.nodes[0]
    if any((nd.x - base.x).denominator != 1 or (nd.y - base.y).denominator != 1 for nd in nodes):
        return [f"{tag}: nodes do not all differ by integer vectors"]
    findings = []
    for nd in sorted(nodes):
        if nd.shifted(1, 1) in nodes:
            for req in (nd.shifted(0, 1), nd.shifted(1, 0)):
                if req not in nodes:
                    findings.append(
                        f"{tag}: axiom (iv) fails at square {_node_text(nd)}:"
                        f" {_node_text(req)} is missing"
                    )
    if not _nodes_connected(nodes):
        findings.append(f"{tag}: not connected")
    return findings


def _oracle_near_rectangular_sets(width, height):
    """Near-rectangles as Fraction node sets cut from the centred rectangle."""
    if width % 2 or height % 2 or width < 2 or height < 2:
        return ()
    rect = rectangle_nodes(width, height)
    xs = sorted({nd.x for nd in rect})
    ys = sorted({nd.y for nd in rect})
    left, right, bottom, top = xs[0], xs[-1], ys[0], ys[-1]
    third = rect - {Node(left, bottom), Node(right, top)}
    first = rect - {Node(left, y) for y in ys[:-1]} - {Node(right, y) for y in ys[1:]}
    second = rect - {Node(x, bottom) for x in xs[:-1]} - {Node(x, top) for x in xs[1:]}
    out = []
    for name, cand in (("third", third), ("first", first), ("second", second)):
        if _nodes_connected(cand) and all(cand != prev for _, prev in out):
            out.append((name, cand))
    return tuple(out)


def _oracle_classify(comp):
    """classify_component on Fraction nodes, symmetry by the negation rule."""
    findings = _oracle_component_findings(0, comp)
    if findings:
        raise ValueError("component is not a valid connected skew-graph: " + "; ".join(findings))
    nodes = comp.node_set
    sources = [nd for nd in nodes if nd.shifted(-1, 0) not in nodes and nd.shifted(0, -1) not in nodes]
    sinks = [nd for nd in nodes if nd.shifted(1, 0) not in nodes and nd.shifted(0, 1) not in nodes]
    young = {(True, True): "both", (True, False): "sw", (False, True): "ne", (False, False): "neither"}[
        len(sources) == 1, len(sinks) == 1
    ]
    xs = sorted({nd.x for nd in nodes})
    ys = sorted({nd.y for nd in nodes})
    rectangle = None
    if len(nodes) == len(xs) * len(ys) and xs[-1] - xs[0] == len(xs) - 1 and ys[-1] - ys[0] == len(ys) - 1:
        rectangle = (len(xs), len(ys))
    symmetry = _negation_symmetry(comp)
    near = None
    if symmetry == SYM_NON_INTEGRAL and rectangle is None and len(nodes) % 4 == 2:
        width, height = int(xs[-1] - xs[0]) + 1, int(ys[-1] - ys[0]) + 1
        near = next((name for name, cand in _oracle_near_rectangular_sets(width, height) if cand == nodes), None)
    return ShapeClass(symmetry=symmetry, rectangle=rectangle, near_rectangular_shape=near, young=young)


def _oracle_outcome(fn, comp):
    try:
        return fn(comp)
    except ValueError as exc:
        return ("ValueError", str(exc))


def _invalid_components():
    square = [(F(-1, 2), F(-1, 2)), (F(1, 2), F(-1, 2)), (F(-1, 2), F(1, 2)), (F(1, 2), F(1, 2))]
    return [
        Component(()),
        component_from_nodes(nodes_of(*square[:1], *square[3:])),  # diagonal pair
        component_from_nodes(nodes_of(*square[1:])),  # square missing (-1/2,-1/2)
        component_from_nodes(nodes_of(*square[:3])),  # square missing (1/2,1/2): valid
        component_from_nodes(nodes_of((0, 0), (1, 0), (0, 1), (1, 1), (2, 2))),  # disconnected
        component_from_nodes(nodes_of((-1, 0), (1, 0))),  # gap in a row
        component_from_nodes(nodes_of((0, 0), (F(1, 2), 0))),  # half-integral offset
        component_from_nodes(nodes_of((0, 0), (1, F(1, 3)))),  # non-integral offset
        component_from_nodes(nodes_of((F(1, 3), 0), (F(4, 3), 0), (F(1, 3), 1))),
    ]


def _checked_components() -> list[Component]:
    """_invalid_components, then every connected shape with n <= 9 and every
    near-rectangle in an 8 x 8 box, each at the origin barycentre and
    translated by (1/3, 1/2)."""
    centred = [g.components[0] for n in range(1, 10) for g in enumerate_connected(n)]
    centred += [
        component_from_nodes(cand)
        for w in range(2, 9, 2)
        for h in range(2, 9, 2)
        for _, cand in _oracle_near_rectangular_sets(w, h)
    ]
    shift = (F(1, 3), F(1, 2))
    comps = list(_invalid_components())
    for comp in centred:
        comps.append(comp)
        comps.append(component_from_nodes(nd.shifted(*shift) for nd in comp.nodes))
    return comps


def test_component_checks_match_node_oracles():
    seen_near = set()
    for comp in _checked_components():
        d, (keys,) = _keys([comp.nodes])
        assert _component_cells(2, comp, keys, d)[2] == _oracle_component_findings(2, comp), comp
        ours = _oracle_outcome(classify_component, comp)
        assert ours == _oracle_outcome(_oracle_classify, comp), comp
        if isinstance(ours, ShapeClass) and ours.near_rectangular_shape:
            seen_near.add(ours.near_rectangular_shape)
    assert seen_near == {"third", "first", "second"}


def test_component_cells_on_keys_match_the_denominator_oracle():
    # The cells and findings of a component read off its int keys, over its
    # own d and over the d of a graph with a node of denominator 5 beside
    # it, are those read off each node's numerator and denominator.
    for comp in _checked_components():
        expected = oracle_component_cells(2, comp)
        for extra in ([], [Node(F(1, 5), F(0))]):
            d, (keys, _) = _keys([comp.nodes, extra])
            cells, _, findings = _component_cells(2, comp, keys, d)
            assert (cells, findings) == expected, (comp, d)


def test_columns_accept_exactly_the_connected_cell_sets_with_axiom_iv():
    # Every nonempty subset of a 4 x 4 grid, in sorted order: _columns
    # accepts it exactly when it is connected and no unit square with
    # cells at its lower left and upper right corners misses another
    # corner, and its columns then hold exactly its cells.  Read in
    # reverse order, an accepted set of two or more cells is refused.
    grid = [(x, y) for x in range(4) for y in range(4)]
    accepted = 0
    for mask in range(1, 1 << 16):
        cells = [c for k, c in enumerate(grid) if mask >> k & 1]
        cellset = set(cells)
        valid = oracle_is_connected(cellset) and all(
            (x, y + 1) in cellset and (x + 1, y) in cellset for x, y in cells if (x + 1, y + 1) in cellset
        )
        columns = _columns(cells)
        assert (columns is not None) == valid, cells
        if columns is not None:
            accepted += 1
            assert [(x, y) for x, bottom, top in columns for y in range(bottom, top + 1)] == cells
            assert len(cells) == 1 or _columns(cells[::-1]) is None, cells
    # The parallelogram polyominoes with a w x h box number N(w + h - 1, w),
    # a Narayana number, and each fits in the grid at (5 - w)(5 - h) places.
    boxes = [(w + h - 1, w, (5 - w) * (5 - h)) for w in range(1, 5) for h in range(1, 5)]
    assert accepted == sum(comb(n, w) * comb(n, w - 1) // n * places for n, w, places in boxes) == 678


def test_cell_shape_matches_the_scan_oracle():
    # _cell_shape reads the class off the columns and the oracle off scans
    # of the cells: on every component of every admissible graph with
    # dimV <= 12, over the graph's common denominator, and on every
    # connected shape with up to 10 cells, centred, moved by (1/2, 0) and
    # moved by (1/3, 1/2).
    seen = set()

    def check(comp, keys, d):
        cells, columns, findings = _component_cells(0, comp, keys, d)
        assert findings == [], comp
        ours = _cell_shape(cells, columns, keys[0], d)
        assert ours == oracle_cell_shape(cells, keys[0], d), comp
        seen.add((ours.symmetry, ours.young, ours.rectangle is not None, ours.near_rectangular_shape))

    for series in SERIES:
        for kind in KINDS:
            for dimv in range(1 if series in "AB" else 2, 13, 1 if series == "A" else 2):
                for g in enumerate_admissible(series, dimv, kind):
                    d, keys = _keys([c.nodes for c in g.components])
                    for comp, comp_keys in zip(g.components, keys):
                        check(comp, comp_keys, d)
    for n in range(1, 11):
        for g in enumerate_connected(n):
            for shift in ((0, 0), (F(1, 2), 0), (F(1, 3), F(1, 2))):
                comp = component_from_nodes(nd.shifted(*shift) for nd in g.components[0].nodes)
                d, (keys,) = _keys([comp.nodes])
                check(comp, keys, d)
    assert {sym for sym, *_ in seen} == {"not-cs", SYM_INTEGRAL, SYM_SEMI_COLSORT, SYM_SEMI_ROWSORT, SYM_NON_INTEGRAL}
    assert {young for _, young, *_ in seen} == {"both", "sw", "ne", "neither"}
    assert {near for *_, near in seen} == {None, "first", "second", "third"}


def test_near_rectangular_cellsets_match_node_oracle():
    for w in range(1, 15):
        for h in range(1, 15):
            ours = [
                (name, frozenset(Node(F(2 * x - (w - 1), 2), F(2 * y - (h - 1), 2)) for x, y in cells))
                for name, cells in _near_rectangular_cellsets(w, h)
            ]
            assert ours == list(_oracle_near_rectangular_sets(w, h)), (w, h)


@pytest.mark.parametrize("dimv", range(2, 15, 2))
def test_near_rectangle_size_guard_loses_nothing(dimv):
    # D principal builds only the boxes whose cut sizes include dimV; the
    # unguarded loop tries every even box up to (dimV + 2) x (dimV + 2).
    unguarded = [
        _to_component(_int_component(cells))
        for w in range(2, dimv + 3, 2)
        for h in range(2, dimv + 3, 2)
        for _, cells in _near_rectangular_cellsets(w, h)
        if len(cells) == dimv
    ]
    assert [_to_component(c) for c in _near_rectangles(dimv)] == unguarded
    admissible = {graph_key(g) for g in enumerate_admissible("D", dimv, "principal", max_nodes=14)}
    assert {graph_key(SkewGraph((c,))) for c in unguarded} <= admissible


def test_enumeration_limit():
    with pytest.raises(EnumerationLimitError):
        enumerate_connected(13)
    assert len(enumerate_connected(3, max_nodes=3)) == 4


@pytest.mark.parametrize(
    "series, dimv, kind, error, message",
    [
        pytest.param("Z", 4, "distinguished", ValueError, "unknown series 'Z'", id="series"),
        pytest.param("A", 4, "regular", ValueError, "unknown kind 'regular'", id="kind"),
        pytest.param("A", 0, "principal", ValueError, "dimV must be positive", id="dimv-0"),
        pytest.param("B", 4, "distinguished", ValueError, "series B requires odd dimV", id="B4"),
        pytest.param("D", 5, "principal", ValueError, "series D requires even dimV", id="D5"),
        pytest.param("A", 13, "distinguished", EnumerationLimitError, "dimV 13 exceeds the configured bound of 12",
                     id="A13"),
    ],
)
def test_an_admissible_request_out_of_range_is_refused_by_name(series, dimv, kind, error, message):
    # Enumeration and the count check a request alike.
    for request in (enumerate_admissible, lambda *args: _admissible_count(*args, 12)):
        with pytest.raises(ValueError) as exc:
            request(series, dimv, kind)
        assert (type(exc.value), exc.value.args) == (error, (message,))


def test_enumerated_graphs_are_valid_and_distinct():
    for n in range(1, 8):
        graphs = enumerate_connected(n)
        keys = {graph_key(g) for g in graphs}
        assert len(keys) == len(graphs)
        for g in graphs:
            assert validate(g) == []


# The paper's distinguished pairs of so and sp: components symmetric about
# the origin, of these classes, sorted; in series D two integral components
# share the origin, and are not both the point.
_DISTINGUISHED_CLASSES = {
    "B": ([SYM_INTEGRAL], [SYM_INTEGRAL, SYM_NON_INTEGRAL]),
    "C": ([SYM_SEMI_COLSORT], [SYM_SEMI_ROWSORT], [SYM_SEMI_COLSORT, SYM_SEMI_ROWSORT]),
    "D": ([SYM_NON_INTEGRAL], [SYM_INTEGRAL, SYM_INTEGRAL], [SYM_INTEGRAL, SYM_INTEGRAL, SYM_NON_INTEGRAL]),
}


def test_admissibility_check_is_the_rule_on_graphs_not_enumerated():
    # Every valid multiset of up to four centrally symmetric connected shapes
    # with at most 10 nodes in all, most of which no generator makes: the
    # check accepts exactly what the rule does, which is what is enumerated.
    shapes = [
        (c, _negation_symmetry(c)) for n in range(1, 11) for g in enumerate_connected(n) for c in g.components
    ]
    shapes = [(c, sym) for c, sym in shapes if sym != "not-cs"]
    candidates = []

    def extend(chosen: list, start: int, nodes: int) -> None:
        if chosen:
            graph = SkewGraph(tuple(c for c, _ in chosen))
            if not validate(graph):
                candidates.append((graph, sorted(sym for _, sym in chosen)))
        if len(chosen) < 4:
            for i in range(start, len(shapes)):
                if nodes + len(shapes[i][0]) <= 10:
                    extend(chosen + [shapes[i]], i, nodes + len(shapes[i][0]))

    extend([], 0, 0)
    assert len(candidates) == 683
    for series, parity in (("B", 1), ("C", 0), ("D", 0)):
        accepted = {kind: set() for kind in KINDS}
        for graph, classes in candidates:
            points = sum(len(c) == 1 for c in graph.components)
            rule = classes in _DISTINGUISHED_CLASSES[series] and points < 2
            assert is_admissible(series, graph, "distinguished") == rule, (series, graph)
            for kind in KINDS:
                if is_admissible(series, graph, kind):
                    accepted[kind].add(graph_key(graph))
        for kind in KINDS:
            enumerated = {graph_key(g) for n in range(2 - parity, 11, 2) for g in enumerate_admissible(series, n, kind)}
            assert accepted[kind] == enumerated, (series, kind)


def test_admissible_example_counts():
    assert len(enumerate_admissible("A", 4, "principal")) == 7
    assert len(enumerate_admissible("B", 9, "principal")) == 3
    assert len(enumerate_admissible("C", 4, "principal")) == 2
    assert len(enumerate_admissible("A", 3, "distinguished")) == 4


def test_admissible_b9_principal_are_rectangles():
    rects = {
        classify_component(g.components[0]).rectangle
        for g in enumerate_admissible("B", 9, "principal")
    }
    assert rects == {(1, 9), (9, 1), (3, 3)}


def test_admissible_c4_principal_are_mixed_parity_rectangles():
    rects = {
        classify_component(g.components[0]).rectangle
        for g in enumerate_admissible("C", 4, "principal")
    }
    assert rects == {(1, 4), (4, 1)}


def test_admissible_c4_distinguished():
    graphs = enumerate_admissible("C", 4, "distinguished")
    for g in graphs:
        shapes = [classify_component(c) for c in g.components]
        sorts = [s.symmetry for s in shapes]
        assert all(s.startswith("semi-integral") for s in sorts)
        assert len(set(sorts)) == len(sorts)


def test_admissible_parity_errors():
    with pytest.raises(ValueError):
        enumerate_admissible("B", 4, "principal")
    with pytest.raises(ValueError):
        enumerate_admissible("C", 5, "distinguished")
    with pytest.raises(ValueError):
        enumerate_admissible("D", 7, "principal")


def test_admissible_validates_clean():
    for series, dimv in [("A", 5), ("B", 7), ("C", 6), ("D", 8)]:
        for kind in ("distinguished", "principal"):
            for g in enumerate_admissible(series, dimv, kind):
                assert validate(g) == [], (series, dimv, kind)


def test_is_admissible_matches_enumeration():
    from oracles import graph_key as key

    for series, dimv in [("A", 4), ("B", 5), ("C", 6), ("D", 6)]:
        dist = {key(g) for g in enumerate_admissible(series, dimv, "distinguished")}
        prin = {key(g) for g in enumerate_admissible(series, dimv, "principal")}
        assert prin <= dist
        for g in enumerate_admissible(series, dimv, "distinguished"):
            assert is_admissible(series, g, "distinguished")
            assert is_admissible(series, g, "principal") == (key(g) in prin)
    # a graph admissible for one series is generally not admissible for another
    chain4 = SkewGraph((component_from_nodes(rectangle_nodes(4, 1)),))
    assert is_admissible("C", chain4, "principal")
    assert not is_admissible("D", chain4, "distinguished")
    assert not is_admissible("B", SkewGraph((component_from_nodes(rectangle_nodes(2, 2)),)), "distinguished")


def test_classification_invariants():
    for n in range(1, 8):
        for g in enumerate_connected(n):
            shape = classify_component(g.components[0])
            if shape.symmetry == "integral":
                assert n % 2 == 1
            if shape.symmetry in (
                "semi-integral-colsort",
                "semi-integral-rowsort",
                "non-integral",
            ):
                assert n % 2 == 0
            if shape.rectangle is not None:
                assert shape.symmetry != "not-cs"
                assert shape.young == "both"
            if shape.young == "both":
                assert shape.rectangle is not None
            if shape.near_rectangular_shape is not None:
                assert n % 4 == 2


# ---------------------------------------------------------------------------
# canonical form and serialization
# ---------------------------------------------------------------------------

@settings(max_examples=50, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=-3, max_value=3),
    st.integers(min_value=-3, max_value=3),
)
def test_canonical_form_translation_invariant(idx, dx, dy):
    graphs = enumerate_connected(5)
    g = graphs[idx % len(graphs)]
    shifted = SkewGraph(
        (component_from_nodes(nd.shifted(dx, dy) for nd in g.components[0].nodes),)
    )
    assert graph_key(shifted) == graph_key(g)
    assert canonical_form(shifted) == canonical_form(g)


def test_text_round_trip():
    for g in enumerate_admissible("D", 6, "distinguished"):
        text = graph_to_text(g)
        assert graph_key(graph_from_text(text)) == graph_key(g)


def test_text_format_explicit_denominators():
    g = one_component((F(-1, 2), 0), (F(1, 2), 0))
    assert graph_to_text(g) == "-1/2,0/1 1/2,0/1"


def test_json_round_trip():
    for g in enumerate_admissible("B", 5, "distinguished"):
        data = graph_to_jsonable(g)
        assert graph_key(graph_from_jsonable(data, parse_fraction)) == graph_key(g)


@pytest.mark.parametrize("comps", [[], [[["0", "0"]], []], [[]]], ids=["no-component", "empty-second", "empty-only"])
def test_graph_from_jsonable_refuses_what_graph_from_text_cannot_hold(comps):
    # Each once read as a graph that verify accepted and render_ascii could not draw.
    with pytest.raises(ValueError, match="no components in graph|graph component 1 has no node|graph component 0 has no node"):
        graph_from_jsonable({"components": comps}, parse_fraction)


def test_render_single_component():
    art = render_ascii(one_component((F(-1, 2), 0), (F(1, 2), 0)))
    assert art == "##"


def test_render_shared_origin():
    chain_h = component_from_nodes(nodes_of((-1, 0), (0, 0), (1, 0)))
    chain_v = component_from_nodes(nodes_of((0, -1), (0, 0), (0, 1)))
    art = render_ascii(canonical_form(SkewGraph((chain_h, chain_v))))
    assert "*" in art


def test_render_zigzag():
    art = render_ascii(
        one_component((-1, F(1, 2)), (0, F(1, 2)), (0, F(-1, 2)), (1, F(-1, 2)))
    )
    assert art == "##.\n.##"


def _rendered(render, graph: SkewGraph) -> str:
    """The text of render(graph), or its ValueError message."""
    try:
        return render(graph)
    except ValueError as exc:
        return f"ValueError: {exc}"


def _render_both(graph: SkewGraph) -> tuple:
    """(text or ValueError message) of render_ascii and of its Fraction oracle."""
    return _rendered(render_ascii, graph), _rendered(oracle_render_ascii, graph)


def test_render_on_int_cells_matches_the_fraction_oracle():
    dims = {"A": range(1, 11), "B": range(1, 11, 2), "C": range(2, 11, 2), "D": range(2, 11, 2)}
    graphs = [g for series, ds in dims.items() for dimv in ds for kind in KINDS
              for g in enumerate_admissible(series, dimv, kind)]
    assert len(graphs) == 2860
    for g in graphs:
        new, old = _render_both(g)
        assert new == old, graph_to_text(g)


def test_render_on_keys_matches_the_per_axis_oracle_and_ignores_integer_shifts():
    # Each desk graph and its translates by integer vectors draw the bytes
    # that the drawing on ints scaled per grid and per axis drew.
    count = 0
    for _, _, g in iter_desk_graphs():
        art = render_ascii(g)
        for shift in ((0, 0), (2, -1), (-3, 5)):
            moved = SkewGraph(tuple(Component(tuple(nd.shifted(*shift) for nd in c.nodes)) for c in g.components))
            assert render_ascii(moved) == oracle_render_ascii_per_axis(moved) == art, (graph_to_text(g), shift)
            count += 1
    assert count > 4000


@pytest.mark.parametrize(
    "text, expected",
    [
        # Chains at integer and half-integer offsets: one grid per offset,
        # in the order of the offsets, shared by the chains of one offset.
        pytest.param("-1/1,0/1 0/1,0/1 1/1,0/1\n-1/2,-1/2 -1/2,1/2\n1/2,-1/2 1/2,1/2", "aaa\n\nbc\nbc",
                     id="integer-and-half-chains"),
        pytest.param("-1/2,0/1 1/2,0/1\n0/1,-1/2 0/1,1/2\n-1/1,-1/1 0/1,-1/1", "cc\n\nb\nb\n\naa", id="three-offsets"),
        pytest.param("-1/1,0/1 0/1,0/1 1/1,0/1\n0/1,-1/1 0/1,0/1 0/1,1/1\n-1/2,-1/2 1/2,-1/2",
                     ".b.\na*a\n.b.\n\ncc", id="shared-origin-and-half-chain"),
        # A third of a cell off: a grid of its own, with its own d.
        pytest.param("-1/3,0/1 2/3,0/1\n0/1,1/3 1/1,1/3", "bb\n\naa", id="third-offsets"),
        # Two integer components a row apart: the empty row is drawn.
        pytest.param("0/1,-1/1 0/1,0/1\n1/2,1/2\n0/1,2/1", "c\n.\na\na\n\nb", id="empty-row"),
        # A node half a cell off its component spreads the grid by a Fraction.
        pytest.param("0/1,0/1 9/2,0/1", "ValueError: nodes spread over 11/2 x 1 cells, more than 2 x 2 for 2 nodes",
                     id="spread-by-a-half"),
        pytest.param("0/1,0/1\n7/1,0/1", "ValueError: nodes spread over 8 x 1 cells, more than 2 x 2 for 2 nodes",
                     id="spread-two-components"),
    ],
)
def test_render_multi_offset_graphs_and_spread(text, expected):
    new, old = _render_both(graph_from_text(text))
    assert new == old == expected


_coordinate = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 1, 2, 3)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.tuples(_coordinate, _coordinate), min_size=1, max_size=6, unique=True),
                min_size=1, max_size=3))
def test_render_matches_the_fraction_oracle_on_any_nodes(comps):
    # Nodes anywhere, of one offset or of several within a component: a node
    # off the steps of its grid is left out by both, not drawn by one.
    graph = SkewGraph(tuple(component_from_nodes(Node(x, y) for x, y in nodes) for nodes in comps))
    new, old = _render_both(graph)
    assert new == old == _rendered(oracle_render_ascii_per_axis, graph)
