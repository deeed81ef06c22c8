"""Skew-graphs: plane diagrams classifying nilpotent pairs.

A skew-graph is a finite set of components, each a set of rational plane
nodes joined by unit arrows pointing right or up, subject to:

  (i)   nodes lie in Q x Q,
  (ii)  the barycentre of the node multiset is the origin,
  (iii) arrows have length 1 and point right or up,
  (iv)  whenever (i,j) and (i+1,j+1) lie in one component, so do (i,j+1)
        and (i+1,j), together with the four arrows of that unit square.

A component's arrows join exactly its adjacent nodes (right or up), so
they are implied by the nodes and not stored: a component is its node set.

Connected skew-graphs are exactly skew diagrams drawn in the convention
where rows shift weakly left going up.  Components are allowed to share
a single node (0,0) (two integral components only); this is the one
overlap that actually occurs in the even orthogonal series.

Validation reads a component by its columns, in one scan (_columns).  A
set of cells is connected and satisfies (iv) exactly when it is a
parallelogram polyomino: its columns are runs on consecutive x, their
bottoms and tops fall weakly from left to right, and each column overlaps
the one before.  Such a set is connected, and a unit square with cells at
its lower left and upper right corners lies in two overlapping columns
whose falling ends hold its other two corners.  Conversely, let a run I of
column x meet a run J of column x + 1.  Were the top of J above the top m
of I, (iv) at (x, m) and (x + 1, m + 1) would put (x, m + 1) in I; were
the bottom j of J above that of I, (iv) at (x, j - 1) and (x + 1, j) would
put (x + 1, j - 1) in J.  So the ends of J fall weakly from those of I, and
no run meets two runs of a neighbouring column.  Of two runs of one
column, the upper one starts above the top of every run that the lower
one meets in the next column, and the lower one ends below the bottom of
every run that the upper one meets in the column before.  Runs that meet
thus form chains of one run per column, and a connected set is one chain.
The shape class is read off the same columns (_cell_shape).

Enumeration works on integer cells.  A component of k nodes is the pair
(k, cells), its cells k times its node coordinates about its barycentre, so
every generator, the series-D shared-origin test included, is integer
arithmetic.  Series A builds every connected shape column by column.
Series B, C and D admit only shapes symmetric about their centre and build
just those: the left columns are chosen and the rest is their half turn,
so the symmetry class is read off the width and the centre, and no
asymmetric shape is built.  Each generator emits its graphs in canonical
form; the admissible graphs are sorted once by an integer key and become
Nodes only at the end.  Counting them builds no Node and, but for series
D's origin-sharing pairs and the principal graphs, no shape: class sizes
follow from column-height recurrences.

A graph is read as ints once, by _keys: each node times the lcm d of the
denominators of the nodes it is compared with.  Deduplication, validation,
the ASCII grid and canonical_form, the one canonicalization, all run on
them; _centred_graph, shared with graph_from_pair, centres and sorts on ints.

The distinguished graphs of B, C and D are listed once, by the classes of
their components, in _distinguished_types.  Enumeration builds each type,
the count multiplies its class sizes, and the admissibility check matches a
graph's classes against it.  A principal graph is a distinguished one with
a _principal_case, whose case and sides the closed-form centralizer reads.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product, repeat
from math import lcm, prod
from operator import itemgetter, sub
from typing import Iterable, Optional, Sequence

from .linalg import parse_fraction

SERIES = ("A", "B", "C", "D")
KINDS = ("distinguished", "principal")
DEFAULT_MAX_NODES = 12

SYM_NOT_CS = "not-cs"
SYM_INTEGRAL = "integral"
SYM_SEMI_COLSORT = "semi-integral-colsort"
SYM_SEMI_ROWSORT = "semi-integral-rowsort"
SYM_NON_INTEGRAL = "non-integral"


class EnumerationLimitError(ValueError):
    """Raised when an enumeration request exceeds the configured node bound."""


@dataclass(frozen=True, order=True)
class Node:
    x: Fraction
    y: Fraction

    def shifted(self, dx, dy) -> "Node":
        return Node(self.x + dx, self.y + dy)

    def __neg__(self) -> "Node":
        return Node(-self.x, -self.y)


@dataclass(frozen=True)
class Component:
    """One connected piece: its sorted node tuple (arrows join adjacent nodes)."""

    nodes: tuple[Node, ...]

    @property
    def node_set(self) -> frozenset[Node]:
        return frozenset(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


@dataclass(frozen=True)
class SkewGraph:
    components: tuple[Component, ...]

    @property
    def n_nodes(self) -> int:
        """Node count as a multiset (a shared node counts once per component)."""
        return sum(len(c) for c in self.components)

    def is_connected(self) -> bool:
        return len(self.components) == 1


@dataclass(frozen=True)
class ShapeClass:
    symmetry: str
    rectangle: Optional[tuple[int, int]]
    near_rectangular_shape: Optional[str]
    young: str


def _keys(comps: Sequence[Sequence[Node]]) -> tuple[int, list[list[tuple[int, int]]]]:
    """(d, keys): d the lcm of the denominators of the nodes of comps, and
    each node times d as an int pair, by component.  Keys order and compare
    as the nodes do."""
    d = lcm(*{q for c in comps for nd in c for q in (nd.x.denominator, nd.y.denominator)})
    return d, [[(nd.x.numerator * (d // nd.x.denominator), nd.y.numerator * (d // nd.y.denominator)) for nd in c]
               for c in comps]


def component_from_nodes(nodes: Iterable[Node]) -> Component:
    """The component on these nodes, each once, sorted on int keys; its
    arrows are implied by adjacency."""
    nodes = tuple(nodes)
    by_key = dict(zip(_keys([nodes])[1][0], nodes))
    return Component(tuple(by_key[k] for k in sorted(by_key)))


def _is_connected(cells: frozenset[tuple[int, int]]) -> bool:
    if not cells:
        return False
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(cells)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------

def _columns(cells) -> Optional[list[list[int]]]:
    """[x, bottom, top] of each column of these integer cells, read in one
    scan in sorted order, when the cells are connected and satisfy axiom
    (iv), else None; cells out of sorted order are refused as well.  The
    columns must be runs on consecutive x, each falling weakly from the one
    before and overlapping it (see the module docstring)."""
    columns: list[list[int]] = []
    col = [None, None, None]
    for x, y in cells:
        if x == col[0]:
            if y != col[2] + 1:
                return None
            col[2] = y
        else:
            col = [x, y, y]
            columns.append(col)
    for (x, bottom, top), (x2, bottom2, top2) in zip(columns, columns[1:]):
        if x2 != x + 1 or not bottom2 <= bottom <= top2 <= top:
            return None
    return columns


def _component_cells(index: int, comp: Component, keys: list, d: int) -> tuple[Optional[dict], Optional[list], list[str]]:
    """comp as integer cells, their _columns and its findings, from its
    nodes' int keys over d (_keys): each node's offset from the first,
    mapped to its place in comp.  The cells are None when the component is
    empty or not on one integer lattice, and the columns None unless the
    component is valid, that is iff the findings are empty.  The axioms
    are checked cell by cell, for the findings, only when _columns refuses
    the cells or a node repeats."""
    tag = f"component {index}"
    if not keys:
        return None, None, [f"{tag}: empty node set"]
    x0, y0 = keys[0]
    cells = {}
    for k, (x, y) in enumerate(keys):
        (dx, rx), (dy, ry) = divmod(x - x0, d), divmod(y - y0, d)
        if rx or ry:
            return None, None, [f"{tag}: nodes do not all differ by integer vectors"]
        cells[dx, dy] = k
    columns = _columns(cells)
    if columns is not None and len(cells) == len(comp):
        return cells, columns, []
    base = comp.nodes[0]
    findings = []
    if len(cells) != len(comp):
        repeated = next(nd for nd in comp.nodes if comp.nodes.count(nd) > 1)
        findings.append(f"{tag}: node {_node_text(repeated)} appears twice")
    for x, y in sorted(cells):
        if (x + 1, y + 1) in cells:
            for req in ((x, y + 1), (x + 1, y)):
                if req not in cells:
                    findings.append(
                        f"{tag}: axiom (iv) fails at square {_node_text(base.shifted(x, y))}:"
                        f" {_node_text(base.shifted(*req))} is missing"
                    )
    if not _is_connected(cells):
        findings.append(f"{tag}: not connected")
    # A valid component whose nodes came out of order is read again, sorted.
    return cells, None if findings else _columns(sorted(cells)), findings


def _validated(graph: SkewGraph, d: int, keys: list) -> tuple[list[str], list[tuple]]:
    """validate(graph), and each component's integer cells and columns
    (_component_cells), given its nodes as int pairs over a common
    denominator d, such as _keys gives."""
    findings, cells = [], []
    for i, (comp, comp_keys) in enumerate(zip(graph.components, keys)):
        comp_cells, columns, comp_findings = _component_cells(i, comp, comp_keys, d)
        cells.append((comp_cells, columns))
        findings.extend(comp_findings)
    sx, sy = _sums(keys)
    if sx or sy:
        findings.append(f"barycentre is ({Fraction(sx, d)},{Fraction(sy, d)}), not the origin")
    # Components may share only (0,0), and at most two may hold it.
    node_sets = [frozenset(c) for c in keys] if len(keys) > 1 else []
    for i, nodes in enumerate(node_sets):
        for j in range(i + 1, len(node_sets)):
            inter = nodes & node_sets[j]
            if inter and inter != {(0, 0)}:
                findings.append(
                    f"components {i} and {j} share {len(inter)} nodes;"
                    " only a single shared node (0,0) is allowed"
                )
    if sum((0, 0) in nodes for nodes in node_sets) > 2:
        findings.append("more than two components contain the node (0,0)")
    return findings, cells


def validate(graph: SkewGraph) -> list[str]:
    """Check every axiom; the graph is valid iff the returned list is empty."""
    return _validated(graph, *_keys([c.nodes for c in graph.components]))[0]


# ---------------------------------------------------------------------------
# Classification of a connected component
# ---------------------------------------------------------------------------

_PARITY_SYMMETRY = {
    (0, 0): SYM_INTEGRAL,
    (0, 1): SYM_SEMI_COLSORT,
    (1, 0): SYM_SEMI_ROWSORT,
    (1, 1): SYM_NON_INTEGRAL,
}


def classify_component(comp: Component) -> ShapeClass:
    """Symmetry class, Young type, rectangle and near-rectangle detection.

    Central symmetry is taken about the origin, which is the barycentre for
    every component produced by this package.
    """
    d, (keys,) = _keys([comp.nodes])
    cells, columns, findings = _component_cells(0, comp, keys, d)
    if findings:
        raise ValueError("component is not a valid connected skew-graph: " + "; ".join(findings))
    return _cell_shape(cells, columns, keys[0], d)


def _cell_shape(cells, columns: list, base: tuple[int, int], d: int) -> ShapeClass:
    """classify_component for a valid component given as cells offset from
    its first node, whose int key over d (_keys) is base, and as their
    _columns.

    A column's bottom cell is a source unless the column before it starts
    at the same height, and its top cell a sink unless the column after it
    ends there: one source means equal bottoms, one sink equal tops, and
    both a rectangle.  The shape is symmetric about the origin when its box
    is centred there, 2 * base + (min + max) d = 0 on each axis, and the
    half turn, which reverses the columns and sends (b, t) to (c - t, c -
    b), c the sum of the box's y ends, keeps them.  Its nodes are then
    integral along x for an odd number of columns, along y for an even c.
    """
    (x0, _, top), (x1, bottom, _) = columns[0], columns[-1]
    sw = all(col[1] == bottom for col in columns)
    ne = all(col[2] == top for col in columns)
    young = "both" if sw and ne else "sw" if sw else "ne" if ne else "neither"
    width, height = x1 - x0 + 1, top - bottom + 1
    rectangle = (width, height) if sw and ne else None

    c = bottom + top
    symmetry = SYM_NOT_CS
    if (2 * base[0] + (x0 + x1) * d == 0 and 2 * base[1] + c * d == 0
            and all(b == c - t for (_, b, _), (_, _, t) in zip(columns, reversed(columns)))):
        symmetry = _PARITY_SYMMETRY[1 - len(columns) % 2, c % 2]

    near = None
    if symmetry == SYM_NON_INTEGRAL and rectangle is None and len(cells) % 4 == 2:
        # Non-integral: width even, and c odd, so the height even too.
        cornered = frozenset((x - x0, y - bottom) for x, y in cells)
        near = next((name for name, cand in _near_rectangular_cellsets(width, height) if cand == cornered), None)

    return ShapeClass(symmetry=symmetry, rectangle=rectangle, near_rectangular_shape=near, young=young)


@lru_cache(maxsize=None)
def _near_rectangular_cellsets(width: int, height: int) -> tuple[tuple[str, frozenset], ...]:
    """Connected near-rectangular cell sets cut from an even x even rectangle.

    Cells have their min corner at the origin.  Constructive per the
    defining recipe: trim the extreme columns (or rows) centrally
    symmetrically, either one square or all squares but one.  Degenerate
    coincidences (height or width 2) collapse onto the corner ("third")
    shape, which is listed first.  The three cuts leave wh - 2,
    wh - 2(h - 1) and wh - 2(w - 1) cells.
    """
    if width % 2 or height % 2 or width < 2 or height < 2:
        return ()
    right, top = width - 1, height - 1
    rect = frozenset((x, y) for x in range(width) for y in range(height))
    third = rect - {(0, 0), (right, top)}
    first = rect - {(0, y) for y in range(top)} - {(right, y) for y in range(1, height)}
    second = rect - {(x, 0) for x in range(right)} - {(x, top) for x in range(1, width)}
    out: list[tuple[str, frozenset]] = []
    for name, cand in (("third", third), ("first", first), ("second", second)):
        if _is_connected(cand) and all(cand != prev for _, prev in out):
            out.append((name, cand))
    return tuple(out)


# ---------------------------------------------------------------------------
# Canonical form and enumeration
# ---------------------------------------------------------------------------

def canonical_form(graph: SkewGraph) -> SkewGraph:
    """Translate the multiset barycentre to the origin and sort everything,
    on int keys; a graph whose keys sum to (0, 0), strictly increase in each
    component and have the components in order is returned itself.  A node
    repeated in a component stays, for validate to name."""
    return _canonical(graph)[0]


def _canonical(graph: SkewGraph) -> tuple[SkewGraph, tuple[int, list]]:
    """canonical_form(graph) and its nodes as (d, int pairs over d): the
    _keys of graph, or the cells of _centred_graph, so a graph is read once."""
    d, keys = _keys([c.nodes for c in graph.components])
    increasing = all(a < b for c in keys for a, b in zip(c, c[1:]))
    ordered = all((-len(a), a) <= (-len(b), b) for a, b in zip(keys, keys[1:]))
    return (graph, (d, keys)) if _sums(keys) == (0, 0) and increasing and ordered else _centred_graph(d, keys)


def _sums(comps: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """The sums of the x and of the y of the int pairs of comps."""
    return sum(x for c in comps for x, _ in c), sum(y for c in comps for _, y in c)


def _centred_graph(d: int, comps: list[list[tuple[int, int]]]) -> tuple[SkewGraph, tuple[int, list]]:
    """The canonical graph whose components have these nodes, each an int
    pair over d, and its nodes as (n d, cells).  For n nodes, a pair p
    becomes the cell n p - sum p over n d, so the graph is centred, and its
    components sorted (larger first, then by cells), on ints; Nodes are made
    last, by _node."""
    n = sum(map(len, comps))
    sx, sy = _sums(comps)
    cells = sorted((sorted((n * x - sx, n * y - sy) for x, y in c) for c in comps), key=lambda c: (-len(c), c))
    return SkewGraph(tuple(Component(tuple(_node(x, y, n * d) for x, y in c)) for c in cells)), (n * d, cells)


def _int_component(cells) -> tuple[int, tuple]:
    """The integer component of k cells: (k, k times each cell minus their
    sum, sorted), that is k times the coordinates about the barycentre."""
    k = len(cells)
    sx = sum(x for x, _ in cells)
    sy = sum(y for _, y in cells)
    return k, tuple(sorted((k * x - sx, k * y - sy) for x, y in cells))


@lru_cache(maxsize=None)
def _node(x: int, y: int, k: int) -> Node:
    return Node(Fraction(x, k), Fraction(y, k))


def _to_component(comp: tuple[int, tuple]) -> Component:
    """The Component of an integer component: the node (x / k, y / k) per cell."""
    k, cells = comp
    return Component(tuple(_node(x, y, k) for x, y in cells))


@lru_cache(maxsize=None)
def _connected_shapes(n: int) -> tuple[tuple[int, tuple], ...]:
    """Each connected n-cell skew shape once, as an integer component, sorted.

    A connected skew shape is a parallelogram polyomino: read left to right,
    its columns are intervals whose bottoms and tops fall weakly, each
    overlapping the one before.  Choosing the columns in turn therefore
    produces each shape exactly once (orderly generation in the manner of
    Redelmeier 1981, "Counting polyominoes: yet another attack").

    Shapes that share their first columns share the work on them: xs and
    ys hold n times the coordinates of the cells chosen so far, column by
    column and bottom up, which is sorted order, and sx, sy their sums, so
    a finished shape is _int_component of its cells with no sort.  Each
    column is chosen by its bottom upwards, then by its top downwards, the
    first column tallest first; the shapes then come in the order of their
    cells measured from the bottom cell of the first column.  About the
    barycentre that cell is (-sx, -sy), so a stable sort by it, as one
    integer, puts the shapes in sorted order.
    """
    shapes = []
    xs: list[int] = []
    ys: list[int] = []
    scale = 2 * n * n + 1  # exceeds twice any |sy|

    def extend(x: int, bottom: int, top: int, left: int, sx: int, sy: int) -> None:
        if not left:
            cells = tuple(zip(map(sub, xs, repeat(sx)), map(sub, ys, repeat(sy))))
            shapes.append((-sx * scale - sy, (n, cells)))
            return
        chosen = len(xs)
        for b in range(bottom - left + 1, bottom + 1):
            for t in range(min(top, b + left - 1), bottom - 1, -1):
                h = t - b + 1
                xs.extend(repeat(n * x, h))
                ys.extend(range(n * b, n * t + 1, n))
                extend(x + 1, b, t, left - h, sx + x * h, sy + (b + t) * h // 2)
                del xs[chosen:], ys[chosen:]

    for height in range(n, 0, -1):
        xs.extend(repeat(0, height))
        ys.extend(range(0, n * height, n))
        extend(1, 0, height - 1, n - height, 0, (height - 1) * height // 2)
        del xs[:], ys[:]
    shapes.sort(key=itemgetter(0))
    return tuple(shape for _, shape in shapes)


def _column_counts(n: int) -> list[list[int]]:
    """counts[s][h], s <= n: how many connected s-cell shapes end in a column
    of h cells.  As _connected_shapes chooses the columns, one of h' cells
    follows one of h cells in min(h, h') ways (OEIS A006958)."""
    counts = [[0]]
    for s in range(1, n + 1):
        row = [sum(min(h, last) * ways for h, ways in enumerate(counts[s - last])) for last in range(1, s)]
        counts.append([0, *row, 1])
    return counts


def _partitions(n: int, most: int):
    """The partitions of n into parts no larger than most, parts falling."""
    if not n:
        yield ()
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def _young_shapes(n: int) -> list[tuple[int, tuple]]:
    """The connected n-cell shapes with one source or one sink.

    A column's bottom cell is a source unless the column before it starts
    at the same height, so one source means one common bottom: column
    heights falling left to right, the Young diagram of a partition.  One
    sink likewise means one common top: such a diagram rotated by 180
    degrees.  A rectangle is both and is built once, so there are
    2 p(n) - d(n) shapes.
    """
    shapes = []
    for heights in _partitions(n, n):
        cells = [(x, y) for x, h in enumerate(heights) for y in range(h)]
        shapes.append(_int_component(cells))
        if heights[0] != heights[-1]:
            shapes.append(_int_component([(-x, -y) for x, y in cells]))
    return shapes


@lru_cache(maxsize=None)
def _symmetric_shapes(n: int) -> dict[str, tuple[tuple[int, tuple], ...]]:
    """The centrally symmetric connected n-cell shapes by symmetry class,
    each class in _connected_shapes order.

    A half turn reverses the columns and sends a column (b, t) to
    (c - t, c - b), c twice the centre's height, and it keeps the columns
    falling as _connected_shapes chooses them.  So a symmetric shape is its
    left columns (s cells), then either a middle column of n - 2s cells, or,
    when 2s = n, a c from 2b to b + t at the last left column (b, t), then
    the turned left columns; only the left columns are chosen.  Its nodes
    are integral along x when it has an odd number of columns, along y when
    c is even.
    """
    classes: dict[str, list] = {}

    def close(left: list, middle: list, c: int) -> None:
        cols = left + middle + [(c - t, c - b) for b, t in reversed(left)]
        comp = _int_component([(x, y) for x, (b, t) in enumerate(cols) for y in range(b, t + 1)])
        classes.setdefault(_PARITY_SYMMETRY[1 - len(cols) % 2, c % 2], []).append(comp)

    def extend(left: list, s: int) -> None:
        bottom, top = left[-1]
        h = n - 2 * s
        if not h:
            for c in range(2 * bottom, bottom + top + 1):
                close(left, [], c)
            return
        for t in range(bottom, min(top, bottom + h - 1) + 1):
            close(left, [(t - h + 1, t)], 2 * t - h + 1)
        for t in range(bottom, top + 1):
            for b in range(t - h // 2 + 1, bottom + 1):
                extend(left + [(b, t)], s + t - b + 1)

    close([], [(0, n - 1)], n - 1)
    for height in range(1, n // 2 + 1):
        extend([(0, height - 1)], height)
    return {sym: tuple(sorted(shapes)) for sym, shapes in classes.items()}


def _cs_shapes(n: int, symmetry: str) -> tuple[tuple[int, tuple], ...]:
    """The connected n-cell shapes of one symmetry class, in _connected_shapes order."""
    return _symmetric_shapes(n).get(symmetry, ())


def _class_sizes(n: int) -> dict[str, int]:
    """len(_cs_shapes(n, symmetry)) for each symmetry class, counted on the
    left columns that _symmetric_shapes chooses, with no shape built.

    Left columns of s cells ending in a column of h cells are a connected
    shape (_column_counts).  With m = n - 2s > 0 they close with a middle
    column in min(h, m) ways, an odd number of columns and c = m + 1 = n + 1
    mod 2; with m = 0 in h ways, ceil(h / 2) of them with c even.  The
    single column closes no left column.
    """
    counts = _column_counts(n // 2)
    sizes = dict.fromkeys(_PARITY_SYMMETRY.values(), 0)
    sizes[_PARITY_SYMMETRY[0, (n + 1) % 2]] = 1 + sum(
        min(h, n - 2 * s) * ways for s in range(1, (n + 1) // 2) for h, ways in enumerate(counts[s])
    )
    if n % 2 == 0:
        sizes[SYM_SEMI_ROWSORT] = sum((h + 1) // 2 * ways for h, ways in enumerate(counts[n // 2]))
        sizes[SYM_NON_INTEGRAL] = sum(h // 2 * ways for h, ways in enumerate(counts[n // 2]))
    return sizes


def _rectangle(width: int, height: int) -> tuple[int, tuple]:
    return _int_component([(x, y) for x in range(width) for y in range(height)])


def _near_rectangles(n: int) -> list[tuple[int, tuple]]:
    """The connected n-node near-rectangular components.

    Only the even boxes with n among their three cut sizes are built.
    """
    return [
        _int_component(cells)
        for w in range(2, n + 3, 2)
        for h in range(2, n + 3, 2)
        if n in (w * h - 2, w * h - 2 * (h - 1), w * h - 2 * (w - 1))
        for _, cells in _near_rectangular_cellsets(w, h)
        if len(cells) == n
    ]


_POINT = (1, ((0, 0),))


def _graph(*comps: tuple[int, tuple]) -> tuple:
    """An integer graph: its components in canonical order, larger first, then by cells."""
    return tuple(sorted(comps, key=lambda c: (-c[0], c[1])))


def _d_integral_pairs(n: int) -> list[tuple]:
    """Series-D two-integral-component configurations with n nodes total.

    Either a component with at least three nodes plus the point component,
    or two components with at least three nodes each sharing exactly (0,0).
    An integral centrally symmetric component holds the origin.  The cells
    of a k-node component times m and those of an m-node one times k are
    both their nodes times k * m, so the two meet where those products do.
    """
    if n % 2:
        return []
    out = [_graph(comp, _POINT) for comp in _cs_shapes(n - 1, SYM_INTEGRAL)] if n >= 4 else []
    for k in range(3, n // 2 + 1, 2):
        m = n - k
        pool_b = [(cb, {(x * k, y * k) for x, y in cb[1]}) for cb in _cs_shapes(m, SYM_INTEGRAL)]
        for i, ca in enumerate(_cs_shapes(k, SYM_INTEGRAL)):
            scaled_a = {(x * m, y * m) for x, y in ca[1]}
            for cb, scaled_b in pool_b[i if k == m else 0:]:
                if scaled_a & scaled_b == {(0, 0)}:
                    out.append(_graph(ca, cb))
    return out


def _principal_cells(series: str, n: int) -> list[tuple]:
    """The principal graphs of series B, C or D with n nodes, as integer graphs."""
    sides = [(w, n // w) for w in range(1, n + 1) if n % w == 0]
    if series == "B":
        return [(_rectangle(w, h),) for w, h in sides if w % 2 and h % 2]
    if series == "C":
        return [(_rectangle(w, h),) for w, h in sides if w % 2 != h % 2]
    # D: an even x even rectangle or a near-rectangle, an odd rectangle plus
    # the point, or a horizontal and a vertical chain of odd lengths.
    graphs = [(_rectangle(w, h),) for w, h in sides if w % 2 == 0 and h % 2 == 0]
    graphs += [(comp,) for comp in _near_rectangles(n)]
    if n >= 4:
        graphs += [_graph(_rectangle(w, (n - 1) // w), _POINT) for w in range(1, n, 2) if (n - 1) % w == 0]
    graphs += [_graph(_rectangle(w, 1), _rectangle(1, n - w)) for w in range(3, n - 2, 2)]
    return graphs


def _check_request(series: str, dimv: int, kind: str = KINDS[0], max_nodes: Optional[int] = None) -> None:
    """A ValueError unless series and kind are known and dimV is positive, of
    the series' parity and within max_nodes, if given (EnumerationLimitError).
    make_spec checks its series and dimV here."""
    if series not in SERIES:
        raise ValueError(f"unknown series {series!r}")
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if dimv < 1:
        raise ValueError("dimV must be positive")
    if series == "B" and dimv % 2 == 0:
        raise ValueError("series B requires odd dimV")
    if series in ("C", "D") and dimv % 2 == 1:
        raise ValueError(f"series {series} requires even dimV")
    if max_nodes is not None and dimv > max_nodes:
        raise EnumerationLimitError(
            f"dimV {dimv} exceeds the configured bound of {max_nodes}"
        )


def _distinguished_types(series: str, n: int) -> list[tuple]:
    """The distinguished graphs of series B, C or D with n nodes, by type.

    A type is a tuple of factors, each one k-node shape of class sym, (k,
    sym), or in series D two integral components of k nodes in all that
    share the origin, (k, None).  B takes an integral shape and at most one
    non-integral one; C one semi-integral shape of each sort, or one alone;
    D one non-integral shape, or two integral components, or both.  Integral
    shapes have an odd number of nodes and the others an even one, so a
    factor of the wrong parity has no shape.
    """
    if series == "B":
        return [((n, SYM_INTEGRAL),)] + [((k, SYM_INTEGRAL), (n - k, SYM_NON_INTEGRAL)) for k in range(1, n, 2)]
    if series == "C":
        semi = [((n, SYM_SEMI_COLSORT),), ((n, SYM_SEMI_ROWSORT),)]
        return semi + [((k, SYM_SEMI_COLSORT), (n - k, SYM_SEMI_ROWSORT)) for k in range(2, n - 1, 2)]
    return [((n, SYM_NON_INTEGRAL),), ((n, None),)] + [((j, SYM_NON_INTEGRAL), (n - j, None)) for j in range(4, n - 3, 2)]


@lru_cache(maxsize=None)
def _distinguished_classes(series: str, n: int) -> frozenset[tuple[str, ...]]:
    """The sorted classes of the components of each of _distinguished_types,
    a pair factor two integral ones; cached, as the check reads it per graph."""
    return frozenset(
        tuple(sorted(c for _, sym in graph_type for c in ((sym,) if sym else (SYM_INTEGRAL,) * 2)))
        for graph_type in _distinguished_types(series, n)
    )


def _admissible_cells(series: str, dimv: int, kind: str, max_nodes: int) -> list[tuple]:
    """Each admissible graph once, unsorted, as a tuple of integer components
    (k, cells) in canonical order: the k nodes of a component are the
    cells divided by k."""
    _check_request(series, dimv, kind, max_nodes)
    if series == "A":
        shapes = _connected_shapes(dimv) if kind == "distinguished" else _young_shapes(dimv)
        return [(comp,) for comp in shapes]
    if kind == "principal":
        return _principal_cells(series, dimv)
    graphs = []
    for graph_type in _distinguished_types(series, dimv):
        factors = [[(c,) for c in _cs_shapes(k, sym)] if sym else _d_integral_pairs(k) for k, sym in graph_type]
        graphs.extend(_graph(*sum(parts, ())) for parts in product(*factors))
    return graphs


def _admissible_count(series: str, dimv: int, kind: str, max_nodes: int) -> int:
    """The orbits of _admissible_cells: its graphs, each connected one of
    series D twice (two signs), with its refusals.

    A distinguished graph is a connected shape (A) or of one type of
    _distinguished_types (B, C, D).  So the count is a sum of products of
    class sizes, and only what has no size is built: the series-D pairs
    that share the origin, which must meet nowhere else, and the short lists
    of principal graphs.
    """
    if kind == "principal":
        return sum(2 if series == "D" and len(g) == 1 else 1 for g in _admissible_cells(series, dimv, kind, max_nodes))
    _check_request(series, dimv, kind, max_nodes)
    if series == "A":
        return sum(_column_counts(dimv)[dimv])
    connected = ((dimv, SYM_NON_INTEGRAL),) if series == "D" else None
    total = 0
    for graph_type in _distinguished_types(series, dimv):
        ways = prod(_class_sizes(k)[sym] if sym else len(_d_integral_pairs(k)) for k, sym in graph_type)
        total += 2 * ways if graph_type == connected else ways
    return total


def _scaled_key(graph: tuple, scale: int) -> tuple:
    """The node coordinates of each component, times scale, a multiple of
    every k: ints, in the order of the Fraction coordinates."""
    key = []
    for k, cells in graph:
        f = scale // k
        key.append(tuple((x * f, y * f) for x, y in cells))
    return tuple(key)


def enumerate_connected(n: int, *, max_nodes: int = DEFAULT_MAX_NODES) -> tuple[SkewGraph, ...]:
    """All connected skew-graphs with n nodes, canonical, sorted, no duplicates."""
    if n < 1:
        raise ValueError("node count must be positive")
    if n > max_nodes:
        raise EnumerationLimitError(
            f"enumeration of {n}-node graphs exceeds the configured bound of {max_nodes}"
        )
    return tuple(SkewGraph((_to_component(comp),)) for comp in _connected_shapes(n))


def enumerate_admissible(
    series: str, dimv: int, kind: str, *, max_nodes: int = DEFAULT_MAX_NODES
) -> tuple[SkewGraph, ...]:
    """Admissible skew-graphs for one classical series, dimension and kind,
    each in canonical form, ordered by the coordinates of their nodes,
    component by component."""
    graphs = _admissible_cells(series, dimv, kind, max_nodes)
    scale = lcm(*range(1, dimv + 1))
    graphs.sort(key=lambda g: _scaled_key(g, scale))
    return tuple(SkewGraph(tuple(map(_to_component, g))) for g in graphs)


def is_admissible(series: str, graph: SkewGraph, kind: str) -> bool:
    """Structural admissibility test; equivalent to enumeration membership."""
    return _admissible_shapes(series, graph, kind, _keys([c.nodes for c in graph.components])) is not None


def _admissible_shapes(
    series: str, graph: SkewGraph, kind: str, keyed: tuple
) -> Optional[list[tuple[Optional[ShapeClass], dict]]]:
    """The ShapeClass and the integer cells (_component_cells) of each
    component when the graph is admissible, else None, given keyed = (d,
    keys), the graph's _keys.  The graph is validated once; the shapes come
    from the columns validation read, and _realize reads the cells.  A
    series-A distinguished graph is any connected one, and neither the
    check nor _realize reads its class, so its ShapeClass is None."""
    if series not in SERIES or kind not in KINDS:
        raise ValueError("unknown series or kind")
    d, keys = keyed
    findings, comps = _validated(graph, d, keys)
    if findings:
        return None
    cells = [c for c, _ in comps]
    if series == "A" and kind == "distinguished":
        return [(None, cells[0])] if len(cells) == 1 else None
    shapes = [_cell_shape(c, columns, k[0], d) for (c, columns), k in zip(comps, keys)]
    return list(zip(shapes, cells)) if _shapes_admissible(series, graph, kind, shapes, cells) else None


def _principal_case(series: str, shapes: list[ShapeClass], cells: list[dict]) -> Optional[tuple[str, int, int]]:
    """The case of a graph of B, C or D whose component classes are those of
    a distinguished graph, with its sides w and h; None when not principal.

    - "rectangular": one w x h rectangle;
    - "near-rectangular-first", "-second" or "-third": one near-rectangle
      cut from a w x h box (non-integral, so of series D);
    - series D only, "rectangle-plus-point": a w x h rectangle and the point;
    - series D only, "chains": a horizontal chain of w nodes and a vertical
      one of h.

    The classes fix every parity, so no side is tested."""
    if len(shapes) == 1:
        rectangle, near = shapes[0].rectangle, shapes[0].near_rectangular_shape
        if rectangle:
            return ("rectangular", *rectangle)
        if near:
            xs, ys = zip(*cells[0])
            return f"near-rectangular-{near}", max(xs) - min(xs) + 1, max(ys) - min(ys) + 1
        return None
    sides = sorted(s.rectangle for s in shapes if s.rectangle)
    if series == "D" and len(sides) == len(shapes) == 2:
        (w0, h0), (w1, h1) = sides
        if (w0, h0) == (1, 1):
            return "rectangle-plus-point", w1, h1
        if w0 == h1 == 1:
            return "chains", w1, h0
    return None


def _shapes_admissible(series: str, graph: SkewGraph, kind: str, shapes: list[ShapeClass], cells: list[dict]) -> bool:
    """Admissibility of a valid graph, given the shapes and cells of its
    components.

    A graph of B, C or D is distinguished when the sorted classes of its
    components are those of one of _distinguished_types and no two of them
    are points.  Its components are then symmetric about the origin: each
    has its barycentre there, and an odd number of nodes, the origin among
    them, exactly when integral.  So neither barycentres nor the parity of
    dimV need a check, and two integral components share exactly (0,0).  A
    principal graph is a distinguished one with a _principal_case, so no
    class is checked twice."""
    comps = graph.components
    if series == "A":
        return len(comps) == 1 and shapes[0].young != "neither"
    classes = tuple(sorted(s.symmetry for s in shapes))
    sizes = [len(c) for c in comps]
    if classes not in _distinguished_classes(series, sum(sizes)) or sizes.count(1) > 1:
        return False
    return kind == "distinguished" or _principal_case(series, shapes, cells) is not None


# ---------------------------------------------------------------------------
# Serialization and rendering
# ---------------------------------------------------------------------------

def _node_text(nd: Node) -> str:
    return (
        f"{nd.x.numerator}/{nd.x.denominator},"
        f"{nd.y.numerator}/{nd.y.denominator}"
    )


def _node_from_text(text: str) -> Node:
    coords = text.split(",")
    if len(coords) != 2:
        raise ValueError(f"node {text!r} is not two coordinates x,y")
    return Node(parse_fraction(coords[0]), parse_fraction(coords[1]))


def _read_component(nodes: list[Node]) -> Component:
    """The component on nodes read from input; a repeated node is a ValueError."""
    comp = component_from_nodes(nodes)
    if len(comp) != len(nodes):
        repeated = next(nd for nd in comp.nodes if nodes.count(nd) > 1)
        raise ValueError(f"node {_node_text(repeated)} appears twice in one component")
    return comp


def graph_to_text(graph: SkewGraph) -> str:
    """One line per component; nodes as x_num/x_den,y_num/y_den pairs."""
    return "\n".join(" ".join(_node_text(nd) for nd in comp.nodes) for comp in graph.components)


def graph_from_text(text: str) -> SkewGraph:
    lines = [line.split() for line in text.splitlines()]
    comps = [_read_component([_node_from_text(tok) for tok in tokens]) for tokens in lines if tokens]
    if not comps:
        raise ValueError("no components in graph text")
    return SkewGraph(tuple(comps))


def graph_to_jsonable(graph: SkewGraph) -> dict:
    return {
        "components": [[[str(nd.x), str(nd.y)] for nd in comp.nodes] for comp in graph.components]
    }


def node_from_jsonable(pair, parse) -> Node:
    """A node from a JSON pair of numbers or numeric strings, each read by
    parse: parse_fraction, or an _entry_parser() shared by a whole document
    (ValueError otherwise)."""
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise ValueError(f"a node must be a pair of coordinates, got {reprlib.repr(pair)}")
    x, y = pair
    return Node(parse(x), parse(y))


def graph_from_jsonable(data: dict, parse) -> SkewGraph:
    """A graph from a JSON object, each coordinate read by parse.  As in
    graph_from_text, a graph needs a component and a component a node."""
    comps = data["components"] if isinstance(data, dict) else None
    if not (isinstance(comps, list) and all(isinstance(nodes, list) for nodes in comps)):
        raise ValueError("a graph must be an object whose components are lists of nodes")
    if not comps:
        raise ValueError("no components in graph")
    if not all(comps):
        raise ValueError(f"graph component {comps.index([])} has no node")
    return SkewGraph(tuple(_read_component([node_from_jsonable(nd, parse) for nd in nodes]) for nodes in comps))


def render_ascii(graph: SkewGraph) -> str:
    """Draw skew-diagrams; components with a common half-integer offset are
    drawn on separate grids, same-offset components share one grid.

    A grid is drawn on the int keys of its nodes (_keys), so that its rows
    and columns lie d apart.  It may hold at most n x n cells for n nodes,
    which every connected graph meets; a wider spread of nodes is a
    ValueError.
    """
    n = graph.n_nodes
    d, keys = _keys([c.nodes for c in graph.components])
    groups: dict[tuple[int, int], list[tuple[int, list]]] = {}
    for idx, comp in enumerate(keys):
        x, y = comp[0]
        groups.setdefault((x % d, y % d), []).append((idx, comp))
    multi = len(keys) > 1
    blocks = []
    for key in sorted(groups):
        cells: dict[tuple[int, int], str] = {}
        for idx, comp in groups[key]:
            mark = chr(ord("a") + idx) if multi else "#"
            for pos in comp:
                cells[pos] = "*" if pos in cells else mark
        x0, x1 = min(x for x, _ in cells), max(x for x, _ in cells)
        y0, y1 = min(y for _, y in cells), max(y for _, y in cells)
        width, height = x1 - x0 + d, y1 - y0 + d
        if width * height > n * n * d * d:
            width, height = Fraction(width, d), Fraction(height, d)
            raise ValueError(f"nodes spread over {width} x {height} cells, more than {n} x {n} for {n} nodes")
        columns = range(x0, x1 + 1, d)
        blocks.append("\n".join("".join([cells.get((x, y), ".") for x in columns]) for y in range(y1, y0 - 1, -d)))
    return "\n\n".join(blocks)
