"""Matrix realizations of nilpotent pairs from admissible skew-graphs.

Each admissible graph is realized on a vector space with one basis vector
per (component, node) label: e1 and e2 shift labels right and up with the
series-specific signs, h1 and h2 are diagonal with the node coordinates as
eigenvalues, and series B/C/D carry the invariant bilinear form that pairs
a label with its antipode inside the same component.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .linalg import (
    Matrix,
    integral_rows,
    matrix,
    parse_fraction,
    rank,
    sparse_rows_cols,
)
from .skewgraph import (
    SYM_SEMI_COLSORT,
    SYM_SEMI_ROWSORT,
    Node,
    SkewGraph,
    _admissible_shapes,
    _cell_offsets,
    canonical_form,
    graph_from_jsonable,
    graph_to_jsonable,
    node_from_jsonable,
)

ZERO = Fraction(0)
ONE = Fraction(1)
HALF = Fraction(1, 2)


class NotAdmissibleError(ValueError):
    """The graph is not admissible for the requested series."""


@dataclass(frozen=True)
class AlgebraSpec:
    """A classical algebra inside gl(V): series, dimension, rank, bilinear form."""

    series: str
    dimv: int
    rank: int
    form: Optional[Matrix]


@dataclass(frozen=True)
class BasisLabel:
    component_index: int
    node: Node


@dataclass(frozen=True)
class PairRealization:
    spec: AlgebraSpec
    graph: SkewGraph
    labels: tuple[BasisLabel, ...]
    e1: Matrix
    e2: Matrix
    h1: Matrix
    h2: Matrix
    orbit_sign: Optional[str] = None


@dataclass(frozen=True)
class RelationReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)

    @property
    def failures(self) -> tuple[str, ...]:
        return tuple(name for name, passed in self.checks if not passed)


def series_rank(series: str, dimv: int) -> int:
    if series == "A":
        return dimv - 1
    if series == "B":
        return (dimv - 1) // 2
    return dimv // 2


def standard_form(series: str, dimv: int) -> Optional[Matrix]:
    """Antidiagonal Gram matrix: symmetric for B/D, alternating for C."""
    if series == "A":
        return None
    rows = [[ZERO] * dimv for _ in range(dimv)]
    for i in range(dimv):
        j = dimv - 1 - i
        if series == "C":
            rows[i][j] = ONE if i < j else -ONE
        else:
            rows[i][j] = ONE
    return matrix(rows)


def make_spec(series: str, dimv: int, form: Optional[Matrix] = None) -> AlgebraSpec:
    if series not in ("A", "B", "C", "D"):
        raise ValueError(f"unknown series {series!r}")
    if series == "B" and dimv % 2 == 0:
        raise ValueError("series B requires odd dimV")
    if series in ("C", "D") and dimv % 2:
        raise ValueError(f"series {series} requires even dimV")
    if form is None and series != "A":
        form = standard_form(series, dimv)
    return AlgebraSpec(series=series, dimv=dimv, rank=series_rank(series, dimv), form=form)


def _shift_signs(series: str, symmetry: str, x2: int, y2: int) -> tuple[Fraction, Fraction]:
    """Signs of the e1 and e2 arrows leaving the node (x2 / 2, y2 / 2).

    Series B, C and D components are centred on the origin, so twice a
    node's coordinates are integers; B and D nodes have x + y integral, and
    series C colsort (rowsort) nodes an integral x (y).
    """
    if series == "A":
        return ONE, ONE
    if series in ("B", "D"):
        s = ONE if (x2 + y2) % 4 == 0 else -ONE
        return s, -s
    if symmetry == SYM_SEMI_COLSORT:
        if y2 > 0:
            return -ONE, ONE
        if y2 == -1:
            return ONE, (ONE if x2 % 4 == 0 else -ONE)
        return ONE, -ONE
    if symmetry == SYM_SEMI_ROWSORT:
        if x2 > 0:
            return ONE, -ONE
        if x2 == -1:
            return (ONE if y2 % 4 == 0 else -ONE), ONE
        return -ONE, ONE
    raise ValueError(f"series C component with unexpected symmetry {symmetry!r}")


def _conjugate_by_swap(m: Matrix, i: int, j: int) -> Matrix:
    rows = [list(r) for r in m]
    rows[i], rows[j] = rows[j], rows[i]
    for r in rows:
        r[i], r[j] = r[j], r[i]
    return tuple(tuple(r) for r in rows)


def build_pair(series: str, graph: SkewGraph, orbit_sign: Optional[str] = None) -> PairRealization:
    """Realize an admissible graph as exact matrices (e1, e2, h1, h2).

    For a connected series-D graph orbit_sign picks one of the two special
    orthogonal orbit representatives ("plus" by default); the minus one is
    the plus one conjugated by the determinant -1 isometry swapping the dual
    basis vectors at (1/2,1/2) and (-1/2,-1/2).
    """
    graph = canonical_form(graph)
    shapes = _admissible_shapes(series, graph, "distinguished")
    if shapes is None:
        raise NotAdmissibleError(f"graph is not admissible for series {series}")
    if series == "D" and graph.is_connected():
        sign = orbit_sign or "plus"
        if sign not in ("plus", "minus"):
            raise ValueError(f"unknown orbit sign {orbit_sign!r}")
    else:
        if orbit_sign is not None:
            raise ValueError("orbit_sign is only meaningful for connected series-D graphs")
        sign = None
    return _realize(series, graph, shapes, sign)


def _realize(series: str, graph: SkewGraph, shapes: list, sign: Optional[str]) -> PairRealization:
    """build_pair of a canonical admissible graph, given the ShapeClass of
    each component and the orbit sign ("plus", "minus" or None) it resolved."""
    labels = tuple(
        BasisLabel(ci, nd) for ci, comp in enumerate(graph.components) for nd in comp.nodes
    )
    n = len(labels)
    e1 = [[ZERO] * n for _ in range(n)]
    e2 = [[ZERO] * n for _ in range(n)]
    h1 = [[ZERO] * n for _ in range(n)]
    h2 = [[ZERO] * n for _ in range(n)]
    g = None if series == "A" else [[ZERO] * n for _ in range(n)]
    start = 0
    for comp, shape in zip(graph.components, shapes):
        # Arrows and antipodes are found on integer cells.  Twice a node's
        # coordinates are 2 * offset - (min + max offset) once the component
        # is centred on the origin, which series B, C and D components are.
        offsets = _cell_offsets(comp)
        index = {d: start + k for k, d in enumerate(offsets)}
        sx = min(dx for dx, _ in offsets) + max(dx for dx, _ in offsets)
        sy = min(dy for _, dy in offsets) + max(dy for _, dy in offsets)
        for (dx, dy), nd in zip(offsets, comp.nodes):
            i = index[dx, dy]
            h1[i][i] = nd.x
            h2[i][i] = nd.y
            x2, y2 = 2 * dx - sx, 2 * dy - sy
            s1, s2 = _shift_signs(series, shape.symmetry, x2, y2)
            right = index.get((dx + 1, dy))
            if right is not None:
                e1[right][i] = s1
            up = index.get((dx, dy + 1))
            if up is not None:
                e2[up][i] = s2
            if g is not None:
                antipode = index[sx - dx, sy - dy]
                if series in ("B", "D"):
                    g[i][antipode] = ONE
                elif shape.symmetry == SYM_SEMI_COLSORT:
                    g[i][antipode] = ONE if y2 > 0 else -ONE
                else:
                    g[i][antipode] = ONE if x2 > 0 else -ONE
        start += len(offsets)
    form = None if g is None else tuple(tuple(r) for r in g)

    mats = [tuple(tuple(r) for r in m) for m in (e1, e2, h1, h2)]
    if sign == "minus":
        i = labels.index(BasisLabel(0, Node(HALF, HALF)))
        j = labels.index(BasisLabel(0, Node(-HALF, -HALF)))
        mats = [_conjugate_by_swap(m, i, j) for m in mats]

    spec = make_spec(series, n, form)
    return PairRealization(
        spec=spec,
        graph=graph,
        labels=labels,
        e1=mats[0],
        e2=mats[1],
        h1=mats[2],
        h2=mats[3],
        orbit_sign=sign,
    )


def _commutator_entries(a: list, b: list) -> dict[tuple[int, int], int]:
    """The nonzero entries of ab - ba, from the nonzero rows of a and b."""
    out: dict[tuple[int, int], int] = {}
    for i, row in enumerate(a):
        for t, x in row:
            for j, y in b[t]:
                out[i, j] = out.get((i, j), 0) + x * y
    for i, row in enumerate(b):
        for t, x in row:
            for j, y in a[t]:
                out[i, j] = out.get((i, j), 0) - x * y
    return {p: v for p, v in out.items() if v}


def _in_algebra(spec: AlgebraSpec, rows: list, gram: Optional[tuple]) -> bool:
    """Whether x is in g, from the nonzero rows of a multiple of x and the
    sparse_rows_cols of G.

    Series A asks for trace 0.  Otherwise x[c][a] adds x[c][a] G[c][b] to
    entry (a, b) of x^T G and G[p][c] x[c][a] to entry (p, a) of G x, and
    x^T G + G x must vanish.
    """
    if spec.series == "A":
        return sum(x for i, row in enumerate(rows) for j, x in row if i == j) == 0
    g_rows, g_cols = gram
    out: dict[tuple[int, int], int] = {}
    for c, row in enumerate(rows):
        for a, x in row:
            for b, y in g_rows[c]:
                out[a, b] = out.get((a, b), 0) + x * y
            for p, y in g_cols[c]:
                out[p, a] = out.get((p, a), 0) + y * x
    return not any(out.values())


def _bracket_checks(scaled: list) -> list[tuple[str, bool]]:
    """The commuting and grading relations of e1, e2, h1, h2.

    scaled holds integral_rows of e1, e2, h1 and h2: each matrix m enters
    as its nonzero entries times c_m > 0, so the arithmetic is on ints.
    Commuting does not change under scaling, and [h, e] = e holds iff
    [c_h h, c_e e] = c_h (c_e e).
    """
    (_, e1), (_, e2), (c_h1, h1), (c_h2, h2) = scaled

    def times(c: int, rows: list) -> dict[tuple[int, int], int]:
        return {(i, j): c * x for i, row in enumerate(rows) for j, x in row}

    return [
        ("e1_e2_commute", not _commutator_entries(e1, e2)),
        ("h1_h2_commute", not _commutator_entries(h1, h2)),
        ("h1_e1_grading", _commutator_entries(h1, e1) == times(c_h1, e1)),
        ("h1_e2_grading", not _commutator_entries(h1, e2)),
        ("h2_e1_grading", not _commutator_entries(h2, e1)),
        ("h2_e2_grading", _commutator_entries(h2, e2) == times(c_h2, e2)),
    ]


def verify_relations(r: PairRealization) -> RelationReport:
    """Check the defining relations, algebra membership and nondegeneracy.

    The brackets and x^T G + G x are computed from the nonzero entries of
    integer multiples of the matrices; membership in g does not change under
    scaling either.
    """
    return _scanned_relations(r)[0]


def _scanned_relations(r: PairRealization) -> tuple[RelationReport, list, Optional[tuple]]:
    """verify_relations(r), the integral_rows of e1, e2, h1 and h2 it read,
    and the sparse_rows_cols of the Gram matrix (None without a form)."""
    spec = r.spec
    scaled = [integral_rows(m) for m in (r.e1, r.e2, r.h1, r.h2)]
    gram = None if spec.form is None else sparse_rows_cols(spec.form)
    checks = _bracket_checks(scaled) + [
        (f"{name}_in_algebra", _in_algebra(spec, rows, gram))
        for name, (_, rows) in zip(("e1", "e2", "h1", "h2"), scaled)
    ]
    checks.append(("form_nondegenerate", spec.form is None or rank(spec.form) == spec.dimv))
    return RelationReport(tuple(checks)), scaled, gram


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def matrix_to_jsonable(m: Matrix, fmt: str = "dense"):
    if fmt == "dense":
        return [[str(x) for x in row] for row in m]
    if fmt == "sparse":
        return {
            "shape": len(m),
            "entries": [[i, j, str(x)] for i, row in enumerate(m) for j, x in enumerate(row) if x],
        }
    raise ValueError(f"unknown matrix format {fmt!r}")


def matrix_from_jsonable(data, parse) -> Matrix:
    """Read a dense (list of rows) or sparse ({shape, entries}) matrix,
    each entry by parse (parse_fraction, or _entry_parser() for a document).

    Raises ValueError for any other JSON value, an entry outside the shape,
    or an entry that is not a number.
    """
    if isinstance(data, dict):
        n, entries = data.get("shape"), data.get("entries")
        if type(n) is not int or n < 0 or not isinstance(entries, list):
            raise ValueError("a sparse matrix needs an integer shape and a list of entries")
        rows = [[ZERO] * n for _ in range(n)]
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3 and all(type(k) is int for k in entry[:2])):
                raise ValueError(f"sparse entry {reprlib.repr(entry)} is not [row, column, value]")
            i, j, v = entry
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"sparse entry ({i}, {j}) lies outside a {n}x{n} matrix")
            rows[i][j] = parse(v)
        return tuple(tuple(r) for r in rows)
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError(f"a matrix must be a list of rows or a sparse object, got {type(data).__name__}")
    return tuple(tuple(parse(x) for x in row) for row in data)


def _entry_parser():
    """parse_fraction that parses each distinct string once."""
    parsed: dict[str, Fraction] = {}

    def parse(value):
        if type(value) is not str:
            return parse_fraction(value)
        x = parsed.get(value)
        if x is None:
            x = parsed[value] = parse_fraction(value)
        return x

    return parse


def _square(data, n: int, name: str, parse) -> Matrix:
    """The n x n matrix in data; a sparse shape is checked before it is filled."""
    if isinstance(data, dict) and data.get("shape") != n:
        raise ValueError(f"{name} is not a {n}x{n} matrix")
    m = matrix_from_jsonable(data, parse)
    if len(m) != n or any(len(row) != n for row in m):
        raise ValueError(f"{name} is not a {n}x{n} matrix")
    return m


def realization_to_jsonable(r: PairRealization, fmt: str = "dense") -> dict:
    return {
        "series": r.spec.series,
        "dimv": r.spec.dimv,
        "rank": r.spec.rank,
        "orbit_sign": r.orbit_sign,
        "graph": graph_to_jsonable(r.graph),
        "labels": [
            {"component": lb.component_index, "node": [str(lb.node.x), str(lb.node.y)]}
            for lb in r.labels
        ],
        "format": fmt,
        "gram": None if r.spec.form is None else matrix_to_jsonable(r.spec.form, fmt),
        "e1": matrix_to_jsonable(r.e1, fmt),
        "e2": matrix_to_jsonable(r.e2, fmt),
        "h1": matrix_to_jsonable(r.h1, fmt),
        "h2": matrix_to_jsonable(r.h2, fmt),
    }


def realization_from_jsonable(data: dict) -> PairRealization:
    """Read a realization document.

    Raises ValueError when a value has the wrong JSON type, when a matrix is
    not dimV x dimV, when the label count differs from dimV, when series B,
    C or D comes without a Gram matrix, or when a number has a zero
    denominator.
    """

    if not isinstance(data, dict):
        raise ValueError("a realization must be a JSON object")
    series, n = data["series"], data["dimv"]
    if type(n) is not int or n < 1:
        raise ValueError(f"dimv must be a positive integer, got {n!r}")
    # The labels are counted before any dimv x dimv matrix is filled, so a
    # small document cannot claim a large dimv.
    items = data["labels"]
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise ValueError("labels must be a list of {component, node} objects")
    if len(items) != n:
        raise ValueError(f"{len(items)} labels for dimv {n}")
    labels = tuple(BasisLabel(item["component"], node_from_jsonable(item["node"])) for item in items)
    parse = _entry_parser()
    if data.get("gram") is None:
        if series != "A":
            raise ValueError(f"a series {series} realization needs its gram matrix")
        form = None
    else:
        form = _square(data["gram"], n, "gram", parse)
    spec = make_spec(series, n, form)
    e1, e2, h1, h2 = (_square(data[k], n, k, parse) for k in ("e1", "e2", "h1", "h2"))
    return PairRealization(
        spec=spec,
        graph=graph_from_jsonable(data["graph"]),
        labels=labels,
        e1=e1,
        e2=e2,
        h1=h1,
        h2=h2,
        orbit_sign=data.get("orbit_sign"),
    )
