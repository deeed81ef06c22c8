"""Matrix realizations of nilpotent pairs from admissible skew-graphs.

Each admissible graph is realized on a vector space with one basis vector
per (component, node) label: e1 and e2 shift labels right and up with the
series-specific signs, h1 and h2 are diagonal with the node coordinates as
eigenvalues, and series B/C/D carry the invariant bilinear form that pairs
a label with its antipode inside the same component.

The sparse form lives here: build_pair makes e1, e2, h1, h2 and the Gram
matrix as integral_rows (c, rows) from the cells validation read, h1 and
h2 as int weights.  A realization document, dense or sparse, is read
straight into that form, and the relation check, analyze(), the catalog
and sparse export read it.  The relation check reads the grading of a pair
whose h1 and h2 are diagonal, as every built pair's are, off those
weights.  AlgebraSpec stores only that form of the Gram matrix, and its
dense form is a view built on first read.  So are the dense e1, ..., h2
of a built or read pair.  Only a PairRealization made by
its constructor or dataclasses.replace() holds dense matrices, which
_scaled() scans once.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from math import gcd
from typing import Optional

from .linalg import (
    ZERO,
    Matrix,
    _entry_parser,
    dense_matrix,
    integral_rows,
    rank,
    scaled_rows,
    with_columns,
)
from .skewgraph import (
    SYM_SEMI_COLSORT,
    SYM_SEMI_ROWSORT,
    Node,
    SkewGraph,
    _admissible_shapes,
    _canonical,
    _check_request,
    graph_from_jsonable,
    graph_to_jsonable,
    node_from_jsonable,
)

HALF = Fraction(1, 2)
# The nodes (1/2,1/2) and (-1/2,-1/2) whose basis vectors a minus-sign build swaps.
_SWAPPED = (Node(HALF, HALF), Node(-HALF, -HALF))
_MATRICES = ("e1", "e2", "h1", "h2")


class NotAdmissibleError(ValueError):
    """The graph is not admissible for the requested series."""


@dataclass(frozen=True)
class AlgebraSpec:
    """A classical algebra inside gl(V): series, dimension, rank, and the
    Gram matrix by its integral_rows with rows as tuples, or None (series A)."""

    series: str
    dimv: int
    rank: int
    gram: Optional[tuple]

    @cached_property
    def form(self) -> Optional[Matrix]:
        """The Gram matrix as a dense Fraction matrix, or None."""
        return None if self.gram is None else dense_matrix(self.gram)


@dataclass(frozen=True)
class BasisLabel:
    component_index: int
    node: Node


@dataclass(frozen=True)
class PairRealization:
    """An instance made by _sparse_pair() holds e1, e2, h1 and h2 as sparse
    forms and builds each dense field on first read.  One made by the
    constructor or dataclasses.replace() has _sparse None: _scaled() scans
    its dense fields once, so no stale sparse form is carried."""

    spec: AlgebraSpec
    graph: SkewGraph
    labels: tuple[BasisLabel, ...]
    e1: Matrix
    e2: Matrix
    h1: Matrix
    h2: Matrix
    orbit_sign: Optional[str] = None
    # integral_rows of e1, e2, h1 and h2: read them by _scaled().
    _sparse: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)
    # verify_relations(self), kept by its first call.
    _relations: Optional[RelationReport] = field(default=None, init=False, repr=False, compare=False)

    def __getattr__(self, name: str):
        # Called only for an attribute that the instance lacks.
        if name not in _MATRICES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self.__dict__[name] = value = dense_matrix(self._sparse[_MATRICES.index(name)])
        return value

    def _scaled(self) -> tuple:
        """The sparse forms this instance was built from, else those of its
        dense fields, scanned once."""
        if self._sparse is None:
            self.__dict__["_sparse"] = tuple(integral_rows(getattr(self, name)) for name in _MATRICES)
        return self._sparse


def _sparse_pair(scaled: tuple, **fields) -> PairRealization:
    """A PairRealization with these sparse forms of e1, e2, h1, h2 and fields."""
    obj = object.__new__(PairRealization)
    obj.__dict__.update(fields, _sparse=scaled)
    return obj


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


def _standard_rows(series: str, dimv: int) -> list:
    """The nonzero rows of the standard Gram matrix of series B, C or D."""
    return [((dimv - 1 - i, -1 if series == "C" and i >= dimv - 1 - i else 1),) for i in range(dimv)]


def make_spec(series: str, dimv: int, form: Optional[Matrix] = None) -> AlgebraSpec:
    if form is None:
        return _sparse_spec(series, dimv, None if series == "A" else (1, _standard_rows(series, dimv)))
    spec = _sparse_spec(series, dimv, integral_rows(form))
    if len(form) != dimv or any(len(row) != dimv for row in form):
        raise ValueError(f"the form is not a {dimv}x{dimv} matrix")
    return spec


def _sparse_spec(series: str, dimv: int, gram: Optional[tuple]) -> AlgebraSpec:
    """make_spec with the Gram matrix given by its integral_rows (None without
    a form), its rows kept as a tuple so that the spec hashes.  A ValueError
    unless the series and dimV pass _check_request, or for a form in series A."""
    _check_request(series, dimv)
    if gram is not None and series == "A":
        raise ValueError("series A takes no gram matrix")
    return AlgebraSpec(series, dimv, series_rank(series, dimv), None if gram is None else (gram[0], tuple(gram[1])))


def _shift_signs(series: str, symmetry: str, x2: int, y2: int) -> tuple[int, int]:
    """Signs of the e1 and e2 arrows leaving the node (x2 / 2, y2 / 2).

    Series B, C and D components are centred on the origin, so twice a
    node's coordinates are integers; B and D nodes have x + y integral, and
    series C colsort (rowsort) nodes an integral x (y).
    """
    if series == "A":
        return 1, 1
    if series in ("B", "D"):
        s = 1 if (x2 + y2) % 4 == 0 else -1
        return s, -s
    if symmetry == SYM_SEMI_COLSORT:
        if y2 > 0:
            return -1, 1
        if y2 == -1:
            return 1, (1 if x2 % 4 == 0 else -1)
        return 1, -1
    if symmetry == SYM_SEMI_ROWSORT:
        if x2 > 0:
            return 1, -1
        if x2 == -1:
            return (1 if y2 % 4 == 0 else -1), 1
        return -1, 1
    raise ValueError(f"series C component with unexpected symmetry {symmetry!r}")


def build_pair(series: str, graph: SkewGraph, orbit_sign: Optional[str] = None) -> PairRealization:
    """Realize an admissible graph as exact matrices (e1, e2, h1, h2).

    For a connected series-D graph orbit_sign picks one of the two special
    orthogonal orbit representatives ("plus" by default); the minus one is
    the plus one conjugated by the determinant -1 isometry swapping the dual
    basis vectors at (1/2,1/2) and (-1/2,-1/2).
    """
    graph, keyed = _canonical(graph)
    found = _admissible_shapes(series, graph, "distinguished", keyed)
    if found is None:
        raise NotAdmissibleError(f"graph is not admissible for series {series}")
    sign = None
    if series == "D" and graph.is_connected():
        sign = orbit_sign or "plus"
        if sign not in ("plus", "minus"):
            raise ValueError(f"unknown orbit sign {orbit_sign!r}")
    elif orbit_sign is not None:
        raise ValueError("orbit_sign is only meaningful for connected series-D graphs")
    return _realize(series, graph, keyed, found, sign)


def _realize(series: str, graph: SkewGraph, keyed: tuple, found: list, sign: Optional[str]) -> PairRealization:
    """build_pair of a canonical admissible graph, given its _keys, the
    (ShapeClass or None, cells) of each component as _admissible_shapes finds them
    and the orbit sign ("plus", "minus" or None) it resolved.  All five
    matrices are made as integral_rows from the cells: e1, e2 and G have
    scale 1, and h1 and h2 the least common denominator along their axis."""
    labels = tuple(BasisLabel(ci, nd) for ci, comp in enumerate(graph.components) for nd in comp.nodes)
    n = len(labels)
    e1, e2, h1, h2 = [()] * n, [()] * n, [()] * n, [()] * n
    # A component's nodes differ by integer vectors, so along each axis the
    # nodes' lcm of denominators is d / gcd(d, the first nodes' keys).
    d, keys = keyed
    bases = [k[0] for k in keys]
    c1, c2 = (d // gcd(d, *axis) for axis in zip(*bases))
    g: Optional[list] = None if series == "A" else [None] * n
    start = 0
    for (kx, ky), (shape, cells) in zip(bases, found):
        symmetry = None if shape is None else shape.symmetry
        # Arrows and antipodes are found on integer cells.  Twice a node's
        # coordinates are 2 * offset - (min + max offset) once the component
        # is centred on the origin (series B, C, D); c1 x = bx + c1 dx.
        bx, by = kx * c1 // d, ky * c2 // d
        sx = min(dx for dx, _ in cells) + max(dx for dx, _ in cells)
        sy = min(dy for _, dy in cells) + max(dy for _, dy in cells)
        for (dx, dy), k in cells.items():
            i, x, y = start + k, bx + c1 * dx, by + c2 * dy
            h1[i], h2[i] = ((i, x),) if x else (), ((i, y),) if y else ()
            x2, y2 = 2 * dx - sx, 2 * dy - sy
            s1, s2 = _shift_signs(series, symmetry, x2, y2)
            right = cells.get((dx + 1, dy))
            if right is not None:
                e1[start + right] = ((i, s1),)
            up = cells.get((dx, dy + 1))
            if up is not None:
                e2[start + up] = ((i, s2),)
            if g is not None:
                positive = series in ("B", "D") or (y2 if symmetry == SYM_SEMI_COLSORT else x2) > 0
                g[i] = ((start + cells[sx - dx, sy - dy], 1 if positive else -1),)
        start += len(cells)

    scaled = [(1, e1), (1, e2), (c1, h1), (c2, h2)]
    if sign == "minus":
        # P m P for the swap P of the basis vectors at (1/2,1/2) and (-1/2,-1/2).
        i, j = (labels.index(BasisLabel(0, nd)) for nd in _SWAPPED)
        moved = [{i: j, j: i}.get(t, t) for t in range(n)]
        scaled = [(c, [tuple(sorted((moved[k], x) for k, x in rows[t])) for t in moved]) for c, rows in scaled]
    spec = _sparse_spec(series, n, None if g is None else (1, g))
    return _sparse_pair(tuple(scaled), spec=spec, graph=graph, labels=labels, orbit_sign=sign)


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
    nonzero entries of a multiple of G by row and by column (with_columns).

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


def _diagonal_weights(h1, h2) -> Optional[list[tuple[int, int]]]:
    """The diagonals (p_i, q_i) of h1 and h2, given by integral_rows (so p
    is c_h1 h1's), when every row of both is empty or holds one entry, on
    the diagonal; else None."""
    weights = []
    for i, (r1, r2) in enumerate(zip(h1[1], h2[1])):
        if len(r1) > 1 or len(r2) > 1 or r1 and r1[0][0] != i or r2 and r2[0][0] != i:
            return None
        weights.append((r1[0][1] if r1 else 0, r2[0][1] if r2 else 0))
    return weights


def _bracket_checks(scaled: list) -> list[tuple[str, bool]]:
    """The commuting and grading relations of e1, e2, h1, h2.

    scaled holds integral_rows of e1, e2, h1 and h2: each matrix m enters
    as its nonzero entries times c_m > 0, so the arithmetic is on ints.
    Commuting does not change under scaling, and [h, e] = e holds iff
    [c_h h, c_e e] = c_h (c_e e).

    When h1 and h2 are diagonal (_diagonal_weights), they commute, and
    [c_h h, e] has entry (p_i - p_j) e_ij at each entry e_ij of e, p the
    diagonal of c_h h: [h, e] = e iff p_i - p_j = c_h there, and [h, e] = 0
    iff p_i = p_j.  Only e1 and e2 are then multiplied; any other pair
    goes to _commutator_checks.
    """
    weights = _diagonal_weights(scaled[2], scaled[3])
    if weights is None:
        return _commutator_checks(scaled)
    (_, e1), (_, e2), (c_h1, _), (c_h2, _) = scaled

    def graded(rows: list, axis: int, step: int) -> bool:
        return all(weights[i][axis] - weights[j][axis] == step for i, row in enumerate(rows) for j, _ in row)

    return [
        ("e1_e2_commute", not _commutator_entries(e1, e2)),
        ("h1_h2_commute", True),
        ("h1_e1_grading", graded(e1, 0, c_h1)),
        ("h1_e2_grading", graded(e2, 0, 0)),
        ("h2_e1_grading", graded(e1, 1, 0)),
        ("h2_e2_grading", graded(e2, 1, c_h2)),
    ]


def _commutator_checks(scaled: list) -> list[tuple[str, bool]]:
    """_bracket_checks of any pair, by the six sparse commutators."""
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
    scaling either.  The report is kept on r for analyze() to read; an
    instance made by dataclasses.replace() is checked afresh.
    """
    if r._relations is None:
        spec, scaled = r.spec, r._scaled()
        gram = spec.gram
        gram_rows_cols = None if gram is None else with_columns(gram[1])
        checks = _bracket_checks(scaled) + [
            (f"{name}_in_algebra", _in_algebra(spec, rows, gram_rows_cols))
            for name, (_, rows) in zip(_MATRICES, scaled)
        ]
        checks.append(("form_nondegenerate", gram is None or _nondegenerate(gram[1], spec.dimv)))
        r.__dict__["_relations"] = RelationReport(tuple(checks))
    return r._relations


def _checked_form(series: str, gram: Optional[tuple]) -> Optional[tuple]:
    """gram, integral_rows of a Gram matrix or None, if it is symmetric (B, D)
    or alternating (C), else ValueError: the rectangularity test needs
    sigma(x) = -G^-1 x^T G to be an involution of gl(V), which it is only
    when G^T = +-G, so that h lies in [e, g] exactly when it lies in
    [e, gl(V)]."""
    if gram is None or series == "A":
        return gram
    sign = -1 if series == "C" else 1
    entries = {(i, j): x for i, row in enumerate(gram[1]) for j, x in row}
    if any(entries.get((j, i)) != sign * x for (i, j), x in entries.items()):
        kind = "alternating" if sign < 0 else "symmetric"
        raise ValueError(f"the gram matrix of a series {series} realization must be {kind}")
    return gram


def _nondegenerate(rows: list, n: int) -> bool:
    """Whether the matrix of these nonzero rows has rank n: at once when it
    is monomial (one entry in each row and column), else by elimination."""
    monomial = len(rows) == n and all(len(row) == 1 for row in rows) and len({row[0][0] for row in rows}) == n
    return monomial or rank([[d.get(j, 0) for j in range(len(rows))] for d in map(dict, rows)]) == n


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _ratio_text(x: int, c: int) -> str:
    """str(Fraction(x, c)) for ints x and c > 0, without making the Fraction."""
    g = gcd(x, c)
    return str(x // g) if g == c else f"{x // g}/{c // g}"


def scaled_to_jsonable(scaled) -> dict:
    """A sparse ({shape, entries}) matrix document of m given by its
    integral_rows, each row in increasing column order."""
    c, rows = scaled
    return {"shape": len(rows), "entries": [[i, j, _ratio_text(x, c)] for i, row in enumerate(rows) for j, x in row]}


def json_text(obj) -> str:
    """json.dumps(obj, indent=2) by one walk, each str by the C encoder; an obj
    holding what the walk does not write (a float, an int key) goes to json.dumps."""
    try:
        return _json_text(obj, "\n")
    except TypeError:
        return json.dumps(obj, indent=2)


def _json_text(obj, indent: str) -> str:
    t = type(obj)
    if t is str:
        return encode_basestring_ascii(obj)
    if t is int:
        return int.__repr__(obj)
    if obj is None or t is bool:
        return {None: "null", True: "true", False: "false"}[obj]
    inner = indent + "  "
    if t is dict:  # a key that is no str is a TypeError here
        items, brackets = [encode_basestring_ascii(k) + ": " + _json_text(v, inner) for k, v in obj.items()], "{}"
    elif t is list or t is tuple:
        items, brackets = [_json_text(v, inner) for v in obj], "[]"
    else:
        raise TypeError(f"{t.__name__} is left to json.dumps")
    return brackets[0] + inner + ("," + inner).join(items) + indent + brackets[1] if items else brackets


def matrices_to_jsonable(spec: AlgebraSpec, r: PairRealization, fmt: str) -> dict:
    """The gram, e1, e2, h1 and h2 of a document in the dense (lists of rows)
    or sparse format, the sparse one written from the sparse forms."""
    names = ("gram",) + _MATRICES
    if fmt == "sparse":
        mats = (spec.gram,) + r._scaled()
        return {name: None if m is None else scaled_to_jsonable(m) for name, m in zip(names, mats)}
    if fmt != "dense":
        raise ValueError(f"unknown matrix format {fmt!r}")
    mats = [spec.form] + [getattr(r, name) for name in _MATRICES]
    return {name: None if m is None else [[str(x) for x in row] for row in m] for name, m in zip(names, mats)}


def _square(data, n: int, name: str, parse) -> tuple:
    """integral_rows of the n x n matrix in data, each entry read by parse,
    an _entry_parser, so each 0 is ZERO: from a list of rows, where an entry
    "0" is skipped unparsed, or from a sparse {shape, entries} object, which
    is never filled in (a later entry at a place wins).  Raises ValueError
    for another JSON value or size, an entry outside the shape, or an entry
    not a number; a list of rows is read whole before its size is checked."""
    if isinstance(data, dict):
        entries = data.get("entries")
        if data.get("shape") != n:
            raise ValueError(f"{name} is not a {n}x{n} matrix")
        if type(data["shape"]) is not int or not isinstance(entries, list):
            raise ValueError("a sparse matrix needs an integer shape and a list of entries")
        rows: list[dict] = [{} for _ in range(n)]
        for entry in entries:
            if not (isinstance(entry, list) and len(entry) == 3 and all(type(k) is int for k in entry[:2])):
                raise ValueError(f"sparse entry {reprlib.repr(entry)} is not [row, column, value]")
            i, j, v = entry
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"sparse entry ({i}, {j}) lies outside a {n}x{n} matrix")
            rows[i][j] = parse(v)
        return scaled_rows([sorted((j, x) for j, x in row.items() if x) for row in rows])
    if not (isinstance(data, list) and all(isinstance(row, list) for row in data)):
        raise ValueError(f"a matrix must be a list of rows or a sparse object, got {type(data).__name__}")
    nonzero = [[(j, x) for j, v in enumerate(row) if v != "0" and (x := parse(v)) is not ZERO] for row in data]
    if len(data) != n or any(len(row) != n for row in data):
        raise ValueError(f"{name} is not a {n}x{n} matrix")
    return scaled_rows(nonzero)


def _check_labels(labels: tuple, graph: SkewGraph) -> None:
    """ValueError, naming the first bad label, unless each label is a
    distinct (component, node) pair of the graph: its component the int
    index of a graph component, and its node a node of that component."""
    k = len(graph.components)
    for c in (lb.component_index for lb in labels):
        if type(c) is not int or not 0 <= c < k:
            raise ValueError(f"label component {reprlib.repr(c)} is not the index of one of the {k} graph components")
    # A (component, node) pair is matched as ints: the node in lowest terms.
    pairs = {(c, nd.x.numerator, nd.x.denominator, nd.y.numerator, nd.y.denominator)
             for c, comp in enumerate(graph.components) for nd in comp.nodes}
    seen = set()
    for i, lb in enumerate(labels):
        c, nd = lb.component_index, lb.node
        pair = c, nd.x.numerator, nd.x.denominator, nd.y.numerator, nd.y.denominator
        if pair not in pairs:
            raise ValueError(f"label {i}: node ({nd.x}, {nd.y}) is not a node of graph component {c}")
        if pair in seen:
            raise ValueError(f"label {i} repeats component {c}, node ({nd.x}, {nd.y})")
        seen.add(pair)


def _field(data: dict, name: str):
    """A required field of a realization document, or a ValueError naming it."""
    if name not in data:
        raise ValueError(f"realization has no field {name!r}")
    return data[name]


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
        **matrices_to_jsonable(r.spec, r, fmt),
    }


def realization_from_jsonable(data: dict) -> PairRealization:
    """Read a realization document.

    Raises ValueError when a required field is missing ("realization has
    no field 'h1'"), when a value has the wrong JSON type, when a matrix is
    not dimV x dimV, when the label count differs from dimV, when the series
    is unknown, when series B, C or D comes without a Gram matrix or with
    one that is not symmetric (B, D) or alternating (C), when a number has
    a zero denominator, when orbit_sign is not null, "plus" or "minus", when
    it is not null on a graph other than a connected series-D one
    (build_pair refuses such a sign too) or null on a connected series-D
    one (build_pair writes plus or minus there), or when the labels are not
    distinct (component, node) pairs of the graph (_check_labels).  One
    _entry_parser reads every number: the label nodes, the graph nodes and
    the matrix entries, so each distinct string is parsed once.
    Every matrix is read into its sparse form alone, dense or sparse, so
    sparse matrices stay sparse: the dense fields are built only when read.
    """

    if not isinstance(data, dict):
        raise ValueError("a realization must be a JSON object")
    series, n = _field(data, "series"), _field(data, "dimv")
    if type(n) is not int or n < 1:
        raise ValueError(f"dimv must be a positive integer, got {n!r}")
    # The labels are counted before any matrix is read, so a small document
    # cannot claim a large dimv.
    items = _field(data, "labels")
    if not (isinstance(items, list) and all(isinstance(item, dict) for item in items)):
        raise ValueError("labels must be a list of {component, node} objects")
    if len(items) != n:
        raise ValueError(f"{len(items)} labels for dimv {n}")
    parse = _entry_parser()
    labels = tuple(BasisLabel(item["component"], node_from_jsonable(item["node"], parse)) for item in items)
    gram = data.get("gram")
    if gram is not None:
        gram = _square(gram, n, "gram", parse)
    spec = _sparse_spec(series, n, gram)
    if gram is None and series != "A":
        raise ValueError(f"a series {series} realization needs its gram matrix")
    _checked_form(series, gram)
    mats = tuple(_square(_field(data, name), n, name, parse) for name in _MATRICES)
    graph = graph_from_jsonable(_field(data, "graph"), parse)
    sign = data.get("orbit_sign")
    if sign not in (None, "plus", "minus"):
        raise ValueError(f"orbit_sign must be null, plus or minus, got {reprlib.repr(sign)}")
    if sign is not None and not (series == "D" and graph.is_connected()):
        raise ValueError("orbit_sign is only meaningful for connected series-D graphs")
    if sign is None and series == "D" and graph.is_connected():
        raise ValueError("a connected series-D graph needs its orbit_sign, plus or minus")
    _check_labels(labels, graph)
    return _sparse_pair(mats, spec=spec, graph=graph, labels=labels, orbit_sign=sign)
