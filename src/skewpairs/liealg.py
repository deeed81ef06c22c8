"""Matrix realizations of nilpotent pairs from admissible skew-graphs.

Each admissible graph is realized on a vector space with one basis vector
per (component, node) label: e1 and e2 shift labels right and up with the
series-specific signs, h1 and h2 are diagonal with the node coordinates as
eigenvalues, and series B/C/D carry the invariant bilinear form that pairs
a label with its antipode inside the same component.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional

from .linalg import (
    Matrix,
    commutator,
    is_zero_matrix,
    mat_add,
    mat_mul,
    matrix,
    nullspace,
    parse_fraction,
    rank,
    transpose,
)
from .skewgraph import (
    SYM_INTEGRAL,
    SYM_NON_INTEGRAL,
    SYM_SEMI_COLSORT,
    SYM_SEMI_ROWSORT,
    Node,
    SkewGraph,
    canonical_form,
    classify_component,
    graph_from_jsonable,
    graph_to_jsonable,
    is_admissible,
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


def algebra_dim(spec: AlgebraSpec) -> int:
    n = spec.dimv
    if spec.series == "A":
        return n * n - 1
    if spec.series == "C":
        return n * (n + 1) // 2
    return n * (n - 1) // 2


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


def _neg_one_pow(q: Fraction) -> Fraction:
    if q.denominator != 1:
        raise ValueError("sign exponent is not an integer")
    return ONE if q.numerator % 2 == 0 else -ONE


def _sign_functions(series: str, symmetry: str) -> tuple[Callable[[Node], Fraction], Callable[[Node], Fraction]]:
    """Per-component shift signs for e1 and e2."""
    if series == "A":
        return (lambda nd: ONE), (lambda nd: ONE)
    if series in ("B", "D"):
        def s1(nd: Node) -> Fraction:
            return _neg_one_pow(nd.x + nd.y)

        def s2(nd: Node) -> Fraction:
            return -_neg_one_pow(nd.x + nd.y)

        return s1, s2
    if symmetry == SYM_SEMI_COLSORT:
        def s1(nd: Node) -> Fraction:
            return -ONE if nd.y > 0 else ONE

        def s2(nd: Node) -> Fraction:
            if nd.y > 0:
                return ONE
            if nd.y == -HALF:
                return _neg_one_pow(nd.x)
            return -ONE

        return s1, s2
    if symmetry == SYM_SEMI_ROWSORT:
        def s1(nd: Node) -> Fraction:
            if nd.x > 0:
                return ONE
            if nd.x == -HALF:
                return _neg_one_pow(nd.y)
            return -ONE

        def s2(nd: Node) -> Fraction:
            return -ONE if nd.x > 0 else ONE

        return s1, s2
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
    if not is_admissible(series, graph, "distinguished"):
        raise NotAdmissibleError(f"graph is not admissible for series {series}")
    connected = graph.is_connected()
    if series == "D" and connected:
        sign = orbit_sign or "plus"
        if sign not in ("plus", "minus"):
            raise ValueError(f"unknown orbit sign {orbit_sign!r}")
    else:
        if orbit_sign is not None:
            raise ValueError("orbit_sign is only meaningful for connected series-D graphs")
        sign = None

    labels = tuple(
        BasisLabel(ci, nd) for ci, comp in enumerate(graph.components) for nd in comp.nodes
    )
    index = {(lb.component_index, lb.node): i for i, lb in enumerate(labels)}
    n = len(labels)

    e1 = [[ZERO] * n for _ in range(n)]
    e2 = [[ZERO] * n for _ in range(n)]
    h1 = [[ZERO] * n for _ in range(n)]
    h2 = [[ZERO] * n for _ in range(n)]
    symmetries = [classify_component(comp).symmetry for comp in graph.components]
    for ci, comp in enumerate(graph.components):
        s1, s2 = _sign_functions(series, symmetries[ci])
        nodes = comp.node_set
        for nd in comp.nodes:
            i = index[(ci, nd)]
            h1[i][i] = nd.x
            h2[i][i] = nd.y
            right = nd.shifted(1, 0)
            if right in nodes:
                e1[index[(ci, right)]][i] = s1(nd)
            up = nd.shifted(0, 1)
            if up in nodes:
                e2[index[(ci, up)]][i] = s2(nd)

    form = None
    if series != "A":
        g = [[ZERO] * n for _ in range(n)]
        for ci, comp in enumerate(graph.components):
            for nd in comp.nodes:
                a = index[(ci, nd)]
                b = index[(ci, -nd)]
                if series in ("B", "D"):
                    g[a][b] = ONE
                elif symmetries[ci] == SYM_SEMI_COLSORT:
                    g[a][b] = ONE if nd.y > 0 else -ONE
                else:
                    g[a][b] = ONE if nd.x > 0 else -ONE
        form = tuple(tuple(r) for r in g)

    mats = [tuple(tuple(r) for r in m) for m in (e1, e2, h1, h2)]
    if sign == "minus":
        i = index[(0, Node(HALF, HALF))]
        j = index[(0, Node(-HALF, -HALF))]
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


def in_algebra(spec: AlgebraSpec, m: Matrix) -> bool:
    if spec.series == "A":
        return sum((m[i][i] for i in range(len(m))), ZERO) == 0
    g = spec.form
    return is_zero_matrix(mat_add(mat_mul(transpose(m), g), mat_mul(g, m)))


@lru_cache(maxsize=None)
def algebra_basis(spec: AlgebraSpec) -> tuple[Matrix, ...]:
    """Ordered basis of the algebra inside the full matrix algebra.

    Series A: elementary off-diagonal matrices then consecutive diagonal
    differences.  B/C/D: canonical nullspace basis of the form-skewness
    condition X^T G + G X = 0 over row-major matrix coordinates.
    """
    n = spec.dimv
    if spec.series == "A":
        out = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    rows = [[ZERO] * n for _ in range(n)]
                    rows[i][j] = ONE
                    out.append(tuple(tuple(r) for r in rows))
        for k in range(n - 1):
            rows = [[ZERO] * n for _ in range(n)]
            rows[k][k] = ONE
            rows[k + 1][k + 1] = -ONE
            out.append(tuple(tuple(r) for r in rows))
        return tuple(out)

    g = spec.form
    constraint_rows = []
    for a in range(n):
        for b in range(n):
            row = [ZERO] * (n * n)
            for c in range(n):
                if g[c][b]:
                    row[c * n + a] += g[c][b]
                if g[a][c]:
                    row[c * n + b] += g[a][c]
            constraint_rows.append(row)
    basis = []
    for vec in nullspace(constraint_rows, n * n):
        basis.append(tuple(tuple(vec[i * n + j] for j in range(n)) for i in range(n)))
    expected = algebra_dim(spec)
    if len(basis) != expected:
        raise RuntimeError(f"form-skew basis has dimension {len(basis)}, expected {expected}")
    return tuple(basis)


def verify_relations(r: PairRealization) -> RelationReport:
    """Check the defining relations, algebra membership and nondegeneracy."""
    e1, e2, h1, h2 = r.e1, r.e2, r.h1, r.h2
    checks = [
        ("e1_e2_commute", is_zero_matrix(commutator(e1, e2))),
        ("h1_h2_commute", is_zero_matrix(commutator(h1, h2))),
        ("h1_e1_grading", commutator(h1, e1) == e1),
        ("h1_e2_grading", is_zero_matrix(commutator(h1, e2))),
        ("h2_e1_grading", is_zero_matrix(commutator(h2, e1))),
        ("h2_e2_grading", commutator(h2, e2) == e2),
        ("e1_in_algebra", in_algebra(r.spec, e1)),
        ("e2_in_algebra", in_algebra(r.spec, e2)),
        ("h1_in_algebra", in_algebra(r.spec, h1)),
        ("h2_in_algebra", in_algebra(r.spec, h2)),
        (
            "form_nondegenerate",
            r.spec.form is None or rank(r.spec.form) == r.spec.dimv,
        ),
    ]
    return RelationReport(tuple(checks))


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


def matrix_from_jsonable(data) -> Matrix:
    if isinstance(data, dict):
        n = data["shape"]
        rows = [[ZERO] * n for _ in range(n)]
        for i, j, v in data["entries"]:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"sparse entry ({i}, {j}) lies outside a {n}x{n} matrix")
            rows[i][j] = parse_fraction(v)
        return tuple(tuple(r) for r in rows)
    return tuple(tuple(parse_fraction(x) for x in row) for row in data)


def _square(m: Matrix, n: int, name: str) -> Matrix:
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

    Raises ValueError when a matrix is not dimV x dimV, when the label count
    differs from dimV, when series B, C or D comes without a Gram matrix, or
    when a number has a zero denominator.
    """

    series, n = data["series"], data["dimv"]
    if type(n) is not int or n < 1:
        raise ValueError(f"dimv must be a positive integer, got {n!r}")
    if data.get("gram") is None:
        if series != "A":
            raise ValueError(f"a series {series} realization needs its gram matrix")
        form = None
    else:
        form = _square(matrix_from_jsonable(data["gram"]), n, "gram")
    spec = make_spec(series, n, form)
    labels = tuple(
        BasisLabel(item["component"], node_from_jsonable(item["node"])) for item in data["labels"]
    )
    if len(labels) != n:
        raise ValueError(f"{len(labels)} labels for dimv {n}")
    e1, e2, h1, h2 = (_square(matrix_from_jsonable(data[k]), n, k) for k in ("e1", "e2", "h1", "h2"))
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
