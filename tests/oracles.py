"""Routines that the package no longer calls.

The tests use them as oracles for the graded and integer paths: matrix
arithmetic over Fraction (the matrix constructor, the row-major entries,
the reduced echelon form, transposes, inverses, canonical null spaces, one
solution of A x = b, joint eigenspaces, brackets with a sparse algebra
basis element), the characteristic polynomial as Fractions, the reduced
echelon span of matrices, the algebra basis of g inside gl(V), membership
in g by x^T G + G x and its sparse rows, the dense centralizer, the dense
basis and witness of a report, a null space over the whole algebra basis,
the image of ad e in gl(V) by one dense solve, the graded commutant by one
elimination per bi-degree block of gl(V), the closed-form check by dense
powers and reduction, node deduplication, the canonical form and the
whole-graph findings of validation by comparing and hashing Fractions,
rectangularity read off the graph's runs of nodes alone, a component's
cells and findings from each node's own denominators, with connectivity
by its own depth-first search, and the skew-diagram drawing on Fraction
coordinates and on ints scaled per grid and per axis.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import lcm
from typing import Optional, Sequence

from skewpairs.centralizer import ClosedFormPrediction, _eigenframe, _Frame
from skewpairs.liealg import AlgebraSpec, PairRealization
from skewpairs.linalg import (
    Matrix,
    Vector,
    _eliminate,
    _integer_charpoly,
    dense_matrix,
    integer_nullspace,
    integral_rows,
    joint_eigenbasis,
    with_columns,
)
from skewpairs import skewgraph
from skewpairs.skewgraph import Component, Node, SkewGraph

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Matrix arithmetic
# ---------------------------------------------------------------------------

def matrix(rows) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def _flatten(m: Matrix) -> Vector:
    return tuple(x for row in m for x in row)


def rref(rows) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the pivot columns: each row of the
    package's fraction-free elimination divided by its pivot entry."""
    work, pivots = _eliminate(rows)
    reduced = tuple(tuple(Fraction(x, row[c]) if x else ZERO for x in row) for row, c in zip(work, pivots))
    return reduced, tuple(pivots)


def sparse_rows_cols(m: Matrix):
    """The nonzero entries of integral_rows(m) by row and by column."""
    return with_columns(integral_rows(m)[1])


def conjugate_by_swap(m: Matrix, i: int, j: int) -> Matrix:
    """P m P for the swap P of basis vectors i and j."""
    rows = [list(r) for r in m]
    rows[i], rows[j] = rows[j], rows[i]
    for r in rows:
        r[i], r[j] = r[j], r[i]
    return tuple(tuple(r) for r in rows)


def joint_eigenspaces(h1: Matrix, h2: Matrix) -> list:
    """Sorted ((p, q), basis of V_{p,q}) entries for two commuting matrices,
    each basis the canonical null space basis of ker(h1 - p) & ker(h2 - q):
    the package's joint_eigenbasis with each vector scaled to 1 at its free
    column, its last nonzero entry, and each key (c1 p, c2 q) read as (p, q)."""
    (c1, rows1), (c2, rows2) = integral_rows(h1), integral_rows(h2)
    return [
        (
            (Fraction(p, c1), Fraction(q, c2)),
            tuple(tuple(Fraction(x, next(y for y in reversed(v) if y)) for x in v) for v in vecs),
        )
        for (p, q), vecs in joint_eigenbasis((c1, rows1), (c2, rows2))
    ]


def graph_key(graph: SkewGraph):
    """Hashable identity of a graph in canonical form."""
    return tuple(tuple((nd.x, nd.y) for nd in c.nodes) for c in skewgraph.canonical_form(graph).components)


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def is_diagonal(a: Matrix) -> bool:
    return all(not x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def invert(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def nullspace(rows, ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of the right null space (one vector per free column)."""
    return tuple(
        tuple(Fraction(x, v[free]) if x else ZERO for x in v)
        for free, v in integer_nullspace(rows, ncols)
    )


def solve(rows, rhs: Sequence) -> Optional[Vector]:
    """One solution of A x = b (free variables set to 0), or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    if not aug:
        return ()
    ncols = len(aug[0]) - 1
    work, pivots = _eliminate(aug)
    if ncols in pivots:
        return None
    x = [ZERO] * ncols
    for row, p in zip(work, pivots):
        if row[ncols]:
            x[p] = Fraction(row[ncols], row[p])
    return tuple(x)


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # Zero-skipping keeps the products of the sparse shift and diagonal
    # matrices of the suite fast.
    n, k = len(a), len(b[0])
    out = [[ZERO] * k for _ in range(n)]
    for i, row in enumerate(a):
        oi = out[i]
        for t, x in enumerate(row):
            if x:
                for j, y in enumerate(b[t]):
                    if y:
                        oi[j] += x * y
    return tuple(tuple(row) for row in out)


def in_span(basis_rref: Matrix, v: Sequence) -> bool:
    """Membership test against an RREF basis, by reduction."""
    return _reduces_to_zero(_lead_rows(basis_rref), dict(enumerate(v)))


def _lead_rows(basis_rref: Matrix) -> list:
    """Each row of an RREF basis as its lead and its nonzero entries (i, x)."""
    rows = []
    for row in basis_rref:
        entries = [(i, x) for i, x in enumerate(row) if x]
        rows.append((entries[0][0], entries))
    return rows


def _reduces_to_zero(rows: list, v: dict) -> bool:
    """Whether v, by its entries {i: x}, reduces to 0 by the _lead_rows of
    an RREF basis."""
    for lead, entries in rows:
        f = v.get(lead)
        if f:
            for i, x in entries:
                v[i] = v.get(i, 0) - f * x
    return not any(v.values())


def zeros(n: int, m: Optional[int] = None) -> Matrix:
    m = n if m is None else m
    return tuple((ZERO,) * m for _ in range(n))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_vec(a: Matrix, v: Sequence) -> Vector:
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), ZERO) for row in a)


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = identity(len(a))
    for _ in range(k):
        out = mat_mul(out, a)
    return out


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def is_zero_matrix(a: Matrix) -> bool:
    return all(not x for row in a for x in row)


def trace(a: Matrix) -> Fraction:
    return sum((a[i][i] for i in range(len(a))), ZERO)


def span_rref(vectors) -> Matrix:
    """Canonical (RREF) basis of the span of the given vectors."""
    return rref(vectors)[0]


def canonical_span(mats: Sequence[Matrix], n: int) -> tuple[Matrix, ...]:
    """The reduced echelon basis of the span of n x n matrices, flattened row by row."""
    reduced, _ = rref([tuple(x for row in m for x in row) for m in mats])
    return tuple(tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)) for v in reduced)


def charpoly(a: Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial coefficients, highest degree first (monic).

    With c the least common denominator of a, the coefficient of x^(n-k)
    is that of the integer matrix c a divided by c^k.
    """
    c, rows = integral_rows(a)
    return tuple(Fraction(x, c**k) for k, x in enumerate(_integer_charpoly(rows)))


# ---------------------------------------------------------------------------
# The algebra g inside gl(V)
# ---------------------------------------------------------------------------

def algebra_dim(spec: AlgebraSpec) -> int:
    n = spec.dimv
    if spec.series == "A":
        return n * n - 1
    if spec.series == "C":
        return n * (n + 1) // 2
    return n * (n - 1) // 2


def in_algebra(spec: AlgebraSpec, m: Matrix) -> bool:
    """Trace 0 for series A; x^T G + G x = 0 for B, C and D."""
    if spec.series == "A":
        return trace(m) == 0
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


# ---------------------------------------------------------------------------
# The dense centralizer
# ---------------------------------------------------------------------------

def bracket(b: Matrix, m: Matrix) -> Matrix:
    """[b, m] = b m - m b from the nonzero entries of b, over Fraction: an
    entry x = b[i][j] adds x times row j of m to row i of b m, and x times
    column i of m to column j of m b.  For the standard and built forms an
    algebra basis element has one or two nonzero entries, so this costs
    O(n) where commutator costs n^3."""
    n = len(m)
    out = [[ZERO] * n for _ in range(n)]
    for i, row in enumerate(b):
        for j, x in enumerate(row):
            if x:
                for k in range(n):
                    if m[j][k]:
                        out[i][k] += x * m[j][k]
                    if m[k][i]:
                        out[k][j] -= m[k][i] * x
    return tuple(tuple(row) for row in out)


def centralizer(spec: AlgebraSpec, elements: Sequence[Matrix]) -> tuple[Matrix, ...]:
    """Basis of {x in g : [x, m] = 0 for all m}, in reduced echelon form."""
    n = spec.dimv
    elements = [matrix(m) for m in elements]
    for m in elements:
        if len(m) != n or any(len(row) != n for row in m):
            raise ValueError("element dimension does not match the algebra")
    basis = algebra_basis(spec)
    rows = []
    for m in elements:
        comms = [bracket(b, m) for b in basis]
        for i in range(n):
            for j in range(n):
                row = [c[i][j] for c in comms]
                if any(row):
                    rows.append(row)
    coeff_vectors = nullspace(rows, len(basis)) if rows else tuple(
        tuple(ONE if t == k else ZERO for t in range(len(basis))) for k in range(len(basis))
    )
    mats = []
    for coeffs in coeff_vectors:
        acc = [[ZERO] * n for _ in range(n)]
        for c, b in zip(coeffs, basis):
            if c:
                for i in range(n):
                    brow = b[i]
                    arow = acc[i]
                    for j in range(n):
                        if brow[j]:
                            arow[j] += c * brow[j]
        mats.append(tuple(tuple(r) for r in acc))
    return canonical_span(mats, n)


def dense_basis(report) -> tuple[Matrix, ...]:
    """A CentralizerReport's basis in the input coordinates, dense: its
    scaled_basis, each matrix by dense_matrix."""
    return tuple(map(dense_matrix, report.scaled_basis))


def dense_witness(report) -> Optional[tuple[Matrix, tuple[Fraction, Fraction]]]:
    """A CentralizerReport's nonpositive witness, dense, with its bi-degree;
    None without one."""
    w = report.scaled_witness
    return None if w is None else (dense_matrix(w[0]), w[1])


def in_gl_image(e: Matrix, h: Matrix) -> bool:
    """Whether [e, x] = h for some x in gl(V): one dense solve over the n^2
    entries of x, entry (i, j) of [e, x] being
    sum_t e_it x_tj - sum_t x_it e_tj."""
    n = len(e)
    rows, rhs = [], []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for t in range(n):
                row[t * n + j] += e[i][t]
                row[i * n + t] -= e[t][j]
            rows.append(row)
            rhs.append(h[i][j])
    return solve(rows, rhs) is not None


# ---------------------------------------------------------------------------
# The graded commutant, one elimination per bi-degree block
# ---------------------------------------------------------------------------

def eigenframe(spec: AlgebraSpec, h1: Matrix, h2: Matrix, mats: Sequence[Matrix] = ()):
    """The package's eigenframe from dense matrices: (frame, moved), each
    moved matrix by sparse_rows_cols."""
    return _eigenframe(spec, integral_rows(h1), integral_rows(h2), [integral_rows(m) for m in mats])


def form_rows(frame: _Frame) -> list[list[tuple[int, int]]]:
    """The condition x in g as sparse rows: the rows the package built
    before it read the form off the Gram matrix, as it reads brackets.

    A sparse row lists (position, int coefficient) pairs, positions i * n + j
    distinct and coefficients nonzero.  Series A has the trace, whose one row
    lies in the (0,0) block.  B, C and D have the entries (a, b) of
    x^T G + G x for a <= b, each row of the block of degree -(w_a + w_b)."""
    n = len(frame.weights)
    if frame.spec.series == "A":
        return [[(i * n + i, 1) for i in range(n)]]
    g_rows, g_cols = frame.gram
    rows = []
    for a in range(n):
        for b in range(a, n):
            acc: dict[int, int] = {}
            for p, c in [(c * n + a, val) for c, val in g_cols[b]] + [(c * n + b, val) for c, val in g_rows[a]]:
                acc[p] = acc.get(p, 0) + c
            row = [(p, c) for p, c in acc.items() if c]
            if row:
                rows.append(row)
    return rows


def _blocks(weights):
    """Positions (i, j) grouped by bi-degree, and index pairs grouped by weight sum."""
    n = len(weights)
    blocks, sums = {}, {}
    for i in range(n):
        for j in range(n):
            (a, b), (c, d) = weights[i], weights[j]
            blocks.setdefault((a - c, b - d), []).append((i, j))
            sums.setdefault((a + c, b + d), []).append((i, j))
    return blocks, sums


def _block_form_rows(frame: _Frame, sums, delta, pidx):
    """Dense rows of x in g for x in the bi-degree-delta block."""
    k = len(pidx)
    if frame.spec.series == "A":
        return [[1 if i == j else 0 for (i, j) in pidx]] if delta == (0, 0) else []
    g_rows, g_cols = frame.gram
    rows = []
    for a, b in sums.get((-delta[0], -delta[1]), ()):
        row = [0] * k
        for c, val in g_cols[b]:
            if (c, a) in pidx:
                row[pidx[(c, a)]] += val
        for c, val in g_rows[a]:
            if (c, b) in pidx:
                row[pidx[(c, b)]] += val
        if any(row):
            rows.append(row)
    return rows


def _block_bracket_rows(blocks, sparse_m, dm, delta, pidx):
    """Dense rows of [x, m] = 0 for x in the bi-degree-delta block."""
    m_rows, m_cols = sparse_m
    k = len(pidx)
    for i, j in blocks.get((delta[0] + dm[0], delta[1] + dm[1]), ()):
        row = [0] * k
        for t, val in m_cols[j]:
            if (i, t) in pidx:
                row[pidx[(i, t)]] += val
        for t, val in m_rows[i]:
            if (t, j) in pidx:
                row[pidx[(t, j)]] -= val
        if any(row):
            yield row


def blockwise_commutant(frame: _Frame, elements) -> dict:
    """{degree: [(lead, matrix), ...]} for z(elements) in g, each block of
    gl(V) solved on its own by integer_nullspace and rref.

    elements holds (m, degree) pairs, m bi-homogeneous of its int degree and
    given by sparse_rows_cols.
    """
    weights = frame.weights
    n = len(weights)
    blocks, sums = _blocks(weights)
    sparse = list(elements)
    pieces = {}
    for delta in sorted(blocks):
        positions = blocks[delta]
        pidx = {p: t for t, p in enumerate(positions)}
        rows = _block_form_rows(frame, sums, delta, pidx)
        for sparse_m, dm in sparse:
            rows.extend(_block_bracket_rows(blocks, sparse_m, dm, delta, pidx))
        null = [v for _, v in integer_nullspace(rows, len(pidx))]
        if not null:
            continue
        reduced, leads = rref(null)
        piece = []
        for vec, lead in zip(reduced, leads):
            out = [[ZERO] * n for _ in range(n)]
            for (i, j), x in zip(positions, vec):
                if x:
                    out[i][j] = x
            piece.append((positions[lead], tuple(tuple(row) for row in out)))
        pieces[delta] = piece
    return pieces


# ---------------------------------------------------------------------------
# The closed-form check, dense
# ---------------------------------------------------------------------------

def a_operator_matrix(pred: ClosedFormPrediction, r: PairRealization) -> Optional[Matrix]:
    """The predicted A operator in the realization's labeled basis.

    Minus orbit representatives are conjugated realizations, so A is
    conjugated by the same basis swap.
    """
    if pred.a_operator is None:
        return None
    n = r.spec.dimv
    index = {(lb.component_index, lb.node): i for i, lb in enumerate(r.labels)}
    rows = [[ZERO] * n for _ in range(n)]
    for src, dst, coeff in pred.a_operator.actions:
        rows[index[(dst.component_index, dst.node)]][index[(src.component_index, src.node)]] = coeff
    mat = tuple(tuple(row) for row in rows)
    if r.orbit_sign == "minus":
        half = Fraction(1, 2)
        mat = conjugate_by_swap(mat, index[(0, Node(half, half))], index[(0, Node(-half, -half))])
    return mat


def _power_rows(m: Matrix, top: int) -> list:
    """[m^0, ..., m^top] by nonzero rows (j, x), over Fraction: each power
    once, row i of p m summed from the nonzero entries x = p[i][t] and
    those of row t of m, as bracket forms [b, m]."""
    step = [[(j, y) for j, y in enumerate(row) if y] for row in m]
    out = [[[(i, ONE)] for i in range(len(m))]]
    for _ in range(top):
        rows = []
        for row in out[-1]:
            acc: dict[int, Fraction] = {}
            for t, x in row:
                for j, y in step[t]:
                    acc[j] = acc.get(j, ZERO) + x * y
            rows.append([(j, x) for j, x in acc.items() if x])
        out.append(rows)
    return out


def closed_form_in_span(pred: ClosedFormPrediction, r: PairRealization, basis: Sequence[Matrix]) -> bool:
    """Whether every predicted e1^k e2^l, and the A operator, lies in the span
    of basis, a reduced echelon basis of matrices: each power of e1 and e2
    formed once by _power_rows, each product e1^k e2^l from their nonzero
    entries, and membership by reduction, the basis read once by _lead_rows."""
    n = len(r.e1)
    rows = _lead_rows([_flatten(m) for m in basis])
    e1_powers = _power_rows(r.e1, max((k for k, _ in pred.powers), default=0))
    e2_powers = _power_rows(r.e2, max((l for _, l in pred.powers), default=0))
    for k, l in sorted(pred.powers):
        v: dict = {}
        for i, row in enumerate(e1_powers[k]):
            for t, x in row:
                for j, y in e2_powers[l][t]:
                    v[i * n + j] = v.get(i * n + j, ZERO) + x * y
        if not _reduces_to_zero(rows, v):
            return False
    a = a_operator_matrix(pred, r)
    return a is None or _reduces_to_zero(rows, dict(enumerate(_flatten(a))))


# ---------------------------------------------------------------------------
# Nodes compared as Fractions
# ---------------------------------------------------------------------------

def component_from_nodes(nodes) -> Component:
    """skewgraph.component_from_nodes by hashing and sorting Fractions."""
    return Component(tuple(sorted(frozenset(nodes))))


def canonical_form(graph: SkewGraph) -> SkewGraph:
    """skewgraph.canonical_form on Fractions: every node moved by the
    barycentre, each component sorted, then the components by (-size,
    nodes).  A repeated node stays repeated."""
    nodes = [nd for c in graph.components for nd in c.nodes]
    if not nodes:
        return graph
    sx, sy = (sum(coords, ZERO) / len(nodes) for coords in zip(*((nd.x, nd.y) for nd in nodes)))
    comps = [Component(tuple(sorted(nd.shifted(-sx, -sy) for nd in c.nodes))) for c in graph.components]
    return SkewGraph(tuple(sorted(comps, key=lambda c: (-len(c), c.nodes))))


def centred_runs(graph: SkewGraph) -> bool:
    """Whether every maximal horizontal run of nodes in each component has
    x-coordinate sum 0 and every maximal vertical run y-coordinate sum 0:
    the rectangularity of a pair in normal form read off its graph alone.
    e1 (e2) moves a node of a component by (1, 0) ((0, 1)) to the next node
    of its run, so the runs are the strings of a graded Jordan
    decomposition of e1 (e2), and h_i lies in [e_i, g] exactly when each of
    them is centred (Morozov)."""
    for comp in graph.components:
        nodes = comp.node_set
        for step in (Node(ONE, ZERO), Node(ZERO, ONE)):
            for nd in nodes:
                if nd.shifted(-step.x, -step.y) in nodes:
                    continue
                total = ZERO
                while nd in nodes:
                    total += nd.x if step.x else nd.y
                    nd = nd.shifted(step.x, step.y)
                if total:
                    return False
    return True


def graph_findings(graph: SkewGraph) -> list[str]:
    """The findings of skewgraph.validate on the graph as a whole, the
    barycentre and the shared nodes, from sums and sets of Fractions."""
    nodes = [nd for c in graph.components for nd in c.nodes]
    sx, sy = (sum(coords, ZERO) for coords in zip(*((nd.x, nd.y) for nd in nodes))) if nodes else (0, 0)
    findings = [f"barycentre is ({sx},{sy}), not the origin"] if sx or sy else []
    origin = Node(ZERO, ZERO)
    sets = [c.node_set for c in graph.components] if len(graph.components) > 1 else []
    for (i, a), (j, b) in combinations(enumerate(sets), 2):
        if a & b and a & b != {origin}:
            findings.append(f"components {i} and {j} share {len(a & b)} nodes; only a single shared node (0,0) is allowed")
    if sum(origin in nodes for nodes in sets) > 2:
        findings.append("more than two components contain the node (0,0)")
    return findings


def _cell_offsets(comp: Component) -> Optional[dict[tuple[int, int], int]]:
    """The integer offset of each of comp's nodes from its first node, mapped
    to the node's place in comp, in node order.

    None when some node is off by a non-integral vector.  x - x0 is an
    integer exactly when the reduced fractions x and x0 share a denominator
    and their numerators agree modulo it, so no Fraction is built.
    """
    x0, y0 = comp.nodes[0].x, comp.nodes[0].y
    px, qx, py, qy = x0.numerator, x0.denominator, y0.numerator, y0.denominator
    out = {}
    for k, nd in enumerate(comp.nodes):
        x, y = nd.x, nd.y
        if x.denominator != qx or y.denominator != qy:
            return None
        dx, rx = divmod(x.numerator - px, qx)
        dy, ry = divmod(y.numerator - py, qy)
        if rx or ry:
            return None
        out[dx, dy] = k
    return out


def is_connected(cells) -> bool:
    """Whether a nonempty set of integer cells is edge-connected, by
    depth-first search from one cell: skewgraph._is_connected, kept apart
    from the code it checks."""
    todo = [next(iter(cells))]
    seen = {todo[0]}
    while todo:
        x, y = todo.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                todo.append(nb)
    return len(seen) == len(cells)


def component_cells(index: int, comp: Component) -> tuple[Optional[dict], list[str]]:
    """skewgraph._component_cells from the numerators and denominators of
    each node (_cell_offsets), with no int keys."""
    tag = f"component {index}"
    if not comp.nodes:
        return None, [f"{tag}: empty node set"]
    cells = _cell_offsets(comp)
    if cells is None:
        return None, [f"{tag}: nodes do not all differ by integer vectors"]
    base = comp.nodes[0]
    findings = []
    if len(cells) != len(comp):
        repeated = next(nd for nd in comp.nodes if comp.nodes.count(nd) > 1)
        findings.append(f"{tag}: node {skewgraph._node_text(repeated)} appears twice")
    for x, y in sorted(cells):
        if (x + 1, y + 1) in cells:
            for req in ((x, y + 1), (x + 1, y)):
                if req not in cells:
                    findings.append(
                        f"{tag}: axiom (iv) fails at square {skewgraph._node_text(base.shifted(x, y))}:"
                        f" {skewgraph._node_text(base.shifted(*req))} is missing"
                    )
    if not is_connected(cells):
        findings.append(f"{tag}: not connected")
    return cells, findings


def symmetry(comp: tuple[int, tuple]) -> str:
    """Symmetry class of an integer component (skewgraph._int_component).

    Its cells are about the barycentre, which is the centre of a centrally
    symmetric shape, so the shape is symmetric when negation reverses the
    sorted cells; its nodes are then integral or half-integral along each
    axis by whether k divides that coordinate of one cell.
    """
    k, cells = comp
    if tuple((-x, -y) for x, y in reversed(cells)) != cells:
        return skewgraph.SYM_NOT_CS
    x, y = cells[0]
    return skewgraph._PARITY_SYMMETRY[int(x % k != 0), int(y % k != 0)]


def cell_shape(cells, base: tuple[int, int], d: int) -> skewgraph.ShapeClass:
    """skewgraph._cell_shape by scans of the cells: sources and sinks by
    their neighbours, the rectangle and the box by the sets of x and of y,
    and central symmetry by negating the cells about their barycentre."""
    sources = [(x, y) for x, y in cells if (x - 1, y) not in cells and (x, y - 1) not in cells]
    sinks = [(x, y) for x, y in cells if (x + 1, y) not in cells and (x, y + 1) not in cells]
    if len(sources) == 1 and len(sinks) == 1:
        young = "both"
    elif len(sources) == 1:
        young = "sw"
    elif len(sinks) == 1:
        young = "ne"
    else:
        young = "neither"

    xs = sorted({x for x, _ in cells})
    ys = sorted({y for _, y in cells})
    rectangle = None
    if len(cells) == len(xs) * len(ys) and xs[-1] - xs[0] == len(xs) - 1 and ys[-1] - ys[0] == len(ys) - 1:
        rectangle = (len(xs), len(ys))

    # Symmetric about the origin: the bounding box is centred there, that is
    # 2 * base + (min + max) d = 0 in each coordinate, and the cells are
    # symmetric within it.
    sym = skewgraph.SYM_NOT_CS
    if 2 * base[0] + (xs[0] + xs[-1]) * d == 0 and 2 * base[1] + (ys[0] + ys[-1]) * d == 0:
        sym = symmetry(skewgraph._int_component(cells))

    near = None
    if sym == skewgraph.SYM_NON_INTEGRAL and rectangle is None and len(cells) % 4 == 2:
        width = xs[-1] - xs[0] + 1
        height = ys[-1] - ys[0] + 1
        if width % 2 == 0 and height % 2 == 0:
            cornered = frozenset((x - xs[0], y - ys[0]) for x, y in cells)
            for name, cand in skewgraph._near_rectangular_cellsets(width, height):
                if cand == cornered:
                    near = name
                    break

    return skewgraph.ShapeClass(symmetry=sym, rectangle=rectangle, near_rectangular_shape=near, young=young)


# ---------------------------------------------------------------------------
# Drawing
# ---------------------------------------------------------------------------

def render_ascii_per_axis(graph: SkewGraph) -> str:
    """skewgraph.render_ascii on ints scaled per grid and per axis: x times
    the least common denominator dx of the grid's x coordinates (y
    likewise), so that its columns lie dx apart."""
    n = graph.n_nodes
    groups: dict[tuple[Fraction, Fraction], list[tuple[int, Component]]] = {}
    for idx, comp in enumerate(graph.components):
        anchor = comp.nodes[0]
        groups.setdefault((anchor.x % 1, anchor.y % 1), []).append((idx, comp))
    multi = len(graph.components) > 1
    blocks = []
    for key in sorted(groups):
        nodes = [nd for _, comp in groups[key] for nd in comp.nodes]
        dx, dy = lcm(*(nd.x.denominator for nd in nodes)), lcm(*(nd.y.denominator for nd in nodes))
        cells: dict[tuple[int, int], str] = {}
        for idx, comp in groups[key]:
            mark = chr(ord("a") + idx) if multi else "#"
            for nd in comp.nodes:
                pos = (nd.x.numerator * (dx // nd.x.denominator), nd.y.numerator * (dy // nd.y.denominator))
                cells[pos] = "*" if pos in cells else mark
        x0, x1 = min(x for x, _ in cells), max(x for x, _ in cells)
        y0, y1 = min(y for _, y in cells), max(y for _, y in cells)
        width, height = x1 - x0 + dx, y1 - y0 + dy
        if width * height > n * n * dx * dy:
            width, height = Fraction(width, dx), Fraction(height, dy)
            raise ValueError(f"nodes spread over {width} x {height} cells, more than {n} x {n} for {n} nodes")
        columns = range(x0, x1 + 1, dx)
        blocks.append("\n".join("".join([cells.get((x, y), ".") for x in columns]) for y in range(y1, y0 - 1, -dy)))
    return "\n\n".join(blocks)


def render_ascii(graph: SkewGraph) -> str:
    """skewgraph.render_ascii stepping Fraction coordinates cell by cell:
    each grid runs from its least x and its greatest y in unit steps, and
    a node off those steps is not drawn."""
    n = graph.n_nodes
    groups: dict[tuple[Fraction, Fraction], list[tuple[int, Component]]] = {}
    for idx, comp in enumerate(graph.components):
        anchor = comp.nodes[0]
        groups.setdefault((anchor.x % 1, anchor.y % 1), []).append((idx, comp))
    multi = len(graph.components) > 1
    blocks = []
    for key in sorted(groups):
        cells: dict[tuple[Fraction, Fraction], str] = {}
        for idx, comp in groups[key]:
            mark = chr(ord("a") + idx) if multi else "#"
            for nd in comp.nodes:
                pos = (nd.x, nd.y)
                cells[pos] = "*" if pos in cells else mark
        xs = sorted({p[0] for p in cells})
        ys = sorted({p[1] for p in cells})
        width, height = xs[-1] - xs[0] + 1, ys[-1] - ys[0] + 1
        if width * height > n * n:
            raise ValueError(f"nodes spread over {width} x {height} cells, more than {n} x {n} for {n} nodes")
        lines = []
        y = ys[-1]
        while y >= ys[0]:
            x = xs[0]
            row = []
            while x <= xs[-1]:
                row.append(cells.get((x, y), "."))
                x += 1
            lines.append("".join(row))
            y -= 1
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def catalog_table(series: str, dimv: int, entries) -> str:
    """The text table of a catalog of CatalogEntry objects, built whole: the
    title, then each entry's line with its diagram (render_ascii above)
    beside it and a blank line, all lines joined once, ending in one newline."""
    title = f"skewpairs-catalog catalog: series {series}, dimV {dimv}, {len(entries)} entries"
    lines = [title, "=" * len(title)]
    for e in entries:
        flags = e.report.flags
        info = "{:<14} {:<13} dim={:<3} principal={:<5} rectangular={:<5} biexp={}".format(
            e.orbit_label, e.kind, e.report.dimension, str(flags.principal).lower(),
            str(flags.rectangular).lower(), ";".join(f"({p},{q})" for p, q in e.report.biexponents) or "-",
        )
        diagram = render_ascii(e.graph).splitlines()
        if not diagram:
            lines.append(info)
        for i, dline in enumerate(diagram):
            lines.append((info if i == 0 else " " * len(info)) + "  | " + dline)
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"
