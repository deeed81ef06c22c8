"""Exact centralizers, bi-gradings and the classification predicates.

analyze() works in one frame: a basis of V in which h1 and h2 are diagonal.
Realizations built by this package are already in such a basis.  Any other
input, such as a hand-edited verify document, is conjugated once into the
joint eigenbasis of h1 and h2, and its Gram matrix G becomes T^T G T.  T has
primitive integer columns, and e1 and e2 are moved with no T^-1: each row of
T^-1 e T is a row of e T, read at the columns of one weight (_eigenframe).
T and the moved e1, e2 and G are sparse int rows, multiplied by
linalg.sparse_product from the rows the relation check read.  In that frame ad h1 and ad h2
are diagonal on gl(V), e1 and e2 are bi-homogeneous, and the form pairs
weight w only with -w, so every condition on x in z(e1, e2) & g lies in
one bi-degree block of gl(V).

On a built pair e1, e2 and G are signed monomial matrices, so almost every
condition has one or two terms: x_u = 0 or a x_u + b x_v = 0.  One kernel,
_graded_commutant, solves the z(e1, e2) pass over gl(V), given the trace
row of series A and the brackets e1 and e2.  Its signed union-find,
linalg._unite, reads each entry of [x, m] or x^T G + G x off one column
and one row of m or G, and each live component is a kernel vector.  Only
rows with three or more terms are eliminated, per block, in component
variables: the series-A trace for dimV >= 3, and the rows of a frame in
which e or G is not monomial.
analyze() runs the kernel over the n^2 positions of gl(V), reading the
entries a <= b of the (anti)symmetric x^T G + G x.  The report keeps the
graded pieces it returns and reads every invariant off them: T is
invertible, so each piece has the same dimension in the input coordinates.
Only a read of the basis or the witness takes T^-1, scaled to ints, once
per report, and maps them back, each matrix x as the integer product T x T^-1; one
fraction-free elimination over these rows gives the reduced echelon basis,
and the witness maps its own piece.

The flags need no other solver.  z(h) & z(e) is the (0,0) piece of z(e),
and z(h), the (0,0) block of g, needs no pass at all: its dimension is
read off the weight multiplicities of the frame (_Frame.cartan_dimension).
Rectangularity (Ginzburg: h_i in [e_i, g]) needs no pass either: it holds
when every graded e_i-string is centred (Morozov), which _centred reads off
one small rank of a power of e_i per pair of twin weights +-l.
The weights are scaled by their common denominator, so bi-degrees are int
pairs, and e1, e2 and the Gram matrix are each scaled to integers, which
changes no commutant and no image.

graph_from_pair() checks the relations, then _frame_graph reads the
skew-graph off the same frame, centred and sorted on ints: each basis
vector is a node at its weight, and each nonzero entry of e1 or e2 joins
two nodes.  So _eigenframe() is the one place that turns (h1, h2) into a
basis.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import Optional

from .liealg import (
    AlgebraSpec,
    BasisLabel,
    PairRealization,
    _bracket_checks,
    _checked_form,
    _diagonal_weights,
    scaled_to_jsonable,
    verify_relations,
)
from .linalg import (
    Matrix,
    _eliminate,
    _primitive,
    _unite,
    integer_inverse,
    integer_nullspace,
    integral_rows,
    joint_eigenbasis,
    rank,
    sparse_product,
    with_columns,
)
from .skewgraph import (
    Node,
    SkewGraph,
    _admissible_shapes,
    _canonical,
    _centred_graph,
    _principal_case,
    _validated,
)

ONE = Fraction(1)
DEGREE_0 = (0, 0)


class NormalFormError(ValueError):
    """The supplied pair is not in the classified normal form."""


@dataclass(frozen=True)
class BiGrading:
    """Joint ad-eigenspace dimensions, keyed by exact eigenvalue pairs."""

    table: tuple[tuple[tuple[Fraction, Fraction], int], ...]


@dataclass(frozen=True)
class ReportFlags:
    relations_ok: bool
    cartan_h: bool
    trivial_intersection: bool
    distinguished: bool
    principal: bool
    rectangular: bool


@dataclass(frozen=True)
class CentralizerReport:
    """kernel[k] is the basis of the graded piece grading.table[k] in the
    eigenframe as _graded_commutant returns it, a dimv x dimv matrix by its
    (position, value) pairs.  frame_change is T, by its nonzero rows of
    ints, or None when h1 and h2 came in diagonal.  scaled_basis, the
    reduced echelon basis in the input coordinates by integral_rows, and
    scaled_witness, the witness matrix there and its bi-degree (None
    without one), are views built on first read; the first of them to map
    back takes T^-1, which the report keeps for the other."""

    dimension: int
    dimv: int
    kernel: tuple[tuple[tuple, ...], ...]
    frame_change: Optional[tuple]
    grading: BiGrading
    biexponents: tuple[tuple[Fraction, Fraction], ...]
    flags: ReportFlags

    @cached_property
    def scaled_basis(self) -> tuple[tuple, ...]:
        every = [_by_rows(self.dimv, vec) for piece in self.kernel for vec in piece]
        if self.frame_change is None:
            # The blocks have disjoint supports and list their positions in
            # row-major order, so their reduced bases, ordered by leading
            # position, form the reduced basis of the span.
            return tuple(sorted(every, key=lambda m: next((i, row[0][0]) for i, row in enumerate(m[1]) if row)))
        return _mapped_back(self.frame_change, self._t_inverse, every)

    @cached_property
    def scaled_witness(self) -> Optional[tuple[tuple, tuple[Fraction, Fraction]]]:
        # Witness search prefers the most negative q (the column-style
        # disqualifier the sl/so/sp arguments construct), then p.
        table = self.grading.table
        found = [(q, p, k) for k, ((p, q), _) in enumerate(table) if p.numerator < 0 or q.numerator < 0]
        if not found:
            return None
        q, p, k = min(found)
        piece = [_by_rows(self.dimv, vec) for vec in self.kernel[k][:1 if self.frame_change is None else None]]
        if self.frame_change is None:
            return piece[0], (p, q)
        return _mapped_back(self.frame_change, self._t_inverse, piece)[0], (p, q)

    @cached_property
    def _t_inverse(self) -> tuple:
        """A positive multiple of T^-1, by its nonzero int rows."""
        t = self.frame_change
        return _nonzero(integer_inverse([[dict(row).get(j, 0) for j in range(len(t))] for row in t]))


def _by_rows(n: int, vec) -> tuple[int, tuple]:
    """(c, rows) of the n x n matrix with these nonzero entries, (i * n + j,
    int or Fraction) in increasing position, scaled to primitive ints: c is
    the first, positive value, so the lead is 1."""
    values = _primitive([x for _, x in vec])
    rows: list = [()] * n
    for (p, _), x in zip(vec, values):
        rows[p // n] += ((p % n, x),)
    return values[0], tuple(rows)


def _flat(n: int, rows) -> list[int]:
    """The row-major entries of the n x n matrix with these nonzero rows."""
    out = [0] * (n * n)
    for i, row in enumerate(rows):
        for j, x in row:
            out[i * n + j] = x
    return out


def _mapped_back(t: tuple, t_inv: tuple, mats) -> tuple:
    """The reduced echelon basis, by integral_rows, of the span of T x T^-1
    for x in mats, by one fraction-free elimination.  T and t_inv, a
    positive multiple of T^-1, which changes no span, come by their nonzero
    int rows."""
    n = len(t)
    reduced, _ = _eliminate(_flat(n, sparse_product(t, sparse_product(rows, t_inv))) for _, rows in mats)
    return tuple(_by_rows(n, [(p, x) for p, x in enumerate(v) if x]) for v in reduced)


# ---------------------------------------------------------------------------
# The eigenframe and the graded solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Frame:
    """A basis of V in which h1 and h2 are diagonal, in integer units.

    weights[i] is den times the eigenvalue pair of basis vector i, as ints,
    so every bi-degree is an int pair in units of 1/den.  gram holds the
    nonzero rows and columns of a positive multiple of the Gram matrix in
    this basis, as ints (None without a form).  t is the change of basis T,
    whose columns are primitive integer vectors, by its nonzero rows of
    ints, or None when h1 and h2 were diagonal already.
    """

    spec: AlgebraSpec
    den: int
    weights: tuple[tuple[int, int], ...]
    gram: Optional[tuple[list, list]]
    t: Optional[tuple[tuple[tuple[int, int], ...], ...]]

    def degree(self, d: tuple[int, int]) -> tuple[Fraction, Fraction]:
        """The exact bi-degree of an int degree d, each Fraction made once."""
        return _ratio(d[0], self.den), _ratio(d[1], self.den)

    @cached_property
    def at(self) -> dict[tuple[int, int], list[int]]:
        """The basis indices grouped by weight, in increasing order."""
        at: dict[tuple[int, int], list[int]] = {}
        for i, w in enumerate(self.weights):
            at.setdefault(w, []).append(i)
        return at

    def cartan_dimension(self) -> int:
        """dim z_g(h) from the weight multiplicities m_w: z_gl(h) is the sum
        of the gl(V_w), less the line of I in series A.  In B, C and D, h lies
        in g, so G pairs V_w with V_-w nondegenerately: each pair +-w != 0
        adds m_w^2, and V_0 adds so(m_0) (B, D) or sp(m_0) (C)."""
        squares = [len(basis) ** 2 for basis in self.at.values()]
        if self.spec.series == "A":
            return sum(squares) - 1
        m0 = len(self.at.get(DEGREE_0, ()))
        return (sum(squares) - m0 * m0) // 2 + (m0 * (m0 + 1) if self.spec.series == "C" else m0 * (m0 - 1)) // 2


# Fraction(p, den), each made once per process, as skewgraph._node makes nodes.
_ratio = lru_cache(maxsize=None)(Fraction)


def _nonzero(m: list[list[int]]) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The nonzero entries of a dense matrix, by row."""
    return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in m)


def _sparse_form(rows: list[list[tuple[int, int]]]):
    """An integer matrix, by its nonzero rows, divided by its content, by
    with_columns."""
    g = gcd(*(x for row in rows for _, x in row)) or 1
    return with_columns([[(j, x // g) for j, x in row] for row in rows])


def _eigenframe(spec: AlgebraSpec, h1, h2, mats):
    """Change to a basis of V in which h1 and h2 are diagonal.

    h1, h2 and mats = (e1, e2) come by integral_rows.  Returns (frame,
    moved): the columns t_k of T are a joint eigenbasis of h1 and h2, each e
    becomes a positive multiple of T^-1 e T and the Gram matrix G of spec
    one of T^T G T, all by with_columns and on ints.  When h1 and h2 are
    already diagonal, mats and G stay as they are.  Raises
    NotDiagonalizableError when h1, h2 have no rational joint eigenbasis.

    No T^-1 is taken.  t_k is the one vector of its joint eigenspace with an
    entry at its last one, f_k (joint_eigenbasis), and the callers checked
    [h_i, e_j] = delta_ij e_j, so e t_j lies in the eigenspace of w_j + d,
    d = (den, 0) for e1 and (0, den) for e2: (T^-1 e T)[k][j] is
    (e T)[f_k][j] / t_k[f_k] when w_k = w_j + d, else 0.
    """
    t = None
    gram = None if spec.gram is None else with_columns(spec.gram[1])
    c1, c2 = h1[0], h2[0]
    den = lcm(c1, c2)
    f1, f2 = den // c1, den // c2
    diagonal = _diagonal_weights(h1, h2)
    if diagonal is not None:
        # The diagonal entries are c1 p and c2 q.
        weights = tuple((p * f1, q * f2) for p, q in diagonal)
        moved = tuple(with_columns(rows) for _, rows in mats)
    else:
        cols, weights = [], []
        for (p, q), vecs in joint_eigenbasis(h1, h2):
            cols.extend(vecs)
            weights.extend([(p * f1, q * f2)] * len(vecs))
        t = _nonzero(zip(*cols))
        free = [max(j for j, x in enumerate(v) if x) for v in cols]
        leads = [v[f] for v, f in zip(cols, free)]
        scale = lcm(*leads)
        moved = []
        for (_, rows), (d1, d2) in zip(mats, ((den, 0), (0, den))):
            rows_et = sparse_product([rows[f] for f in free], t)
            moved.append(_sparse_form([[(j, x * (scale // c)) for j, x in row if weights[j] == (p - d1, q - d2)]
                                       for row, c, (p, q) in zip(rows_et, leads, weights)]))
        if gram is not None:
            gram = _sparse_form(sparse_product(_nonzero(cols), sparse_product(gram[0], t)))
    return _Frame(spec, den, tuple(weights), gram, t), moved


def _graded_commutant(frame: _Frame, rows, brackets) -> dict:
    """The solver of the z(e1, e2) pass: the kernel, over the n^2 positions
    of gl(V), of the sparse rows (the trace in series A), of every entry of
    [x, m] for each m in brackets and, given the frame's Gram matrix G, of
    the entries (a, b), a <= b, of x^T G + G x, as _unite reads them.  G
    pairs weight w only with -w, so entry (a, b) lies in the block of degree
    -(w_a + w_b), and G is symmetric or alternating (_checked_form), so
    entry (b, a) is entry (a, b) up to sign.

    Every row lies in one bi-degree block: each m is bi-homogeneous for the
    frame's weights.  The components of _unite have disjoint supports, so
    they are the reduced echelon basis of the kernel, up to scale, where no
    long row touches them.  Long rows are solved per block by
    integer_nullspace in the variables of the components they touch, and
    its vectors, mapped to positions, are eliminated once; on disjoint
    supports the two sets merge by leading position.

    Returns {degree: piece} for the nonzero graded pieces, each piece a basis
    of its block's kernel in order of leading position, each vector by its
    nonzero (position, value) pairs in the order of positions: a component's
    ratios x_p / x_root, ints or Fractions, or a primitive int row of the
    reduced echelon form.
    """
    weights = frame.weights
    n = len(weights)
    components, long_rows = _unite(n * n, rows, brackets, frame.gram)

    def degree(p: int) -> tuple[int, int]:
        wi, wj = weights[p // n], weights[p % n]
        return wi[0] - wj[0], wi[1] - wj[1]

    pieces: dict[tuple[int, int], list] = {}
    for comp in components:
        pieces.setdefault(degree(comp[0][0]), []).append(comp)
    long_by_degree: dict[tuple[int, int], list] = {}
    for row in long_rows:
        long_by_degree.setdefault(degree(row[0][0]), []).append(row)

    for delta in pieces.keys() & long_by_degree.keys():
        on_rows = {p for row in long_by_degree[delta] for p, _ in row}
        touched, piece = [], []
        for comp in pieces.pop(delta):
            (touched if any(p in on_rows for p, _ in comp) else piece).append(comp)
        # x_p = ratio y_k on component k, so a row sum c x_p becomes
        # sum c ratio y_k, and positions outside every component drop out.
        owner = {p: (k, x) for k, comp in enumerate(touched) for p, x in comp}
        system = []
        for row in long_by_degree[delta]:
            dense = [0] * len(touched)
            for p, c in row:
                hit = owner.get(p)
                if hit is not None:
                    dense[hit[0]] += c * hit[1]
            system.append(dense)
        null = integer_nullspace(system, len(touched))
        if null:
            spots = sorted(owner)
            reduced, _ = _eliminate([v[owner[p][0]] * owner[p][1] for p in spots] for _, v in null)
            piece += ([(p, x) for p, x in zip(spots, vec) if x] for vec in reduced)
            piece.sort(key=lambda vec: vec[0][0])
        if piece:
            pieces[delta] = piece
    return {d: pieces[d] for d in sorted(pieces)}


# ---------------------------------------------------------------------------
# Rectangularity
# ---------------------------------------------------------------------------

def _centred(frame: _Frame, e, side: int) -> bool:
    """Whether h lies in [e, g]; e by with_columns is e1 (side 0) or e2
    (side 1), h the matching h1 or h2.

    The relations hold and G^T = +-G (_checked_form), so sigma(x) =
    -G^-1 x^T G is an involution of gl(V) with fixed space g that fixes e
    and h, and h = [e, x] gives h = [e, (x + sigma x) / 2] (in series A,
    [e, x - (tr x / n) I]): h lies in [e, g] exactly when it lies in
    [e, gl(V)].  As [h, e] = e, that holds (Morozov) exactly when (e, 2h)
    extends to an sl2-triple: when, on each line W of weights along this
    side, every string of a graded Jordan decomposition of e has weight sum
    0.  That holds (Lefschetz) exactly when e^k: W_-l -> W_l is bijective
    for each l >= 0, k = 2 l / den: a string [a, b] with a + b < 0 holds
    -l = a but not l, one with a + b > 0 holds l = b but not -l, and a
    centred string through -l reaches l.  So each weight w at l needs a
    twin at -l of its multiplicity and an int k < n, as a string has at
    most n vectors; for l > 0 the twin's basis, pushed k times through e's
    columns, must have rank dim V_w on V_w.
    """
    at, cols, n = frame.at, e[1], len(frame.weights)
    for w, basis in at.items():
        lam = w[side]
        twin = at.get((-lam, w[1]) if side == 0 else (w[0], -lam), ())
        k, rest = divmod(2 * abs(lam), frame.den)
        if len(twin) != len(basis) or rest or k >= n:
            return False
        if lam > 0:
            # Row r is (e^k v_r)^T = v_r^T (e^T)^k; e's columns are e^T's rows.
            images = [[(j, 1)] for j in twin]
            for _ in range(k):
                images = sparse_product(images, cols)
            if rank([[dict(row).get(i, 0) for i in basis] for row in images]) < len(basis):
                return False
    return True


def _rectangularity(frame: _Frame, e1, e2) -> bool:
    """Both sides of the rectangularity test, e1 and e2 by with_columns;
    raises NormalFormError when they disagree."""
    side1, side2 = _centred(frame, e1, 0), _centred(frame, e2, 1)
    if side1 != side2:
        # Only a pair outside the classification gets here, such as a verify
        # document whose e1 or e2 was edited.
        raise NormalFormError(
            f"the rectangularity tests disagree: h1 {'is' if side1 else 'is not'} in the image of ad e1, "
            f"h2 {'is' if side2 else 'is not'} in that of ad e2"
        )
    return side1


def _framed(r: PairRealization):
    """The relation report verify_relations kept on r (else a new one), then
    the eigenframe of r: (frame, (e1, e2)), e1 and e2 in that frame by
    with_columns, from the sparse forms of r and its Gram matrix.  Raises
    ValueError when a relation fails or the Gram matrix is not symmetric
    (B, D) or alternating (C)."""
    rep = r._relations or verify_relations(r)
    if not rep.ok:
        raise ValueError(f"relations fail: {', '.join(rep.failures)}")
    _checked_form(r.spec.series, r.spec.gram)
    e1, e2, h1, h2 = r._scaled()
    return _eigenframe(r.spec, h1, h2, (e1, e2))


# ---------------------------------------------------------------------------
# Full analysis
# ---------------------------------------------------------------------------

def analyze(r: PairRealization) -> CentralizerReport:
    """Centralizer dimensions, bi-exponents and all classification flags."""
    frame, (e1, e2) = _framed(r)
    spec, n = frame.spec, r.spec.dimv
    trace = [[(i * n + i, 1) for i in range(n)]] if frame.gram is None else ()
    commutant = _graded_commutant(frame, trace, (e1, e2))
    # T is invertible, so the pieces' sizes are the dimensions in the input
    # coordinates too.
    table = tuple((frame.degree(d), len(piece)) for d, piece in commutant.items())
    biexponents = tuple(d for d, dim in table for _ in range(dim))
    dimension = len(biexponents)
    # z(h) & z(e) is the (0,0) piece of z(e).
    cartan_h = frame.cartan_dimension() == spec.rank
    trivial = DEGREE_0 not in commutant

    flags = ReportFlags(relations_ok=True, cartan_h=cartan_h, trivial_intersection=trivial,
                        distinguished=cartan_h and trivial, principal=dimension == spec.rank,
                        rectangular=_rectangularity(frame, e1, e2))
    kernel = tuple(tuple(map(tuple, piece)) for piece in commutant.values())
    return CentralizerReport(dimension=dimension, dimv=n, kernel=kernel, frame_change=frame.t,
                             grading=BiGrading(table=table), biexponents=biexponents, flags=flags)


# ---------------------------------------------------------------------------
# Closed-form centralizer descriptions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AOperator:
    """Extra centralizer generator: label -> coeff * label actions."""

    bidegree: tuple[Fraction, Fraction]
    actions: tuple[tuple[BasisLabel, BasisLabel, Fraction], ...]


@dataclass(frozen=True)
class ClosedFormPrediction:
    case: str
    powers: frozenset[tuple[int, int]]
    a_operator: Optional[AOperator]
    rank: int

    @property
    def biexponents(self) -> tuple[tuple[Fraction, Fraction], ...]:
        degs = [(Fraction(k), Fraction(l)) for k, l in self.powers]
        if self.a_operator is not None:
            degs.append(self.a_operator.bidegree)
        return tuple(sorted(degs))


def closed_form_centralizer(series: str, graph: SkewGraph) -> ClosedFormPrediction:
    """Symbolic centralizer basis for a principal-class graph.

    Powers (k, l) stand for e1^k e2^l; the extra operator A, when present,
    is given by its basis-label actions and bi-degree.
    """
    graph, keyed = _canonical(graph)
    found = _admissible_shapes(series, graph, "principal", keyed)
    if found is None:
        raise ValueError("graph is outside the closed-form (principal) case list")
    return _closed_form(series, graph, found)


def _a_operator(x, z, u, y) -> AOperator:
    """The A operator that sends basis label x to z and u to -y, each label
    given as (component index, 2 * its node's x, 2 * its node's y); its
    bi-degree is z - x."""
    def label(index: int, x2: int, y2: int) -> BasisLabel:
        return BasisLabel(index, Node(Fraction(x2, 2), Fraction(y2, 2)))

    bidegree = (Fraction(z[1] - x[1], 2), Fraction(z[2] - x[2], 2))
    return AOperator(bidegree, ((label(*x), label(*z), ONE), (label(*u), label(*y), -ONE)))


def _closed_form(series: str, graph: SkewGraph, found: list) -> ClosedFormPrediction:
    """closed_form_centralizer of a canonical principal graph, given the
    (ShapeClass, cells) of each component."""
    n = graph.n_nodes
    if series == "A":
        # The powers are the offsets of the cells from the source, or to the sink.
        ((shape, cells),) = found
        sign = 1 if shape.young in ("sw", "both") else -1
        x0, y0 = min(sign * x for x, _ in cells), min(sign * y for _, y in cells)
        powers = frozenset((sign * x - x0, sign * y - y0) for x, y in cells) - {(0, 0)}
        return ClosedFormPrediction("young-sw" if sign == 1 else "young-ne", powers, None, n - 1)

    rank_g = (n - 1) // 2 if series == "B" else n // 2
    case, w, h = _principal_case(series, *zip(*found))
    # The powers are the odd cells of the w x h box, cut per case.
    keep = {
        "near-rectangular-first": lambda k, l: k < w - 2,
        "near-rectangular-second": lambda k, l: l < h - 2,
        "near-rectangular-third": lambda k, l: k + l != w + h - 3,
        "chains": lambda k, l: k * l == 0,
    }.get(case, lambda k, l: True)
    powers = frozenset((k, l) for k in range(w) for l in range(h) if (k + l) % 2 and keep(k, l))
    if case == "rectangular":
        return ClosedFormPrediction(case, powers, None, rank_g)
    # Every component is centred, so the ends of the box, doubled, are at
    # +-(w - 1) and +-(h - 1).  In canonical order the rectangle comes
    # before the point, and the horizontal chain first unless the vertical
    # one is longer.
    W, H = w - 1, h - 1
    i, j = (1, 0) if h > w else (0, 1)
    x, z, u, y = {
        "near-rectangular-first": ((0, -W, H), (0, W - 2, H), (0, 2 - W, -H), (0, W, -H)),
        "near-rectangular-second": ((0, W, -H), (0, W, H - 2), (0, -W, 2 - H), (0, -W, H)),
        "near-rectangular-third": ((0, -W, 2 - H), (0, W - 2, H), (0, 2 - W, -H), (0, W, H - 2)),
        "rectangle-plus-point": ((0, -W, -H), (1, 0, 0), (1, 0, 0), (0, W, H)),
        "chains": ((i, -W, 0), (j, 0, H), (j, 0, -H), (i, W, 0)),
    }[case]
    return ClosedFormPrediction(case, powers, _a_operator(x, z, u, y), rank_g)


# ---------------------------------------------------------------------------
# Graph reconstruction
# ---------------------------------------------------------------------------

def _split_origin(frame: _Frame, moved) -> list:
    """e1, e2, by their nonzero rows, with the (0,0)-eigenspace, frame vectors
    a and b, split in two lines: the e-images from the (-1,0) and (0,-1)
    nodes, or the one hit line and its Gram-orthogonal complement.  Columns a
    and b become the images of the lines, and rows a and b the coordinates
    along them, up to one factor.
    """
    at = frame.at
    a, b = at[DEGREE_0]
    n = len(frame.weights)
    lines = []
    for rows, src in zip(moved, ((-frame.den, 0), (0, -frame.den))):
        if src in at:
            img = tuple(dict(rows[i]).get(at[src][0], 0) for i in (a, b))
            if any(img) and all(img[0] * v[1] != img[1] * v[0] for v in lines):
                lines.append(img)
    if not lines:
        raise NormalFormError("no e-image enters the (0,0)-eigenspace; not in normal form")
    if len(lines) == 1:
        if frame.gram is None:
            raise NormalFormError("cannot split the (0,0)-eigenspace without a bilinear form")
        # With (ga, gb) = u^T G on the eigenspace, v = (-gb, ga) spans the
        # v with u^T G v = 0; it is the line of u when u is isotropic.
        u = lines[0]
        block = {(i, j): x for i in (a, b) for j, x in frame.gram[0][i]}
        ga, gb = (u[0] * block.get((a, j), 0) + u[1] * block.get((b, j), 0) for j in (a, b))
        if not (ga or gb) or ga * u[0] + gb * u[1] == 0:
            raise NormalFormError("degenerate (0,0)-eigenspace split")
        lines.append((-gb, ga))
    # m becomes L m R, R sending columns a and b to p m_a + q m_b and
    # r m_a + s m_b, and L rows a and b to s m_a - r m_b and p m_b - q m_a.
    (p, q), (r, s) = lines
    left, right = [[(i, 1)] for i in range(n)], [[(i, 1)] for i in range(n)]
    left[a], left[b] = [(a, s), (b, -r)], [(a, -q), (b, p)]
    right[a], right[b] = [(a, p), (b, r)], [(a, q), (b, s)]
    return [sparse_product(left, sparse_product(rows, right)) for rows in moved]


def graph_from_pair(spec: AlgebraSpec, e1: Matrix, e2: Matrix, h1: Matrix, h2: Matrix) -> SkewGraph:
    """Skew-graph of a pair in normal form: nodes are the (h1,h2)-eigenvalues
    on V, arrows record where e1 and e2 act without vanishing.

    The relations are checked here, and _frame_graph reads the graph off
    the eigenframe.  Matrix entries are read as they are, ints or Fractions.
    """
    scaled = [integral_rows(m) for m in (e1, e2, h1, h2)]
    checks = dict(_bracket_checks(scaled))
    if not checks.pop("e1_e2_commute"):
        raise NormalFormError("e1 and e2 do not commute")
    if not checks.pop("h1_h2_commute"):
        raise NormalFormError("h1 and h2 do not commute")
    if not all(checks.values()):
        raise NormalFormError("the grading relations [h_i, e_j] = delta_ij e_j fail")
    return _frame_graph(*_eigenframe(spec, scaled[2], scaled[3], scaled[:2]))


def _frame_graph(frame: _Frame, moved) -> SkewGraph:
    """The skew-graph of e1 and e2, moved into frame by with_columns: each
    basis vector is a node at its weight and each nonzero entry an arrow.

    Joint eigenspaces must be lines, except that series D allows a
    two-dimensional (0,0)-eigenspace, which _split_origin splits into two.
    _centred_graph centres and sorts the weights, ints over den, and the
    graph is validated once, on those ints.
    """
    moved = [rows for rows, _ in moved]
    at = frame.at
    for w in sorted(w for w in at if len(at[w]) > 1):
        if w != DEGREE_0 or len(at[w]) != 2 or frame.spec.series != "D":
            raise NormalFormError(
                f"eigenspace at {frame.degree(w)} has dimension {len(at[w])}; the pair is not in normal form"
            )
        moved = _split_origin(frame, moved)

    # Each arrow i -> j is the row x_i - x_j = 0, so the live components of
    # _unite are the graph's components.
    arrows = [[(i, 1), (j, -1)] for rows in moved for i, row in enumerate(rows) for j, _ in row]
    groups = [[frame.weights[i] for i, _ in comp] for comp in _unite(len(frame.weights), arrows)[0]]
    if any(len(set(ws)) != len(ws) for ws in groups):
        raise NormalFormError("a reconstructed component repeats a node; not in normal form")
    graph, (d, cells) = _centred_graph(frame.den, groups)
    findings, _ = _validated(graph, d, cells)
    if findings:
        raise NormalFormError("reconstructed graph violates the axioms: " + "; ".join(findings))
    return graph


# ---------------------------------------------------------------------------
# JSON serialization
# ---------------------------------------------------------------------------

_FLAG_NAMES = tuple(f.name for f in fields(ReportFlags))


def report_to_jsonable(report: CentralizerReport, include_basis: bool = False) -> dict:
    """The report as JSON; matrices are written sparse, from the sparse forms."""
    witness = report.scaled_witness
    data = {
        "dimension": report.dimension,
        "grading": [{"p": str(p), "q": str(q), "dim": dim} for (p, q), dim in report.grading.table],
        "biexponents": [[str(p), str(q)] for p, q in report.biexponents],
        "flags": {name: getattr(report.flags, name) for name in _FLAG_NAMES},
        "nonpositive_witness": None,
    }
    if witness is not None:
        m, (p, q) = witness
        data["nonpositive_witness"] = {"p": str(p), "q": str(q), "matrix": scaled_to_jsonable(m)}
    if include_basis:
        data["basis"] = [scaled_to_jsonable(m) for m in report.scaled_basis]
    return data
