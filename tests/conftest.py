"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own algorithms: row
reduction is the textbook divide-by-pivot Gauss-Jordan over Fraction,
shape enumeration is subset brute force over a bounded grid, and shape
counts come from an integer recurrence over column heights.
"""

from __future__ import annotations

import itertools
import signal
from contextlib import contextmanager
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Optional

import pytest

from oracles import (
    graph_key,
    identity,
    invert,
    is_connected,
    is_diagonal,
    mat_add,
    mat_mul,
    mat_sub,
    matrix,
    transpose,
)
from skewpairs.centralizer import CentralizerReport, _framed, _rectangularity, analyze
from skewpairs.liealg import (
    PairRealization,
    RelationReport,
    build_pair,
    make_spec,
    realization_to_jsonable,
    verify_relations,
)
from skewpairs.skewgraph import Node, SkewGraph, enumerate_admissible

DESK_DIMS = (
    ("A", tuple(range(1, 13))),
    ("B", tuple(range(1, 12, 2))),
    ("C", tuple(range(2, 13, 2))),
    ("D", tuple(range(2, 13, 2))),
)


@dataclass(frozen=True)
class DeskRecord:
    series: str
    dimv: int
    graph: SkewGraph
    sign: Optional[str]
    realization: PairRealization
    relations: RelationReport
    report: Optional[CentralizerReport]


def iter_desk_graphs():
    for series, dims in DESK_DIMS:
        for dimv in dims:
            for graph in enumerate_admissible(series, dimv, "distinguished"):
                yield series, dimv, graph


@pytest.fixture(scope="session")
def desk_records() -> tuple[DeskRecord, ...]:
    """Every admissible distinguished realization with dimV <= 12, both sign
    representatives for connected series-D graphs, fully analyzed."""
    records = []
    for series, dimv, graph in iter_desk_graphs():
        signs = ("plus", "minus") if series == "D" and graph.is_connected() else (None,)
        for sign in signs:
            r = build_pair(series, graph, sign)
            relations = verify_relations(r)
            report = analyze(r) if relations.ok else None
            records.append(
                DeskRecord(
                    series=series,
                    dimv=dimv,
                    graph=graph,
                    sign=sign,
                    realization=r,
                    relations=relations,
                    report=report,
                )
            )
    return tuple(records)


@pytest.fixture(scope="session")
def principal_keys() -> dict:
    """graph_key sets of the principal-admissible graphs per (series, dimV)."""
    keys = {}
    for series, dims in DESK_DIMS:
        for dimv in dims:
            keys[(series, dimv)] = {
                graph_key(g) for g in enumerate_admissible(series, dimv, "principal")
            }
    return keys


# ---------------------------------------------------------------------------
# Shapes and predicates on the package's own code path
# ---------------------------------------------------------------------------

def rectangle_nodes(width: int, height: int) -> frozenset[Node]:
    """Centered width x height block of unit cells."""
    xs = [Fraction(2 * k - (width - 1), 2) for k in range(width)]
    ys = [Fraction(2 * k - (height - 1), 2) for k in range(height)]
    return frozenset(Node(x, y) for x in xs for y in ys)


def is_rectangular_pair(r: PairRealization) -> bool:
    """Whether h1 lies in the image of ad e1 inside g (equivalently h2, ad
    e2), by the call analyze makes for its rectangular flag: each side checks
    on its own that every e-string of the eigenframe is centred, and the two
    must agree, else NormalFormError.  Raises ValueError when a relation
    fails or the Gram matrix is not symmetric (B, D) or alternating (C)."""
    frame, (e1, e2) = _framed(r)
    return _rectangularity(frame, e1, e2)


class DeadlinePassed(Exception):
    """Raised by deadline; not an OSError, so that no handler of cli.main
    turns it into an exit code."""


@contextmanager
def deadline(seconds: float):
    """Raise DeadlinePassed inside the block once seconds of wall time have
    passed, so that a loop that does not end fails its test instead of
    hanging the run."""
    def expire(signum, frame):
        raise DeadlinePassed(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# Small realizations and their conjugated copies
# ---------------------------------------------------------------------------

def conjugator(r, rng):
    """A seeded rational isometry T of r's form (any T in GL(n, Q) for
    series A), redrawn until T moves h1 or h2 off the diagonal; None when
    twenty draws all leave h diagonal."""
    n = r.spec.dimv
    one = identity(n)
    for _ in range(20):
        if r.spec.series == "A":
            t = one
            for _ in range(3):
                i, j = rng.sample(range(n), 2)
                step = [list(row) for row in one]
                step[i][j] = Fraction(rng.choice((1, -1)))
                t = mat_mul(t, matrix(step))
        else:
            # Cayley transform (I - X)^-1 (I + X) of X = G^-1 S in the algebra.
            s = [[Fraction(0)] * n for _ in range(n)]
            for _ in range(2):
                # S is symmetric for C, where its diagonal may be hit, and skew for B, D.
                i, j = (rng.randrange(n), rng.randrange(n)) if r.spec.series == "C" else rng.sample(range(n), 2)
                c = Fraction(rng.choice((1, -1)))
                s[i][j] += c
                s[j][i] += c if r.spec.series == "C" else -c
            x = mat_mul(invert(r.spec.form), matrix(s))
            try:
                t = mat_mul(invert(mat_sub(one, x)), mat_add(one, x))
            except ValueError:
                continue
            assert mat_mul(transpose(t), mat_mul(r.spec.form, t)) == r.spec.form
        t_inv = invert(t)
        if not all(is_diagonal(mat_mul(t, mat_mul(h, t_inv))) for h in (r.h1, r.h2)):
            return t
    return None


def moved_by(r, t):
    """r in the basis of T: each of e1, e2, h1, h2 becomes T m T^-1 and the
    Gram matrix G becomes T^-T G T^-1 (G itself when T is an isometry)."""
    t_inv = invert(t)
    spec = r.spec
    if spec.form is not None:
        spec = make_spec(spec.series, spec.dimv, mat_mul(transpose(t_inv), mat_mul(spec.form, t_inv)))
    return replace(r, spec=spec, **{k: mat_mul(t, mat_mul(getattr(r, k), t_inv)) for k in ("e1", "e2", "h1", "h2")})


def conjugated(r, rng):
    """r moved by conjugator(r, rng), or None."""
    t = conjugator(r, rng)
    return None if t is None else moved_by(r, t)


def scaled_shear(n):
    """Diag of primes near 10^6 times a unit upper shear: a T in GL(n, Q)
    whose inverse has six- and seven-digit denominators."""
    primes = (999983, 1000003, 999979, 1000033, 999961)
    shear = matrix([[int(j >= i) for j in range(n)] for i in range(n)])
    scale = matrix([[primes[i % 5] if i == j else 0 for j in range(n)] for i in range(n)])
    return mat_mul(scale, shear)


def distinguished_realizations(max_dimv):
    """Every distinguished realization with dimV <= max_dimv, both signs
    for connected series-D graphs."""
    for series, first, step in (("A", 1, 1), ("B", 1, 2), ("C", 2, 2), ("D", 2, 2)):
        for dimv in range(first, max_dimv + 1, step):
            for g in enumerate_admissible(series, dimv, "distinguished"):
                signs = ("plus", "minus") if series == "D" and g.is_connected() else (None,)
                for sign in signs:
                    yield build_pair(series, g, sign)


def large_dimv_document():
    """A 619-byte series-C realization document that claims dimv 2000 for
    its 4 labels, with a sparse 2000 x 2000 Gram matrix."""
    r = build_pair("C", enumerate_admissible("C", 4, "distinguished")[0])
    data = realization_to_jsonable(r, "sparse")
    data["dimv"] = 2000
    data["gram"] = {"shape": 2000, "entries": []}
    return data


def small_realizations():
    """Every distinguished and principal realization with dimV <= 6."""
    seen = set()
    for series, dims in (("A", range(1, 7)), ("B", (1, 3, 5)), ("C", (2, 4, 6)), ("D", (2, 4, 6))):
        for dimv in dims:
            for kind in ("distinguished", "principal"):
                for g in enumerate_admissible(series, dimv, kind):
                    signs = ("plus", "minus") if series == "D" and g.is_connected() else (None,)
                    for sign in signs:
                        key = (series, graph_key(g), sign)
                        if key not in seen:
                            seen.add(key)
                            yield build_pair(series, g, sign)


# ---------------------------------------------------------------------------
# Independent oracle: textbook Gauss-Jordan over Fraction
# ---------------------------------------------------------------------------

def naive_rref(rows):
    """Reduced row echelon form by immediate pivot normalization."""
    work = [[Fraction(x) for x in row] for row in rows]
    work = [row for row in work if any(row)]
    if not work:
        return (), ()
    ncols = len(work[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        factor = work[r][c]
        work[r] = [x / factor for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    reduced = tuple(tuple(work[i]) for i in range(len(pivots)))
    return reduced, tuple(pivots)


def naive_nullspace(rows, ncols):
    reduced, pivots = naive_rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][free]
        basis.append(tuple(v))
    return tuple(basis)


# ---------------------------------------------------------------------------
# Independent oracle: subset brute force over the n x n grid
# ---------------------------------------------------------------------------

def _oracle_skew_ok(cells: frozenset) -> bool:
    for (x, y) in cells:
        if (x + 1, y + 1) in cells and ((x, y + 1) not in cells or (x + 1, y) not in cells):
            return False
    return True


def oracle_connected_cellsets(n: int) -> set:
    """All n-cell connected axiom-(iv) shapes, one translation representative
    each (min corner at the origin), by exhaustive subset enumeration."""
    grid = [(x, y) for x in range(n) for y in range(n)]
    found = set()
    for combo in itertools.combinations(grid, n):
        if min(c[0] for c in combo) or min(c[1] for c in combo):
            continue
        cells = frozenset(combo)
        if not _oracle_skew_ok(cells):
            continue
        if not is_connected(cells):
            continue
        found.add(cells)
    return found


# ---------------------------------------------------------------------------
# Independent oracle: count of connected skew shapes by a column-height DP
# ---------------------------------------------------------------------------

def oracle_connected_counts(n_max: int) -> list[int]:
    """Connected skew shapes (parallelogram polyominoes) with 1..n_max cells.

    A shape is a run of column intervals, each overlapping the one before
    with bottom and top falling weakly; a column of height k can follow one
    of height j in min(j, k) ways.  OEIS A006958.
    """
    # ways[area][k]: shapes of this area whose last column has height k
    ways = [[0] * (n_max + 1) for _ in range(n_max + 1)]
    for area in range(1, n_max + 1):
        ways[area][area] = 1
        for k in range(1, area):
            ways[area][k] = sum(ways[area - k][j] * min(j, k) for j in range(1, area - k + 1))
    return [sum(ways[area]) for area in range(1, n_max + 1)]


def graph_to_cellset(graph: SkewGraph) -> frozenset:
    """Translate a one-component graph to integer cells with min corner 0."""
    assert len(graph.components) == 1
    nodes = graph.components[0].nodes
    mx = min(nd.x for nd in nodes)
    my = min(nd.y for nd in nodes)
    cells = frozenset((int(nd.x - mx), int(nd.y - my)) for nd in nodes)
    assert len(cells) == len(nodes)
    return cells


# ---------------------------------------------------------------------------
# Independent oracle: closed principal counts
# ---------------------------------------------------------------------------

def partition_counts(top: int) -> list[int]:
    """p(0), ..., p(top) by the recurrence over the largest part allowed."""
    p = [1] + [0] * top
    for part in range(1, top + 1):
        for n in range(part, top + 1):
            p[n] += p[n - part]
    return p


def divisor_count(n: int) -> int:
    return sum(n % d == 0 for d in range(1, n + 1))


def odd_part(n: int) -> int:
    while n % 2 == 0:
        n //= 2
    return n
