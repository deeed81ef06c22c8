"""Exact linear algebra over the rationals.

Dense matrices are tuples of tuples of Fraction; the package mostly passes
sparse ones, as (c, rows) from integral_rows().  Row reduction is
fraction-free: rows are scaled to primitive integer vectors and eliminated
with the two-row integer rule, so the reduced echelon form comes out as
primitive integer rows, each positive at its pivot.  Pivoting is by first
nonzero column, ties broken by row order, so every result is
deterministic.  The centralizer reaches elimination only for its rows of
three or more terms, the rectangularity test only for the rank of a power
of e between two weight spaces, and no inhomogeneous system is solved.
The package's one union-find, _unite, solves the rest: a row
a x_u + b x_v = 0 is a signed union.  It also finds the blocks of
joint_eigenbasis and the components of a graph read off a pair, from rows
x_i - x_j = 0.

Eigenvalues come from integers too.  With c the least common denominator
of h, the characteristic polynomial of the integer matrix c h is monic over
Z, so each rational eigenvalue of h is r / c for an integer root r, found
by Newton's method down from a bound on |r|, in a number of steps that
grows with the bit length of that bound, not with r.
The joint eigenspaces of (h1, h2) are found block by block, on the
connected components of the joint off-diagonal support of h1 and h2, found
by one _unite pass: a block of one coordinate is a joint eigenvector with
no solve, and a larger block takes one kernel per eigenvalue p of h1 on
it.  A line is a joint eigenspace when h2 maps its vector to a multiple of
it.  On a larger kernel, the eigenvalues q of the small matrix of h2 read
off its free columns are candidates, each solved once as the kernel of
h1 - p stacked on h2 - q.  Every vector found is a joint eigenvector, so
the pair is diagonalizable over Q exactly when they span the whole space.

Only routines that a package path calls live here.  Dense Fraction
arithmetic (products, sums, powers, commutators, span membership, the
reduced echelon form and the characteristic polynomial as Fractions)
serves the test suite alone, as its oracles.
"""

from __future__ import annotations

import re
import reprlib
import sys
from fractions import Fraction
from itertools import accumulate
from math import gcd, lcm
from typing import Iterable, Sequence

Matrix = tuple
Vector = tuple

ZERO = Fraction(0)


# The interpreter's default limit on the digits of an int read from a string.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)\s*\Z")


def parse_fraction(value) -> Fraction:
    """Fraction(value) for external input.

    A zero denominator, an infinity, a bool, a string whose decimal exponent
    exceeds MAX_EXPONENT in magnitude (Fraction would build the power of ten,
    which takes seconds and more), a numerator or denominator with more
    decimal digits than the interpreter converts to and from strings
    (sys.get_int_max_str_digits()), and a value that is neither a number nor
    a string, is a ValueError.
    """
    if isinstance(value, bool):
        raise ValueError(f"expected a number or a numeric string, got {value!r}")
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent.group(1).replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValueError(f"the exponent of {reprlib.repr(value)} exceeds {MAX_EXPONENT} in magnitude")
    limit = sys.get_int_max_str_digits()
    try:
        x = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except OverflowError:
        raise ValueError(f"{value!r} is not a finite number") from None
    except TypeError:
        raise ValueError(f"expected a number or a numeric string, got {reprlib.repr(value)}") from None
    except ValueError:
        if limit and isinstance(value, str) and sum(c.isdigit() for c in value) > limit:
            raise ValueError(f"{reprlib.repr(value)} has more than {limit} digits") from None
        raise
    big = max(abs(x.numerator), x.denominator)
    # Below 8^limit a number has at most limit decimal digits.
    if limit and big.bit_length() > 3 * limit and big >= 10**limit:
        # reprlib cannot show such a number itself, only the string it came from.
        shown = reprlib.repr(value) if isinstance(value, str) else "a number"
        raise ValueError(f"{shown} has more than {limit} digits")
    return x


def _entry_parser():
    """parse_fraction that parses each distinct string once and returns each
    zero as ZERO: one such reader serves every number of a document."""
    parsed: dict[str, Fraction] = {}

    def parse(value):
        if type(value) is not str:
            return parse_fraction(value) or ZERO
        x = parsed.get(value)
        if x is None:
            x = parsed[value] = parse_fraction(value) or ZERO
        return x

    return parse


def integral_rows(m: Matrix) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """(c, rows): rows[i] is the tuple of (j, c * m[i][j]) with m[i][j] != 0.

    c > 0 is the least common denominator of the entries, so the values are
    ints.  Empty rows are the one empty tuple, so a held form costs memory
    by its nonzero entries.
    """
    return scaled_rows([[(j, x) for j, x in enumerate(row) if x is not ZERO and x] for row in m])


def dense_matrix(scaled) -> Matrix:
    """The Fraction matrix m of scaled = (c, rows), as integral_rows gives it."""
    c, rows = scaled
    out = [[ZERO] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            out[i][j] = Fraction(x, c)
    return tuple(map(tuple, out))


def scaled_rows(nonzero: list) -> tuple[int, list[tuple[tuple[int, int], ...]]]:
    """integral_rows of the matrix whose nonzero rows, (j, x) pairs with x an
    int or a Fraction, are given."""
    c = lcm(*(x.denominator for row in nonzero for _, x in row))
    return c, [tuple([(j, x.numerator * (c // x.denominator)) for j, x in row]) for row in nonzero]


def sparse_product(a: Sequence, b: Sequence) -> list[list[tuple[int, int]]]:
    """The nonzero rows of ab, a and b given by their nonzero rows of ints,
    each row's entries in no fixed order.  On signed partial permutations,
    such as e1 and e2 of a built pair, it costs O(n)."""
    out = []
    for row in a:
        acc: dict[int, int] = {}
        for t, x in row:
            for j, y in b[t]:
                acc[j] = acc.get(j, 0) + x * y
        out.append([(j, v) for j, v in acc.items() if v])
    return out


def with_columns(rows: list[list[tuple[int, int]]]) -> tuple[list, list]:
    """(rows, cols): the same nonzero entries of sparse rows, also by column."""
    cols: list[list[tuple[int, int]]] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            cols[j].append((i, x))
    return rows, cols


def _primitive(row: Sequence) -> list[int]:
    """Scale a rational row to a primitive integer row (positive leading entry).

    Accepts ints and Fractions; this is the content-reduction step of the
    fraction-free elimination.
    """
    den = 1
    for x in row:
        d = x.denominator
        if d != 1:
            den = den * d // gcd(den, d)
    if den == 1:
        ints = [x.numerator for x in row]
    else:
        ints = [x.numerator * (den // x.denominator) for x in row]
    return _content_reduced(ints)


def _content_reduced(ints: list[int]) -> list[int]:
    """An integer row divided by its content, with a positive leading entry."""
    g = 0
    for v in ints:
        if v:
            g = gcd(g, v)
            if g == 1:
                break
    if g > 1:
        ints = [v // g for v in ints]
    for v in ints:
        if v:
            if v < 0:
                ints = [-u for u in ints]
            break
    return ints


def _eliminate(rows: Iterable[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free Gauss-Jordan elimination on content-reduced integer rows.

    Returns (work, pivots): zero rows are dropped, and work[i] is a
    primitive integer row whose only nonzero entry in a pivot column is at
    pivots[i].  work[i] is 0 before pivots[i] and positive there, so
    work[i] / work[i][pivots[i]] is row i of the reduced echelon form.
    """
    work = []
    for row in rows:
        ints = _primitive(row)
        if any(ints):
            work.append(ints)
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        piv = work[r][c]
        pivot_vec = work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = _content_reduced([piv * a - f * b for a, b in zip(work[i], pivot_vec)])
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return work[:r], pivots


def rank(rows: Iterable[Sequence]) -> int:
    return len(_eliminate(rows)[1])


def integer_nullspace(rows: Iterable[Sequence], ncols: int) -> list[tuple[int, list[int]]]:
    """A basis of the right null space, one vector per free column.

    Returns (free, v) pairs: v is 0 at the other free columns and a
    primitive integer vector with v[free] > 0.  Divided by v[free], these
    vectors are the canonical basis, the reduced echelon form of the kernel
    with the column order reversed.
    """
    work, pivots = _eliminate(rows)
    pivot_set = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        hits = [(row[free], row[p], p) for row, p in zip(work, pivots) if row[free]]
        scale = lcm(*(piv for _, piv, _ in hits))
        v = [0] * ncols
        v[free] = scale
        for x, piv, p in hits:
            v[p] = -x * (scale // piv)
        g = gcd(*v)
        out.append((free, [x // g for x in v] if g > 1 else v))
    return out


def integer_inverse(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """A positive multiple of the inverse of an invertible integer matrix.

    Fraction-free Gauss-Jordan on [A | I]: row i comes out as a primitive
    (d_i e_i | d_i A^-1[i]) with d_i > 0, so lcm(d_i) A^-1 is an integer
    matrix.
    """
    n = len(rows)
    work, pivots = _eliminate([list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    scale = lcm(*(row[i] for i, row in enumerate(work)))
    return [[x * (scale // row[i]) for x in row[n:]] for i, row in enumerate(work)]


class NotDiagonalizableError(ValueError):
    """A pair of matrices has no joint eigenbasis over Q."""


def _integer_charpoly(rows: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """Characteristic polynomial of an integer matrix, highest degree first.

    The matrix A is given by its nonzero entries by row.  Faddeev-LeVerrier:
    M_1 = I, c_k = -tr(A M_k) / k, M_(k+1) = A M_k + c_k I.  The c_k are
    the integer coefficients of a monic polynomial over Z, so every trace
    division is exact.
    """
    n = len(rows)
    coeffs = [1]
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        # Row i of A M is the combination sum_t x M[t] over the entries (t, x)
        # of row i of A.
        am = []
        for row in rows:
            acc = [0] * n
            for t, x in row:
                acc = [a + x * b for a, b in zip(acc, m[t])]
            am.append(acc)
        c = -sum(am[i][i] for i in range(n)) // k
        coeffs.append(c)
        for i in range(n):
            am[i][i] += c
        m = am
    return coeffs


def _value_and_slope(f: Sequence[int], x: int) -> tuple[int, int]:
    """f(x) and f'(x) by Horner, f by its coefficients, highest degree first."""
    value = slope = 0
    for a in f:
        value, slope = value * x + a, slope * x + value
    return value, slope


def _integer_roots(f: list[int], bound: int) -> list[int]:
    """The distinct roots, ascending, of a monic integer polynomial f whose
    roots are integers in [-bound, bound]; NotDiagonalizableError otherwise.

    Newton's method steps down from x = bound by max(1, f(x) // f'(x)),
    dividing out each root found.  While f splits over Z, f / f' lies
    between (x - r_max) / m and x - r_max for m roots left: no step passes
    the largest root, and each shrinks the gap by 1 / m of itself or more.
    So f(x) < 0, f'(x) <= 0, or more than n^2 (bound.bit_length() + 2)
    evaluations for degree n, show that f does not split.
    """
    budget = (len(f) - 1) ** 2 * (bound.bit_length() + 2)
    roots, x = [], bound
    while len(f) > 1:
        value, slope = _value_and_slope(f, x)
        budget -= 1
        if value == 0:
            roots.append(x)
            f = list(accumulate(f[:-1], lambda q, a: q * x + a))
        elif value < 0 or slope <= 0 or budget < 0:
            raise NotDiagonalizableError("h1, h2 have no rational joint eigenbasis: an eigenvalue is not rational")
        else:
            x -= max(1, value // slope)
    return sorted(set(roots))


def _eigenvalues(rows: Sequence[Sequence[tuple[int, int]]]) -> list[int]:
    """The distinct eigenvalues, ascending, of an integer matrix A given by
    its nonzero entries by row, c times those of h for A = c h, h rational;
    NotDiagonalizableError unless all are rational.  Its characteristic
    polynomial is monic over Z, so they are integers, none above the largest
    absolute row sum of A in size."""
    bound = max((sum(abs(x) for _, x in row) for row in rows), default=0)
    return _integer_roots(_integer_charpoly(rows), bound)


def _shifted(rows: Sequence[Sequence[tuple[int, int]]], r: int) -> list[list[int]]:
    """The dense rows of A - r I, for A given by its nonzero entries by row."""
    out = [[0] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            out[i][j] = x
        out[i][i] -= r
    return out


def _summed(terms: list) -> list:
    """A sparse row from (position, coefficient) terms: equal positions summed,
    zero coefficients dropped.  The terms come in two runs of distinct
    positions, so two terms meet only across the runs."""
    if len(terms) < 2 or (len(terms) == 2 and terms[0][0] != terms[1][0]):
        return terms
    acc: dict[int, int] = {}
    for p, c in terms:
        acc[p] = acc.get(p, 0) + c
    return [(p, c) for p, c in acc.items() if c]


def _unite(size: int, rows, brackets=(), form=None) -> tuple[list, list]:
    """One signed union-find pass over positions 0, ..., size - 1, of the
    sparse rows, of every entry (i, j) of [x, m] for each m in brackets and,
    given the Gram matrix G, of the entries (a, b), a <= b, of x^T G + G x:
    m and G by with_columns.

    A sparse row lists (position, int coefficient) pairs, positions i * n + j
    distinct and coefficients nonzero.  A row a x_u + b x_v = 0 unites u and
    v with the ratio x_v / x_u = -a / b, an int while the division is exact;
    a row with one term, or a cycle whose ratios do not close, forces its
    component to 0.  An entry (i, j), sum_t m_tj x_it - sum_t m_it x_tj of a
    bracket or sum_t G_tj x_ti + sum_t G_it x_tj of the form, is read off
    column j and row i of m or G, row by row: one union or one kill while
    both hold at most one entry (x_ij may meet itself), a row by _summed
    when one holds two.  A kill marks its position's root dead, by find only
    when the position's parent is not a root, and a union keeps its root
    dead when either root was, so a row's unions are joined when the row is
    done: the sparse rows, then the form's rows and each bracket's, in
    order.  Returns (components, rows of three or more terms): each live
    component, a kernel vector of the shorter rows, by its (position,
    x_p / x_root) pairs in the order of positions, ordered by first
    position."""
    parent, ratio, dead, long_rows = list(range(size)), [1] * size, [False] * size, []

    def find(p: int) -> int:
        path = []
        while parent[p] != p:
            path.append(p)
            p = parent[p]
        for q in reversed(path):
            up = parent[q]
            if up != p:
                ratio[q] *= ratio[up]
                parent[q] = p
        return p

    def unite(pairs: list) -> None:
        for u, a, v, b in pairs:
            ru, rv = parent[u], parent[v]
            if parent[ru] != ru:
                ru = find(u)
            if parent[rv] != rv:
                rv = find(v)
            a, b = a * ratio[u], b * ratio[v]
            if ru == rv:
                if a + b:
                    dead[ru] = True
            else:
                # a x_ru + b x_rv = 0
                parent[rv] = ru
                ratio[rv] = -a // b if type(a) is int and type(b) is int and a % b == 0 else Fraction(-a, b)
                dead[ru] = dead[ru] or dead[rv]

    def take(row, pairs: list) -> None:
        if len(row) == 2:
            pairs.append((*row[0], *row[1]))
        elif len(row) == 1:
            dead[find(row[0][0])] = True
        elif row:
            long_rows.append(row)

    pairs: list = []
    for row in rows:
        take(row, pairs)
    unite(pairs)
    # A term t of column j lies at u0 + t du, one of row i at t n + j.
    readings = [(m, False) for m in brackets]
    for (m_rows, m_cols), transposed in readings if form is None else [(form, True)] + readings:
        n = len(m_rows)
        du, sign = (n, 1) if transposed else (1, -1)
        for i, row in enumerate(m_rows):
            pairs, u0, first = [], (i if transposed else i * n), (i if transposed else 0)
            if len(row) == 1:
                ((t, c),) = row
                v0, c = t * n, sign * c
                for j in range(first, n):
                    col = m_cols[j]
                    if len(col) == 1:
                        ((s, d),) = col
                        pairs.append((u0 + s * du, d, v0 + j, c))
                    elif col:
                        take(_summed([(u0 + s * du, d) for s, d in col] + [(v0 + j, c)]), pairs)
                    else:
                        dead[r if parent[r := parent[v0 + j]] == r else find(v0 + j)] = True
            elif row:
                for j in range(first, n):
                    take(_summed([(u0 + s * du, d) for s, d in m_cols[j]] + [(t * n + j, sign * c) for t, c in row]), pairs)
            else:
                for j in range(first, n):
                    col = m_cols[j]
                    if len(col) == 1:
                        p = u0 + col[0][0] * du
                        dead[r if parent[r := parent[p]] == r else find(p)] = True
                    elif col:
                        take([(u0 + s * du, d) for s, d in col], pairs)
            unite(pairs)

    components: dict[int, list] = {}
    for p, root in enumerate(parent):
        if parent[root] != root:
            root = find(p)
        if not dead[root]:
            components.setdefault(root, []).append((p, ratio[p]))
    return list(components.values()), long_rows


def joint_eigenbasis(h1, h2) -> list[tuple[tuple[int, int], list[list[int]]]]:
    """Simultaneous eigenspace decomposition of h1 and h2, given by
    integral_rows as (c1, rows1) and (c2, rows2): sorted ((c1 p, c2 q),
    basis of V_{p,q}) entries, each basis vector a primitive integer vector
    whose last nonzero entry, at its free column, is positive.  Raises
    NotDiagonalizableError unless the joint eigenspaces span Q^n.

    h1 and h2 are block diagonal on the connected components of their joint
    off-diagonal support, so each block is diagonalized on its own and its
    vectors lifted back to n coordinates.  A block of one coordinate i is
    the joint eigenvector e_i, with no solve.  On a larger block, one
    integer_nullspace per eigenvalue p of h1 gives K = ker(h1 - p), spanned
    by primitive v_t, each the one vector with an entry at its free column
    f_t.  A line <v> is a joint eigenspace when c2 h2 v = q v, q read off
    f.  On a larger K, the matrix of c2 h2 read off the free columns,
    sum_s (c2 h2 v_t)[f_s] / v_s[f_s] v_s, is its restriction if K is
    h2-stable, so its eigenvalues are candidates only: each q with c2 q an
    int is solved once, as the kernel of h1 - p stacked on h2 - q.  So every
    vector is a joint eigenvector, distinct (p, q) give independent ones,
    and the span check alone decides.  The canonical basis of a space on
    disjoint blocks is the union of the blocks' bases, so the vectors of one
    (p, q) merge in the order of their free columns.
    """
    (c1, rows1), (c2, rows2) = h1, h2
    n = len(rows1)
    # (c1 p, c2 q) -> (free column, vector) pairs.
    spaces: dict[tuple[int, int], list[tuple[int, list[int]]]] = {}
    # Each off-diagonal entry (i, j) is the row x_i - x_j = 0, so the live
    # components of _unite are the blocks.
    joins = [[(i, 1), (j, -1)] for rows in (rows1, rows2) for i, row in enumerate(rows) for j, _ in row if j != i]
    for comp in _unite(n, joins)[0]:
        block = [i for i, _ in comp]
        if len(block) == 1:
            (i,) = block
            v = [0] * n
            v[i] = 1
            spaces.setdefault((sum(x for _, x in rows1[i]), sum(x for _, x in rows2[i])), []).append((i, v))
            continue
        local = {j: k for k, j in enumerate(block)}
        sub1, sub2 = ([[(local[j], x) for j, x in rows[i]] for i in block] for rows in (rows1, rows2))
        for p in _eigenvalues(sub1):
            shifted = _shifted(sub1, p)
            space = integer_nullspace(shifted, len(block))
            images = [[sum(x * v[j] for j, x in row) for row in sub2] for _, v in space]
            if len(space) == 1:
                (f, v), (image,) = space[0], images
                q = image[f] // v[f]
                pieces = [(q, space)] if image == [q * x for x in v] else []
            else:
                # scale c2 h2 in the coordinates of the v_s, were K h2-stable:
                # its eigenvalues would be scale c2 q.
                scale = lcm(*(v[f] for f, v in space))
                restricted = [[(t, im[f] * (scale // u[f])) for t, im in enumerate(images) if im[f]] for f, u in space]
                pieces = [
                    (q // scale, integer_nullspace(shifted + _shifted(sub2, q // scale), len(block)))
                    for q in _eigenvalues(restricted)
                    if q % scale == 0
                ]
            for q, vecs in pieces:
                for f, v in vecs:
                    lifted = [0] * n
                    for j, x in zip(block, v):
                        lifted[j] = x
                    spaces.setdefault((p, q), []).append((block[f], lifted))
    found = sum(len(vecs) for vecs in spaces.values())
    if found != n:
        raise NotDiagonalizableError(
            f"h1, h2 have no rational joint eigenbasis: their joint eigenspaces span {found} of {n} dimensions"
        )
    return [(key, [v for _, v in sorted(vecs)]) for key, vecs in sorted(spaces.items())]
