"""Exact linear algebra over the rationals.

Matrices are immutable tuples of tuples of Fraction.  Row reduction is
fraction-free: rows are scaled to primitive integer vectors (content
reduction), eliminated with the two-row integer rule, and only normalized
back to leading-one Fractions at the end.  Pivoting is by first nonzero
column with ties broken by row order, so every result is deterministic.
Rows that are ints already, such as the block systems of the graded solve,
never become Fractions: rank() and integer_nullspace() stay on ints.
"""

from __future__ import annotations

import reprlib
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

Matrix = tuple
Vector = tuple

ZERO = Fraction(0)
ONE = Fraction(1)


def parse_fraction(value) -> Fraction:
    """Fraction(value) for external input.

    A zero denominator, an infinity, and a value that is neither a number
    nor a string, is a ValueError.
    """
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None
    except OverflowError:
        raise ValueError(f"{value!r} is not a finite number") from None
    except TypeError:
        raise ValueError(f"expected a number or a numeric string, got {reprlib.repr(value)}") from None


def matrix(rows: Iterable[Iterable]) -> Matrix:
    return tuple(tuple(Fraction(x) for x in row) for row in rows)


def zeros(n: int, m: Optional[int] = None) -> Matrix:
    m = n if m is None else m
    return tuple((ZERO,) * m for _ in range(n))


def identity(n: int) -> Matrix:
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def transpose(a: Matrix) -> Matrix:
    return tuple(zip(*a))


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_scale(c, a: Matrix) -> Matrix:
    c = Fraction(c)
    return tuple(tuple(c * x for x in row) for row in a)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    # Zero-skipping: the shift and diagonal matrices in this package are
    # extremely sparse and dense n^3 products would dominate the runtime.
    n, k = len(a), len(b[0])
    out = [[ZERO] * k for _ in range(n)]
    for i, row in enumerate(a):
        oi = out[i]
        for t, x in enumerate(row):
            if x:
                bt = b[t]
                for j, y in enumerate(bt):
                    if y:
                        oi[j] += x * y
    return tuple(tuple(row) for row in out)


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


def is_diagonal(a: Matrix) -> bool:
    return all(not x for i, row in enumerate(a) for j, x in enumerate(row) if i != j)


def integral_rows(m: Matrix) -> tuple[int, list[list[tuple[int, int]]]]:
    """(c, rows): rows[i] lists the (j, c * m[i][j]) with m[i][j] != 0.

    c > 0 is the least common denominator of the entries, so the values are
    ints.
    """
    nonzero = [[(j, x) for j, x in enumerate(row) if x] for row in m]
    c = lcm(*(x.denominator for row in nonzero for _, x in row))
    return c, [[(j, x.numerator * (c // x.denominator)) for j, x in row] for row in nonzero]


def transposed_rows(rows: Sequence[Sequence[tuple[int, object]]]) -> list[list[tuple[int, object]]]:
    """The (index, value) rows of the transpose of a square matrix given by its rows."""
    cols: list[list] = [[] for _ in rows]
    for i, row in enumerate(rows):
        for j, x in row:
            cols[j].append((i, x))
    return cols


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
    pivots[i].
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


def rref(rows: Iterable[Sequence]) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form with the pivot columns.

    Fraction-free elimination on content-reduced integer rows; zero rows are
    dropped and pivots are normalized to 1 at the end, when only the nonzero
    entries become Fractions.
    """
    work, pivots = _eliminate(rows)
    reduced = []
    for row, c in zip(work, pivots):
        piv = row[c]
        reduced.append(tuple(Fraction(x, piv) if x else ZERO for x in row))
    return tuple(reduced), tuple(pivots)


def rank(rows: Iterable[Sequence]) -> int:
    return len(_eliminate(rows)[1])


def nullspace(rows: Iterable[Sequence], ncols: int) -> tuple[Vector, ...]:
    """Canonical basis of the right nullspace (one vector per free column)."""
    return tuple(
        tuple(Fraction(x, v[free]) if x else ZERO for x in v)
        for free, v in integer_nullspace(rows, ncols)
    )


def integer_nullspace(rows: Iterable[Sequence], ncols: int) -> list[tuple[int, list[int]]]:
    """(free, v) per free column, v the nullspace() vector of that column
    scaled to a primitive integer vector with v[free] > 0."""
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


def solve(rows: Iterable[Sequence], rhs: Sequence) -> Optional[Vector]:
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


def invert(a: Matrix) -> Matrix:
    n = len(a)
    aug = [list(row) + [ONE if i == j else ZERO for j in range(n)] for i, row in enumerate(a)]
    red, pivots = rref(aug)
    if tuple(pivots) != tuple(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(red[i][n:]) for i in range(n))


def span_rref(vectors: Iterable[Sequence]) -> Matrix:
    """Canonical (RREF) basis of the span of the given vectors."""
    return rref(vectors)[0]


def in_span(basis_rref: Matrix, v: Sequence) -> bool:
    """Membership test against an RREF basis, by reduction."""
    v = [Fraction(x) for x in v]
    for row in basis_rref:
        lead = next(i for i, x in enumerate(row) if x)
        if v[lead]:
            f = v[lead]
            v = [a - f * b for a, b in zip(v, row)]
    return not any(v)


def charpoly(a: Matrix) -> tuple[Fraction, ...]:
    """Characteristic polynomial coefficients, highest degree first (monic).

    Faddeev-LeVerrier iteration; exact over Fraction.
    """
    n = len(a)
    coeffs = [ONE]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -trace(am) / k
        coeffs.append(c)
        m = mat_add(am, mat_scale(c, identity(n)))
    return tuple(coeffs)


def _int_divisors(n: int) -> list[int]:
    n = abs(n)
    small, large = [], []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    return small + large[::-1]


def rational_roots(coeffs: Sequence[Fraction]) -> dict[Fraction, int]:
    """Rational roots of a polynomial (highest degree first), with multiplicity."""
    work = [Fraction(c) for c in coeffs]
    while work and not work[0]:
        work.pop(0)
    if not work:
        raise ValueError("zero polynomial")
    roots: dict[Fraction, int] = {}
    zero_mult = 0
    while len(work) > 1 and not work[-1]:
        work.pop()
        zero_mult += 1
    if zero_mult:
        roots[ZERO] = zero_mult

    def divide_out(poly: list[Fraction], r: Fraction) -> Optional[list[Fraction]]:
        out = []
        acc = ZERO
        for c in poly:
            acc = acc * r + c
            out.append(acc)
        if acc:
            return None
        return out[:-1]

    while len(work) > 1:
        den = 1
        for c in work:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in work]
        lead, const = ints[0], ints[-1]
        found = None
        for p in _int_divisors(const):
            for q in _int_divisors(lead):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    nxt = divide_out(work, cand)
                    if nxt is not None:
                        found = (cand, nxt)
                        break
                if found:
                    break
            if found:
                break
        if found is None:
            break
        root, work = found
        roots[root] = roots.get(root, 0) + 1
    return roots


def eigenvalues_rational(a: Matrix) -> dict[Fraction, int]:
    """All eigenvalues with multiplicity; raises if any eigenvalue is irrational."""
    roots = rational_roots(charpoly(a))
    if sum(roots.values()) != len(a):
        raise ValueError("matrix has irrational eigenvalues")
    return roots


def joint_eigenspaces(h1: Matrix, h2: Matrix) -> list[tuple[tuple[Fraction, Fraction], tuple[Vector, ...]]]:
    """Simultaneous eigenspace decomposition of two commuting matrices.

    Returns sorted ((p, q), basis-of-V_{p,q}) entries; raises if the pair is
    not simultaneously diagonalizable with rational eigenvalues.
    """
    n = len(h1)
    if is_diagonal(h1) and is_diagonal(h2):
        spaces: dict[tuple[Fraction, Fraction], list[Vector]] = {}
        for i in range(n):
            key = (h1[i][i], h2[i][i])
            e = [ZERO] * n
            e[i] = ONE
            spaces.setdefault(key, []).append(tuple(e))
        return sorted((k, tuple(v)) for k, v in spaces.items())

    out: dict[tuple[Fraction, Fraction], list[Vector]] = {}
    total = 0
    for p in sorted(eigenvalues_rational(h1)):
        shifted = mat_sub(h1, mat_scale(p, identity(n)))
        basis = nullspace(shifted, n)
        if not basis:
            continue
        # h2 restricted to ker(h1 - p): coordinates of h2*v in the kernel basis.
        k = len(basis)
        cols = transpose(matrix(basis))
        restricted = []
        for v in basis:
            coords = solve(cols, mat_vec(h2, v))
            if coords is None:
                raise ValueError("eigenspace of h1 is not h2-stable")
            restricted.append(coords)
        h2_small = transpose(matrix(restricted))
        for q in sorted(eigenvalues_rational(h2_small)):
            small = nullspace(mat_sub(h2_small, mat_scale(q, identity(k))), k)
            for coeffs in small:
                vec = [ZERO] * n
                for c, bv in zip(coeffs, basis):
                    if c:
                        vec = [x + c * y for x, y in zip(vec, bv)]
                out.setdefault((p, q), []).append(tuple(vec))
                total += 1
    if total != n:
        raise ValueError("h1, h2 are not simultaneously diagonalizable over Q")
    return sorted((k, tuple(v)) for k, v in out.items())
