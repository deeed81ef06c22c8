"""Exact linear algebra: unit cases plus agreement with the naive oracle."""

import hashlib
import json
import pathlib
import random
import re
import reprlib
import sys
import time
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    conjugated,
    conjugator,
    distinguished_realizations,
    moved_by,
    naive_nullspace,
    naive_rref,
    scaled_shear,
    small_realizations,
)
from oracles import (
    charpoly,
    commutator,
    identity,
    in_span,
    invert,
    is_diagonal,
    joint_eigenspaces,
    mat_add,
    mat_mul,
    mat_pow,
    mat_scale,
    mat_sub,
    mat_vec,
    matrix,
    nullspace,
    rref,
    solve,
    span_rref,
    trace,
    transpose,
    zeros,
)
import skewpairs.linalg as linalg_module
from skewpairs.linalg import (
    ZERO,
    NotDiagonalizableError,
    _entry_parser,
    _integer_charpoly,
    _integer_roots,
    _unite,
    integer_nullspace,
    integral_rows,
    parse_fraction,
    rank,
    sparse_product,
    with_columns,
)
from skewpairs.liealg import build_pair, realization_from_jsonable
from skewpairs.skewgraph import enumerate_admissible, graph_from_text

F = Fraction

small_entries = st.integers(min_value=-6, max_value=6)
small_matrix = st.integers(min_value=1, max_value=5).flatmap(
    lambda c: st.lists(
        st.lists(small_entries, min_size=c, max_size=c), min_size=1, max_size=5
    )
)


def test_rref_known_case():
    reduced, pivots = rref([[2, 4, 6], [1, 2, 4]])
    assert pivots == (0, 2)
    assert reduced == ((F(1), F(2), F(0)), (F(0), F(0), F(1)))


def test_rref_rational_rows():
    # singular: the second row is 3x the first
    reduced, pivots = rref([[F(1, 2), F(1, 3)], [F(3, 2), F(1)]])
    assert pivots == (0,)
    assert reduced == ((F(1), F(2, 3)),)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_rref_matches_naive(rows):
    assert rref(rows) == naive_rref(rows)


@settings(max_examples=100, deadline=None)
@given(small_matrix)
def test_nullspace_annihilates_and_matches_naive(rows):
    ncols = len(rows[0])
    ours = nullspace(rows, ncols)
    assert ours == naive_nullspace(rows, ncols)
    a = matrix(rows)
    for v in ours:
        assert all(x == 0 for x in mat_vec(a, v))
    assert rank(rows) + len(ours) == ncols


@settings(max_examples=60, deadline=None)
@given(small_matrix)
def test_solve_consistency_matches_naive(rows):
    ncols = len(rows[0])
    rhs = [sum(row) for row in rows]  # consistent by construction (x = all ones)
    x = solve(rows, rhs)
    assert x is not None
    a = matrix(rows)
    assert list(mat_vec(a, x)) == [F(r) for r in rhs]


def test_solve_detects_inconsistency():
    assert solve([[1, 1], [1, 1]], [1, 2]) is None


def test_invert_round_trip():
    a = matrix([[1, 2], [3, 5]])
    assert mat_mul(a, invert(a)) == identity(2)
    with pytest.raises(ValueError):
        invert(matrix([[1, 2], [2, 4]]))


def test_span_membership():
    basis = span_rref([(1, 0, 1), (0, 1, 1)])
    assert in_span(basis, (2, 3, 5))
    assert not in_span(basis, (0, 0, 1))


def test_charpoly_companion():
    # x^2 - x - 1 companion matrix
    a = matrix([[0, 1], [1, 1]])
    assert charpoly(a) == (F(1), F(-1), F(-1))


def test_joint_eigenspaces_diagonal():
    h1 = matrix([[F(1, 2), 0], [0, F(-1, 2)]])
    h2 = matrix([[0, 0], [0, 0]])
    spaces = joint_eigenspaces(h1, h2)
    assert [key for key, _ in spaces] == [(F(-1, 2), F(0)), (F(1, 2), F(0))]


def test_joint_eigenspaces_conjugated():
    # conjugate diag(1,2) and diag(3,4) by [[1,1],[0,1]]
    t = matrix([[1, 1], [0, 1]])
    ti = invert(t)
    h1 = mat_mul(t, mat_mul(matrix([[1, 0], [0, 2]]), ti))
    h2 = mat_mul(t, mat_mul(matrix([[3, 0], [0, 4]]), ti))
    spaces = joint_eigenspaces(h1, h2)
    keys = [key for key, _ in spaces]
    assert keys == [(F(1), F(3)), (F(2), F(4))]
    for (p, q), vecs in spaces:
        for v in vecs:
            assert mat_vec(h1, v) == tuple(p * x for x in v)
            assert mat_vec(h2, v) == tuple(q * x for x in v)


def test_joint_eigenspaces_rejects_nondiagonalizable():
    nilp = matrix([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        joint_eigenspaces(nilp, matrix([[0, 0], [0, 0]]))


# ---------------------------------------------------------------------------
# Oracle: Fraction Faddeev-LeVerrier, a p/q divisor search for rational
# roots, and joint eigenspaces by restricting h2 to each h1-eigenspace
# ---------------------------------------------------------------------------

def oracle_charpoly(a):
    n = len(a)
    coeffs = [F(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -trace(am) / k
        coeffs.append(c)
        m = mat_add(am, mat_scale(c, identity(n)))
    return tuple(coeffs)


@pytest.mark.parametrize("n", range(1, 10))
def test_integer_charpoly_matches_the_oracle_with_zero_rows(n):
    # Each product A M is built from the rows of M named by the nonzero
    # entries of A: sparse and dense matrices, with some rows all zero.
    rng = random.Random(n)
    for density in (0.2, 1.0):
        for _ in range(6):
            zero_rows = set(rng.sample(range(n), rng.randint(0, n)))
            a = [
                [0 if i in zero_rows or rng.random() > density else rng.randint(-9, 9) for _ in range(n)]
                for i in range(n)
            ]
            rows = [[(j, x) for j, x in enumerate(row) if x] for row in a]
            assert tuple(_integer_charpoly(rows)) == oracle_charpoly(matrix(a))


def _oracle_divisors(n):
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


def oracle_rational_roots(coeffs: Sequence[Fraction]) -> dict:
    work = [F(c) for c in coeffs]
    while work and not work[0]:
        work.pop(0)
    roots = {}
    zero_mult = 0
    while len(work) > 1 and not work[-1]:
        work.pop()
        zero_mult += 1
    if zero_mult:
        roots[F(0)] = zero_mult

    def divide_out(poly, r) -> Optional[list]:
        out = []
        acc = F(0)
        for c in poly:
            acc = acc * r + c
            out.append(acc)
        return None if acc else out[:-1]

    while len(work) > 1:
        den = 1
        for c in work:
            den = den * c.denominator // gcd(den, c.denominator)
        ints = [int(c * den) for c in work]
        found = None
        for p in _oracle_divisors(ints[-1]):
            for q in _oracle_divisors(ints[0]):
                for cand in (F(p, q), F(-p, q)):
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


def oracle_eigenvalues(a):
    roots = oracle_rational_roots(oracle_charpoly(a))
    if sum(roots.values()) != len(a):
        raise ValueError("matrix has irrational eigenvalues")
    return roots


def oracle_joint_eigenspaces(h1, h2):
    n = len(h1)
    if is_diagonal(h1) and is_diagonal(h2):
        spaces = {}
        for i in range(n):
            spaces.setdefault((h1[i][i], h2[i][i]), []).append(tuple(F(int(i == j)) for j in range(n)))
        return sorted((k, tuple(v)) for k, v in spaces.items())
    out = {}
    total = 0
    for p in sorted(oracle_eigenvalues(h1)):
        basis = nullspace(mat_sub(h1, mat_scale(p, identity(n))), n)
        if not basis:
            continue
        k = len(basis)
        cols = transpose(matrix(basis))
        restricted = []
        for v in basis:
            coords = solve(cols, mat_vec(h2, v))
            if coords is None:
                raise ValueError("eigenspace of h1 is not h2-stable")
            restricted.append(coords)
        h2_small = transpose(matrix(restricted))
        for q in sorted(oracle_eigenvalues(h2_small)):
            for coeffs in nullspace(mat_sub(h2_small, mat_scale(q, identity(k))), k):
                vec = [F(0)] * n
                for c, bv in zip(coeffs, basis):
                    if c:
                        vec = [x + c * y for x, y in zip(vec, bv)]
                out.setdefault((p, q), []).append(tuple(vec))
                total += 1
    if total != n:
        raise ValueError("h1, h2 are not simultaneously diagonalizable over Q")
    return sorted((k, tuple(v)) for k, v in out.items())


def canonical_basis(vecs):
    """The canonical null space basis of a span: its reduced echelon form
    with the column order reversed."""
    return tuple(tuple(row[::-1]) for row in reversed(span_rref([v[::-1] for v in vecs])))


def assert_eigen_layer_matches_oracle(h1, h2):
    assert charpoly(h1) == oracle_charpoly(h1)
    assert charpoly(h2) == oracle_charpoly(h2)
    ours, theirs = joint_eigenspaces(h1, h2), oracle_joint_eigenspaces(h1, h2)
    assert [key for key, _ in ours] == [key for key, _ in theirs]
    assert [span_rref(vecs) for _, vecs in ours] == [span_rref(vecs) for _, vecs in theirs]
    assert [vecs for _, vecs in ours] == [canonical_basis(vecs) for _, vecs in theirs]


def test_eigen_layer_matches_oracle_on_conjugated_realizations():
    rng = random.Random(20261019)
    moved_count = 0
    for r in small_realizations():
        moved = conjugated(r, rng) if r.spec.dimv > 1 else None
        if moved is not None:
            assert_eigen_layer_matches_oracle(moved.h1, moved.h2)
            moved_count += 1
    assert moved_count > 50


def _dense(n, rows):
    """The n x n matrix with these nonzero rows."""
    return matrix([[dict(row).get(j, 0) for j in range(n)] for row in rows])


def test_sparse_product_matches_dense_oracle_on_powers_of_e():
    # e1^k e2^l of every principal realization with dimV <= 8, formed as the
    # closed-form check forms them: powers of each e, then one product.
    count = 0
    for series, dims in (("A", range(1, 9)), ("B", (1, 3, 5, 7)), ("C", (2, 4, 6, 8)), ("D", (2, 4, 6, 8))):
        for dimv in dims:
            for g in enumerate_admissible(series, dimv, "principal"):
                for sign in ("plus", "minus") if series == "D" and g.is_connected() else (None,):
                    r = build_pair(series, g, sign)
                    (c1, e1), (c2, e2) = r._scaled()[:2]
                    assert c1 == c2 == 1
                    powers = []
                    for e in (e1, e2):
                        powers.append([[[(i, 1)] for i in range(dimv)]])
                        for _ in range(1, dimv):
                            powers[-1].append(sparse_product(powers[-1][-1], e))
                    for k in range(dimv):
                        for l in range(dimv):
                            expected = mat_mul(mat_pow(r.e1, k), mat_pow(r.e2, l))
                            assert _dense(dimv, sparse_product(powers[0][k], powers[1][l])) == expected, (g, k, l)
                    count += 1
    assert count > 50


def test_sparse_product_matches_dense_oracle_on_a_change_of_basis():
    # T^-1 m T, formed as the eigenframe forms it, for each of e1, e2, h1, h2
    # of the conjugated realizations with dimV <= 6, each matrix scaled to
    # ints: it is the dense product, and m of the realization before the move
    # times the three scales.
    rng = random.Random(20261021)
    count = 0
    for r in small_realizations():
        t = conjugator(r, rng) if r.spec.dimv > 1 else None
        if t is None:
            continue
        n, moved = r.spec.dimv, moved_by(r, t)
        (ct, t_rows), (ci, inv_rows) = integral_rows(t), integral_rows(invert(t))
        for name in ("e1", "e2", "h1", "h2"):
            cm, rows = integral_rows(getattr(moved, name))
            product = _dense(n, sparse_product(inv_rows, sparse_product(rows, t_rows)))
            assert product == mat_mul(_dense(n, inv_rows), mat_mul(_dense(n, rows), _dense(n, t_rows))), r.graph
            assert product == mat_scale(ci * cm * ct, getattr(r, name)), r.graph
        count += 1
    assert count > 50


_T = matrix([[1, 1, 0, 0], [0, 1, 2, 0], [0, 0, 1, -1], [1, 0, 0, 1]])


def _conj_diag(*entries):
    """T diag(entries) T^-1 for a fixed T in GL(4, Z) whose inverse has denominator 3."""
    d = matrix([[x if i == j else 0 for j, x in enumerate(entries)] for i in range(len(entries))])
    return mat_mul(_T, mat_mul(d, invert(_T)))


@pytest.mark.parametrize(
    "h1, h2",
    [
        pytest.param(
            _conj_diag(F(1, 3), F(1, 3), F(-2, 5), 0), _conj_diag(F(1, 5), F(-1, 5), F(1, 5), F(2, 3)),
            id="denominators-3-and-5",
        ),
        pytest.param(_conj_diag(0, 0, 1, -1), _conj_diag(0, 1, 0, 0), id="zero-eigenvalue-twice"),
        pytest.param(_conj_diag(2, 2, 2, -1), _conj_diag(1, 0, -1, 0), id="repeated-nonzero-eigenvalue"),
        pytest.param(matrix([[F(3, 4)]]), matrix([[-2]]), id="one-by-one"),
        pytest.param(matrix([[0] * 4] * 4), _conj_diag(1, 1, -2, 0), id="zero-matrix"),
        pytest.param(matrix([[F(1, 2), F(-1, 10**9)], [0, F(-1, 2)]]), matrix([[0, 0], [0, 0]]), id="denominator-1e9"),
        pytest.param(matrix([[0, 10**12], [1, 0]]), matrix([[0, 0], [0, 0]]), id="eigenvalues-1e6"),
    ],
)
def test_eigen_layer_matches_oracle_on_hand_cases(h1, h2):
    # The last two cases have eigenvalues +-1/2 under a common denominator of
    # 10^9, and eigenvalues +-10^6 under entries up to 10^12.
    start = time.perf_counter()
    assert_eigen_layer_matches_oracle(h1, h2)
    assert time.perf_counter() - start < 5


@pytest.mark.parametrize(
    "h1",
    [
        pytest.param(matrix([[0, 1], [0, 0]]), id="nilpotent"),
        pytest.param(matrix([[0, 1], [2, 0]]), id="irrational"),
    ],
)
def test_eigen_layer_and_oracle_reject(h1):
    h2 = matrix([[0, 0], [0, 0]])
    assert charpoly(h1) == oracle_charpoly(h1)
    with pytest.raises(ValueError):
        oracle_joint_eigenspaces(h1, h2)
    with pytest.raises(NotDiagonalizableError):
        joint_eigenspaces(h1, h2)


def test_eigen_layer_matches_oracle_with_large_denominator_conjugators():
    # T^-1 has denominators near 10^6, so the common denominator c of each
    # moved h is large; the root search must grow with the eigenvalues of h,
    # not with c.
    start = time.perf_counter()
    moved_count = 0
    for r in small_realizations():
        n = r.spec.dimv
        if r.spec.series == "A" and 2 <= n <= 5:
            t = scaled_shear(n)
            t_inv = invert(t)
            h1, h2 = (mat_mul(t, mat_mul(h, t_inv)) for h in (r.h1, r.h2))
            assert_eigen_layer_matches_oracle(h1, h2)
            moved_count += 1
    assert moved_count > 20
    assert time.perf_counter() - start < 30


def _counted_evaluations(monkeypatch) -> list:
    """The points at which the root search evaluates f and f', recorded."""
    points = []
    value_and_slope = linalg_module._value_and_slope
    monkeypatch.setattr(linalg_module, "_value_and_slope", lambda f, x: points.append(x) or value_and_slope(f, x))
    return points


def _polynomial(roots) -> list:
    """The monic integer polynomial with these roots, highest degree first."""
    f = [1]
    for r in roots:
        f = [a - r * b for a, b in zip(f + [0], [0] + f)]
    return f


def test_integer_roots_stay_within_the_evaluation_bound(monkeypatch):
    # Split polynomials of degree <= 9: roots spread over [-bound, bound],
    # all at -bound (the longest descent), or one repeated with others.
    # Newton's method finds each root, as the divisor oracle does for small
    # bounds, in at most n^2 (bound.bit_length() + 2) evaluations.
    points = _counted_evaluations(monkeypatch)
    rng = random.Random(20261020)
    for _ in range(1500):
        n, bound = rng.randint(1, 9), rng.choice((0, 1, 5, 60, 10**6, 10**12, 10**40))
        shape = rng.randrange(3)
        if shape == 0:
            roots = [rng.randint(-bound, bound) for _ in range(n)]
        elif shape == 1:
            roots = [-bound] * n
        else:
            roots = [rng.randint(-bound, bound)] * rng.randint(1, n)
            roots += [rng.randint(-bound, bound) for _ in range(n - len(roots))]
        f = _polynomial(roots)
        del points[:]
        assert _integer_roots(f, bound) == sorted(set(roots))
        assert len(points) <= n * n * (bound.bit_length() + 2), (roots, len(points))
        if bound <= 5:
            assert sorted(oracle_rational_roots(f)) == sorted(set(roots))


@pytest.mark.parametrize("b", [10**12, 10**40], ids=["1e12", "1e40"])
def test_large_eigenvalues_take_three_evaluations(monkeypatch, b):
    # h1 = [[0, b], [b, 0]] once made verify trial-divide b^2 up to b.
    # x^2 - b^2 vanishes at the bound b; x + b, from there, takes one step
    # to -b.  With b + 1 below the diagonal the eigenvalues are irrational,
    # seen at the second evaluation, where f is negative.
    points = _counted_evaluations(monkeypatch)
    assert joint_eigenspaces(matrix([[0, b], [b, 0]]), zeros(2)) == [
        ((-b, 0), ((F(-1), F(1)),)), ((b, 0), ((F(1), F(1)),))
    ]
    assert points == [b, b, -b]
    del points[:]
    with pytest.raises(NotDiagonalizableError, match="joint eigenbasis: an eigenvalue is not rational"):
        joint_eigenspaces(matrix([[0, b], [b + 1, 0]]), zeros(2))
    assert points == [b + 1, b]


def test_a_repeated_root_at_minus_the_bound_takes_160_evaluations(monkeypatch):
    # (x + B)^6 from x = B: f / f' = (x + B) / 6, so each step shrinks the
    # gap of 2 10^12 by a sixth, then by 1; the cap is 36 * 42 = 1512.
    points = _counted_evaluations(monkeypatch)
    bound = 10**12
    assert _integer_roots(_polynomial([-bound] * 6), bound) == [-bound]
    assert len(points) == 160 and points[0] == bound and points[-6:] == [-bound] * 6


def test_the_evaluation_cap_ends_the_search(monkeypatch):
    # Given a bound below the double root -10^6, Newton's method would need
    # about twenty halvings of the gap; the cap of 2^2 (1 + 2) = 12
    # evaluations refuses the polynomial at the thirteenth.
    points = _counted_evaluations(monkeypatch)
    with pytest.raises(NotDiagonalizableError, match="joint eigenbasis"):
        _integer_roots(_polynomial([-10**6] * 2), 1)
    assert len(points) == 13


@pytest.mark.parametrize("name", ["conjugated-c4-zigzag.json", "conjugated-d6-chains.json", "conjugated-b5-dense.json"])
def test_eigen_layer_matches_oracle_on_committed_documents(monkeypatch, name):
    # The conjugated verify documents under tests/data: the joint
    # eigenbasis is the oracle's, found within the evaluation bound.
    points = _counted_evaluations(monkeypatch)
    r = realization_from_jsonable(json.loads((pathlib.Path(__file__).parent / "data" / name).read_text()))
    assert_eigen_layer_matches_oracle(r.h1, r.h2)
    n = r.spec.dimv
    bound = max(sum(abs(x) for _, x in row) for row in integral_rows(r.h1)[1])
    assert 0 < len(points) <= 2 * n * n * (bound.bit_length() + 2)


def test_commutator_sanity():
    e = matrix([[0, 1], [0, 0]])
    h = matrix([[F(1, 2), 0], [0, F(-1, 2)]])
    assert commutator(h, e) == e


def test_parse_fraction_bounds_the_exponent_and_refuses_bool():
    assert parse_fraction("1e4299") == 10**4299
    assert parse_fraction("-1E-4_299") == F(-1, 10**4299)
    assert parse_fraction("2.5e-0003") == F(1, 400)
    start = time.perf_counter()
    for text in ("1e4301", "1e-4301", "1e40000000", "1e" + "9" * 10000, "1e0_9999"):
        with pytest.raises(ValueError, match="exceeds 4300 in magnitude"):
            parse_fraction(text)
    assert time.perf_counter() - start < 1
    for value in (True, False):
        with pytest.raises(ValueError, match="expected a number or a numeric string"):
            parse_fraction(value)


def test_entry_parser_keeps_strings_only_and_refuses_what_parse_fraction_refuses():
    parse = _entry_parser()
    assert parse("1/2") is parse("1/2") == parse("2/4") == parse(0.5) == F(1, 2)
    assert parse(3) == 3
    assert parse("0") is parse("0/7") is parse("-0.0") is parse(0) is parse(0.0) is ZERO
    for value in (True, [1], None, "1/0", float("inf")):
        with pytest.raises(ValueError):
            parse(value)


def test_parse_fraction_refuses_numbers_too_long_to_print():
    # Each would parse, but str() of it fails on the interpreter's digit limit.
    limit = sys.get_int_max_str_digits()
    assert parse_fraction("1e%d" % (limit - 1)) == 10 ** (limit - 1)
    assert parse_fraction("9" * limit) == 10**limit - 1
    for text in ("1e%d" % limit, "-1e-%d" % limit, "1" * (limit + 700), "1/" + "3" * (limit + 1)):
        with pytest.raises(ValueError, match=re.escape(f"{reprlib.repr(text)} has more than {limit} digits")):
            parse_fraction(text)
    with pytest.raises(ValueError, match=f"has more than {limit} digits"):
        parse_fraction(10**limit)


# ---------------------------------------------------------------------------
# The eigen layer: restriction of h2 to the eigenspaces of h1
# ---------------------------------------------------------------------------

def test_eigenspace_of_h1_split_by_h2_into_a_line_and_a_plane():
    # h1 = 1 on a three-dimensional space, on which h2 takes 2 once and -1 twice.
    h1 = _conj_diag(1, 1, 1, 0)
    h2 = _conj_diag(2, -1, -1, 5)
    spaces = joint_eigenspaces(h1, h2)
    assert [(key, len(vecs)) for key, vecs in spaces] == [((0, 5), 1), ((1, -1), 2), ((1, 2), 1)]
    assert_eigen_layer_matches_oracle(h1, h2)
    for (p, q), vecs in spaces:
        for v in vecs:
            assert mat_vec(h1, v) == tuple(p * x for x in v)
            assert mat_vec(h2, v) == tuple(q * x for x in v)


def test_eigen_layer_matches_oracle_under_a_scaled_shear():
    # T^-1 has six- and seven-digit denominators; the h1-eigenspaces of
    # dimension >= 2 are split by h2.
    for n in (6, 7):
        t = scaled_shear(n)
        t_inv = invert(t)
        d1 = matrix([[F((1, 1, 1, -1, -1, 0, 2)[i]) if i == j else 0 for j in range(n)] for i in range(n)])
        d2 = matrix([[F((1, 0, -1, 1, 0, 3, 3)[i], 2) if i == j else 0 for j in range(n)] for i in range(n)])
        h1, h2 = (mat_mul(t, mat_mul(d, t_inv)) for d in (d1, d2))
        # The support of h1 and h2 is one block: the whole space at once.
        assert _largest_support_block(h1, h2) == n
        assert_eigen_layer_matches_oracle(h1, h2)


def _block_diagonal(*blocks):
    """The square matrix with these square blocks down its diagonal."""
    n = sum(len(b) for b in blocks)
    out = [[0] * n for _ in range(n)]
    start = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[start + i][start : start + len(row)] = row
        start += len(b)
    return matrix(out)


def _permuted(m, perm):
    """P m P^-1 for the permutation matrix P taking coordinate perm[i] to i."""
    return matrix([[m[a][b] for b in perm] for a in perm])


def _random_conjugate(rng, d1, d2):
    """T diag(d1) T^-1 and T diag(d2) T^-1 for a seeded T in GL(n, Z) with
    entries in [-2, 2], drawn until their joint support is one block."""
    n = len(d1)
    while True:
        t = matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        try:
            t_inv = invert(t)
        except ValueError:
            continue
        moved = [mat_mul(t, mat_mul(matrix([[d[i] if i == j else 0 for j in range(n)] for i in range(n)]), t_inv))
                 for d in (d1, d2)]
        if _largest_support_block(*moved) == n:
            return moved


def test_joint_eigenspaces_of_permuted_blocks_match_the_oracle():
    # Three dense blocks and two single coordinates, shuffled by a seeded
    # permutation.  The joint eigenspace at (1, -1) spans two dimensions in
    # the first block, one in the second and one single coordinate; (1/2, 0)
    # lies in the second block and a single coordinate.
    for seed in range(12):
        rng = random.Random(seed)
        a1, a2 = _random_conjugate(rng, (1, 1, 0), (-1, -1, 2))
        b1, b2 = _random_conjugate(rng, (1, F(1, 2)), (-1, 0))
        c1, c2 = _random_conjugate(rng, (-2, 3), (F(1, 3), F(1, 3)))
        h1 = _block_diagonal(a1, b1, [[1]], c1, [[F(1, 2)]])
        h2 = _block_diagonal(a2, b2, [[-1]], c2, [[0]])
        perm = list(range(len(h1)))
        rng.shuffle(perm)
        h1, h2 = _permuted(h1, perm), _permuted(h2, perm)
        assert _largest_support_block(h1, h2) == 3
        spaces = joint_eigenspaces(h1, h2)
        assert [(key, len(vecs)) for key, vecs in spaces] == [
            ((-2, F(1, 3)), 1), ((0, 2), 1), ((F(1, 2), 0), 2), ((1, -1), 4), ((3, F(1, 3)), 1)
        ]
        assert_eigen_layer_matches_oracle(h1, h2)


@pytest.mark.parametrize(
    "h1, h2, message",
    [
        pytest.param(
            _block_diagonal([[1]], [[0, 1], [2, 0]], [[-1]]), zeros(4), "an eigenvalue is not rational",
            id="irrational-block",
        ),
        pytest.param(
            _block_diagonal([[3]], [[F(1, 2), 0], [0, 0]], [[-1]]),
            _block_diagonal([[0]], [[0, 0], [1, 0]], [[0]]),
            "their joint eigenspaces span 3 of 4 dimensions",
            id="unstable-block",
        ),
        pytest.param(
            _block_diagonal([[2, 0], [0, 0]], [[1]], [[-1, 0], [0, 0]]),
            _block_diagonal([[0, 0], [1, 0]], [[0]], [[0, 0], [1, 0]]),
            "their joint eigenspaces span 3 of 5 dimensions",
            id="two-unstable-blocks",
        ),
        pytest.param(
            _block_diagonal([[1, 0], [0, 1]], [[0]], [[0, 1], [0, 0]]), zeros(5),
            "their joint eigenspaces span 4 of 5 dimensions",
            id="nilpotent-block",
        ),
    ],
)
def test_a_failing_block_names_what_the_whole_pair_fails_at(h1, h2, message):
    # A block is diagonalized on its own, but the error is the one of the
    # pair taken whole: an irrational eigenvalue on any block is named as
    # such, and the span counts all n coordinates.  The unstable pairs do
    # not commute, and no package path passes such inputs: h2 moves a plane
    # of h1 = 1/2 (or of h1 = 2 and of h1 = -1), which then gives only its
    # one joint eigenvector.
    with pytest.raises(ValueError):
        oracle_joint_eigenspaces(h1, h2)
    with pytest.raises(NotDiagonalizableError, match=f"^h1, h2 have no rational joint eigenbasis: {message}$"):
        joint_eigenspaces(h1, h2)


def test_diagonalizable_non_commuting_pair_is_not_diagonalizable_jointly():
    # h1 and h2 are each diagonalizable over Q, but h2 moves the eigenspaces
    # of h1, so the restriction check fails.
    h1 = _conj_diag(1, 1, 0, 0)
    h2 = matrix([[1, 0, 0, 0], [0, 2, 0, 0], [0, 0, 3, 0], [0, 0, 0, 4]])
    assert mat_mul(h1, h2) != mat_mul(h2, h1)
    for a, b in ((h1, h2), (h2, h1)):
        with pytest.raises(NotDiagonalizableError, match="joint eigenbasis"):
            joint_eigenspaces(a, b)
        with pytest.raises(ValueError):
            oracle_joint_eigenspaces(a, b)


def _joint_dimension(h1, h2) -> int:
    """The dimension of the span of the joint eigenvectors of h1 and h2 over
    Q, by the oracle: the sum of dim ker(h1 - p) & ker(h2 - q) over the
    rational eigenvalues p of h1 and q of h2."""
    n = len(h1)
    return sum(
        len(nullspace(mat_sub(h1, mat_scale(p, identity(n))) + mat_sub(h2, mat_scale(q, identity(n))), n))
        for p in oracle_rational_roots(oracle_charpoly(h1))
        for q in oracle_rational_roots(oracle_charpoly(h2))
    )


def _random_pair(rng, n):
    """A seeded pair of n x n rational matrices, most of them not commuting:
    two sparse integer matrices, T D1 T^-1 and a sparse one, or T D1 T^-1
    and U D2 U^-1, where U is T one time in three: D1, D2 diagonal with
    entries in [-1, 1], T, U invertible with integer entries in [-2, 2]."""

    def sparse():
        return matrix([[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.4 else 0 for _ in range(n)] for _ in range(n)])

    def invertible():
        while True:
            t = matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            try:
                return t, invert(t)
            except ValueError:
                continue

    def conj(t, t_inv):
        d = matrix([[rng.randint(-1, 1) if i == j else 0 for j in range(n)] for i in range(n)])
        return mat_mul(t, mat_mul(d, t_inv))

    kind = rng.randrange(3)
    if kind == 0:
        return sparse(), sparse()
    t = invertible()
    if kind == 1:
        return conj(*t), sparse()
    return conj(*t), conj(*(t if rng.randrange(3) == 0 else invertible()))


def _checked_joint_eigenbasis(h1, h2) -> str:
    """joint_eigenbasis of any pair, checked: either it raises, naming an
    irrational eigenvalue or the span of the true joint eigenvectors, or it
    returns n independent joint eigenvectors.  Returns the error message
    past its prefix, or "basis"."""
    n = len(h1)
    (c1, rows1), (c2, rows2) = integral_rows(h1), integral_rows(h2)
    try:
        oracle_eigenvalues(h1)
    except ValueError:
        joint = None
    else:
        joint = _joint_dimension(h1, h2)
    try:
        spaces = linalg_module.joint_eigenbasis((c1, rows1), (c2, rows2))
    except NotDiagonalizableError as err:
        found = str(err).removeprefix("h1, h2 have no rational joint eigenbasis: ")
        # joint is None when h1 has an irrational eigenvalue: only the first matches.
        assert found in ("an eigenvalue is not rational", f"their joint eigenspaces span {joint} of {n} dimensions")
        assert joint != n
        return found
    assert joint == n
    vecs = [v for _, vs in spaces for v in vs]
    assert rank(vecs) == n == len(vecs)
    for (p, q), vs in spaces:
        for v in vs:
            for rows, c in ((rows1, p), (rows2, q)):
                assert [sum(x * v[j] for j, x in row) for row in rows] == [c * x for x in v]
    return "basis"


def test_joint_eigenbasis_returns_only_joint_eigenvectors_on_any_input():
    # h1 and h2 need not commute: an eigenspace of h1 that h2 moves gives
    # only its joint eigenvectors.  In the fixed pair, h2 moves the line
    # ker(h1 - 3) and the plane ker(h1).  The matrix of h2 read off the
    # plane's free columns has eigenvalues 3 and 7/2: only 3 is one of h2,
    # and ker(h1) & ker(h2 - 3) is the one joint eigenvector.  Solving 7/2
    # as its floor, 3, would count that vector twice.
    h1 = matrix([[2, -2, 3, -2], [2, -2, 3, -2], [2, -2, 3, -2], [0, -2, 2, 0]])
    h2 = matrix([[0, 2, 3, 3], [0, 0, -1, 0], [1, 3, 1, -1], [2, 2, 3, 1]])
    assert _checked_joint_eigenbasis(h1, h2) == "their joint eigenspaces span 1 of 4 dimensions"
    # Seeded pairs, most not commuting, reach every outcome.
    outcomes: dict[str, int] = {}
    commuting = 0
    for seed in range(400):
        h1, h2 = _random_pair(random.Random(seed), 1 + seed % 5)
        commuting += mat_mul(h1, h2) == mat_mul(h2, h1)
        outcome = _checked_joint_eigenbasis(h1, h2).split(" span ")[0]
        outcomes[outcome] = outcomes.get(outcome, 0) + 1
    assert commuting < 200
    assert sorted(outcomes) == ["an eigenvalue is not rational", "basis", "their joint eigenspaces"]
    assert min(outcomes.values()) >= 40, outcomes


def _commuting_piece(rng):
    """One commuting (h1, h2) block: a Jordan block with h2 a polynomial in
    h1, a 2 x 2 companion block of x^2 - d (irrational unless d is a
    square) with h2 a polynomial in it, or h1 scalar on a plane where h2 is
    any integer 2 x 2 block."""
    kind = rng.randrange(3)
    if kind == 0:
        size = rng.randint(1, 3)
        p = F(rng.randint(-2, 2), rng.choice((1, 2)))
        h1 = matrix([[p if i == j else int(j == i + 1) for j in range(size)] for i in range(size)])
    elif kind == 1:
        h1 = matrix([[0, rng.choice((1, 2, 3, 4, 5, 8, 9))], [1, 0]])
    else:
        p = rng.randint(-2, 2)
        return matrix([[p, 0], [0, p]]), matrix([[rng.randint(-2, 2) for _ in range(2)] for _ in range(2)])
    n = len(h1)
    h2, power = mat_scale(rng.randint(-2, 2), identity(n)), identity(n)
    for _ in range(2):
        power = mat_mul(power, h1)
        h2 = mat_add(h2, mat_scale(F(rng.randint(-2, 2), rng.choice((1, 3))), power))
    return h1, h2


def _commuting_family(count, seed=20261020):
    """count seeded commuting pairs of at most nine dimensions: one to three
    _commuting_piece blocks down the diagonal, moved by a seeded T in
    GL(n, Q), dense with entries in [-2, 2] or a product of three
    elementary matrices."""
    rng = random.Random(seed)
    for _ in range(count):
        pieces = [_commuting_piece(rng) for _ in range(rng.randint(1, 3))]
        h1, h2 = (_block_diagonal(*(piece[k] for piece in pieces)) for k in (0, 1))
        n = len(h1)
        while True:
            if n > 1 and rng.random() < 0.5:
                t = identity(n)
                for _ in range(3):
                    i, j = rng.sample(range(n), 2)
                    step = [list(row) for row in identity(n)]
                    step[i][j] = F(rng.choice((1, -1, 2)))
                    t = mat_mul(t, matrix(step))
            else:
                t = matrix([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            try:
                t_inv = invert(t)
            except ValueError:
                continue
            break
        yield tuple(mat_mul(t, mat_mul(m, t_inv)) for m in (h1, h2))


def test_the_errors_of_commuting_pairs_are_pinned():
    # 2,000 seeded commuting pairs, the only kind a package path passes: the
    # sha256 of their NotDiagonalizableError messages, one line per pair
    # (empty for a basis), as joint_eigenbasis gave them when it still
    # checked each eigenspace of h1 for h2-stability and ordered the blocks
    # by p.  A pair with a Jordan block and an irrational eigenvalue names
    # the irrational one, wherever the blocks lie.
    lines = []
    for h1, h2 in _commuting_family(2000):
        try:
            joint_eigenspaces(h1, h2)
            lines.append("")
        except NotDiagonalizableError as err:
            lines.append(str(err))
    assert sum(map(bool, lines)) == 1567
    assert sum("not rational" in line for line in lines) == 1098
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "9a9074033832c0d0840b72156475f6061bf78188877e8880cc646b5f2ac9a510"


def _dfs_components(n: int, support) -> list[list[int]]:
    """The connected components of the graph on range(n) with an edge i - j
    for each (i, j) in support, by depth-first search: each ascending, in
    order of first coordinate."""
    near: dict[int, set] = {i: set() for i in range(n)}
    for i, j in support:
        near[i].add(j)
        near[j].add(i)
    seen: set = set()
    out = []
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        stack, comp = [start], []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in near[i] - seen:
                seen.add(j)
                stack.append(j)
        out.append(sorted(comp))
    return out


def test_unite_over_difference_rows_finds_the_support_components():
    # joint_eigenbasis takes its blocks from _unite over one row x_i - x_j
    # per entry (i, j) of the support.  Such rows never kill a component, a
    # diagonal entry (x_i - x_i) and an entry met in both orders included:
    # every coordinate comes back once, with ratio 1, in the components of
    # the search, ordered by first coordinate.
    rng = random.Random(20261031)
    for _ in range(200):
        n = rng.randint(1, 14)
        support = {(i, i) for i in range(n) if rng.random() < 0.5}
        for _ in range(rng.randint(0, 2 * n)):
            i, j = rng.randrange(n), rng.randrange(n)
            support |= {(i, j), (j, i)}
        rows = [[(i, 1), (j, -1)] for i, j in sorted(support)]
        components, long_rows = _unite(n, rows)
        assert long_rows == []
        assert sorted(p for comp in components for p, _ in comp) == list(range(n))
        assert all(x == 1 for comp in components for _, x in comp)
        assert [[p for p, _ in comp] for comp in components] == _dfs_components(n, support), sorted(support)


def _read_rows(rows, brackets, form) -> list:
    """The rows _unite reads, in its order and summed as it sums them: the
    sparse rows, then entry (a, b), a <= b, of x^T G + G x, then every entry
    (i, j) of [x, m] for each m in brackets, m and G dense int matrices."""
    out = [list(row) for row in rows]
    for m, upper in ([] if form is None else [(form, True)]) + [(m, False) for m in brackets]:
        n = len(m)
        for i in range(n):
            for j in range(i if upper else 0, n):
                # sum_t G_tb x_ta + sum_t G_at x_tb, or sum_t m_tj x_it - sum_t m_it x_tj.
                terms = [(t * n + i if upper else i * n + t, m[t][j]) for t in range(n) if m[t][j]]
                terms += [(t * n + j, m[i][t] if upper else -m[i][t]) for t in range(n) if m[i][t]]
                acc: dict = {}
                for p, c in terms:
                    acc[p] = acc.get(p, 0) + c
                if any(acc.values()):
                    out.append([(p, c) for p, c in acc.items() if c])
    return out


def test_unite_matches_a_dense_null_space():
    # Signed union-find against Gauss-Jordan on systems over at most 12
    # positions: sparse rows of one, two and three terms in random order,
    # with coefficients in +-{1, 2, 3}, so that ratios are Fractions, and
    # brackets and forms read off sparse matrices, so that unions and kills
    # arrive row by row.  Each component must be a kernel vector of the
    # rows of one and two terms, no position may appear twice, and the long
    # rows come back as read; with no long row the components span the
    # null space.  The fixed systems first: a cycle that closes and one that
    # does not; then kills of a position that the sparse rows hung two links
    # below the root x_00, read off a row of m with one entry and off an
    # empty one.  In [x, E_01] x_10 -> x_01 -> x_00 is killed off row 0 of
    # E_01 and again off row 1, after row 0's union x_00 = x_11.  In
    # [x, E_11] x_01 -> x_4 -> x_00 is killed off the empty row 0 alone.
    rng = random.Random(20261101)

    def coefficient() -> int:
        return rng.choice((1, 2, 3)) * rng.choice((1, -1))

    def sparse_matrix(n: int) -> list:
        return [[coefficient() if rng.random() < 0.3 else 0 for _ in range(n)] for _ in range(n)]

    cycle = [[(0, 2), (1, -3)], [(1, 1), (2, 1)]]
    systems = [
        (3, cycle + [[(2, 3), (0, 2)]], [], None),
        (3, cycle + [[(2, 3), (0, -2)]], [], None),
        (5, [[(1, 1), (2, -1)], [(0, 1), (1, -1)]], [[[0, 1], [0, 0]]], None),
        (5, [[(4, 1), (1, -1)], [(0, 1), (4, -1)]], [[[0, 0], [0, 1]]], None),
    ]
    for _ in range(600):
        n = rng.randint(1, 3)
        size = rng.randint(n * n, 12)
        rows = [[(p, coefficient()) for p in rng.sample(range(size), min(k, size))]
                for k in rng.choices((1, 2, 3), (1, 4, 1), k=rng.randint(0, 5))]
        brackets = [sparse_matrix(n) for _ in range(rng.randint(0, 2))]
        systems.append((size, rows, brackets, sparse_matrix(n) if rng.random() < 0.4 else None))
    def sparse(m):
        return with_columns([[(j, x) for j, x in enumerate(row) if x] for row in m])

    live = fractions = spanned = 0
    found = []
    for size, rows, brackets, form in systems:
        components, long_rows = _unite(size, rows, [sparse(m) for m in brackets], None if form is None else sparse(form))
        found.append(components)
        read = _read_rows(rows, brackets, form)
        short = [row for row in read if len(row) < 3]
        assert long_rows == [row for row in read if len(row) > 2], (size, rows, brackets, form)
        positions = [p for comp in components for p, _ in comp]
        assert len(positions) == len(set(positions)), (size, rows, brackets, form)
        assert [comp[0][0] for comp in components] == sorted(comp[0][0] for comp in components)
        for comp in components:
            x = dict(comp)
            assert [p for p, _ in comp] == sorted(x) and all(x.values()), (size, rows, brackets, form)
            assert all(sum(c * x.get(p, 0) for p, c in row) == 0 for row in short), (size, rows, brackets, form)
        if not long_rows:
            vectors = [[dict(comp).get(p, 0) for p in range(size)] for comp in components]
            dense = [[dict(row).get(p, 0) for p in range(size)] for row in short]
            null = nullspace(dense, size) if dense else identity(size)
            assert span_rref(vectors) == span_rref(null), (size, rows, brackets, form)
            spanned += 1
        live += bool(components)
        fractions += any(type(x) is Fraction for comp in components for _, x in comp)
    assert found[:4] == [[[(0, 1), (1, Fraction(2, 3)), (2, Fraction(-2, 3))]], [], [[(4, 1)]], [[(3, 1)]]]
    assert live > 400 and fractions > 100 and spanned > 250, (live, fractions, spanned)


def _largest_support_block(h1, h2) -> int:
    """The size of the largest connected component of the graph on the
    coordinates with an edge i - j wherever h1 or h2 has an entry at (i, j)
    or (j, i), found by depth-first search."""
    n = len(h1)
    support = [(i, j) for h in (h1, h2) for i in range(n) for j in range(n) if h[i][j]]
    return max(map(len, _dfs_components(n, support)))


def _moved_by_e01(m):
    """T m T^-1 for T = I + E_01: row 0 += row 1, then column 1 -= column 0."""
    rows = [list(row) for row in m]
    rows[0] = [a + b for a, b in zip(rows[0], rows[1])]
    for row in rows:
        row[1] -= row[0]
    return matrix(rows)


def _recorded_nullspaces(monkeypatch) -> list:
    """(kernel dimension, ncols) of each integer_nullspace call, recorded."""
    calls = []

    def recording(rows, ncols):
        out = integer_nullspace(rows, ncols)
        calls.append((len(out), ncols))
        return out

    monkeypatch.setattr(linalg_module, "integer_nullspace", recording)
    return calls


def test_joint_eigenspaces_never_solves_for_an_empty_kernel(monkeypatch):
    # One null space per eigenvalue p of h1 on a block of the joint support
    # of h1 and h2, and, on a space ker(h1 - p) of dimension >= 2, one per
    # eigenvalue q of the restriction of h2, stacked on h1 - p: for a
    # commuting pair every one is nonempty, and none is wider than the
    # largest block.  A diagonal pair makes no call.
    calls = _recorded_nullspaces(monkeypatch)
    rng = random.Random(20261020)
    moved_count = 0
    for r in distinguished_realizations(8):
        moved = conjugated(r, rng) if r.spec.dimv > 1 else None
        if moved is not None:
            del calls[:]
            joint_eigenspaces(moved.h1, moved.h2)
            assert calls and min(found for found, _ in calls) > 0
            assert max(ncols for _, ncols in calls) <= _largest_support_block(moved.h1, moved.h2)
            del calls[:]
            assert sum(len(vecs) for _, vecs in joint_eigenspaces(r.h1, r.h2)) == r.spec.dimv
            assert calls == []
            moved_count += 1
    assert moved_count > 500


def test_a_long_chain_moved_by_one_elementary_matrix_solves_on_two_coordinates(monkeypatch):
    # T = I + E_01 couples coordinates 0 and 1 of the 60-node horizontal
    # chain of series A: one block of 2 and 58 of one coordinate.
    calls = _recorded_nullspaces(monkeypatch)
    r = build_pair("A", graph_from_text(" ".join(f"{2 * k - 59}/2,0/1" for k in range(60))))
    h1, h2 = _moved_by_e01(r.h1), _moved_by_e01(r.h2)
    assert not is_diagonal(h1)
    spaces = joint_eigenspaces(h1, h2)
    assert [key for key, _ in spaces] == [(F(2 * k - 59, 2), 0) for k in range(60)]
    assert calls and max(ncols for _, ncols in calls) == 2
