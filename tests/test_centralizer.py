"""Centralizer engine: exact dimensions, gradings, predicates, round trips."""

import random
import re
import time
from dataclasses import replace
from itertools import combinations
from fractions import Fraction

import pytest

import skewpairs
from conftest import (
    conjugated,
    conjugator,
    deadline,
    distinguished_realizations,
    is_rectangular_pair,
    moved_by,
    rectangle_nodes,
    scaled_shear,
    small_realizations,
)
from oracles import (
    _flatten,
    a_operator_matrix,
    algebra_basis,
    blockwise_commutant,
    bracket,
    canonical_span,
    centralizer,
    commutator,
    dense_basis,
    dense_witness,
    eigenframe,
    form_rows,
    graph_key,
    in_gl_image,
    in_span,
    invert,
    mat_mul,
    mat_scale,
    matrix,
    solve,
    span_rref,
    sparse_rows_cols,
    zeros,
)
from skewpairs import catalog, cli, liealg, skewgraph
from skewpairs import centralizer as centralizer_module
from skewpairs.centralizer import (
    NormalFormError,
    _by_rows,
    _graded_commutant,
    _unite,
    analyze,
    closed_form_centralizer,
    graph_from_pair,
    report_to_jsonable,
)
from skewpairs.liealg import (
    PairRealization,
    build_pair,
    make_spec,
    realization_from_jsonable,
    realization_to_jsonable,
    verify_relations,
)
from skewpairs.linalg import (
    dense_matrix,
    integer_nullspace,
    integral_rows,
    sparse_product,
)
from skewpairs.skewgraph import (
    Node,
    SkewGraph,
    component_from_nodes,
    enumerate_admissible,
    graph_to_text,
)

F = Fraction


def rect_graph(w, h):
    return SkewGraph((component_from_nodes(rectangle_nodes(w, h)),))


def zigzag_graph():
    return SkewGraph(
        (
            component_from_nodes(
                [Node(F(-1), F(1, 2)), Node(F(0), F(1, 2)), Node(F(0), F(-1, 2)), Node(F(1), F(-1, 2))]
            ),
        )
    )


def chains_graph():
    return SkewGraph(
        (
            component_from_nodes(rectangle_nodes(3, 1)),
            component_from_nodes(rectangle_nodes(1, 3)),
        )
    )


def near_rect_graph():
    nodes = set(rectangle_nodes(4, 2))
    nodes.remove(Node(F(-3, 2), F(-1, 2)))
    nodes.remove(Node(F(3, 2), F(1, 2)))
    return SkewGraph((component_from_nodes(nodes),))


# ---------------------------------------------------------------------------
# centralizer
# ---------------------------------------------------------------------------

def test_centralizer_of_zero_is_whole_algebra():
    spec = make_spec("A", 4)
    assert len(centralizer(spec, [zeros(4)])) == 15


def test_centralizer_dimension_mismatch():
    with pytest.raises(ValueError):
        centralizer(make_spec("A", 3), [zeros(4)])


def test_centralizer_sl4_square_pair():
    r = build_pair("A", rect_graph(2, 2))
    z = centralizer(r.spec, [r.e1, r.e2])
    assert len(z) == 3
    basis = span_rref([_flatten(m) for m in z])
    assert in_span(basis, _flatten(r.e1))
    assert in_span(basis, _flatten(mat_mul(r.e1, r.e2)))


def test_centralizer_so6_near_rectangular():
    r = build_pair("D", near_rect_graph())
    assert len(centralizer(r.spec, [r.e1, r.e2])) == 3


def test_bracket_oracle_matches_full_products():
    # The oracle forms [b, m] from the nonzero entries of b.  Pinned to two
    # full products on every realization with dimV <= 4, as built and in the
    # basis of scaled_shear, where the algebra basis of the moved form is
    # denser.
    count = 0
    for r in small_realizations():
        if r.spec.dimv > 4:
            continue
        for c in (r, _sheared(r)):
            for b in algebra_basis(c.spec):
                for m in (c.e1, c.e2, c.h1, c.h2):
                    assert bracket(b, m) == commutator(b, m), (c.spec.series, r.graph)
        count += 1
    assert count > 20


def test_report_basis_is_the_dense_oracle_and_survives_replace():
    # analyze() keeps the graded pieces of z(e1, e2) sparse, and their span,
    # mapped back by dense_basis, is the dense oracle's; a report changed by
    # dataclasses.replace keeps those pieces, so that basis, its witness and
    # its export.
    count = 0
    for r in small_realizations():
        rep = analyze(r)
        basis = centralizer(r.spec, [r.e1, r.e2])
        assert dense_basis(rep) == basis, r.graph
        flipped = replace(rep, flags=replace(rep.flags, rectangular=not rep.flags.rectangular))
        assert flipped.kernel is rep.kernel and flipped.frame_change is rep.frame_change, r.graph
        assert dense_basis(flipped) == basis and dense_witness(flipped) == dense_witness(rep), r.graph
        data, back = report_to_jsonable(rep), report_to_jsonable(flipped)
        data["flags"]["rectangular"] = not data["flags"]["rectangular"]
        assert back == data, r.graph
        count += rep.scaled_witness is not None
    assert count > 10


def test_reports_are_hashable_and_equal_by_value():
    # The report stores its basis and witness as int rows held in tuples, so
    # it hashes, and the report of a pair read back from JSON, dense or
    # sparse, equals that of the built pair, with one hash.
    count = witnessed = 0
    for g in enumerate_admissible("D", 8, "distinguished"):
        if g.is_connected():
            r = build_pair("D", g, "minus")
            rep = analyze(r)
            for fmt in ("dense", "sparse"):
                back = analyze(realization_from_jsonable(realization_to_jsonable(r, fmt)))
                assert back == rep and hash(back) == hash(rep), (fmt, g)
            count += 1
            witnessed += rep.scaled_witness is not None
    assert (count, witnessed) == (6, 4)


def _moved_distinguished():
    """The conjugated copy of each distinguished realization with 2 <= dimV
    <= 6 that a draw moves off the diagonal, all from one seeded stream."""
    rng = random.Random(20261019)
    for r in distinguished_realizations(6):
        c = conjugated(r, rng) if r.spec.dimv > 1 else None
        if c is not None:
            yield c


def test_moved_reports_are_equal_by_value_before_and_after_the_basis_is_read():
    # A moved report stores its eigenframe pieces and the frame change, and
    # maps its witness to the input coordinates on first read; reading it,
    # or the basis through dense_basis, changes neither equality nor the
    # hash.
    count = witnessed = 0
    for c in _moved_distinguished():
        rep, again = analyze(c), analyze(c)
        assert rep.frame_change is not None and rep == again and hash(rep) == hash(again), c.graph
        assert len(dense_basis(rep)) == rep.dimension and rep.scaled_witness is rep.scaled_witness
        assert rep == again and hash(rep) == hash(again), c.graph
        assert dense_basis(again) == dense_basis(rep) and dense_witness(again) == dense_witness(rep), c.graph
        count += 1
        witnessed += rep.scaled_witness is not None
    assert count > 50 and witnessed > 10, (count, witnessed)


def test_moved_report_survives_replace():
    # dataclasses.replace keeps the pieces and the frame change, so the
    # copy maps back the same basis (dense_basis), witness and export.
    for c in _moved_distinguished():
        rep = analyze(c)
        flipped = replace(rep, flags=replace(rep.flags, rectangular=not rep.flags.rectangular))
        assert flipped.kernel is rep.kernel and flipped.frame_change is rep.frame_change, c.graph
        data, back = report_to_jsonable(rep), report_to_jsonable(flipped)
        assert dense_basis(flipped) == dense_basis(rep) and dense_witness(flipped) == dense_witness(rep), c.graph
        data["flags"]["rectangular"] = not data["flags"]["rectangular"]
        assert back == data, c.graph


def test_moved_report_maps_back_only_what_is_read(monkeypatch):
    # analyze and the report's export run no elimination over the n^2
    # positions of gl(V) unless the report has a witness, and then one over
    # the rows of the witness's piece, once: a second export runs none, and
    # the package maps no basis back, so reading the whole span through
    # dense_basis runs none either.  Only the module's own calls are
    # counted: integer_inverse eliminates 2n columns inside linalg, as many
    # as n^2 at n = 2.
    import skewpairs.centralizer as centralizer_module
    from skewpairs.linalg import _eliminate as eliminate

    widths = []

    def eliminating(rows):
        rows = list(rows)
        widths.append((len(rows[0]) if rows else 0, len(rows)))
        return eliminate(rows)

    monkeypatch.setattr(centralizer_module, "_eliminate", eliminating)
    count = witnessed = 0
    for c in _moved_distinguished():
        n = c.spec.dimv
        del widths[:]
        rep = analyze(c)
        report_to_jsonable(rep)
        wide = [rows for cols, rows in widths if cols == n * n]
        witness = rep.scaled_witness
        assert wide == ([] if witness is None else [dict(rep.grading.table)[witness[1]]]), c.graph
        del widths[:]
        report_to_jsonable(rep)
        assert len(dense_basis(rep)) == rep.dimension and widths == [], c.graph
        count += 1
        witnessed += witness is not None
    assert count > 50 and witnessed > 10, (count, witnessed)


def test_eigenframe_moves_e_as_the_oracle_inverse_does(monkeypatch):
    # _eigenframe moves e1 and e2 with no T^-1: row k of T^-1 e T is row f_k
    # of e T, at the last nonzero entry f_k of column k of T, divided by
    # T[f_k][k] and kept at the columns of weight w_k - (den, 0) for e1 or
    # w_k - (0, den) for e2.  On every moved pair, the series-D graphs whose
    # (0,0) eigenspace is a plane among them, that is the primitive form of
    # T^-1 e T with T^-1 from the dense oracle.  analyze takes no T^-1.  The
    # export takes one when the report has a witness, the first time only,
    # and none without one; the basis, which only dense_basis maps back,
    # takes none from the package.
    inverses = []
    integer_inverse = centralizer_module.integer_inverse
    monkeypatch.setattr(centralizer_module, "integer_inverse",
                        lambda rows: inverses.append(rows) or integer_inverse(rows))
    count = planes = scaled = 0
    for c in _moved_distinguished():
        frame, moved = centralizer_module._framed(c)
        n = c.spec.dimv
        t = matrix([[dict(row).get(j, 0) for j in range(n)] for row in frame.t])
        t_inv = invert(t)
        for (rows, _), e in zip(moved, (c.e1, c.e2)):
            _, oracle = integral_rows(mat_mul(t_inv, mat_mul(e, t)))
            want, _ = centralizer_module._sparse_form(oracle)
            assert [sorted(row) for row in rows] == [sorted(row) for row in want], c.graph
        rep = analyze(c)
        assert inverses == [], c.graph
        report_to_jsonable(rep)
        assert len(inverses) == (rep.scaled_witness is not None), c.graph
        del inverses[:]
        report_to_jsonable(rep)
        assert len(dense_basis(rep)) == rep.dimension and inverses == [], c.graph
        count += 1
        planes += len(frame.at.get((0, 0), ())) == 2
        scaled += any(next(x for x in reversed(col) if x) != 1 for col in zip(*t))
    assert count > 100 and planes > 0 and scaled > 20, (count, planes, scaled)


def _commuting(report) -> bool:
    """Whether the kernel vectors of a report, as int rows (_by_rows),
    commute pairwise, that is whether z(e1, e2) is abelian."""
    mats = [_by_rows(report.dimv, vec)[1] for piece in report.kernel for vec in piece]
    return all(
        [dict(row) for row in sparse_product(a, b)] == [dict(row) for row in sparse_product(b, a)]
        for a, b in combinations(mats, 2)
    )


def test_centralizer_is_abelian_exactly_where_pinned(desk_records):
    # z(e1, e2) of a principal pair is abelian: every bracket of two kernel
    # vectors vanishes, on each of the 306 principal desk records with
    # dimV <= 10.  On a distinguished pair that is not principal it need
    # not be: 331 of the 420 such records with dimV <= 8 have a nonzero
    # bracket (A 275 of 317, B 9 of 14, C 26 of 47, D 21 of 21).
    principal = 0
    other: dict[str, list[int]] = {}
    for rec in desk_records:
        if rec.report.flags.principal and rec.dimv <= 10:
            assert _commuting(rec.report), (rec.series, rec.graph, rec.sign)
            principal += 1
        elif not rec.report.flags.principal and rec.dimv <= 8:
            counts = other.setdefault(rec.series, [0, 0])
            counts[0] += not _commuting(rec.report)
            counts[1] += 1
    assert principal == 306, principal
    assert other == {"A": [275, 317], "B": [9, 14], "C": [26, 47], "D": [21, 21]}


def test_report_scales_only_what_is_read(monkeypatch):
    # analyze keeps the kernel vectors as _graded_commutant returns them and
    # scales none to ints.  scaled_witness scales only its own piece: one
    # vector as built, every vector of the piece, before and after the map
    # back, when moved.  Nothing else in the package scales a kernel vector:
    # reading the basis through dense_basis scales none.  As built, the
    # witness is a row of that reduced echelon basis.
    scaled = []
    by_rows = centralizer_module._by_rows
    monkeypatch.setattr(centralizer_module, "_by_rows", lambda n, vec: scaled.append(vec) or by_rows(n, vec))
    rng = random.Random(20261021)
    built = moved = witnessed = 0
    for r in distinguished_realizations(6):
        c = conjugated(r, rng) if r.spec.dimv > 1 else None
        for x in [r] if c is None else [r, c]:
            del scaled[:]
            rep = analyze(x)
            assert scaled == [], x.graph
            witness = rep.scaled_witness
            factor = 1 if rep.frame_change is None else 2
            if witness is None:
                assert scaled == [], x.graph
            else:
                piece = dict(rep.grading.table)[witness[1]]
                assert len(scaled) == (1 if factor == 1 else 2 * piece), x.graph
                witnessed += 1
            del scaled[:]
            basis = dense_basis(rep)
            assert len(basis) == rep.dimension and scaled == [], x.graph
            if witness is not None and factor == 1:
                assert dense_witness(rep)[0] in basis, x.graph
            built += x is r
            moved += x is not r
    assert built > 50 and moved > 50 and witnessed > 20, (built, moved, witnessed)


def test_graded_commutant_agrees_with_dense():
    cases = []
    for series, dims in [("A", (2, 3, 4, 5)), ("B", (3, 5)), ("C", (2, 4)), ("D", (4, 6))]:
        for dimv in dims:
            for g in enumerate_admissible(series, dimv, "distinguished"):
                cases.append((series, g))
    for series, g in cases:
        r = build_pair(series, g)
        frame, _ = eigenframe(r.spec, r.h1, r.h2)
        # Degrees are int pairs in units of 1 / frame.den.
        zero, d1, d2 = (0, 0), (frame.den, 0), (0, frame.den)
        for elements in (
            [(r.e1, d1), (r.e2, d2)],
            [(r.h1, zero), (r.h2, zero)],
            [(r.h1, zero), (r.h2, zero), (r.e1, d1), (r.e2, d2)],
        ):
            ms = [sparse_rows_cols(m) for m, _ in elements]
            pieces = _dense_pieces(frame, _graded_commutant(frame, *_everywhere(frame, ms)))
            graded = canonical_span([m for piece in pieces.values() for _, m in piece], r.spec.dimv)
            dense = centralizer(r.spec, [m for m, _ in elements])
            assert graded == dense, (series, graph_to_text(g))


def _sheared(r):
    """r in the basis of scaled_shear, its Gram matrix moved along."""
    return moved_by(r, scaled_shear(r.spec.dimv))


def _everywhere(frame, ms) -> tuple:
    """The _graded_commutant arguments of z(ms) in g, as analyze passes
    those of z(e1, e2): the trace row in series A and the brackets [x, m].
    _graded_commutant reads every position of gl(V), the whole of each
    bracket and, in B, C and D, every entry a <= b of x^T G + G x."""
    n = len(frame.weights)
    return ([[(i * n + i, 1) for i in range(n)]] if frame.gram is None else ()), list(ms)


def _united(frame, ms) -> tuple:
    """_unite over the arguments of _everywhere, as _graded_commutant calls it."""
    rows, brackets = _everywhere(frame, ms)
    return _unite(len(frame.weights) ** 2, rows, brackets, frame.gram)


def _dense_pieces(frame, pieces) -> dict:
    """_graded_commutant pieces as the blockwise oracle gives them: each
    vector by its leading (i, j) and its matrix, scaled to a leading 1."""
    n = len(frame.weights)
    return {
        d: [(divmod(vec[0][0], n), dense_matrix(_by_rows(n, vec))) for vec in piece] for d, piece in pieces.items()
    }


def _both_commutants(r):
    """_graded_commutant of (e1, e2), made dense, and the blockwise oracle's,
    in r's eigenframe."""
    frame, (e1, e2) = eigenframe(r.spec, r.h1, r.h2, (r.e1, r.e2))
    pieces = _dense_pieces(frame, _graded_commutant(frame, *_everywhere(frame, (e1, e2))))
    return pieces, blockwise_commutant(frame, ((e1, (frame.den, 0)), (e2, (0, frame.den))))


def _rows(frame, elements):
    """Every sparse row of the union-find pass over elements, each by
    sparse_rows_cols: the form rows, then entry (i, j) of [x, m] as
    sum_t m_tj x_it - sum_t m_it x_tj, equal positions summed."""
    n = len(frame.weights)
    rows = form_rows(frame)
    for m_rows, m_cols in elements:
        for i in range(n):
            for j in range(n):
                acc = {}
                for t, c in m_cols[j]:
                    acc[i * n + t] = acc.get(i * n + t, 0) + c
                for t, c in m_rows[i]:
                    acc[t * n + j] = acc.get(t * n + j, 0) - c
                row = [(p, c) for p, c in acc.items() if c]
                if row:
                    rows.append(row)
    return rows


def test_analyze_builds_each_constraint_row_once(monkeypatch):
    # The form x^T G + G x is read off the Gram matrix once for a <= b, as
    # entry (b, a) is entry (a, b) up to sign: no two of its rows (the
    # oracle's) share their positions.  The z(e1, e2) pass is the only one:
    # rectangularity is read off the e-strings (_centred), and cartan_h reads
    # no row, only the weights.  So one _unite call per analyze, over the n^2
    # positions of gl(V).  Series A has no form: its pass reads the one
    # trace row.
    import skewpairs.centralizer as centralizer_module

    calls = []
    unite = centralizer_module._unite

    def counted_unite(size, rows, brackets=(), form=None):
        calls.append((size, list(rows), form))
        return unite(size, rows, brackets, form)

    monkeypatch.setattr(centralizer_module, "_unite", counted_unite)
    count = 0
    for r in distinguished_realizations(8):
        del calls[:]
        analyze(r)
        n = r.spec.dimv
        frame, _ = eigenframe(r.spec, r.h1, r.h2)
        assert len(calls) == 1, r.graph
        ((everywhere, rows, gram),) = calls
        assert everywhere == n * n, r.graph
        assert rows == (form_rows(frame) if r.spec.series == "A" else []), r.graph
        if r.spec.series == "A":
            assert gram is None, r.graph
            continue
        assert gram == frame.gram, r.graph
        # The form is read at the entries a <= b alone: as the rows the
        # oracle builds there, ratios included.
        assert unite(n * n, (), (), gram) == unite(n * n, form_rows(frame)), r.graph
        supports = [frozenset(p for p, _ in row) for row in form_rows(frame)]
        assert len(set(supports)) == len(supports), r.graph
        count += 1
    assert count > 100


def test_cartan_dimension_matches_the_dense_centralizer_of_h():
    # dim z_g(h) is read off the weight multiplicities, with no pass over
    # gl(V).  Pinned as a number against the dense centralizer of h1 and h2:
    # every small realization as built and conjugated, h1 = h2 = 0 in each
    # series, where z(h) = g, and a series-D graph whose two components
    # share the origin, so that the (0,0) weight space is a plane.
    rng = random.Random(20261020)
    cases = []
    for r in small_realizations():
        moved = conjugated(r, rng) if r.spec.dimv > 1 else None
        cases += [r] if moved is None else [r, moved]
    chains = build_pair("D", chains_graph())
    cases += [chains, conjugated(chains, rng)]
    for c in cases:
        frame, _ = eigenframe(c.spec, c.h1, c.h2)
        dim = frame.cartan_dimension()
        assert dim == len(centralizer(c.spec, [c.h1, c.h2])), (c.spec.series, graph_to_text(c.graph))
        assert analyze(c).flags.cartan_h == (dim == c.spec.rank)
    frame, _ = eigenframe(chains.spec, chains.h1, chains.h2)
    assert (len(frame.at[0, 0]), frame.cartan_dimension()) == (2, 3)
    for series, dimv, dim_g in (("A", 1, 0), ("A", 4, 15), ("B", 1, 0), ("B", 5, 10), ("C", 2, 3), ("C", 4, 10),
                                ("D", 2, 1), ("D", 6, 15)):
        spec, zero = make_spec(series, dimv), zeros(dimv)
        frame, _ = eigenframe(spec, zero, zero)
        assert frame.cartan_dimension() == len(centralizer(spec, [zero, zero])) == dim_g, (series, dimv)
        r = replace(build_pair("A", rect_graph(1, 1)), spec=spec, e1=zero, e2=zero, h1=zero, h2=zero)
        assert analyze(r).flags.cartan_h == (dim_g == spec.rank)


def test_a_warm_pass_makes_no_fraction(monkeypatch):
    # Bi-degrees come from a process-wide cache, the barycentre is summed on
    # ints and the minus-sign swap reads constant nodes, so once the cache
    # is warm, build_pair, verify_relations and analyze make no Fraction on
    # any distinguished realization to dimV 8.
    pairs = [(r.spec.series, r.graph, r.orbit_sign) for r in distinguished_realizations(8)]
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    for warm in (True, False):
        if not warm:
            monkeypatch.setattr(Fraction, "__new__", counted)
        for series, graph, sign in pairs:
            r = build_pair(series, graph, sign)
            verify_relations(r)
            analyze(r)
    assert len(pairs) > 500 and made == []


def test_graded_commutant_matches_blockwise_oracle():
    # Piece for piece: degrees, leading positions and reduced matrices.  The
    # conjugated and sheared copies have non-unit ratios, and where an
    # eigenspace is not a line, rows of three or more terms.
    rng = random.Random(20261019)
    seen = set()
    copies = 0
    for series, first, step in (("A", 1, 1), ("B", 1, 2), ("C", 2, 2), ("D", 2, 2)):
        for dimv in range(first, 9, step):
            for kind in ("distinguished", "principal"):
                for g in enumerate_admissible(series, dimv, kind):
                    for sign in ("plus", "minus") if series == "D" and g.is_connected() else (None,):
                        if (series, graph_key(g), sign) in seen:
                            continue
                        seen.add((series, graph_key(g), sign))
                        r = build_pair(series, g, sign)
                        moved = [conjugated(r, rng), _sheared(r)] if dimv > 1 else []
                        for c in [r] + [m for m in moved if m is not None]:
                            pieces, oracle = _both_commutants(c)
                            assert pieces == oracle, (series, graph_to_text(g), sign, c is not r)
                            copies += c is not r
    assert len(seen) > 500 and copies > 1000


def test_trace_row_at_dimv_1_2_and_3():
    # One, two and three terms: x = 0 in sl(1), a union in sl(2) and an
    # elimination in sl(3).
    for dimv, dim_z in ((1, 0), (2, 1), (3, 2)):
        r = build_pair("A", rect_graph(dimv, 1))
        frame, _ = eigenframe(r.spec, r.h1, r.h2)
        assert [len(row) for row in form_rows(frame)] == [dimv]
        pieces, oracle = _both_commutants(r)
        assert pieces == oracle
        rep = analyze(r)
        assert dense_basis(rep) == centralizer(r.spec, [r.e1, r.e2])
        assert rep.dimension == dim_z


def test_d_components_sharing_the_origin():
    # Two basis vectors at weight (0,0).  On the built pair the form rows of
    # their diagonal entries hold one position twice.  In the frame of the
    # sheared copy the (0,0) eigenspace basis mixes the two, so e and G are
    # not monomial there and rows grow longer.
    r = build_pair("D", chains_graph())
    sheared = _sheared(r)
    frame, (e1, e2) = eigenframe(r.spec, r.h1, r.h2, (r.e1, r.e2))
    at_origin = [i for i, w in enumerate(frame.weights) if w == (0, 0)]
    assert len(at_origin) == 2
    n = r.spec.dimv
    assert all([(a * n + a, 2)] in form_rows(frame) for a in at_origin)
    assert max(len(row) for row in _rows(frame, (e1, e2))) == 2
    sheared_frame, sheared_e = eigenframe(sheared.spec, sheared.h1, sheared.h2, (sheared.e1, sheared.e2))
    assert max(len(row) for row in _rows(sheared_frame, sheared_e)) > 2
    for c in (r, conjugated(r, random.Random(5)), sheared):
        pieces, oracle = _both_commutants(c)
        assert pieces == oracle
        assert dense_basis(analyze(c)) == centralizer(c.spec, [c.e1, c.e2])
    assert analyze(r).dimension == 3


def test_unite_reads_each_bracket_entry_off_a_row_and_a_column_of_m():
    # _unite reads entry (i, j) of [x, m] off column j and row i of m: one
    # union or kill while each holds at most one entry, a summed row when one
    # holds two.  The pass must equal the one over the rows built by _rows,
    # ratios included, and its pieces those of the blockwise oracle.  Cases:
    # two entries in one column or row (the sheared D frame whose two
    # vectors share weight (0,0)); m = h, whose m_ii and m_jj are both
    # nonzero and cancel where w_i = w_j; and a conjugated D frame in which
    # e and G are not monomial.
    point = SkewGraph((component_from_nodes(rectangle_nodes(3, 1)), component_from_nodes(rectangle_nodes(1, 1))))
    two_terms = cancelled = 0
    # Each copy commutes with e1, e2 or with h1, h2 (slice 2:), diagonal in the frame.
    for c, pick in (
        (_sheared(build_pair("D", chains_graph())), slice(2)),
        (build_pair("A", rect_graph(2, 2)), slice(2, None)),
        (conjugated(build_pair("D", point), random.Random(1)), slice(2)),
    ):
        frame, moved = eigenframe(c.spec, c.h1, c.h2, (c.e1, c.e2, c.h1, c.h2))
        elements = list(zip(moved, ((frame.den, 0), (0, frame.den), (0, 0), (0, 0))))[pick]
        n = len(frame.weights)
        ms = [m for m, _ in elements]
        everywhere = [(i, j) for i in range(n) for j in range(n)]
        fast = _united(frame, ms)
        assert fast == _unite(n * n, _rows(frame, ms))
        pieces = _dense_pieces(frame, _graded_commutant(frame, *_everywhere(frame, ms)))
        assert pieces == blockwise_commutant(frame, elements)
        two_terms += any(len(line) > 1 for m_rows, m_cols in ms for line in list(m_rows) + m_cols)
        cancelled += any(
            i != j and dict(m_rows[i]).get(i) == dict(m_rows[j]).get(j) is not None
            for m_rows, _ in ms
            for i, j in everywhere
        )
    assert (two_terms, cancelled) == (2, 1)


def test_unbalanced_cycle_kills_its_component():
    # In sl(2) with h = 0, commuting with the swap P gives x01 = x10 and
    # x00 = x11; with J = [[0, 1], [-1, 0]] also x01 = -x10.  So the cycle
    # x01 -> x10 -> x01 does not close, and neither does x00 -> x11 -> x00
    # with the trace row x00 + x11 = 0: z(P, J) = 0, while z(P) and z(J)
    # are lines.
    spec = make_spec("A", 2)
    frame, _ = eigenframe(spec, zeros(2), zeros(2))
    swap, turn = matrix([[0, 1], [1, 0]]), matrix([[0, 1], [-1, 0]])
    assert all(len(row) == 2 for row in _rows(frame, [sparse_rows_cols(m) for m in (swap, turn)]))
    for elements in ((swap,), (turn,), (swap, turn)):
        ms = [sparse_rows_cols(m) for m in elements]
        pieces = _dense_pieces(frame, _graded_commutant(frame, *_everywhere(frame, ms)))
        assert pieces == blockwise_commutant(frame, [(sparse_rows_cols(m), (0, 0)) for m in elements])
        assert [m for piece in pieces.values() for _, m in piece] == list(centralizer(spec, elements))
    assert _graded_commutant(frame, *_everywhere(frame, [sparse_rows_cols(m) for m in (swap, turn)])) == {}
    pieces = _dense_pieces(frame, _graded_commutant(frame, *_everywhere(frame, [sparse_rows_cols(turn)])))
    assert [m for _, m in pieces[(0, 0)]] == [turn]


def test_analyze_eliminates_only_blocks_with_long_rows(monkeypatch):
    # On a built pair e1, e2 and the Gram matrix are signed monomial
    # matrices, so the only row of three or more terms is the trace of
    # sl(n), n >= 3: in series A one integer_nullspace call for its block of
    # the centralizer, none in B, C, D.  The rectangularity sides take one
    # rank per pair of twin weights +-l, l > 0, of a square matrix of the
    # weights' multiplicity, so in B, C and D those ranks are the only
    # eliminations.
    import skewpairs.centralizer as centralizer_module
    import skewpairs.linalg as linalg_module

    calls, eliminations, ranks = [], [], []

    def counting(rows, ncols):
        calls.append(ncols)
        return integer_nullspace(rows, ncols)

    def eliminating(rows):
        eliminations.append(1)
        return eliminate(rows)

    def ranking(rows):
        ranks.append((len(rows), {len(row) for row in rows}))
        return rank(rows)

    eliminate, rank = linalg_module._eliminate, centralizer_module.rank
    monkeypatch.setattr(centralizer_module, "integer_nullspace", counting)
    monkeypatch.setattr(centralizer_module, "_eliminate", eliminating)
    monkeypatch.setattr(linalg_module, "_eliminate", eliminating)
    monkeypatch.setattr(centralizer_module, "rank", ranking)
    count = 0
    for r in distinguished_realizations(8):
        frame, e = eigenframe(r.spec, r.h1, r.h2, (r.e1, r.e2))
        weights, n = frame.weights, r.spec.dimv
        long_blocks = {
            tuple(a - b for a, b in zip(weights[row[0][0] // n], weights[row[0][0] % n]))
            for row in _rows(frame, e)
            if len(row) > 2
        }
        del calls[:], eliminations[:], ranks[:]
        rectangular = analyze(r).flags.rectangular
        trace_rows = r.spec.series == "A" and n >= 3
        assert (len(calls), len(long_blocks)) == (trace_rows, trace_rows), (r.spec.series, r.graph)
        # A side stops at its first off-centre string, so only a rectangular
        # pair takes every rank.
        twins = sorted(len(basis) for side in (0, 1) for w, basis in frame.at.items() if w[side] > 0)
        assert all(widths == {m} for m, widths in ranks), (r.spec.series, r.graph)
        assert sorted(m for m, _ in ranks) == twins if rectangular else len(ranks) <= len(twins), r.graph
        if r.spec.series != "A":
            assert len(eliminations) == len(ranks), (r.spec.series, r.graph)
        count += 1
    assert count > 500


def test_a_zero_pair_solves_only_the_components_of_the_trace(monkeypatch):
    # With e1 = e2 = h1 = h2 = 0 in sl(n) all n^2 positions of gl(V) lie in
    # the (0,0) block, each its own component, and the one long row, the
    # trace, touches only the n diagonal ones: no null space or elimination
    # of the module may take more than n columns.  One over the whole block
    # takes n^2 columns, and time of order n^5.
    from skewpairs.linalg import _eliminate as eliminate

    n = 20
    data = realization_to_jsonable(build_pair("A", rect_graph(n, 1)), "sparse")
    for name in ("e1", "e2", "h1", "h2"):
        data[name] = {"shape": n, "entries": []}
    nullspaces, eliminations = [], []

    def counting(rows, ncols):
        nullspaces.append(ncols)
        return integer_nullspace(rows, ncols)

    def eliminating(rows):
        rows = list(rows)
        eliminations.append(len(rows[0]) if rows else 0)
        return eliminate(rows)

    monkeypatch.setattr(centralizer_module, "integer_nullspace", counting)
    monkeypatch.setattr(centralizer_module, "_eliminate", eliminating)
    rep = analyze(realization_from_jsonable(data))
    assert rep.dimension == n * n - 1 and dict(rep.grading.table) == {(F(0), F(0)): n * n - 1}
    assert nullspaces and eliminations and max(nullspaces + eliminations) <= n, (nullspaces, eliminations)


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_sl4_square():
    r = build_pair("A", rect_graph(2, 2))
    rep = analyze(r)
    assert rep.dimension == 3
    assert rep.flags.distinguished and rep.flags.principal
    assert rep.biexponents == ((F(0), F(1)), (F(1), F(0)), (F(1), F(1)))
    assert dense_witness(rep) is None


def test_analyze_staircase_distinguished_not_principal():
    r = build_pair("A", zigzag_graph())
    rep = analyze(r)
    assert rep.flags.distinguished
    assert not rep.flags.principal
    witness = dense_witness(rep)
    assert witness is not None
    _, (p, q) = witness
    assert q < 0


def test_analyze_so9_3x3():
    r = build_pair("B", rect_graph(3, 3))
    rep = analyze(r)
    assert rep.dimension == 4
    assert rep.flags.principal
    assert rep.biexponents == ((F(0), F(1)), (F(1), F(0)), (F(1), F(2)), (F(2), F(1)))


def test_analyze_rejects_broken_relations():
    from dataclasses import replace

    r = build_pair("A", rect_graph(2, 2))
    with pytest.raises(ValueError, match="relations fail"):
        analyze(replace(r, e2=r.e1))


def test_analyze_degenerate_pair_has_full_centralizer():
    # e1 = e2 = h1 = h2 = 0 passes the relations.  z(h) is all of g, and all
    # of z(e) is its (0,0) piece, so neither derived flag may hold.
    for series, dimv in (("A", 3), ("C", 4), ("D", 4)):
        spec = make_spec(series, dimv)
        z = zeros(dimv)
        r = PairRealization(spec=spec, graph=SkewGraph(()), labels=(), e1=z, e2=z, h1=z, h2=z)
        rep = analyze(r)
        dim_g = len(algebra_basis(spec))
        assert not rep.flags.cartan_h
        assert not rep.flags.trivial_intersection
        assert rep.dimension == dim_g
        assert dict(rep.grading.table) == {(F(0), F(0)): dim_g}


def test_analyze_d_signs_agree():
    for g in enumerate_admissible("D", 6, "principal"):
        if not g.is_connected():
            continue
        plus = analyze(build_pair("D", g, "plus"))
        minus = analyze(build_pair("D", g, "minus"))
        assert plus.dimension == minus.dimension
        assert plus.biexponents == minus.biexponents
        assert plus.flags == minus.flags


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_closed_form_sl4_square():
    pred = closed_form_centralizer("A", rect_graph(2, 2))
    assert pred.powers == frozenset({(1, 0), (0, 1), (1, 1)})
    assert pred.a_operator is None
    assert pred.rank == 3


def test_closed_form_so6_third_shape():
    pred = closed_form_centralizer("D", near_rect_graph())
    assert pred.case == "near-rectangular-third"
    assert pred.powers == frozenset({(1, 0), (0, 1)})
    assert pred.a_operator.bidegree == (F(2), F(0))
    assert pred.rank == 3


def test_closed_form_chains():
    pred = closed_form_centralizer("D", chains_graph())
    assert pred.case == "chains"
    assert pred.powers == frozenset({(1, 0), (0, 1)})
    assert pred.a_operator.bidegree == (F(1), F(1))
    assert pred.rank == 3


def test_closed_form_rectangle_plus_point():
    g = SkewGraph(
        (component_from_nodes(rectangle_nodes(5, 1)), component_from_nodes([Node(F(0), F(0))]))
    )
    pred = closed_form_centralizer("D", g)
    assert pred.case == "rectangle-plus-point"
    assert pred.powers == frozenset({(1, 0), (3, 0)})
    assert pred.a_operator.bidegree == (F(2), F(0))
    assert pred.rank == 3


def test_closed_form_first_and_second_shapes_so10():
    # Both genuine column- and row-trimmed shapes first appear at dimV = 10,
    # cut from the 4x4 non-integral rectangle.
    ys = sorted({nd.y for nd in rectangle_nodes(4, 4)})
    xs = sorted({nd.x for nd in rectangle_nodes(4, 4)})
    first = set(rectangle_nodes(4, 4))
    for y in ys[:-1]:
        first.discard(Node(xs[0], y))
    for y in ys[1:]:
        first.discard(Node(xs[-1], y))
    g1 = SkewGraph((component_from_nodes(first),))
    pred1 = closed_form_centralizer("D", g1)
    assert pred1.case == "near-rectangular-first"
    assert pred1.powers == frozenset({(0, 1), (0, 3), (1, 0), (1, 2)})
    assert pred1.a_operator.bidegree == (F(2), F(0))
    assert pred1.rank == 5

    second = set(rectangle_nodes(4, 4))
    for x in xs[:-1]:
        second.discard(Node(x, ys[0]))
    for x in xs[1:]:
        second.discard(Node(x, ys[-1]))
    g2 = SkewGraph((component_from_nodes(second),))
    pred2 = closed_form_centralizer("D", g2)
    assert pred2.case == "near-rectangular-second"
    assert pred2.powers == frozenset({(1, 0), (3, 0), (0, 1), (2, 1)})
    assert pred2.a_operator.bidegree == (F(0), F(2))
    assert pred2.rank == 5

    for g, pred in ((g1, pred1), (g2, pred2)):
        r = build_pair("D", g, "plus")
        rep = analyze(r)
        assert rep.dimension == 5 and rep.flags.principal
        assert tuple(sorted(pred.biexponents)) == tuple(sorted(rep.biexponents))


def test_regular_nilpotent_biexponents_are_the_classical_exponents():
    # The single-row chain realizes a regular nilpotent; its e1-exponents are
    # the exponents of the algebra.
    rep = analyze(build_pair("B", rect_graph(9, 1)))
    assert rep.biexponents == ((F(1), F(0)), (F(3), F(0)), (F(5), F(0)), (F(7), F(0)))
    rep = analyze(build_pair("A", rect_graph(5, 1)))
    assert rep.biexponents == tuple((F(k), F(0)) for k in range(1, 5))


def test_closed_form_rejects_non_principal():
    with pytest.raises(ValueError):
        closed_form_centralizer("A", zigzag_graph())


def test_closed_form_a_operator_lies_in_centralizer():
    for series, g, sign in [
        ("D", near_rect_graph(), "plus"),
        ("D", near_rect_graph(), "minus"),
        ("D", chains_graph(), None),
    ]:
        r = build_pair(series, g, sign)
        pred = closed_form_centralizer(series, r.graph)
        a = a_operator_matrix(pred, r)
        z = centralizer(r.spec, [r.e1, r.e2])
        basis = span_rref([_flatten(m) for m in z])
        assert in_span(basis, _flatten(a)), (series, sign)


# ---------------------------------------------------------------------------
# rectangularity
# ---------------------------------------------------------------------------

def test_rectangular_sl2_domino():
    r = build_pair("A", rect_graph(2, 1))
    assert is_rectangular_pair(r)


def test_analyze_conjugated_realization_matches_diagonal():
    # A realization handed over in a different basis (non-diagonal h) goes
    # through the eigenframe and must produce the same invariants.
    for series, g in [("A", rect_graph(2, 2)), ("A", zigzag_graph())]:
        r = build_pair(series, g)
        n = r.spec.dimv
        t = [[F(1) if i == j else F(0) for j in range(n)] for i in range(n)]
        t[0][n - 1] = F(1)  # unipotent change of basis, stays traceless-friendly
        t = matrix(t)
        ti = invert(t)

        def conj(m):
            return mat_mul(t, mat_mul(m, ti))

        moved = replace(r, e1=conj(r.e1), e2=conj(r.e2), h1=conj(r.h1), h2=conj(r.h2))
        base = analyze(r)
        rep = analyze(moved)
        assert rep.dimension == base.dimension
        assert rep.flags == base.flags
        assert rep.biexponents == base.biexponents
        assert is_rectangular_pair(moved) == is_rectangular_pair(r)


def test_analyze_large_denominator_conjugator_matches_diagonal():
    # T^-1 has denominators near 10^6, so the common denominator of the
    # moved h is large while its eigenvalues stay those of the diagonal h.
    r = build_pair("A", zigzag_graph())
    t = scaled_shear(r.spec.dimv)
    ti = invert(t)

    def conj(m):
        return mat_mul(t, mat_mul(m, ti))

    moved = replace(r, e1=conj(r.e1), e2=conj(r.e2), h1=conj(r.h1), h2=conj(r.h2))
    start = time.perf_counter()
    rep = analyze(moved)
    assert time.perf_counter() - start < 10
    base = analyze(r)
    assert (rep.dimension, rep.flags, rep.biexponents) == (base.dimension, base.flags, base.biexponents)


def test_analyze_commutes_with_a_change_of_basis_to_dimv_8():
    # Every distinguished realization with dimV <= 8, moved by a seeded
    # isometry and by scaled_shear, the Gram matrix moved along: the same
    # invariants, and z(e) moved along as a span.
    start = time.perf_counter()
    rng = random.Random(20261021)
    copies = 0
    for r in distinguished_realizations(8):
        base = analyze(r)
        n = r.spec.dimv
        for t in (conjugator(r, rng) if n > 1 else None, scaled_shear(n)):
            if t is None:
                continue
            rep = analyze(moved_by(r, t))
            where = (r.spec.series, graph_to_text(r.graph), r.orbit_sign, t[0][0])
            assert (rep.dimension, rep.grading, rep.biexponents, rep.flags) == (
                base.dimension, base.grading, base.biexponents, base.flags
            ), where
            t_inv = invert(t)
            moved_basis = [mat_mul(t, mat_mul(x, t_inv)) for x in dense_basis(base)]
            assert dense_basis(rep) == canonical_span(moved_basis, n), where
            copies += 1
    assert copies > 1000
    assert time.perf_counter() - start < 120


def test_rectangular_corollary_cases():
    assert is_rectangular_pair(build_pair("B", rect_graph(3, 3)))
    assert is_rectangular_pair(build_pair("C", rect_graph(4, 1)))
    assert not is_rectangular_pair(build_pair("D", near_rect_graph()))
    assert not is_rectangular_pair(build_pair("A", zigzag_graph()))


# ---------------------------------------------------------------------------
# graph reconstruction
# ---------------------------------------------------------------------------

def test_round_trip_sl4_square():
    r = build_pair("A", rect_graph(2, 2))
    g2 = graph_from_pair(r.spec, r.e1, r.e2, r.h1, r.h2)
    assert graph_key(g2) == graph_key(r.graph)


def test_round_trip_shared_node_chains():
    r = build_pair("D", chains_graph())
    g2 = graph_from_pair(r.spec, r.e1, r.e2, r.h1, r.h2)
    assert graph_key(g2) == graph_key(r.graph)
    assert len(g2.components) == 2
    shared = g2.components[0].node_set & g2.components[1].node_set
    assert shared == frozenset({Node(F(0), F(0))})


def test_round_trip_nondiagonal_basis():
    r = build_pair("A", rect_graph(2, 1))
    t = matrix([[1, 1], [0, 1]])
    ti = invert(t)

    def conj(m):
        return mat_mul(t, mat_mul(m, ti))

    g2 = graph_from_pair(r.spec, conj(r.e1), conj(r.e2), conj(r.h1), conj(r.h2))
    assert graph_key(g2) == graph_key(r.graph)


def test_graph_from_pair_rejects_fat_eigenspace():
    spec = make_spec("A", 2)
    z = zeros(2)
    message = "eigenspace at (Fraction(0, 1), Fraction(0, 1)) has dimension 2; the pair is not in normal form"
    with pytest.raises(NormalFormError, match=re.escape(message)):
        graph_from_pair(spec, z, z, z, z)


def test_graph_from_pair_rejects_broken_relations():
    r = build_pair("A", rect_graph(2, 2))
    with pytest.raises(NormalFormError):
        graph_from_pair(r.spec, r.e1, r.e1, r.h1, r.h2)


@pytest.mark.parametrize(
    "e2, h2, message",
    [
        pytest.param([[0, 0], [1, 0]], [[0, 0], [0, 0]], "e1 and e2 do not commute", id="e"),
        pytest.param([[0, 0], [0, 0]], [[0, 1], [0, 0]], "h1 and h2 do not commute", id="h"),
    ],
)
def test_graph_from_pair_names_the_commutator_that_fails(e2, h2, message):
    e1, h1 = matrix([[0, 1], [0, 0]]), _diag(1, -1)
    with pytest.raises(NormalFormError) as exc:
        graph_from_pair(make_spec("A", 2), e1, matrix(e2), h1, matrix(h2))
    assert exc.value.args == (message,)


def _diag(*entries):
    return matrix([[x if i == j else 0 for j, x in enumerate(entries)] for i in range(len(entries))])


def _units(n, *positions):
    """The n x n matrix with a 1 at each (row, column) position."""
    return matrix([[int((i, j) in positions) for j in range(n)] for i in range(n)])


def _d4_one_line(gram_positions):
    """A series-D pair on V = V(-1,0) + V(0,0) + V(1,0), dim V(0,0) = 2, where
    only e1 enters the (0,0)-eigenspace (on basis vector 1), under the Gram
    matrix with a 1 at each of gram_positions."""
    spec = make_spec("D", 4, _units(4, *gram_positions))
    zero = _diag(0, 0, 0, 0)
    return spec, _units(4, (1, 0)), zero, _diag(-1, 0, 0, 1), zero


@pytest.mark.parametrize(
    "spec, h1, message",
    [
        pytest.param(make_spec("A", 3), _diag(F(1, 2), F(1, 2), -1),
                     "eigenspace at (Fraction(1, 2), Fraction(0, 1)) has dimension 2", id="A-off-origin"),
        pytest.param(make_spec("D", 4), _diag(0, 0, 0, 0),
                     "eigenspace at (Fraction(0, 1), Fraction(0, 1)) has dimension 4", id="D-origin-too-big"),
    ],
)
def test_graph_from_pair_rejects_fat_eigenspace_with_message(spec, h1, message):
    z = _diag(*[0] * spec.dimv)
    with pytest.raises(NormalFormError, match=re.escape(message + "; the pair is not in normal form")):
        graph_from_pair(spec, z, z, h1, z)


def test_graph_from_pair_rejects_unsplit_d_origin():
    spec = make_spec("D", 2)
    z = _diag(0, 0)
    with pytest.raises(NormalFormError, match=re.escape("no e-image enters the (0,0)-eigenspace; not in normal form")):
        graph_from_pair(spec, z, z, z, z)


@pytest.mark.parametrize(
    "gram_positions",
    [
        pytest.param(((0, 3), (3, 0), (1, 2), (2, 1)), id="isotropic-line"),
        pytest.param(((0, 3), (3, 0)), id="zero-gram-block"),
    ],
)
def test_graph_from_pair_rejects_degenerate_split(gram_positions):
    with pytest.raises(NormalFormError, match=re.escape("degenerate (0,0)-eigenspace split")):
        graph_from_pair(*_d4_one_line(gram_positions))


def test_graph_from_pair_needs_a_form_to_split():
    spec, e1, e2, h1, h2 = _d4_one_line(())
    spec = replace(spec, gram=None)
    with pytest.raises(NormalFormError, match="cannot split the \\(0,0\\)-eigenspace without a bilinear form"):
        graph_from_pair(spec, e1, e2, h1, h2)


def test_graph_from_pair_rejects_component_with_repeated_node():
    # The Gram-orthogonal complement of the hit line is basis vector 2, and
    # e1 sends both (0,0)-lines to the (1,0) node.
    spec, _, e2, h1, h2 = _d4_one_line(((0, 3), (3, 0), (1, 1), (2, 2)))
    e1 = _units(4, (1, 0), (3, 1), (3, 2))
    with pytest.raises(NormalFormError, match="a reconstructed component repeats a node; not in normal form"):
        graph_from_pair(spec, e1, e2, h1, h2)


def test_graph_from_pair_rejects_invalid_graph():
    # Nodes (-1,0) -> (0,0) and (0,0) -> (0,1), one component on each
    # (0,0)-line.  h is not traceless, so centring moves the shared node off
    # the origin.
    spec = make_spec("D", 4, _units(4, (0, 3), (3, 0), (1, 1), (2, 2)))
    with pytest.raises(
        NormalFormError,
        match=re.escape(
            "reconstructed graph violates the axioms: components 0 and 1 share 1 nodes;"
            " only a single shared node (0,0) is allowed"
        ),
    ):
        graph_from_pair(spec, _units(4, (1, 0)), _units(4, (3, 2)), _diag(-1, 0, 0, 0), _diag(0, 0, 0, 1))


def _conjugated_round_trips():
    """(copy, r) for each distinguished realization r with dimV <= 8 and each
    copy of it moved by a seeded isometry, and in series A by a scaled shear."""
    rng = random.Random(20261020)
    for r in distinguished_realizations(8):
        copies = [conjugated(r, rng) if r.spec.dimv > 1 else None]
        if r.spec.series == "A":
            t = scaled_shear(r.spec.dimv)
            t_inv = invert(t)
            copies.append(replace(r, **{k: mat_mul(t, mat_mul(getattr(r, k), t_inv)) for k in ("e1", "e2", "h1", "h2")}))
        yield from ((c, r) for c in copies if c is not None)


def test_graph_from_pair_round_trips_conjugated_realizations():
    moved_count = 0
    for c, r in _conjugated_round_trips():
        assert graph_from_pair(c.spec, c.e1, c.e2, c.h1, c.h2) == r.graph, (
            r.spec.series, graph_to_text(r.graph), r.orbit_sign
        )
        moved_count += 1
    assert moved_count > 900


def test_graph_from_pair_calls_neither_canonical_form_nor_component_from_nodes(monkeypatch, desk_records):
    # The graph is centred and sorted on the frame's int weights: with both
    # Fraction-node routines refusing, every desk record with dimV <= 8 and
    # every conjugated round trip above still gives back its graph.
    def refuse(*args):
        raise AssertionError("graph_from_pair compared Fraction nodes")

    # The pairs are built first: build_pair canonicalizes its graph.
    pairs = [(rec.realization, rec.graph) for rec in desk_records if rec.dimv <= 8]
    pairs += [(c, r.graph) for c, r in _conjugated_round_trips()]
    for module in (skewgraph, centralizer_module, liealg, catalog, cli, skewpairs):
        for name in ("canonical_form", "component_from_nodes"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for r, graph in pairs:
        assert graph_from_pair(r.spec, r.e1, r.e2, r.h1, r.h2) == graph, (r.spec.series, graph_to_text(graph))
    assert len(pairs) > 1500


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def test_report_jsonable():
    r = build_pair("A", zigzag_graph())
    rep = analyze(r)
    data = report_to_jsonable(rep)
    assert data["dimension"] == rep.dimension
    assert data["flags"]["principal"] is False
    assert data["nonpositive_witness"]["q"].startswith("-")
    total = sum(cell["dim"] for cell in data["grading"])
    assert total == rep.dimension


# ---------------------------------------------------------------------------
# dense oracles for the facts analyze() derives from one graded solve
# ---------------------------------------------------------------------------

def _dense_image_solvable(spec, e, h):
    """Whether [e, x] = h for some x in g, solved over the whole algebra basis."""
    basis = algebra_basis(spec)
    comms = [commutator(e, b) for b in basis]
    n = spec.dimv
    rows = []
    rhs = []
    for i in range(n):
        for j in range(n):
            row = [c[i][j] for c in comms]
            if any(row) or h[i][j]:
                rows.append(row)
                rhs.append(h[i][j])
    return solve(rows, rhs) is not None


def _check_cartan_and_rectangularity(c, rep, where) -> bool:
    """Assert rep's cartan_h and both rectangularity sides against dense
    solves over the algebra basis; returns the rectangularity flag."""
    spec = c.spec
    assert rep.flags.cartan_h == (len(centralizer(spec, [c.h1, c.h2])) == spec.rank), where
    side1 = _dense_image_solvable(spec, c.e1, c.h1)
    side2 = _dense_image_solvable(spec, c.e2, c.h2)
    assert side1 == side2 == rep.flags.rectangular == is_rectangular_pair(c), where
    return side1


def test_derived_facts_match_dense_oracles():
    rng = random.Random(20261017)
    moved_count = 0
    for r in small_realizations():
        base = analyze(r)
        copies = [(r, base)]
        moved = conjugated(r, rng) if r.spec.dimv > 1 else None
        if moved is not None:
            copies.append((moved, analyze(moved)))
            moved_count += 1
        for c, rep in copies:
            spec = c.spec
            where = (spec.series, graph_to_text(r.graph), r.orbit_sign, c is not r)
            _check_cartan_and_rectangularity(c, rep, where)
            assert rep.flags.trivial_intersection == (
                centralizer(spec, [c.h1, c.h2, c.e1, c.e2]) == ()
            ), where
            assert dense_basis(rep) == centralizer(spec, [c.e1, c.e2]), where
            assert (rep.grading, rep.biexponents, rep.flags) == (
                base.grading, base.biexponents, base.flags
            ), where
            witness = dense_witness(rep)
            if witness is not None:
                w, (p, q) = witness
                assert in_span(span_rref([_flatten(m) for m in dense_basis(rep)]), _flatten(w)), where
                assert commutator(c.h1, w) == mat_scale(p, w), where
                assert commutator(c.h2, w) == mat_scale(q, w), where
    assert moved_count > 50


def test_series_a_flags_match_dense_oracles_at_dimv_7_and_8():
    # In series A cartan_h subtracts the line of the identity, and the
    # rectangularity test reads the e-strings in gl(V), where the identity
    # and the trace play no part (_centred).  Pinned past dimV 6 on every A7
    # distinguished realization and a seeded sample of A8 ones, each as
    # built and conjugated.
    rng = random.Random(20261019)
    copies = [build_pair("A", g) for g in enumerate_admissible("A", 7, "distinguished")]
    for g in rng.sample(enumerate_admissible("A", 8, "distinguished"), 12):
        r = build_pair("A", g)
        copies += [r, conjugated(r, rng)]
    assert len(copies) == 105 + 24 and None not in copies
    rectangular = [_check_cartan_and_rectangularity(c, analyze(c), graph_to_text(c.graph)) for c in copies]
    assert 0 < sum(rectangular) < len(copies)


def _graded_frame(rng):
    """A seeded graded frame with h diagonal: (frame, e, h, side), e dense of
    degree den along side, with entries in {0, +-1, +-2, 3}, and h the
    diagonal of the weights along side.  den is 1, 2 or 3, with one or two
    lines of weights -3..3, each weight of multiplicity 0-3, half the time
    the same at w and its twin; a few frames have weights +-10^12."""
    while True:
        den, side, far = rng.choice((1, 2, 3)), rng.randrange(2), rng.random() < 0.02
        mirrored = rng.random() < 0.5
        weights = []
        for b in rng.sample(range(-2, 3), rng.choice((1, 2))):
            mult = {a: rng.choice((0, 0, 1, 1, 2, 3)) for a in range(-3, 4)}
            if mirrored:
                mult = {a: mult[abs(a)] for a in mult}
            weights += [(a * 10**12 if far else a, b) for a, m in mult.items() for _ in range(m)]
        if 1 <= len(weights) <= 8:
            break
    rng.shuffle(weights)
    weights = [w if side == 0 else w[::-1] for w in weights]
    n = len(weights)
    step = (den, 0) if side == 0 else (0, den)
    e = [
        [rng.choice((0, 0, 1, -1, 2, -2, 3)) if (wi[0] - wj[0], wi[1] - wj[1]) == step else 0 for wj in weights]
        for wi in weights
    ]
    h = [[weights[i][side] if i == j else 0 for j in range(n)] for i in range(n)]
    return centralizer_module._Frame(make_spec("A", n), den, tuple(weights), None, None), e, h, side


def test_centred_matches_a_dense_gl_solve_on_random_graded_frames():
    # _centred reads h in [e, gl(V)] off the e-strings: the multiplicity of
    # each weight's twin, the step count k = 2 l / den, an int below n, and
    # the rank of e^k from each V_-l to V_l.  Pinned against one dense solve
    # of [e, x] = h over all of gl(V) on seeded graded frames, most of them
    # with a repeated weight, so that the rank reads a matrix larger than
    # 1 x 1.  The frames with weights +-10^12 take the k < n exit, so a loop
    # over k runs out the deadline instead of hanging the run.
    rng = random.Random(20261020)
    verdicts, repeated = [], 0
    with deadline(60):
        for _ in range(2400):
            frame, e, h, side = _graded_frame(rng)
            got = centralizer_module._centred(frame, sparse_rows_cols(e), side)
            assert got == in_gl_image(e, h), (frame.den, side, frame.weights, e)
            verdicts.append(got)
            repeated += len(frame.at) < len(frame.weights)
    assert 0 < sum(verdicts) < len(verdicts) and repeated > len(verdicts) // 2


def test_analyze_ignores_scalar_factors_of_e_and_the_form():
    # The graded solve scales e1, e2 and the Gram matrix to integers.  The
    # commutant of c e is that of e, [x, c e] = -h is solvable iff
    # [x, e] = -h is, and c G defines the same algebra, so a realization
    # whose e1, e2 and form carry non-unit factors has the same report.
    rng = random.Random(20261018)
    for r in small_realizations():
        copies = [r]
        if r.spec.dimv <= 4:
            moved = conjugated(r, rng) if r.spec.dimv > 1 else None
            copies += [moved] if moved is not None else []
        for c in copies:
            base = analyze(c)
            for c1, c2, cg in ((F(2), F(2), F(1)), (F(6), F(-4), F(3)), (F(2, 3), F(5, 7), F(-1, 2))):
                spec = c.spec
                if spec.form is not None:
                    spec = make_spec(spec.series, spec.dimv, mat_scale(cg, spec.form))
                scaled = replace(c, spec=spec, e1=mat_scale(c1, c.e1), e2=mat_scale(c2, c.e2))
                rep = analyze(scaled)
                assert (
                    rep.dimension, dense_basis(rep), rep.grading, rep.biexponents, rep.flags, dense_witness(rep)
                ) == (
                    base.dimension, dense_basis(base), base.grading, base.biexponents, base.flags, dense_witness(base)
                ), (c.spec.series, graph_to_text(r.graph), c1, c2, cg)
                assert is_rectangular_pair(scaled) == base.flags.rectangular
