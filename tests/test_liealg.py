"""Matrix realizations: the defining relations and the sign conventions."""

import json
import random
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import conjugated, distinguished_realizations, is_rectangular_pair, large_dimv_document, rectangle_nodes
from oracles import (
    algebra_basis,
    commutator,
    conjugate_by_swap,
    in_algebra,
    is_zero_matrix,
    mat_pow,
    mat_scale,
    mat_sub,
    matrix,
    trace,
    transpose,
)
from skewpairs import skewgraph
from skewpairs.catalog import SCHEMA_NAME, SCHEMA_VERSION, classify, entry_to_jsonable, export_entries
from skewpairs.centralizer import analyze
from skewpairs.liealg import (
    BasisLabel,
    NotAdmissibleError,
    PairRealization,
    RelationReport,
    _bracket_checks,
    _commutator_checks,
    _diagonal_weights,
    _ratio_text,
    _realize,
    build_pair,
    json_text,
    make_spec,
    realization_from_jsonable,
    realization_to_jsonable,
    verify_relations,
)
from skewpairs.linalg import integral_rows, rank
from skewpairs.skewgraph import (
    Component,
    Node,
    SkewGraph,
    _admissible_shapes,
    _keys,
    canonical_form,
    classify_component,
    component_from_nodes,
    enumerate_admissible,
    graph_from_text,
)

F = Fraction


def rect_graph(w, h):
    return SkewGraph((component_from_nodes(rectangle_nodes(w, h)),))


def test_a_series_horizontal_domino():
    r = build_pair("A", rect_graph(2, 1))
    assert r.e1 == matrix([[0, 0], [1, 0]])
    assert is_zero_matrix(r.e2)
    assert r.h1 == matrix([[F(-1, 2), 0], [0, F(1, 2)]])
    assert is_zero_matrix(r.h2)
    assert verify_relations(r).ok


def test_b_series_chain_is_regular_nilpotent():
    # 1 x (2n+1) horizontal chain: e2 = 0 and e1 has a single Jordan block.
    r = build_pair("B", rect_graph(7, 1))
    assert is_zero_matrix(r.e2)
    assert not is_zero_matrix(mat_pow(r.e1, 6))
    assert is_zero_matrix(mat_pow(r.e1, 7))
    assert verify_relations(r).ok


def test_b_series_3x3_block():
    r = build_pair("B", rect_graph(3, 3))
    rep = verify_relations(r)
    assert rep.ok, rep.failures
    assert is_zero_matrix(mat_pow(r.e1, 3))
    assert is_zero_matrix(mat_pow(r.e2, 3))
    assert not is_zero_matrix(mat_pow(r.e1, 2))


def test_h_matrices_are_traceless():
    for series, dimv in [("A", 5), ("B", 5), ("C", 6), ("D", 6)]:
        for g in enumerate_admissible(series, dimv, "distinguished"):
            r = build_pair(series, g)
            assert trace(r.h1) == 0
            assert trace(r.h2) == 0


def test_nilpotency_order_matches_row_and_column_lengths():
    for series, g in [("A", rect_graph(3, 2)), ("C", rect_graph(3, 2)), ("B", rect_graph(1, 5))]:
        r = build_pair(series, g)
        shape = classify_component(g.components[0])
        w, h = shape.rectangle
        assert is_zero_matrix(mat_pow(r.e1, w))
        assert not is_zero_matrix(mat_pow(r.e1, w - 1)) or w == 1
        assert is_zero_matrix(mat_pow(r.e2, h))
        assert not is_zero_matrix(mat_pow(r.e2, h - 1)) or h == 1


def test_nilpotency_orders_over_general_graphs():
    # Longest row of any component bounds e1; longest column bounds e2.
    from collections import Counter

    for series, dimv in [("A", 5), ("B", 7), ("C", 6), ("D", 8)]:
        for g in enumerate_admissible(series, dimv, "distinguished"):
            r = build_pair(series, g)
            longest_row = max(
                max(Counter(nd.y for nd in c.nodes).values()) for c in g.components
            )
            longest_col = max(
                max(Counter(nd.x for nd in c.nodes).values()) for c in g.components
            )
            assert is_zero_matrix(mat_pow(r.e1, longest_row))
            assert longest_row == 1 or not is_zero_matrix(mat_pow(r.e1, longest_row - 1))
            assert is_zero_matrix(mat_pow(r.e2, longest_col))
            assert longest_col == 1 or not is_zero_matrix(mat_pow(r.e2, longest_col - 1))


def test_gram_symmetry_types():
    rb = build_pair("B", rect_graph(3, 3))
    assert rb.spec.form == transpose(rb.spec.form)
    rc = build_pair("C", rect_graph(4, 1))
    assert rc.spec.form == tuple(tuple(-x for x in row) for row in transpose(rc.spec.form))
    rd = build_pair("D", rect_graph(2, 2))
    assert rd.spec.form == transpose(rd.spec.form)


def test_wrong_grading_detected():
    r = build_pair("A", rect_graph(2, 2))
    broken = replace(r, e2=r.e1)
    rep = verify_relations(broken)
    assert not rep.ok
    assert "h2_e2_grading" in rep.failures


def test_unsigned_shifts_leave_the_orthogonal_algebra():
    # Dropping the (-1)^(i+j) signs on a graph containing a 2x2 square breaks
    # form-skewness of e1 or e2.
    r = build_pair("B", rect_graph(3, 3))
    index = {(lb.component_index, lb.node): i for i, lb in enumerate(r.labels)}
    n = r.spec.dimv
    unsigned = [[F(0)] * n for _ in range(n)]
    comp = r.graph.components[0]
    for nd in comp.nodes:
        right = nd.shifted(1, 0)
        if right in comp.node_set:
            unsigned[index[(0, right)]][index[(0, nd)]] = F(1)
    unsigned = tuple(tuple(row) for row in unsigned)
    assert not in_algebra(r.spec, unsigned)
    broken = replace(r, e1=unsigned)
    rep = verify_relations(broken)
    assert "e1_in_algebra" in rep.failures


def test_algebra_basis_dimensions():
    assert len(algebra_basis(make_spec("A", 2))) == 3
    assert len(algebra_basis(make_spec("C", 4))) == 10
    so5 = make_spec("B", 5)
    basis = algebra_basis(so5)
    assert len(basis) == 10
    assert all(in_algebra(so5, m) for m in basis)


@pytest.mark.parametrize(
    "series, dimv, form, message",
    [
        pytest.param("Z", 3, None, "unknown series 'Z'", id="unknown-series"),
        pytest.param("A", 0, None, "dimV must be positive", id="A0"),
        pytest.param("C", -2, None, "dimV must be positive", id="C-2"),
        pytest.param("B", 4, None, "series B requires odd dimV", id="B4"),
        pytest.param("D", 3, None, "series D requires even dimV", id="D3"),
        # The series and dimV are checked before the form.
        pytest.param("Z", 3, [[1]], "unknown series 'Z'", id="unknown-series-with-a-form"),
        pytest.param("B", 0, [], "dimV must be positive", id="B0-with-a-form"),
        pytest.param("A", 2, [[0, 1], [1, 0]], "series A takes no gram matrix", id="A2-with-a-form"),
        pytest.param("B", 3, [[int(i + j == 4) for j in range(5)] for i in range(5)],
                     "the form is not a 3x3 matrix", id="B3-with-a-5x5-form"),
        pytest.param("B", 3, [[0, 1], [1, 0], [0, 0]], "the form is not a 3x3 matrix", id="B3-with-short-rows"),
    ],
)
def test_make_spec_refuses_what_enumeration_refuses_and_a_form_that_does_not_fit(series, dimv, form, message):
    # make_spec once skipped the dimV check: A0 had rank -1 and B3 took a
    # 5x5 form.  Its series and dimV messages are enumeration's.
    with pytest.raises(ValueError, match=f"^{message}$"):
        make_spec(series, dimv, None if form is None else matrix(form))
    if form is None:
        with pytest.raises(ValueError, match=f"^{message}$"):
            enumerate_admissible(series, dimv, "distinguished")


def test_standard_form_types():
    g = make_spec("C", 4).form
    assert g == tuple(tuple(-x for x in row) for row in transpose(g))
    s = make_spec("D", 4).form
    assert s == transpose(s)
    assert make_spec("A", 3).form is None


def test_build_pair_rejects_inadmissible():
    with pytest.raises(NotAdmissibleError):
        build_pair("B", rect_graph(2, 2))
    with pytest.raises(NotAdmissibleError):
        build_pair("D", rect_graph(3, 1))


@pytest.mark.parametrize("series", "ABCD")
def test_build_pair_refuses_the_graph_without_a_node(series):
    # Once a ZeroDivisionError from canonical_form.
    with pytest.raises(NotAdmissibleError):
        build_pair(series, SkewGraph(()))


def _moved(g, shift=(F(1, 3), F(-2))):
    """g with the nodes of each component and the components themselves in
    reverse order, every node shifted by shift."""
    comps = (Component(tuple(nd.shifted(*shift) for nd in reversed(c.nodes))) for c in reversed(g.components))
    return SkewGraph(tuple(comps))


def _diagonal(values):
    return tuple(tuple(x if i == j else F(0) for j in range(len(values))) for i, x in enumerate(values))


def test_one_pass_build_matches_the_canonical_route():
    # build_pair validates a graph that is canonical already once and reads
    # each component's cells once.  The old route canonicalizes first and
    # validates the result; a moved copy goes through canonical_form.  h1
    # and h2, made as int rows from the cells, are also checked against the
    # node coordinates of the labels.
    count = 0
    for series, first, step in (("A", 1, 1), ("B", 1, 2), ("C", 2, 2), ("D", 2, 2)):
        for dimv in range(first, 9, step):
            for g in enumerate_admissible(series, dimv, "distinguished"):
                canon = canonical_form(g)
                keyed = _keys([c.nodes for c in canon.components])
                found = _admissible_shapes(series, canon, "distinguished", keyed)
                for sign in ("plus", "minus") if series == "D" and g.is_connected() else (None,):
                    expected = _realize(series, canon, keyed, found, sign)
                    for graph in (g, _moved(g), _moved(g, (0, 0))):
                        r = build_pair(series, graph, sign)
                        for name in (f.name for f in fields(PairRealization) if f.compare):
                            assert getattr(r, name) == getattr(expected, name), (name, series, g)
                        assert r._scaled() == expected._scaled() and r.spec.gram == expected.spec.gram
                        count += 1
                    if sign != "minus":
                        assert expected.h1 == _diagonal([lb.node.x for lb in expected.labels])
                        assert expected.h2 == _diagonal([lb.node.y for lb in expected.labels])
    assert count > 600


@pytest.mark.parametrize(
    "series, text",
    [
        pytest.param("A", "0/1,0/1 0/1,1/1 1/1,1/1", id="axiom-iv"),
        pytest.param("A", "0/1,0/1 2/1,0/1", id="not-connected"),
        pytest.param("A", "0/1,0/1 1/2,0/1", id="off-the-integer-lattice"),
        pytest.param("A", "0/1,0/1\n1/1,1/1", id="two-components-in-series-a"),
        pytest.param("B", "-1/2,0/1 1/2,0/1", id="even-dimv-in-series-b"),
        pytest.param("D", "-1/1,0/1 0/1,0/1 1/1,0/1", id="one-integral-component-in-series-d"),
    ],
)
def test_build_pair_refuses_invalid_and_moved_copies_alike(series, text):
    g = graph_from_text(text)
    for graph in (g, _moved(g), _moved(g, (0, 0))):
        with pytest.raises(NotAdmissibleError, match=f"^graph is not admissible for series {series}$"):
            build_pair(series, graph)


def test_build_pair_reads_a_canonical_graph_as_ints_once(monkeypatch):
    # canonical_form's int keys go on to validation, the shapes and the
    # realization: one _keys per build_pair of an enumerated (canonical)
    # graph, for either D sign, and of a moved copy, whose centred graph
    # comes with its cells.
    cases = [(series, g) for series, first, step in (("A", 1, 1), ("B", 1, 2), ("C", 2, 2), ("D", 2, 2))
             for dimv in range(first, 9, step) for g in enumerate_admissible(series, dimv, "distinguished")]
    calls = []
    keys = skewgraph._keys
    monkeypatch.setattr(skewgraph, "_keys", lambda comps: calls.append(comps) or keys(comps))
    for series, g in cases:
        for sign in ("plus", "minus") if series == "D" and g.is_connected() else (None,):
            del calls[:]
            build_pair(series, g, sign)
            assert len(calls) == 1, (series, g)
        del calls[:]
        build_pair(series, _moved(g))
        assert len(calls) == 1, (series, g)
    assert len(cases) > 500


def test_build_pair_reads_each_component_once(monkeypatch):
    # On an enumerated (canonical) graph: one _component_cells per
    # component, in build_pair and once per graph in classify, for both D
    # signs, and no _centred_graph, the barycentre of canonical_form.
    offsets, sums = [], []
    component_cells, centred_graph = skewgraph._component_cells, skewgraph._centred_graph
    monkeypatch.setattr(
        skewgraph, "_component_cells", lambda i, comp, *ks: offsets.append(comp) or component_cells(i, comp, *ks)
    )
    monkeypatch.setattr(skewgraph, "_centred_graph", lambda d, comps: sums.append(comps) or centred_graph(d, comps))
    for series, dimv in (("A", 5), ("B", 7), ("C", 6), ("D", 8)):
        graphs = enumerate_admissible(series, dimv, "distinguished")
        for g in graphs:
            for sign in ("plus", "minus") if series == "D" and g.is_connected() else (None,):
                del offsets[:]
                build_pair(series, g, sign)
                assert offsets == list(g.components)
        del offsets[:]
        classify(series, dimv, "distinguished")
        assert offsets == [c for g in graphs for c in g.components]
    assert sums == []
    build_pair(series, _moved(graphs[0], (0, 0)))
    assert len(sums) == 1


def test_orbit_sign_usage():
    square = rect_graph(2, 2)
    plus = build_pair("D", square, "plus")
    minus = build_pair("D", square, "minus")
    assert plus.e1 != minus.e1
    assert verify_relations(minus).ok
    with pytest.raises(ValueError):
        build_pair("A", rect_graph(2, 1), "plus")
    chains = SkewGraph(
        (
            component_from_nodes(rectangle_nodes(3, 1)),
            component_from_nodes(rectangle_nodes(1, 3)),
        )
    )
    with pytest.raises(ValueError):
        build_pair("D", chains, "minus")


def test_build_pair_names_an_unknown_orbit_sign():
    with pytest.raises(ValueError) as exc:
        build_pair("D", rect_graph(2, 2), "sideways")
    assert exc.value.args == ("unknown orbit sign 'sideways'",)


def test_minus_representative_is_an_isometry_conjugate():
    # The conjugating swap is an isometry, so the Gram matrix is unchanged
    # and the relations survive.
    square = rect_graph(2, 2)
    plus = build_pair("D", square, "plus")
    minus = build_pair("D", square, "minus")
    assert plus.spec.form == minus.spec.form
    assert verify_relations(plus).ok and verify_relations(minus).ok
    assert mat_sub(plus.h1, minus.h1) != tuple()  # diagonals got swapped
    assert sorted(plus.h1[i][i] for i in range(4)) == sorted(minus.h1[i][i] for i in range(4))


def test_realization_json_round_trip():
    for fmt in ("dense", "sparse"):
        r = build_pair("C", rect_graph(3, 2))
        data = realization_to_jsonable(r, fmt)
        back = realization_from_jsonable(data)
        assert back.e1 == r.e1 and back.e2 == r.e2
        assert back.h1 == r.h1 and back.h2 == r.h2
        assert back.spec == r.spec
        assert back.labels == r.labels


def _numbers(doc) -> list:
    """Every coordinate and matrix entry of a realization document, in order."""
    out = [x for item in doc["labels"] for x in item["node"]]
    out += [x for nodes in doc["graph"]["components"] for nd in nodes for x in nd]
    for name in ("gram", "e1", "e2", "h1", "h2"):
        m = doc[name]
        if isinstance(m, dict):
            out += [v for _, _, v in m["entries"]]
        elif m is not None:
            out += [x for row in m for x in row]
    return out


@pytest.mark.parametrize("fmt", ["dense", "sparse"])
def test_realization_json_parses_each_distinct_string_once(monkeypatch, fmt):
    # One reader serves the label nodes, the graph nodes and the matrix entries.
    from skewpairs import linalg

    seen = []
    parse = linalg.parse_fraction
    monkeypatch.setattr(linalg, "parse_fraction", lambda value: seen.append(value) or parse(value))
    built = [
        build_pair(series, g)
        for series, dimv in (("B", 7), ("C", 6))
        for g in enumerate_admissible(series, dimv, "distinguished")[:3]
    ]
    rng = random.Random(14)
    moved = [conjugated(r, rng) for r in built]
    assert all(moved)
    for r in built + moved:
        doc = realization_to_jsonable(r, fmt)
        seen.clear()
        back = realization_from_jsonable(doc)
        assert sorted(seen) == sorted(set(_numbers(doc)))
        assert back.labels == r.labels and back.graph == r.graph and back._scaled() == r._scaled()


def test_dense_document_tests_no_matrix_entry_for_zero(monkeypatch):
    # The reader gives every zero, however spelled, as the one ZERO, so the
    # nonzero entries of each dense row are kept by identity as it is read:
    # Fraction.__bool__ runs once per distinct string and once per JSON
    # number the reader parses, not once per matrix entry.
    r = build_pair("C", rect_graph(3, 2))
    doc = realization_to_jsonable(r, "dense")
    zeros = iter(["0", "0/5", "-0", 0, 0.0, "0e3", "-0.0"] * 40)
    for name in ("gram", "e1", "e2", "h1", "h2"):
        doc[name] = [[next(zeros) if x == "0" else x for x in row] for row in doc[name]]
    numbers = _numbers(doc)
    calls = []
    boolean = Fraction.__bool__
    monkeypatch.setattr(Fraction, "__bool__", lambda x: calls.append(x) or boolean(x))
    back = realization_from_jsonable(doc)
    monkeypatch.undo()
    assert len(calls) == len({x for x in numbers if type(x) is str}) + sum(type(x) is not str for x in numbers)
    assert len(calls) < 5 * r.spec.dimv**2 / 3
    assert back._scaled() == r._scaled() and back.spec.gram == r.spec.gram
    assert (back.e1, back.e2, back.h1, back.h2, back.spec) == (r.e1, r.e2, r.h1, r.h2, r.spec)


def _dense_documents():
    """The dense document of each distinguished realization with dimV <= 6,
    as built and, where a seeded draw moves it, conjugated."""
    rng = random.Random(35)
    for r in distinguished_realizations(6):
        c = conjugated(r, rng) if r.spec.dimv > 1 else None
        for x in (r,) if c is None else (r, c):
            yield x, realization_to_jsonable(x, "dense")


def test_a_dense_row_skips_each_zero_entry_unparsed(monkeypatch):
    # A dense row is read straight into its sparse form: an entry "0" is
    # skipped without a parse, and every other distinct string is parsed
    # once.  The labels and the graph spell their zero coordinates "0/1"
    # here, so that a parse of "0" could only be a matrix entry's.
    from skewpairs import linalg

    seen = []
    parse = linalg.parse_fraction
    monkeypatch.setattr(linalg, "parse_fraction", lambda value: seen.append(value) or parse(value))

    def spelled(coords):
        return ["0/1" if v == "0" else v for v in coords]

    count = 0
    for r, doc in _dense_documents():
        for item in doc["labels"]:
            item["node"] = spelled(item["node"])
        doc["graph"]["components"] = [[spelled(nd) for nd in nodes] for nodes in doc["graph"]["components"]]
        seen.clear()
        back = realization_from_jsonable(doc)
        assert "0" not in seen and sorted(seen) == sorted(set(_numbers(doc)) - {"0"}), r.graph
        assert back._scaled() == r._scaled() and back.spec == r.spec, r.graph
        count += "0" in _numbers(doc)
    assert count > 200


def test_dense_documents_round_trip_through_the_sparse_form():
    # realization_from_jsonable keeps no dense copy: the dense matrices
    # written back are built from the sparse forms, and they are the
    # document's own, as built and as moved by a rational isometry.
    count = 0
    for r, doc in _dense_documents():
        assert realization_to_jsonable(realization_from_jsonable(doc), "dense") == doc, r.graph
        count += 1
    assert count > 200


@pytest.mark.parametrize("zero", ["-0", "0/3", " 0", 0, 0.0])
def test_every_spelling_of_zero_in_a_dense_row_reads_as_zero(zero):
    r = build_pair("C", rect_graph(3, 2))
    doc = realization_to_jsonable(r, "dense")
    for name in ("gram", "e1", "e2", "h1", "h2"):
        doc[name] = [[zero if x == "0" else x for x in row] for row in doc[name]]
    back = realization_from_jsonable(doc)
    assert back._scaled() == r._scaled() and back.spec == r.spec


@pytest.mark.parametrize("name", ["gram", "e1", "h2"])
def test_a_bad_entry_is_reported_before_the_size_of_its_dense_matrix(name):
    # A dense matrix is read whole before its size is checked, so in a
    # matrix of the wrong size a bad entry is the error reported.
    doc = realization_to_jsonable(build_pair("B", rect_graph(3, 1)), "dense")
    doc[name] = doc[name][:-1]
    with pytest.raises(ValueError, match=f"^{name} is not a 3x3 matrix$"):
        realization_from_jsonable(doc)
    for bad, message in (("x", "Invalid literal for Fraction"), ([1], "expected a number or a numeric string")):
        doc[name][-1][-1] = bad
        with pytest.raises(ValueError, match=message):
            realization_from_jsonable(doc)


def test_realization_json_reads_labels_in_any_order():
    # The basis reversed, labels and matrices alike, is the same pair in
    # another basis: each label still names a distinct node of the graph.
    r = build_pair("B", graph_from_text("-1/2,-1/2 -1/2,1/2 1/2,-1/2 1/2,1/2\n0/1,0/1\n"))
    doc = realization_to_jsonable(r, "sparse")
    n = len(doc["labels"])
    doc["labels"].reverse()
    for name in ("gram", "e1", "e2", "h1", "h2"):
        doc[name]["entries"] = sorted([n - 1 - i, n - 1 - j, v] for i, j, v in doc[name]["entries"])
    back = realization_from_jsonable(doc)
    assert back.labels == r.labels[::-1]
    assert verify_relations(back).ok
    assert analyze(back).flags == analyze(r).flags


def test_realization_json_rejects_sparse_entry_outside_shape():
    r = build_pair("C", rect_graph(3, 2))
    for bad in ([0, 6, "1"], [-1, 0, "1"]):
        data = realization_to_jsonable(r, "sparse")
        data["e1"]["entries"].append(bad)
        with pytest.raises(ValueError, match="outside"):
            realization_from_jsonable(data)


# ---------------------------------------------------------------------------
# dense oracle for the sparse relation checks
# ---------------------------------------------------------------------------

def _dense_relations(r):
    """verify_relations by dense Fraction commutators and x^T G + G x."""
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
        ("form_nondegenerate", r.spec.form is None or rank(r.spec.form) == r.spec.dimv),
    ]
    return RelationReport(tuple(checks))


def test_sparse_relations_match_dense_oracle():
    count = 0
    for r in distinguished_realizations(8):
        assert verify_relations(r) == _dense_relations(r), (r.spec.series, r.graph)
        count += 1
    assert count > 500


def _with_entry(m, i, j, value):
    rows = [list(row) for row in m]
    rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def test_sparse_relations_match_dense_oracle_on_mutations():
    # Every single-entry change of e1, e2, h1, h2 or the Gram matrix to a
    # few values, on every distinguished realization with dimV <= 4.
    checks, failed = set(), set()
    for r in distinguished_realizations(4):
        n = r.spec.dimv
        names = ("e1", "e2", "h1", "h2") + (() if r.spec.form is None else ("gram",))
        for name in names:
            m = r.spec.form if name == "gram" else getattr(r, name)
            for i in range(n):
                for j in range(n):
                    for value in (F(0), F(1), F(-1), F(2), F(1, 2)):
                        if m[i][j] == value:
                            continue
                        moved = _with_entry(m, i, j, value)
                        if name == "gram":
                            mutant = replace(r, spec=make_spec(r.spec.series, n, moved))
                        else:
                            mutant = replace(r, **{name: moved})
                        rep = verify_relations(mutant)
                        assert rep == _dense_relations(mutant), (r.graph, name, i, j, value)
                        checks.update(check for check, _ in rep.checks)
                        failed.update(rep.failures)
    # The mutations make each of the 11 checks fail at least once.
    assert len(checks) == 11 and failed == checks


def test_diagonal_relations_match_the_commutators_on_every_desk_record(desk_records):
    # On a pair whose h1 and h2 are diagonal, _bracket_checks reads each
    # grading relation off the weights, one test per entry of e1 or e2, and
    # takes [h1, h2] = 0.  On every desk record that gives the checks of
    # the six sparse commutators, which every pair ran before and which the
    # dense oracle pins (to dimV 8 above, and on the mutants below).  The
    # dense oracle itself takes about 2.6 ms a record at dimV 12, some 34 s
    # over all 12,899 records.
    for rec in desk_records:
        scaled = rec.realization._scaled()
        assert _diagonal_weights(scaled[2], scaled[3]) is not None, rec.graph
        assert _bracket_checks(scaled) == _commutator_checks(scaled), (rec.series, rec.graph, rec.sign)


def test_diagonal_relations_match_dense_oracle_on_mutations_that_keep_h_diagonal():
    # Three mutations that leave h1 and h2 as they are, so the weight path
    # reads them, on every distinguished realization with dimV <= 6: an e1
    # entry moved to a column of the wrong h1 weight difference, an e2
    # entry moved to a column on another h1 level, and an e1 entry on a
    # unit square of the graph doubled, so that e1 and e2 no longer
    # commute.  Each mutant fails its own check, and its whole report is
    # the dense oracle's.
    counts = dict.fromkeys(("h1_e1_grading", "h1_e2_grading", "e1_e2_commute"), 0)
    for r in distinguished_realizations(6):
        n = r.spec.dimv
        p = [r.h1[i][i] for i in range(n)]
        mutants = []
        for i, j in ((i, j) for i in range(n) for j in range(n) if r.e1[i][j]):
            wrong = next((k for k in range(n) if p[i] - p[k] != 1), None)
            if wrong is not None:
                moved = _with_entry(_with_entry(r.e1, i, j, F(0)), i, wrong, r.e1[i][j])
                mutants.append(("h1_e1_grading", "e1", moved))
            # e2 enters node i or leaves node j: the arrow lies on a unit square.
            if any(r.e2[k][i] for k in range(n)) or any(r.e2[j]):
                mutants.append(("e1_e2_commute", "e1", _with_entry(r.e1, i, j, 2 * r.e1[i][j])))
        for i, j in ((i, j) for i in range(n) for j in range(n) if r.e2[i][j]):
            across = next((k for k in range(n) if p[k] != p[j]), None)
            if across is not None:
                moved = _with_entry(_with_entry(r.e2, i, j, F(0)), i, across, r.e2[i][j])
                mutants.append(("h1_e2_grading", "e2", moved))
        for check, name, m in mutants:
            mutant = replace(r, **{name: m})
            scaled = mutant._scaled()
            assert _diagonal_weights(scaled[2], scaled[3]) is not None
            rep = verify_relations(mutant)
            assert check in rep.failures, (r.graph, check)
            assert rep == _dense_relations(mutant), (r.graph, check)
            counts[check] += 1
    assert min(counts.values()) > 50, counts


def test_realization_json_checks_sparse_shape_before_filling():
    # A small document that declares a large sparse shape is refused before
    # shape x shape entries are allocated.
    import tracemalloc

    r = build_pair("C", rect_graph(3, 2))
    data = realization_to_jsonable(r, "sparse")
    data["gram"] = {"shape": 2000, "entries": []}
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="gram"):
            realization_from_jsonable(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_realization_json_counts_labels_before_filling():
    # The label count is checked before any dimv x dimv matrix is filled;
    # filling the Gram matrix first reached a 64 MB peak.
    import tracemalloc

    data = large_dimv_document()
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="4 labels for dimv 2000"):
            realization_from_jsonable(data)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ---------------------------------------------------------------------------
# The sparse forms carried by a realization
# ---------------------------------------------------------------------------

def test_built_sparse_forms_are_the_dense_fields_scanned():
    # build_pair makes integral_rows straight from the cells, scale included:
    # h1 and h2 hold the node coordinates, half-integral in series B, C, D.
    half = 0
    for r in distinguished_realizations(7):
        assert r._scaled() == tuple(integral_rows(m) for m in (r.e1, r.e2, r.h1, r.h2)), r.graph
        scanned = None if r.spec.form is None else integral_rows(r.spec.form)
        assert r.spec.gram == (scanned and (scanned[0], tuple(scanned[1]))), r.graph
        h1 = tuple(tuple(lb.node.x if i == j else F(0) for j in range(len(r.labels))) for i, lb in enumerate(r.labels))
        if r.orbit_sign == "minus":
            i, j = (r.labels.index(BasisLabel(0, Node(v, v))) for v in (F(1, 2), F(-1, 2)))
            h1 = conjugate_by_swap(h1, i, j)
        assert r.h1 == h1, r.graph
        half += any(x.denominator == 2 for row in h1 for x in row)
    assert half > 30


def test_specs_are_hashable_and_equal_by_value():
    # A spec stores its Gram matrix once, as int rows held in tuples, so it
    # hashes, and specs of one form are equal with one hash however made:
    # from the standard rows, from a dense form, built or read from JSON.
    standard, dense = make_spec("D", 6), make_spec("D", 6, make_spec("D", 6).form)
    assert standard == dense and hash(standard) == hash(dense)
    count = 0
    for g in enumerate_admissible("D", 8, "distinguished"):
        if g.is_connected():
            r = build_pair("D", g, "minus")
            specs = [realization_from_jsonable(realization_to_jsonable(r, fmt)).spec for fmt in ("dense", "sparse")]
            specs.append(make_spec("D", 8, r.spec.form))
            assert all(s == r.spec and hash(s) == hash(r.spec) for s in specs), g
            count += 1
    assert count == 6


def test_replace_never_carries_a_stale_sparse_form():
    # dataclasses.replace gives a pair whose relations are checked on its own
    # matrices, after the sparse forms of the original were in use.
    count = 0
    for r in distinguished_realizations(6):
        if is_zero_matrix(r.e1):
            continue
        assert verify_relations(r).ok
        doubled = replace(r, h1=mat_scale(2, r.h1))
        assert verify_relations(doubled).failures == ("h1_e1_grading",), r.graph
        twice = replace(r, e2=r.e1)
        assert verify_relations(twice).failures == ("h1_e2_grading", "h2_e2_grading"), r.graph
        with pytest.raises(ValueError, match="relations fail"):
            analyze(twice)
        count += 1
    assert count > 100


def test_sparse_document_stays_sparse():
    # A sparse document is read and checked without any dense matrix: at
    # dimV 301 one dense matrix alone takes about 1.5 MB.
    import tracemalloc

    r = build_pair("B", rect_graph(301, 1))
    data = realization_to_jsonable(r, "sparse")
    tracemalloc.start()
    try:
        back = realization_from_jsonable(data)
        assert verify_relations(back).ok
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert back == r and realization_to_jsonable(back, "dense") == realization_to_jsonable(r, "dense")


def test_relation_check_runs_once_on_the_desk_path(monkeypatch):
    # build_pair, verify_relations, analyze: analyze reads the report that
    # verify_relations kept on the realization.  dataclasses.replace gives
    # an instance without it, whose relations are checked afresh.
    import skewpairs.liealg as liealg_module

    calls = []
    checks = liealg_module._bracket_checks

    def counting(scaled):
        calls.append(1)
        return checks(scaled)

    monkeypatch.setattr(liealg_module, "_bracket_checks", counting)
    count = 0
    for r in distinguished_realizations(6):
        del calls[:]
        assert verify_relations(r).ok
        analyze(r)
        assert verify_relations(r) is verify_relations(r)
        assert len(calls) == 1, r.graph
        if is_zero_matrix(r.h1):
            continue
        broken = replace(r, e1=r.h1)
        assert "h1_e1_grading" in verify_relations(broken).failures, r.graph
        assert len(calls) == 2
        with pytest.raises(ValueError, match="relations fail"):
            analyze(broken)
        assert len(calls) == 2
        count += 1
    assert count > 100


@pytest.mark.parametrize("series, form, kind", [("B", [[0, 0, 1], [0, 1, 0], [2, 0, 0]], "symmetric"),
                                                ("C", [[1, -1], [1, 0]], "alternating")])
def test_gram_matrix_of_the_wrong_symmetry_is_refused(series, form, kind):
    # A Gram matrix that is not symmetric (B, D) or alternating (C) is
    # refused where a document is read, and by analyze for a realization
    # made in code: the zero pair satisfies every relation under any
    # nondegenerate form, so only this check stops it.
    message = f"the gram matrix of a series {series} realization must be {kind}"
    dimv = len(form)
    graph = enumerate_admissible(series, dimv, "distinguished")[0]
    data = realization_to_jsonable(build_pair(series, graph), "sparse")
    data["gram"] = {"shape": dimv, "entries": [[i, j, str(x)] for i, row in enumerate(form) for j, x in enumerate(row) if x]}
    with pytest.raises(ValueError, match=message):
        realization_from_jsonable(data)
    zero = matrix([[0] * dimv] * dimv)
    r = PairRealization(make_spec(series, dimv, matrix(form)), graph, (), zero, zero, zero, zero)
    assert verify_relations(r).ok
    with pytest.raises(ValueError, match=message):
        analyze(r)
    with pytest.raises(ValueError, match=message):
        is_rectangular_pair(r)


@given(st.integers(), st.integers(min_value=1))
def test_ratio_text_is_the_text_of_the_fraction(x, c):
    assert _ratio_text(x, c) == str(Fraction(x, c))


# Keys and strings with non-ASCII and control characters and lone surrogates.
_json_strings = st.text(st.characters(codec=None, exclude_categories=()))
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | _json_strings,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_json_strings, inner),
)


@settings(max_examples=150, deadline=None)
@given(_json_values)
def test_json_text_is_json_dumps_with_indent_2(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [
        pytest.param([[], {}, [[]], {"": {}}], id="empty-lists-and-dicts"),
        pytest.param([True, 1, False, 0, None, -1, -(10**40)], id="bools-beside-ints"),
        # Values the walk does not write, left to json.dumps.
        pytest.param({"k": 1.5}, id="float"),
        pytest.param([float("nan")], id="nan"),
        pytest.param({"a": [{"b": [0.25]}]}, id="nested-float"),
        pytest.param({1: "x"}, id="int-key"),
        pytest.param({None: True}, id="null-key"),
    ],
)
def test_json_text_matches_json_dumps_on_edge_values(value):
    assert json_text(value) == json.dumps(value, indent=2)


def test_json_text_writes_every_full_matrix_catalog_to_dimv_8():
    dims = {"A": range(1, 9), "B": range(1, 9, 2), "C": range(2, 9, 2), "D": range(2, 9, 2)}
    for series, ds in dims.items():
        for dimv in ds:
            for kind in ("distinguished", "principal"):
                entries = classify(series, dimv, kind)
                doc = {"schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION}
                if entries:
                    doc.update(series=series, dimv=dimv, kind=kind)
                jsonable = [entry_to_jsonable(e, include_matrices=True) for e in entries]
                doc.update(entry_count=len(jsonable), entries=jsonable)
                text = export_entries(entries, "json", include_matrices=True)
                assert text == json.dumps(doc, indent=2) + "\n", (series, dimv, kind)
