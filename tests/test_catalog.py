"""Catalog assembly, counting, determinism, export formats, JSON schema."""

import csv
import hashlib
import io
import json
import re
import weakref
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from oracles import catalog_table, closed_form_in_span, dense_basis, graph_key, mat_mul, mat_pow, mat_scale
from skewpairs import catalog, centralizer, liealg, linalg, skewgraph
from skewpairs.catalog import (
    CSV_COLUMNS,
    _in_span,
    _predicted_in_span,
    classify,
    classify_chunks,
    count_orbits,
    entry_to_jsonable,
    export_catalog_document,
    export_entries,
)
from skewpairs.centralizer import AOperator, closed_form_centralizer
from skewpairs.linalg import integral_rows
from skewpairs.skewgraph import (
    KINDS,
    canonical_form,
    classify_component,
    enumerate_admissible,
    graph_to_text,
)

F = Fraction

SCHEMA = json.loads((Path(__file__).resolve().parent.parent / "catalog.schema.json").read_text())


def graph_hash(graph) -> str:
    """The orbit label that the README states: the first 12 hex digits of
    the sha256 of the graph's canonical text."""
    return hashlib.sha256(graph_to_text(canonical_form(graph)).encode("ascii")).hexdigest()[:12]


def test_counts_match_examples():
    assert count_orbits("A", 4, "principal") == 7
    assert count_orbits("B", 9, "principal") == 3
    assert count_orbits("C", 4, "principal") == 2
    assert count_orbits("A", 3, "distinguished") == 4


def test_fast_and_full_counts_agree():
    for series, dimv, kind in [
        ("A", 4, "principal"),
        ("A", 3, "distinguished"),
        ("B", 5, "distinguished"),
        ("C", 4, "distinguished"),
        ("D", 6, "principal"),
        ("D", 6, "distinguished"),
    ]:
        assert count_orbits(series, dimv, kind) == count_orbits(series, dimv, kind, mode="full")


# Every (series, dimV <= 8, kind) that has a catalog.
REQUESTS = [
    (series, dimv, kind)
    for series, first, step in (("A", 1, 1), ("B", 1, 2), ("C", 2, 2), ("D", 2, 2))
    for dimv in range(first, 9, step)
    for kind in KINDS
]


def _oracle_csv(entries) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for e in entries:
        flags = e.report.flags
        writer.writerow([
            e.spec.series, e.spec.dimv, e.kind, e.orbit_label, e.orbit_sign or "", len(e.graph.components),
            e.report.dimension, flags.cartan_h, flags.trivial_intersection, flags.distinguished,
            flags.principal, flags.rectangular, ";".join(f"({p},{q})" for p, q in e.report.biexponents),
            "" if e.closed_form_match is None else e.closed_form_match,
        ])
    return buf.getvalue()


def test_catalog_chunks_equal_independent_oracles(monkeypatch):
    # Each catalog streamed entry by entry from classify_chunks (json with
    # matrices), and its entries joined by export_entries in every format,
    # equal json.dumps of the whole document, a csv.writer rendering and
    # the table built whole with the oracle's diagrams.  The command line
    # streams every format (test_cli).
    made, kept = catalog._classified, []

    def keeping(*args):
        for entry in made(*args):
            kept.append(entry)
            yield entry

    monkeypatch.setattr(catalog, "_classified", keeping)
    for series, dimv, kind in REQUESTS:
        kept.clear()
        streamed = "".join(classify_chunks(series, dimv, kind, "json", include_matrices=True))
        entries = tuple(kept)
        request = (series, dimv, kind)
        header = {"schema": "skewpairs-catalog", "schema_version": 1, "series": series, "dimv": dimv, "kind": kind}
        full = [entry_to_jsonable(e, include_matrices=True) for e in entries]
        expected = {
            ("json", True): json.dumps({**header, "entry_count": len(full), "entries": full}, indent=2) + "\n",
            ("json", False): json.dumps({**header, "entry_count": len(full), "entries": [
                {k: v for k, v in data.items() if k != "matrices"} for data in full
            ]}, indent=2) + "\n",
            ("csv", False): _oracle_csv(entries),
            ("table", False): catalog_table(series, dimv, entries),
        }
        assert streamed == expected["json", True], request
        for (fmt, include_matrices), text in expected.items():
            joined = export_entries(entries, fmt, include_matrices=include_matrices, request=request)
            assert joined == text, (request, fmt, include_matrices)


def test_the_writer_and_the_full_count_hold_one_entry_at_a_time(monkeypatch):
    made = catalog._classified
    refs, alive = [], []

    def tracked(*args):
        for entry in made(*args):
            # The entries made before this one that are still reachable.
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(entry))
            yield entry

    monkeypatch.setattr(catalog, "_classified", tracked)
    for fmt in ("json", "csv", "table"):
        refs.clear()
        # When each chunk is handed out, only the entry it was written from lives.
        held = [sum(ref() is not None for ref in refs) for _ in classify_chunks("A", 6, "distinguished", fmt)]
        assert len(refs) == 46 and max(held) == 1, fmt
    refs.clear()
    alive.clear()
    assert count_orbits("A", 6, "distinguished", mode="full") == 46
    assert max(alive) == 1
    # classify keeps them all, which is what the two above do not do.
    refs.clear()
    alive.clear()
    assert len(classify("A", 6, "distinguished")) == 46 and alive[-1] == 45


def test_d6_principal_catalog_contents():
    entries = classify("D", 6, "principal")
    assert len(entries) == 7
    near = [
        e
        for e in entries
        if len(e.graph.components) == 1
        and classify_component(e.graph.components[0]).near_rectangular_shape
    ]
    assert len(near) == 4  # two graphs, two sign representatives each
    assert {e.orbit_label[-1] for e in near} == {"+", "-"}
    for e in near:
        assert e.report.dimension == 3
        assert not e.report.flags.rectangular
    disconnected = [e for e in entries if len(e.graph.components) == 2]
    assert len(disconnected) == 3  # 5-chain+point (x2 orientations) and 3+3 chains
    for e in disconnected:
        assert e.orbit_sign is None
        assert e.report.flags.rectangular


def test_connected_d_entries_come_in_sign_pairs():
    entries = classify("D", 4, "distinguished")
    by_graph = {}
    for e in entries:
        by_graph.setdefault(graph_key(e.graph), []).append(e)
    for key, group in by_graph.items():
        if len(group[0].graph.components) == 1:
            assert sorted(e.orbit_label[-1] for e in group) == ["+", "-"]
            assert len({e.orbit_label for e in group}) == 2
        else:
            assert len(group) == 1


def test_principal_entries_are_distinguished_subset():
    dist = {graph_key(e.graph) for e in classify("C", 6, "distinguished")}
    prin = {graph_key(e.graph) for e in classify("C", 6, "principal")}
    assert prin <= dist
    # with sign labels matched for series D
    dist_d = {e.orbit_label for e in classify("D", 6, "distinguished")}
    prin_d = {e.orbit_label for e in classify("D", 6, "principal")}
    assert prin_d <= dist_d


def test_classify_deterministic():
    a = export_entries(classify("D", 6, "principal"), "json")
    b = export_entries(classify("D", 6, "principal"), "json")
    assert a == b


def test_graph_hash_stable_across_translation():
    from skewpairs.skewgraph import SkewGraph, component_from_nodes

    g = enumerate_admissible("A", 4, "principal")[0]
    shifted = SkewGraph(
        (component_from_nodes(nd.shifted(2, -1) for nd in g.components[0].nodes),)
    )
    assert graph_hash(shifted) == graph_hash(g)
    assert classify("A", 4, "principal")[0].orbit_label == graph_hash(shifted)


def test_export_empty_document():
    doc = json.loads(export_entries((), "json"))
    assert doc["entry_count"] == 0
    assert doc["entries"] == []
    jsonschema.validate(doc, SCHEMA)
    csv_text = export_entries((), "csv")
    assert csv_text.splitlines()[0] == ",".join(CSV_COLUMNS)
    assert len(csv_text.splitlines()) == 1


def test_export_a4_principal_csv():
    entries = classify("A", 4, "principal")
    lines = export_entries(entries, "csv").splitlines()
    assert len(lines) == 8
    for line in lines[1:]:
        fields = line.split(",", 7)
        assert fields[6] == "3"  # centralizer dimension = rank sl4


def test_export_json_schema_and_matrices():
    entries = classify("D", 6, "principal")
    doc = json.loads(export_entries(entries, "json"))
    jsonschema.validate(doc, SCHEMA)
    assert doc["entry_count"] == 7
    doc_full = json.loads(export_entries(entries, "json", include_matrices=True))
    jsonschema.validate(doc_full, SCHEMA)
    assert all("matrices" in e for e in doc_full["entries"])
    near_rows = [
        e for e in doc_full["entries"] if not e["report"]["flags"]["rectangular"]
    ]
    assert near_rows and all(e["orbit_sign"] in ("plus", "minus") for e in near_rows)


def test_schema_and_export_refuse_a_zero_denominator():
    # The schema's rational and the pattern export checks read the same strings.
    pattern = re.compile(SCHEMA["definitions"]["rational"]["pattern"])
    accepted = ("0", "-7", "1/2", "-3/-20", "10/01", "4/100")
    for text in (*accepted, "1/0", "1/-0", "-1/-00", "5/000", "1/", "/2", "1/2/3", "1 ", "x"):
        assert bool(pattern.search(text)) == bool(catalog._RATIONAL.fullmatch(text)) == (text in accepted), text
    doc = json.loads(export_entries(classify("A", 2, "principal"), "json"))
    jsonschema.validate(doc, SCHEMA)
    report, nodes = doc["entries"][0]["report"], doc["entries"][0]["graph"]["components"][0]
    for place, key, value in ((report["biexponents"], 0, ["1/0", "0"]), (report["grading"][0], "p", "1/0"),
                              (nodes, 0, ["0", "1/0"])):
        kept, place[key] = place[key], value
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(doc, SCHEMA)
        place[key] = kept


def test_export_table_contains_diagrams():
    entries = classify("B", 5, "principal")
    table = export_entries(entries, "text-table")
    assert "| #" in table or "| a" in table


def test_export_catalog_document_round_trip():
    entries = classify("C", 4, "principal")
    doc = json.loads(export_entries(entries, "json"))
    assert export_catalog_document(doc, "csv") == export_entries(entries, "csv")
    assert export_catalog_document(doc, "table") == export_entries(entries, "text-table")


def test_every_entry_flag_consistency():
    for series, dimv, kind in [("B", 5, "distinguished"), ("D", 6, "principal")]:
        for e in classify(series, dimv, kind):
            assert e.report.flags.distinguished
            if kind == "principal":
                assert e.report.flags.principal
                assert e.closed_form_match is True
                assert len(e.report.biexponents) == e.spec.rank


def test_classify_validates_each_graph_once(monkeypatch):
    calls = []

    def counted(series, graph, kind, keyed):
        calls.append(graph)
        return skewgraph._admissible_shapes(series, graph, kind, keyed)

    for module in (catalog, liealg, centralizer):
        monkeypatch.setattr(module, "_admissible_shapes", counted)
    for series, dimv, kind in [("D", 6, "principal"), ("D", 6, "distinguished"), ("A", 5, "principal")]:
        calls.clear()
        entries = classify(series, dimv, kind)
        graphs = enumerate_admissible(series, dimv, kind)
        assert calls == list(graphs)
        assert [e.orbit_label for e in entries] == [
            graph_hash(g) + sign for g in graphs for sign in (("+", "-") if series == "D" and g.is_connected() else ("",))
        ]


def test_built_matrices_are_never_rescanned(monkeypatch):
    # The desk path (build_pair, verify_relations, analyze over the bench's
    # distinguished graphs) and the six bench catalog cases, classified and
    # exported with their matrices, read the sparse forms they were built
    # with: integral_rows, the scan of a dense matrix, is never called.
    calls = []

    def counted(m):
        calls.append(m)
        return linalg.integral_rows(m)

    for module in (catalog, centralizer, liealg, linalg):
        monkeypatch.setattr(module, "integral_rows", counted, raising=False)
    realizations = 0
    for series, top in (("A", 7), ("B", 7), ("C", 8), ("D", 8)):
        for dimv in range(1 if series in "AB" else 2, top + 1, 1 if series == "A" else 2):
            for g in enumerate_admissible(series, dimv, "distinguished"):
                for sign in ("plus", "minus") if series == "D" and g.is_connected() else (None,):
                    r = liealg.build_pair(series, g, sign)
                    assert liealg.verify_relations(r).ok and centralizer.analyze(r).flags.distinguished
                    realizations += 1
    for case in ("A:7:principal", "A:8:principal", "D:10:principal", "D:12:principal", "B:7:distinguished",
                 "D:8:distinguished"):
        series, dimv, kind = case.split(":")
        export_entries(classify(series, int(dimv), kind), "json", include_matrices=True)
    assert realizations == 305 and calls == []


def test_in_span_reduces_every_position_it_reaches():
    # Rows (1, 1, 0, 0) and (0, 0, 2, 1), keyed by leading position.
    rows = {0: (1, [(1, 1)]), 2: (2, [(3, 1)])}
    assert _in_span(rows, {0: 3, 1: 3, 2: 4, 3: 2})
    assert _in_span(rows, {2: F(1, 2), 3: F(1, 4)})
    assert not _in_span(rows, {0: 1})  # the remainder lies where v was 0
    assert not _in_span(rows, {1: 1})
    assert not _in_span(rows, {2: 2, 3: 2})
    assert _in_span(rows, {})


def _wrong_parity_power(r):
    """The least (k, l) != (0, 0) with k + l even and e1^k e2^l != 0, or None."""
    n = r.spec.dimv
    for total in range(2, 2 * n, 2):
        for k in range(total + 1):
            if any(any(row) for row in mat_mul(mat_pow(r.e1, k), mat_pow(r.e2, total - k))):
                return k, total - k
    return None


def _sign_flipped(a: AOperator) -> AOperator:
    (src, dst, coeff), *rest = a.actions
    return replace(a, actions=((src, dst, -coeff), *rest))


def _sparse(basis) -> list:
    """The integral_rows of each matrix, the form _predicted_in_span reads."""
    return [integral_rows(m) for m in basis]


def test_sparse_closed_form_check_matches_dense_oracle(desk_records):
    """On every principal realization with dimV <= 12 the sparse membership
    check agrees with the dense one (mat_mul powers, in_span), on the
    prediction and on four mutations that each must fail.  The sparse check
    takes any echelon basis, so it also holds with the basis matrices scaled
    to leads other than 1."""
    principal = [rec for rec in desk_records if rec.report.flags.principal]
    mutated = {"identity": 0, "parity": 0, "a-sign": 0, "dropped": 0}
    parity_series = set()
    for rec in principal:
        r, basis = rec.realization, dense_basis(rec.report)
        pred = closed_form_centralizer(rec.series, rec.graph)
        where = (rec.series, rec.dimv, rec.sign, rec.graph)
        assert _predicted_in_span(pred, r, _sparse(basis)) is closed_form_in_span(pred, r, basis) is True, where
        scaled = [mat_scale(F(-2, 3) if i % 2 else F(3, 2), m) for i, m in enumerate(basis)]
        assert _predicted_in_span(pred, r, _sparse(scaled)), where
        if scaled:
            assert not _predicted_in_span(pred, r, _sparse(scaled[1:])), where
        cases = [("identity", replace(pred, powers=pred.powers | {(0, 0)}), basis)]
        wrong = _wrong_parity_power(r) if rec.series != "A" else None
        if wrong is not None:
            cases.append(("parity", replace(pred, powers=pred.powers | {wrong}), basis))
            parity_series.add(rec.series)
        if pred.a_operator is not None:
            cases.append(("a-sign", replace(pred, a_operator=_sign_flipped(pred.a_operator)), basis))
        cases.extend(("dropped", pred, basis[:i] + basis[i + 1:]) for i in range(len(basis)))
        for name, p, b in cases:
            mutated[name] += 1
            assert _predicted_in_span(p, r, _sparse(b)) is closed_form_in_span(p, r, b) is False, (name, where)
    assert len(principal) > 100
    assert min(mutated.values()) > 10, mutated
    assert parity_series == {"B", "C", "D"}
