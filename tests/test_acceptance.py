"""Acceptance suite: exhaustive desk-scale verification, exact arithmetic.

One test per criterion; each prints a single pass/fail line (run pytest with
-s to see them on success).  Everything is exact equality, no tolerances.
"""

import itertools
import random
from fractions import Fraction

from conftest import (
    divisor_count,
    naive_nullspace,
    odd_part,
    oracle_connected_cellsets,
    partition_counts,
    rectangle_nodes,
)
from oracles import _flatten, centred_runs, commutator, graph_key, matrix, nullspace
from skewpairs.catalog import CatalogVerificationError, _closed_form_matches, classify, count_orbits
from skewpairs.centralizer import analyze, closed_form_centralizer, graph_from_pair
from skewpairs.liealg import build_pair, verify_relations
from skewpairs.skewgraph import (
    SkewGraph,
    classify_component,
    component_from_nodes,
    enumerate_admissible,
    graph_to_text,
)

F = Fraction


def _report(num: int, description: str, failures: list) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"[criterion {num:02d}] {status} {description}")
    assert not failures, f"criterion {num}: {len(failures)} failures, first: {failures[0]}"


def _rec_id(rec) -> str:
    sign = f" sign={rec.sign}" if rec.sign else ""
    return f"{rec.series} dimV={rec.dimv}{sign} graph={graph_to_text(rec.graph)!r}"


def test_criterion_01_relations(desk_records):
    failures = [
        f"{_rec_id(rec)}: {rec.relations.failures}"
        for rec in desk_records
        if not rec.relations.ok
    ]
    _report(1, f"relations hold for all {len(desk_records)} realizations with dimV <= 12", failures)


def test_criterion_02_distinguished(desk_records):
    failures = []
    for rec in desk_records:
        if rec.report is None or not rec.report.flags.cartan_h:
            failures.append(f"{_rec_id(rec)}: cartan_h false")
        elif not rec.report.flags.trivial_intersection:
            failures.append(f"{_rec_id(rec)}: z(h) meets z(e)")
    _report(2, "z(h) is a Cartan subalgebra meeting z(e) trivially on every realization", failures)


def test_criterion_03_principal_equivalence(desk_records, principal_keys):
    # Every desk record, DESK_DIMS in all four series.
    failures = []
    for rec in desk_records:
        if rec.series == "A":
            expected = classify_component(rec.graph.components[0]).young != "neither"
        else:
            expected = graph_key(rec.graph) in principal_keys[(rec.series, rec.dimv)]
        if rec.report.flags.principal != expected:
            failures.append(f"{_rec_id(rec)}: principal={rec.report.flags.principal}, expected {expected}")
    _report(3, "principality matches the combinatorial class in all four series", failures)


def test_criterion_04_centralizer_dimensions(desk_records):
    failures = []
    pinned = {
        ("A", 4, graph_key(SkewGraph((component_from_nodes(rectangle_nodes(2, 2)),)))): 3,
        ("B", 9, graph_key(SkewGraph((component_from_nodes(rectangle_nodes(3, 3)),)))): 4,
    }
    seen_pinned = set()
    chains_33_seen = near_rect_6_seen = False
    for rec in desk_records:
        if not rec.report.flags.principal:
            continue
        if rec.report.dimension != rec.realization.spec.rank:
            failures.append(f"{_rec_id(rec)}: dim z = {rec.report.dimension} != rank")
        key = (rec.series, rec.dimv, graph_key(rec.graph))
        if key in pinned:
            seen_pinned.add(key)
            if rec.report.dimension != pinned[key]:
                failures.append(f"{_rec_id(rec)}: pinned dimension mismatch")
        if rec.series == "D" and rec.dimv == 6:
            shapes = [classify_component(c) for c in rec.graph.components]
            if len(shapes) == 1 and shapes[0].near_rectangular_shape:
                near_rect_6_seen = True
                if rec.report.dimension != 3:
                    failures.append(f"{_rec_id(rec)}: near-rectangular dim != 3")
            if len(shapes) == 2 and all(len(c) == 3 for c in rec.graph.components):
                chains_33_seen = True
                if rec.report.dimension != 3:
                    failures.append(f"{_rec_id(rec)}: 3+3 chains dim != 3")
    if len(seen_pinned) != len(pinned) or not chains_33_seen or not near_rect_6_seen:
        failures.append("a pinned example was not visited")
    _report(4, "dim z(e) = rk g for every principal entry incl. pinned sl4/so9/so6 cases", failures)


# The principal catalogs beyond the desk range: 763 entries (756 graphs).
WIDE_PRINCIPAL = (("A", (11, 12, 13, 14)), ("B", (11, 13)), ("C", (12, 14)), ("D", (12, 14)))


def test_criterion_05_closed_form_match(desk_records):
    failures = []
    checked = 0
    for rec in desk_records:
        if not rec.report.flags.principal:
            continue
        checked += 1
        pred = closed_form_centralizer(rec.series, rec.graph)
        if not _closed_form_matches(pred, rec.realization, rec.report):
            failures.append(_rec_id(rec))
    # classify checks every principal entry against its closed form.
    wide = 0
    for series, dims in WIDE_PRINCIPAL:
        for dimv in dims:
            try:
                entries = classify(series, dimv, "principal", max_nodes=14)
            except CatalogVerificationError as exc:
                failures.append(f"{series} dimV={dimv}: {exc}")
                continue
            wide += len(entries)
            failures.extend(f"{series} dimV={dimv} {e.orbit_label}" for e in entries if e.closed_form_match is not True)
    if wide != 763:
        failures.append(f"{wide} principal entries with dimV 11-14, expected 763")
    _report(
        5,
        f"closed-form centralizer descriptions match on all {checked} principal entries with dimV <= 12"
        f" and {wide} with dimV 11-14",
        failures,
    )


def test_criterion_06_biexponent_positivity(desk_records):
    failures = []
    for rec in desk_records:
        if not rec.report.flags.principal:
            continue
        for (p, q), dim in rec.report.grading.table:
            if p.denominator != 1 or q.denominator != 1 or p < 0 or q < 0 or (p, q) == (0, 0):
                failures.append(f"{_rec_id(rec)}: bad bi-exponent ({p},{q})")
    _report(6, "principal bi-exponents are integral, nonnegative and never (0,0)", failures)


def test_criterion_07_rectangularity(desk_records):
    failures = []
    for rec in desk_records:
        all_rect = all(
            classify_component(c).rectangle is not None for c in rec.graph.components
        )
        if rec.report.flags.rectangular != all_rect:
            failures.append(f"{_rec_id(rec)}: rectangular={rec.report.flags.rectangular}")
        if rec.series in ("B", "C") and rec.report.flags.principal and not rec.report.flags.rectangular:
            failures.append(f"{_rec_id(rec)}: B/C principal must be rectangular")
        if (
            rec.series == "D"
            and len(rec.graph.components) == 1
            and classify_component(rec.graph.components[0]).near_rectangular_shape
            and rec.report.flags.rectangular
        ):
            failures.append(f"{_rec_id(rec)}: near-rectangular pair claims rectangular")
    _report(7, "pair rectangularity equals all-components-rectangular on every entry", failures)


def test_rectangularity_is_read_off_the_runs_of_the_graph(desk_records):
    # The graph fixes the answer: h_i lies in [e_i, g] exactly when every
    # maximal horizontal (e1) or vertical (e2) run of nodes in a component
    # is centred.  centred_runs sees only the graph, never the matrices.
    failures = [_rec_id(rec) for rec in desk_records if rec.report.flags.rectangular != centred_runs(rec.graph)]
    rectangular = sum(rec.report.flags.rectangular for rec in desk_records)
    assert 0 < rectangular < len(desk_records) == 12899
    assert not failures, f"{len(failures)} records, first: {failures[0]}"


def test_criterion_08_counting_oracles():
    failures = []

    def young_count(cells_set):
        count = 0
        for cells in cells_set:
            sources = sum(
                1 for (x, y) in cells if (x - 1, y) not in cells and (x, y - 1) not in cells
            )
            sinks = sum(
                1 for (x, y) in cells if (x + 1, y) not in cells and (x, y + 1) not in cells
            )
            if sources == 1 or sinks == 1:
                count += 1
        return count

    oracle_a4p = young_count(oracle_connected_cellsets(4))
    oracle_a3d = len(oracle_connected_cellsets(3))
    oracle_b9p = sum(1 for w in range(1, 10) if 9 % w == 0 and w % 2 and (9 // w) % 2)
    oracle_c4p = sum(1 for w in range(1, 5) if 4 % w == 0 and (w % 2) != ((4 // w) % 2))
    for series, dimv, kind, oracle in [
        ("A", 4, "principal", oracle_a4p),
        ("B", 9, "principal", oracle_b9p),
        ("C", 4, "principal", oracle_c4p),
        ("A", 3, "distinguished", oracle_a3d),
    ]:
        got = count_orbits(series, dimv, kind)
        if got != oracle:
            failures.append(f"({series},{dimv},{kind}): count {got} != oracle {oracle}")
    # The whole principal range to dimV 14 against closed formulas: A has
    # 2 p(n) - d(n) orbits, B (odd n) d(n), C (even n) 2 d(odd part of n).
    p = partition_counts(14)
    for n in range(1, 15):
        closed = {"A": 2 * p[n] - divisor_count(n)}
        closed["B" if n % 2 else "C"] = divisor_count(n) if n % 2 else 2 * divisor_count(odd_part(n))
        for series, oracle in closed.items():
            got = count_orbits(series, n, "principal", max_nodes=14)
            if got != oracle:
                failures.append(f"({series},{n},principal): count {got} != closed formula {oracle}")
    if (oracle_a4p, oracle_b9p, oracle_c4p, oracle_a3d) != (7, 3, 2, 4):
        failures.append("oracle values drifted from the frozen expectations")
    _report(8, "orbit counts match the enumeration oracles and the closed principal counts to dimV 14", failures)


def test_criterion_09_round_trip(desk_records):
    failures = []
    checked = 0
    for rec in desk_records:
        checked += 1
        r = rec.realization
        back = graph_from_pair(r.spec, r.e1, r.e2, r.h1, r.h2)
        if graph_key(back) != graph_key(rec.graph):
            failures.append(_rec_id(rec))
    _report(9, f"graph_from_pair(build_pair(G)) = G for all {checked} desk cases (dimV <= 12)", failures)


def test_criterion_10_solver_oracle():
    rng = random.Random(20240829)
    failures = []
    for trial in range(200):
        n = rng.choice((2, 3))
        count = rng.choice((1, 2))
        elements = [
            matrix(
                [[F(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)] for _ in range(n)]
            )
            for _ in range(count)
        ]
        basis = []
        for i in range(n):
            for j in range(n):
                rows = [[F(0)] * n for _ in range(n)]
                rows[i][j] = F(1)
                basis.append(matrix(rows))
        rows = []
        for m in elements:
            comms = [commutator(b, m) for b in basis]
            for i in range(n):
                for j in range(n):
                    rows.append([c[i][j] for c in comms])
        ours = nullspace(rows, len(basis))
        ref = naive_nullspace(rows, len(basis))
        if ours != ref:
            failures.append(f"trial {trial}: solver disagreement")
    _report(10, "echelon nullspace agrees with naive elimination on 200 commutator systems", failures)


def test_criterion_11_streamed_b13_c14_d14():
    """Criteria 1 and 2 on every distinguished realization of B13, C14 and
    D14 (both sign representatives of a connected series-D graph), each
    checked as it is built and then dropped, so no record is held."""
    failures = []
    checked = 0
    for series, dimv in (("B", 13), ("C", 14), ("D", 14)):
        for graph in enumerate_admissible(series, dimv, "distinguished", max_nodes=14):
            for sign in ("plus", "minus") if series == "D" and graph.is_connected() else (None,):
                checked += 1
                r = build_pair(series, graph, sign)
                relations = verify_relations(r)
                case = f"{series} dimV={dimv} sign={sign} graph={graph_to_text(graph)!r}"
                if not relations.ok:
                    failures.append(f"{case}: {relations.failures}")
                    continue
                flags = analyze(r).flags
                if not (flags.cartan_h and flags.trivial_intersection):
                    failures.append(f"{case}: not distinguished")
    if checked != 232 + 612 + 447:
        failures.append(f"{checked} realizations, not 1,291")
    _report(11, f"relations hold and the pair is distinguished on all {checked} B13, C14, D14 realizations", failures)
