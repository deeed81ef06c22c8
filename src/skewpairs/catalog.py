"""Classification catalogs: assemble, verify, count and export.

classify() walks the admissible graphs for one (series, dimV, kind), builds
both sign representatives for connected even-orthogonal graphs, verifies the
defining relations and the kind's flag for every entry, and cross-checks
principal entries against the closed-form centralizer description.  Output
order is canonical, so two runs serialize identically.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass
from typing import Optional, Sequence

from .centralizer import (
    CentralizerReport,
    _flatten,
    a_operator_matrix,
    analyze,
    closed_form_centralizer,
    report_to_jsonable,
)
from .liealg import (
    AlgebraSpec,
    PairRealization,
    build_pair,
    matrix_to_jsonable,
)
from .linalg import identity, in_span, mat_mul
from .skewgraph import (
    SkewGraph,
    _admissible_cells,
    canonical_form,
    enumerate_admissible,
    graph_to_jsonable,
    graph_to_text,
    render_ascii,
    DEFAULT_MAX_NODES,
)

SCHEMA_NAME = "skewpairs-catalog"
SCHEMA_VERSION = 1

CSV_COLUMNS = (
    "series",
    "dimv",
    "kind",
    "orbit_label",
    "orbit_sign",
    "components",
    "dimension",
    "cartan_h",
    "trivial_intersection",
    "distinguished",
    "principal",
    "rectangular",
    "biexponents",
    "closed_form_match",
)


class CatalogVerificationError(RuntimeError):
    """Internal verification failed for a graph that should be admissible."""

    def __init__(self, message: str, graph: SkewGraph):
        shown = " | ".join(graph_to_text(graph).splitlines())
        super().__init__(f"{message}; offending graph: {shown}")
        self.graph = graph


@dataclass(frozen=True)
class CatalogEntry:
    spec: AlgebraSpec
    graph: SkewGraph
    orbit_label: str
    kind: str
    orbit_sign: Optional[str]
    report: CentralizerReport
    closed_form_match: Optional[bool]
    realization: PairRealization


def graph_hash(graph: SkewGraph) -> str:
    """Stable 12-hex-digit identifier: sha256 of the canonical text form."""
    text = graph_to_text(canonical_form(graph))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


def _powers(e, top: int) -> list:
    """[e^0, e^1, ..., e^top], each the product of the one before with e."""
    out = [identity(len(e))]
    for _ in range(top):
        out.append(mat_mul(out[-1], e))
    return out


def _closed_form_matches(series: str, r: PairRealization, report: CentralizerReport) -> bool:
    pred = closed_form_centralizer(series, r.graph)
    if pred.rank != report.dimension:
        return False
    if tuple(sorted(pred.biexponents)) != tuple(sorted(report.biexponents)):
        return False
    basis = [_flatten(m) for m in report.basis]  # analyze() returns it in reduced echelon form
    e1_powers = _powers(r.e1, max((k for k, _ in pred.powers), default=0))
    e2_powers = _powers(r.e2, max((l for _, l in pred.powers), default=0))
    for k, l in sorted(pred.powers):
        if not in_span(basis, _flatten(mat_mul(e1_powers[k], e2_powers[l]))):
            return False
    a_mat = a_operator_matrix(pred, r)
    if a_mat is not None and not in_span(basis, _flatten(a_mat)):
        return False
    return True


def classify(
    series: str, dimv: int, kind: str, *, max_nodes: int = DEFAULT_MAX_NODES
) -> tuple[CatalogEntry, ...]:
    """All orbits of the requested kind, one verified entry per orbit."""
    entries = []
    for graph in enumerate_admissible(series, dimv, kind, max_nodes=max_nodes):
        signs: tuple[Optional[str], ...] = (None,)
        if series == "D" and graph.is_connected():
            signs = ("plus", "minus")
        for sign in signs:
            r = build_pair(series, graph, sign)
            try:
                report = analyze(r)
            except ValueError as exc:  # analyze rejects failing relations
                raise CatalogVerificationError(str(exc), graph) from exc
            if not report.flags.distinguished:
                raise CatalogVerificationError("entry is not distinguished", graph)
            if kind == "principal" and not report.flags.principal:
                raise CatalogVerificationError("entry is not principal", graph)
            closed_match = None
            if kind == "principal":
                closed_match = _closed_form_matches(series, r, report)
                if not closed_match:
                    raise CatalogVerificationError(
                        "closed-form centralizer mismatch", graph
                    )
            label = graph_hash(graph)
            if sign == "plus":
                label += "+"
            elif sign == "minus":
                label += "-"
            entries.append(
                CatalogEntry(
                    spec=r.spec,
                    graph=graph,
                    orbit_label=label,
                    kind=kind,
                    orbit_sign=sign,
                    report=report,
                    closed_form_match=closed_match,
                    realization=r,
                )
            )
    return tuple(entries)


def count_orbits(series: str, dimv: int, kind: str, *, mode: str = "fast",
                 max_nodes: int = DEFAULT_MAX_NODES) -> int:
    """Orbit count; "fast" counts the integer graphs and builds no node, "full"
    runs the verified classify."""
    if mode == "full":
        return len(classify(series, dimv, kind, max_nodes=max_nodes))
    if mode != "fast":
        raise ValueError(f"unknown count mode {mode!r}")
    return sum(
        2 if series == "D" and len(graph) == 1 else 1
        for graph in _admissible_cells(series, dimv, kind, max_nodes)
    )


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def entry_to_jsonable(entry: CatalogEntry, include_matrices: bool = False) -> dict:
    data = {
        "orbit_label": entry.orbit_label,
        "orbit_sign": entry.orbit_sign,
        "kind": entry.kind,
        "series": entry.spec.series,
        "dimv": entry.spec.dimv,
        "rank": entry.spec.rank,
        "graph": graph_to_jsonable(entry.graph),
        "report": report_to_jsonable(entry.report),
        "closed_form_match": entry.closed_form_match,
    }
    if include_matrices:
        data["matrices"] = {
            "gram": None
            if entry.spec.form is None
            else matrix_to_jsonable(entry.spec.form, "sparse"),
            "e1": matrix_to_jsonable(entry.realization.e1, "sparse"),
            "e2": matrix_to_jsonable(entry.realization.e2, "sparse"),
            "h1": matrix_to_jsonable(entry.realization.h1, "sparse"),
            "h2": matrix_to_jsonable(entry.realization.h2, "sparse"),
        }
    return data


def _catalog_header(entries: Sequence[CatalogEntry]) -> dict:
    header = {"schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION}
    if entries:
        header["series"] = entries[0].spec.series
        header["dimv"] = entries[0].spec.dimv
        header["kind"] = entries[0].kind
    return header


def _entry_csv_row(data: dict) -> list:
    report = data["report"]
    return [
        data["series"],
        data["dimv"],
        data["kind"],
        data["orbit_label"],
        data["orbit_sign"] or "",
        len(data["graph"]["components"]),
        report["dimension"],
        report["flags"]["cartan_h"],
        report["flags"]["trivial_intersection"],
        report["flags"]["distinguished"],
        report["flags"]["principal"],
        report["flags"]["rectangular"],
        ";".join(f"({p},{q})" for p, q in report["biexponents"]),
        "" if data["closed_form_match"] is None else data["closed_form_match"],
    ]


def _jsonable_entries_to_csv(header: dict, entries: Sequence[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for data in entries:
        writer.writerow(_entry_csv_row(data))
    return buf.getvalue()


def _jsonable_entries_to_table(header: dict, entries: Sequence[dict]) -> str:
    from .skewgraph import graph_from_jsonable

    title = "{} catalog: series {}, dimV {}, {} entries".format(
        header.get("schema", SCHEMA_NAME),
        header.get("series", "?"),
        header.get("dimv", "?"),
        len(entries),
    )
    lines = [title, "=" * len(title)]
    for data in entries:
        report = data["report"]
        flags = report["flags"]
        info = "{:<14} {:<13} dim={:<3} principal={:<5} rectangular={:<5} biexp={}".format(
            data["orbit_label"],
            data["kind"],
            report["dimension"],
            str(flags["principal"]).lower(),
            str(flags["rectangular"]).lower(),
            ";".join(f"({p},{q})" for p, q in report["biexponents"]) or "-",
        )
        diagram = render_ascii(graph_from_jsonable(data["graph"])).splitlines()
        pad = " " * len(info)
        if not diagram:
            lines.append(info)
        for i, dline in enumerate(diagram):
            lines.append((info if i == 0 else pad) + "  | " + dline)
        lines.append("")
    return "\n".join(lines).rstrip("\n") + "\n"


def export_entries(
    entries: Sequence[CatalogEntry],
    fmt: str,
    *,
    include_matrices: bool = False,
) -> str:
    """Serialize entries as json, csv or text-table, deterministically."""
    header = _catalog_header(entries)
    jsonable = [entry_to_jsonable(e, include_matrices) for e in entries]
    if fmt == "json":
        doc = dict(header)
        doc["entry_count"] = len(jsonable)
        doc["entries"] = jsonable
        return json.dumps(doc, indent=2) + "\n"
    if fmt == "csv":
        return _jsonable_entries_to_csv(header, jsonable)
    if fmt in ("table", "text-table"):
        return _jsonable_entries_to_table(header, jsonable)
    raise ValueError(f"unknown export format {fmt!r}")


def export_catalog_document(doc: dict, fmt: str) -> str:
    """Re-export a parsed catalog JSON document as csv or text-table."""
    header = {k: doc.get(k) for k in ("schema", "schema_version", "series", "dimv", "kind")}
    entries = doc.get("entries", [])
    if fmt == "csv":
        return _jsonable_entries_to_csv(header, entries)
    if fmt in ("table", "text-table"):
        return _jsonable_entries_to_table(header, entries)
    raise ValueError(f"unknown export format {fmt!r}")
