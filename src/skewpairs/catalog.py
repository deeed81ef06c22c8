"""Classification catalogs: assemble, verify, count and export.

classify() walks the admissible graphs for one (series, dimV, kind), builds
both sign representatives for connected even-orthogonal graphs, verifies the
defining relations and the kind's flag for every entry, and cross-checks
principal entries against the closed-form centralizer description, exactly
and on sparse ints.  Output order is canonical, so two runs serialize
identically.

Entries are verified and written one at a time: classify_chunks makes each
entry when the writer asks for it and lets it go once its text is out, so a
catalog is never held whole.  Every format states its count before the
entries (entry_count in json, the title line in table), which comes from
the enumeration's count and is checked after the last entry.  The command
line publishes the text only when it is complete.  Peak RSS of `classify
--kind distinguished --format json --output`, held whole and then streamed
(CPython 3.11, 2-core VM): A12 355 MB, then 41 MB; A13 (--max-nodes 14)
874 MB, then 71 MB.  What is left is mostly the tuple of enumerated graphs.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, Optional, Sequence

from .centralizer import (
    CentralizerReport,
    ClosedFormPrediction,
    ReportFlags,
    _closed_form,
    analyze,
    report_to_jsonable,
)
from .liealg import (
    _SWAPPED,
    AlgebraSpec,
    PairRealization,
    _json_text,
    _realize,
    matrices_to_jsonable,
)
from .linalg import _entry_parser, sparse_product
from .skewgraph import (
    KINDS,
    SERIES,
    SkewGraph,
    _admissible_count,
    _admissible_shapes,
    _keys,
    enumerate_admissible,
    graph_from_jsonable,
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

_SIGN_SUFFIX = {None: "", "plus": "+", "minus": "-"}


class CatalogVerificationError(RuntimeError):
    """Internal verification failed for a graph that should be admissible,
    or for the catalog as a whole (graph None)."""

    def __init__(self, message: str, graph: Optional[SkewGraph] = None):
        if graph is not None:
            message += "; offending graph: " + " | ".join(graph_to_text(graph).splitlines())
        super().__init__(message)
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


def _text_hash(text: str) -> str:
    import hashlib  # only classify labels entries, so only it loads OpenSSL
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:12]


def _powers(rows: list, top: int) -> list:
    """[e^0, e^1, ..., e^top] by nonzero rows, from those of a positive
    multiple of e: each a positive multiple, which changes no span."""
    out = [[[(i, 1)] for i in range(len(rows))]]
    for _ in range(top):
        out.append(sparse_product(out[-1], rows))
    return out


def _in_span(rows: dict, v: dict) -> bool:
    """Whether v, {position: value}, lies in the span of rows, an echelon
    basis as {lead position: (lead value, other (position, value) pairs)} in
    order of increasing lead.  v is consumed.

    Each row in turn cancels v at its lead, fraction-free: v becomes
    lead v - v[p] row.  A row is 0 before its lead, so no later row touches
    a position already passed, and v is in the span when nothing is left.
    """
    for p, (lead, rest) in rows.items():
        f = v.pop(p, 0)
        if f:
            if lead != 1:
                v = {q: lead * x for q, x in v.items()}
            for q, y in rest:
                v[q] = v.get(q, 0) - f * y
    return not any(v.values())


def _predicted_in_span(pred: ClosedFormPrediction, r: PairRealization, basis) -> bool:
    """Whether every predicted power e1^k e2^l, and the A operator when there
    is one, lies in the span of basis, an echelon basis of matrices given
    by integral_rows (any nonzero multiples).  Matrices are read as sparse
    int rows over the positions i * n + j, the basis keyed by leading
    position, and e1 and e2 from the sparse forms of r.
    """
    n = r.spec.dimv
    rows = {}
    for _, m in basis:
        (p, lead), *rest = [(i * n + j, x) for i, row in enumerate(m) for j, x in row]
        rows[p] = (lead, rest)
    (_, e1), (_, e2), _, _ = r._scaled()
    e1_powers = _powers(e1, max((k for k, _ in pred.powers), default=0))
    e2_powers = _powers(e2, max((l for _, l in pred.powers), default=0))
    for k, l in sorted(pred.powers):
        product = sparse_product(e1_powers[k], e2_powers[l])
        if not _in_span(rows, {i * n + j: x for i, row in enumerate(product) for j, x in row}):
            return False
    if pred.a_operator is None:
        return True
    # A minus representative is the plus one conjugated by the swap of the
    # basis vectors at (1/2,1/2) and (-1/2,-1/2), so A moves by that swap.
    index = {(lb.component_index, lb.node): i for i, lb in enumerate(r.labels)}
    if r.orbit_sign == "minus":
        i, j = (index[0, nd] for nd in _SWAPPED)
        index = {key: {i: j, j: i}.get(t, t) for key, t in index.items()}
    return _in_span(rows, {
        index[dst.component_index, dst.node] * n + index[src.component_index, src.node]: c
        for src, dst, c in pred.a_operator.actions
    })


def _closed_form_matches(pred: ClosedFormPrediction, r: PairRealization, report: CentralizerReport) -> bool:
    """Whether the closed-form prediction describes r's centralizer: its rank,
    its bi-exponents, and every predicted element inside the reported span."""
    if pred.rank != report.dimension:
        return False
    if tuple(sorted(pred.biexponents)) != tuple(sorted(report.biexponents)):
        return False
    # analyze() returns the basis in reduced echelon form.
    return _predicted_in_span(pred, r, report.scaled_basis)


def _classified(series: str, dimv: int, kind: str, max_nodes: int) -> Iterator[CatalogEntry]:
    """Each verified entry of classify in turn, made when it is asked for."""
    for graph in enumerate_admissible(series, dimv, kind, max_nodes=max_nodes):
        # Enumerated graphs are canonical: each is validated once, its
        # cells are read once for both signs, and its own text gives the label.
        keyed = _keys([c.nodes for c in graph.components])
        found = _admissible_shapes(series, graph, kind, keyed)
        if found is None:
            raise CatalogVerificationError("graph is not admissible", graph)
        pred = _closed_form(series, graph, found) if kind == "principal" else None
        label = _text_hash(graph_to_text(graph))
        signs: tuple[Optional[str], ...] = (None,)
        if series == "D" and graph.is_connected():
            signs = ("plus", "minus")
        for sign in signs:
            r = _realize(series, graph, keyed, found, sign)
            try:
                report = analyze(r)
            except ValueError as exc:  # analyze rejects failing relations
                raise CatalogVerificationError(str(exc), graph) from exc
            if not report.flags.distinguished:
                raise CatalogVerificationError("entry is not distinguished", graph)
            if kind == "principal" and not report.flags.principal:
                raise CatalogVerificationError("entry is not principal", graph)
            closed_match = None
            if pred is not None:
                closed_match = _closed_form_matches(pred, r, report)
                if not closed_match:
                    raise CatalogVerificationError(
                        "closed-form centralizer mismatch", graph
                    )
            yield CatalogEntry(
                spec=r.spec,
                graph=graph,
                orbit_label=label + _SIGN_SUFFIX[sign],
                kind=kind,
                orbit_sign=sign,
                report=report,
                closed_form_match=closed_match,
                realization=r,
            )


def classify(
    series: str, dimv: int, kind: str, *, max_nodes: int = DEFAULT_MAX_NODES
) -> tuple[CatalogEntry, ...]:
    """All orbits of the requested kind, one verified entry per orbit."""
    return tuple(_classified(series, dimv, kind, max_nodes))


def count_orbits(series: str, dimv: int, kind: str, *, mode: str = "fast",
                 max_nodes: int = DEFAULT_MAX_NODES) -> int:
    """Orbit count; "fast" counts by column-height recurrences and builds only
    series D's origin-sharing pairs and the principal graphs, "full" runs the
    verified classify to the end, one entry at a time."""
    if mode == "full":
        return sum(1 for _ in _classified(series, dimv, kind, max_nodes))
    if mode != "fast":
        raise ValueError(f"unknown count mode {mode!r}")
    return _admissible_count(series, dimv, kind, max_nodes)


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
        data["matrices"] = matrices_to_jsonable(entry.spec, entry.realization, "sparse")
    return data


def _entry_csv_row(data: dict) -> list:
    report = data["report"]
    return [
        *(data[key] for key in CSV_COLUMNS[:4]),
        data["orbit_sign"] or "",
        len(data["graph"]["components"]),
        report["dimension"],
        *(report["flags"][flag] for flag in CSV_COLUMNS[7:12]),
        ";".join(f"({p},{q})" for p, q in report["biexponents"]),
        "" if data["closed_form_match"] is None else data["closed_form_match"],
    ]


def _counted(entries: Iterable[dict], count: int) -> Iterator[dict]:
    """entries as they come; after the last, a CatalogVerificationError
    unless there were count of them."""
    n = 0
    for n, data in enumerate(entries, 1):
        yield data
    if n != count:
        raise CatalogVerificationError(f"{n} entries were written where the count is {count}")


def _json_chunks(header: dict, count: int, entries: Iterable[dict]) -> Iterator[str]:
    """json.dumps({**header, "entry_count": count, "entries": [...]}, indent=2)
    and a newline: the header, then each entry at its nesting depth."""
    head = {**header, "entry_count": count}
    yield "{" + "".join(f"\n  {_json_text(k, '')}: {_json_text(v, '')}," for k, v in head.items()) + '\n  "entries": ['
    n = 0
    for n, data in enumerate(entries, 1):
        yield ("\n    " if n == 1 else ",\n    ") + _json_text(data, "\n    ")
    yield ("\n  ]" if n else "]") + "\n}\n"


def _csv_chunks(header: dict, count: int, entries: Iterable[dict]) -> Iterator[str]:
    """The CSV_COLUMNS row, then one row per entry."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in chain([CSV_COLUMNS], map(_entry_csv_row, entries)):
        writer.writerow(row)
        yield buf.getvalue()
        buf.seek(0)
        buf.truncate()


def _table_chunks(header: dict, count: int, entries: Iterable[dict]) -> Iterator[str]:
    """The title line, then each entry's line with its diagram beside it,
    the entries a blank line apart."""
    title = "{} catalog: series {}, dimV {}, {} entries".format(
        header.get("schema", SCHEMA_NAME), header.get("series", "?"), header.get("dimv", "?"), count
    )
    yield title + "\n" + "=" * len(title) + "\n"
    parse = _entry_parser()
    for n, data in enumerate(entries):
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
        diagram = render_ascii(graph_from_jsonable(data["graph"], parse)).splitlines()
        pad = " " * len(info)
        lines = [(info if i == 0 else pad) + "  | " + dline for i, dline in enumerate(diagram)] or [info]
        yield ("\n" if n else "") + "\n".join(lines) + "\n"


_WRITERS = {"json": _json_chunks, "csv": _csv_chunks, "table": _table_chunks, "text-table": _table_chunks}


def _chunks(header: dict, count: int, entries: Iterable[dict], fmt: str) -> Iterator[str]:
    """The text of a catalog of count entries, each a dict of
    entry_to_jsonable, in the format fmt, in pieces: the header, one piece
    per entry as it comes, and the end.  An unknown fmt is a ValueError at
    once; entries that are not count in number, a CatalogVerificationError
    after the last of them."""
    if fmt not in _WRITERS:
        raise ValueError(f"unknown export format {fmt!r}")
    return _WRITERS[fmt](header, count, _counted(entries, count))


def _header(request: Optional[tuple[str, int, str]]) -> dict:
    return {"schema": SCHEMA_NAME, "schema_version": SCHEMA_VERSION, **dict(zip(("series", "dimv", "kind"), request or ()))}


def classify_chunks(series: str, dimv: int, kind: str, fmt: str, *, include_matrices: bool = False,
                    max_nodes: int = DEFAULT_MAX_NODES) -> Iterator[str]:
    """export_entries(classify(series, dimv, kind), fmt, ...) in pieces, each
    entry verified, written and let go before the next is made.  The count
    in the header is _admissible_count's; the request and fmt are checked
    at once."""
    count = _admissible_count(series, dimv, kind, max_nodes)
    entries = (entry_to_jsonable(e, include_matrices) for e in _classified(series, dimv, kind, max_nodes))
    return _chunks(_header((series, dimv, kind)), count, entries, fmt)


def export_entries(entries: Sequence[CatalogEntry], fmt: str, *, include_matrices: bool = False,
                   request: Optional[tuple[str, int, str]] = None) -> str:
    """Serialize entries as json, csv or text-table, deterministically.  The
    header names the request, (series, dimv, kind), or else the first
    entry's, so an empty catalog is named only by its request."""
    if entries and request is None:
        request = entries[0].spec.series, entries[0].spec.dimv, entries[0].kind
    jsonable = (entry_to_jsonable(e, include_matrices) for e in entries)
    return "".join(_chunks(_header(request), len(entries), jsonable, fmt))


_NULL = type(None)
_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", int: "an integer", bool: "a boolean", _NULL: "null"}


_NAMING = {"series": SERIES, "dimv": (int,), "kind": KINDS}  # optional in a header, required in an entry
# The least value of each integer field that catalog.schema.json bounds, and its orbit_label pattern.
_MINIMUM = {"schema_version": 1, "dimv": 1, "rank": 0, "dimension": 0, "dim": 1}
_LABEL = re.compile("[0-9a-f]{12}[+-]?")
_RATIONAL = re.compile("-?[0-9]+(/-?[0-9]*[1-9][0-9]*)?")  # the schema's rational: no zero denominator


def _check_fields(obj, where: str, **allowed) -> None:
    """A ValueError, naming the field, unless obj is an object whose named
    fields each hold one of their allowed values or JSON types (true is no
    integer), an integer no less than its _MINIMUM and an orbit_label that
    matches _LABEL."""
    if type(obj) is not dict:
        raise ValueError(f"{where} must be an object")
    for key, ok in allowed.items():
        if key not in obj:
            raise ValueError(f"{where} has no field {key!r}")
        if type(obj[key]) not in ok and obj[key] not in ok:
            raise ValueError(f"{where}.{key} must be {' or '.join(str(_JSON_TYPES.get(t, t)) for t in ok)}")
        if key in _MINIMUM and obj[key] < _MINIMUM[key]:
            raise ValueError(f"{where}.{key} must be at least {_MINIMUM[key]}")
        if key == "orbit_label" and not _LABEL.fullmatch(obj[key]):
            raise ValueError(f"{where}.orbit_label must be 12 hex digits and an optional sign + or -")


def _rational(x, known: set) -> bool:
    """Whether x is a string that matches _RATIONAL.  known holds the
    strings of the document already matched, so that each distinct string
    is matched once."""
    if type(x) is str and (x in known or _RATIONAL.fullmatch(x)):
        known.add(x)
        return True
    return False


def _check_pairs(pairs: list, where: str, known: set) -> None:
    """A ValueError naming the first of pairs that is not a pair of
    rationals, the schema's node."""
    for k, pair in enumerate(pairs):
        if type(pair) is not list or len(pair) != 2 or not (_rational(pair[0], known) and _rational(pair[1], known)):
            raise ValueError(f"{where}[{k}] must be a pair of rationals, strings n or n/d")


def export_catalog_document(doc: dict, fmt: str) -> str:
    """Re-export a parsed catalog JSON document as csv or text-table.  Each
    field that catalog.schema.json requires is checked by JSON type, down to
    the flags, the biexponent pairs and the node lists of each graph, and by
    value where the schema fixes more: the schema name and version, the
    series, kind and dimV of header and entries, each orbit label, orbit
    sign, rank and report dimension, each grading cell, each node coordinate
    and bi-exponent (a rational string), and entry_count."""
    _check_fields(doc, "catalog", schema=(SCHEMA_NAME,), schema_version=(int,), entry_count=(int,), entries=(list,))
    known: set = set()
    for i, entry in enumerate(doc["entries"]):
        where = f"entries[{i}]"
        _check_fields(entry, where, orbit_label=(str,), orbit_sign=(_NULL, "plus", "minus"), **_NAMING, rank=(int,),
                      graph=(dict,), report=(dict,), closed_form_match=(bool, _NULL))
        _check_fields(entry["graph"], f"{where}.graph", components=(list,))
        report = entry["report"]
        _check_fields(report, f"{where}.report", dimension=(int,), grading=(list,), biexponents=(list,),
                      flags=(dict,), nonpositive_witness=(dict, _NULL))
        flags = dict.fromkeys(ReportFlags.__dataclass_fields__, (bool,))
        _check_fields(report["flags"], f"{where}.report.flags", **flags)
        comps = entry["graph"]["components"]
        if not comps or not all(type(nodes) is list and nodes for nodes in comps):
            raise ValueError(f"{where}.graph.components must be a nonempty list of nonempty node lists")
        for j, nodes in enumerate(comps):
            _check_pairs(nodes, f"{where}.graph.components[{j}]", known)
        _check_pairs(report["biexponents"], f"{where}.report.biexponents", known)
        for j, cell in enumerate(report["grading"]):
            # The schema's grading_cell: rational p and q, and dim an int >= 1.
            if not (type(cell) is dict and type(cell.get("dim")) is int and cell["dim"] >= 1
                    and _rational(cell.get("p"), known) and _rational(cell.get("q"), known)):
                at = f"{where}.report.grading[{j}]"
                _check_fields(cell, at, p=(str,), q=(str,), dim=(int,))  # a field missing, mistyped or dim < 1
                raise ValueError(f"{at}.{'q' if _rational(cell['p'], known) else 'p'} must be a rational, a string n or n/d")
    _check_fields(doc, "catalog", entry_count=(len(doc["entries"]),),
                  **{key: ok for key, ok in _NAMING.items() if key in doc})
    if fmt not in ("csv", "table", "text-table"):
        raise ValueError(f"unknown export format {fmt!r}")
    header = {k: doc.get(k) for k in ("schema", "schema_version", "series", "dimv", "kind")}
    return "".join(_chunks(header, len(doc["entries"]), doc["entries"], fmt))
