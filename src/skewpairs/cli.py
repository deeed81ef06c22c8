"""Command-line front end.

Thin adapters only: every verb maps onto one library operation and streams
its canonical serialization.  Exit status 0 on success, 1 when verification
reports findings, 2 on usage errors, and 141 when the reader closes stdout
early.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import shutil
import sys
import tempfile
from typing import Iterable, Optional, Sequence

from . import catalog as catalog_mod
from .centralizer import NormalFormError, analyze, report_to_jsonable
from .liealg import (
    NotAdmissibleError,
    build_pair,
    json_text,
    realization_from_jsonable,
    realization_to_jsonable,
    verify_relations,
)
from .linalg import NotDiagonalizableError
from .skewgraph import (
    DEFAULT_MAX_NODES,
    canonical_form,
    enumerate_connected,
    graph_from_text,
    graph_to_text,
    render_ascii,
    validate,
)

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
# 128 + SIGPIPE: what a shell reports for a filter cut off by `head`.
EXIT_BROKEN_PIPE = 141


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _write(chunks: Iterable[str], path: Optional[str]) -> None:
    """chunks to stdout or to the file at path, published only after the
    last: a failure before it leaves stdout empty and path as it was.

    The chunks go to a temporary file beside a regular or missing path,
    which then replaces it (or the file a symlink at path names) with its
    mode, or else to an unnamed one, which is copied to stdout or to what
    path names, a device or a pipe.  Every file is opened with newline="",
    so a "\r" reaches stdout and a file alike.  A file the user may not
    write is refused before anything is made, as opening it would be."""
    if path not in (None, "-") and (os.path.isfile(path) or not os.path.exists(path)):
        target = os.path.realpath(path)
        exists = os.path.exists(target)
        if exists and not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        tmp = f"{target}.{os.getpid()}.tmp"
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:  # name the file asked for, not the temporary one
            raise OSError(exc.errno, exc.strerror, path) from None
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(chunks)
            if exists:
                shutil.copymode(target, tmp)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
        return
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as fh:
        fh.writelines(chunks)
        fh.seek(0)
        if path in (None, "-"):
            shutil.copyfileobj(fh, sys.stdout)
            return
        with open(path, "w", encoding="utf-8", newline="") as out:
            shutil.copyfileobj(fh, out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewpairs",
        description="Exact nilpotent-pair classification in the classical Lie algebras",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("enumerate", help="list connected skew-graphs with n nodes")
    p.add_argument("n", type=int)
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)

    p = sub.add_parser("build", help="realize an admissible graph as matrices")
    p.add_argument("--series", required=True, choices=["A", "B", "C", "D"])
    p.add_argument("--input", required=True, help="graph text file ('-' for stdin)")
    p.add_argument("--orbit-sign", choices=["plus", "minus"])
    p.add_argument("--format", choices=["dense", "sparse"], default="dense")
    p.add_argument("--output")

    p = sub.add_parser("verify", help="check relations and analyze a realization JSON")
    p.add_argument("--input", required=True)
    p.add_argument("--output")

    p = sub.add_parser("classify", help="emit the verified catalog for (series, dimV, kind)")
    p.add_argument("--series", required=True, choices=["A", "B", "C", "D"])
    p.add_argument("--dimv", required=True, type=int)
    p.add_argument("--kind", required=True, choices=["distinguished", "principal"])
    p.add_argument("--format", choices=["json", "csv", "table"], default="json")
    p.add_argument("--full-matrices", action="store_true")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)
    p.add_argument("--output")

    p = sub.add_parser("count", help="count orbits")
    p.add_argument("--series", required=True, choices=["A", "B", "C", "D"])
    p.add_argument("--dimv", required=True, type=int)
    p.add_argument("--kind", required=True, choices=["distinguished", "principal"])
    p.add_argument("--mode", choices=["fast", "full"], default="fast")
    p.add_argument("--max-nodes", type=int, default=DEFAULT_MAX_NODES)

    p = sub.add_parser("export", help="re-serialize a catalog JSON as csv or table")
    p.add_argument("--input", required=True)
    p.add_argument("--format", choices=["csv", "table"], required=True)
    p.add_argument("--output")

    p = sub.add_parser("render", help="draw skew-diagrams as ASCII art")
    p.add_argument("--input", required=True, help="graph text file ('-' for stdin)")
    p.add_argument("--output")
    return parser


def _cmd_enumerate(args) -> int:
    graphs = enumerate_connected(args.n, max_nodes=args.max_nodes)
    for g in graphs:
        sys.stdout.write(graph_to_text(g) + "\n")
    return EXIT_OK


def _cmd_build(args) -> int:
    graph = graph_from_text(_read_input(args.input))
    r = build_pair(args.series, graph, args.orbit_sign)
    _write((json_text(realization_to_jsonable(r, args.format)), "\n"), args.output)
    return EXIT_OK


def _cmd_verify(args) -> int:
    r = realization_from_jsonable(json.loads(_read_input(args.input)))
    relations = verify_relations(r)
    doc = {"relations": {name: ok for name, ok in relations.checks}}
    status = EXIT_OK
    if relations.ok:
        doc["report"] = report_to_jsonable(analyze(r))
    else:
        doc["report"] = None
        status = EXIT_FINDINGS
    _write((json_text(doc), "\n"), args.output)
    return status


def _cmd_classify(args) -> int:
    chunks = catalog_mod.classify_chunks(args.series, args.dimv, args.kind, args.format,
                                         include_matrices=args.full_matrices, max_nodes=args.max_nodes)
    _write(chunks, args.output)
    return EXIT_OK


def _cmd_count(args) -> int:
    n = catalog_mod.count_orbits(
        args.series, args.dimv, args.kind, mode=args.mode, max_nodes=args.max_nodes
    )
    sys.stdout.write(f"{n}\n")
    return EXIT_OK


def _cmd_export(args) -> int:
    doc = json.loads(_read_input(args.input))
    _write((catalog_mod.export_catalog_document(doc, args.format),), args.output)
    return EXIT_OK


def _cmd_render(args) -> int:
    # The input is drawn where it lies; its canonical form must be a skew-graph.
    graph = graph_from_text(_read_input(args.input))
    findings = validate(canonical_form(graph))
    if findings:
        sys.stderr.write(f"finding: the graph violates the axioms: {'; '.join(findings)}\n")
        return EXIT_FINDINGS
    _write((render_ascii(graph), "\n"), args.output)
    return EXIT_OK


_COMMANDS = {
    "enumerate": _cmd_enumerate,
    "build": _cmd_build,
    "verify": _cmd_verify,
    "classify": _cmd_classify,
    "count": _cmd_count,
    "export": _cmd_export,
    "render": _cmd_render,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        status = _COMMANDS[args.verb](args)
        # A closed stdout shows at the flush: inside the try, not at exit.
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # The reader closed the pipe, as `| head` does: the rest is unwanted.
        # Python flushes stdout at exit: point it at devnull so that the
        # flush prints nothing (the Python signal docs, "Note on SIGPIPE").
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (
        NotAdmissibleError, NormalFormError, NotDiagonalizableError, catalog_mod.CatalogVerificationError
    ) as exc:
        # The input parsed fine but failed a mathematical validity judgment.
        sys.stderr.write(f"finding: {exc}\n")
        return EXIT_FINDINGS
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
