"""One round of a benchmark workload, run inside a fresh child interpreter.

The job arrives as one JSON object on stdin:

    {"workload": "desk" | "enum" | "verify" | "catalog",
     "mode": "plain" | "trace" | "profile",
     "cases": ..., "inputs": [...], "workdir": "..."}

and the result leaves as one JSON object on the last line of stdout. Modes:

- plain:   the timed work and nothing else;
- trace:   the same work, with a leaf span kept in memory around every call
           into a package layer;
- profile: the same work under cProfile, reporting call counts of a fixed
           set of functions (never times, which cProfile distorts).

Only public entry points of skewpairs are called, so refactors of private
helpers cannot break the benchmark. Every item that raises or fails its
check is reported under "errors"; nothing aborts the round.
"""

from __future__ import annotations

import cProfile
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

from skewpairs import (
    analyze,
    build_pair,
    count_orbits,
    enumerate_admissible,
    graph_from_pair,
    verify_relations,
)
from skewpairs import cli
from skewpairs.liealg import realization_from_jsonable

from refclock import RefClock

FLAG_NAMES = ("cartan_h", "trivial_intersection", "distinguished", "principal", "rectangular")
SIGN_SUFFIX = {None: "", "plus": "+", "minus": "-"}

# (path suffix of the defining file, function name) -> reported counter name.
COUNTED = {
    ("skewpairs/linalg.py", "rref"): "linalg.rref_calls",
    ("skewpairs/linalg.py", "nullspace"): "linalg.nullspace_calls",
    ("skewpairs/linalg.py", "solve"): "linalg.solve_calls",
    ("skewpairs/liealg.py", "verify_relations"): "liealg.verify_relations_calls",
    ("skewpairs/skewgraph.py", "canonical_form"): "skewgraph.canonical_form_calls",
    ("skewpairs/skewgraph.py", "classify_component"): "skewgraph.classify_component_calls",
    ("/fractions.py", "__new__"): "fractions.new_calls",
}


class Timer:
    """Times items and, in a traced round, every call into a layer.

    Spans (name, start, end, parent, item) are kept in memory. They wrap
    calls into a layer from the outside and never nest, so every parent is
    None and a span's self time is its duration.
    """

    def __init__(self, now, trace: bool):
        self.now = now
        self.records = [] if trace else None

    def call(self, name, item, fn, *args, **kwargs):
        if self.records is None:
            return fn(*args, **kwargs)
        start = self.now()
        try:
            return fn(*args, **kwargs)
        finally:
            self.records.append((name, start, self.now(), None, item))


class Round:
    """What one round produced: item latencies, outputs and failures."""

    def __init__(self):
        self.items = 0
        self.latency_ms = {}
        self.outputs = {}
        self.errors = {}
        self.files = []  # (item, paths) to read back once the clock stops

    def fail(self, item, exc):
        self.errors[item] = f"{type(exc).__name__}: {exc}"


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def _invariants(report) -> tuple:
    return (
        report.dimension,
        tuple(getattr(report.flags, f) for f in FLAG_NAMES),
        tuple((str(p), str(q)) for p, q in report.biexponents),
        tuple(((str(p), str(q)), dim) for (p, q), dim in report.grading.table),
    )


def run_desk(limits: dict, inputs, timer, workdir, out: Round) -> None:
    """enumerate_admissible -> build_pair -> verify_relations -> analyze over
    every distinguished realization with dimV <= limits[series]."""
    for series, top in limits.items():
        first = 1 if series in ("A", "B") else 2
        step = 1 if series == "A" else 2
        for dimv in range(first, top + 1, step):
            try:
                graphs = timer.call(
                    "skewgraph.enumerate_admissible", None,
                    enumerate_admissible, series, dimv, "distinguished",
                )
            except Exception as exc:
                out.fail(f"{series}{dimv}", exc)
                continue
            for index, graph in enumerate(graphs):
                signs = ("plus", "minus") if series == "D" and graph.is_connected() else (None,)
                for sign in signs:
                    item = f"{series}{dimv}#{index}{SIGN_SUFFIX[sign]}"
                    start = timer.now()
                    try:
                        r = timer.call("liealg.build_pair", item, build_pair, series, graph, sign)
                        relations = timer.call("liealg.verify_relations", item, verify_relations, r)
                        report = timer.call("centralizer.analyze", item, analyze, r)
                    except Exception as exc:
                        out.fail(item, exc)
                        continue
                    out.latency_ms[item] = (timer.now() - start) * 1e3
                    out.items += 1
                    out.outputs[item] = _digest((series, dimv, sign) + _invariants(report)[:3])
                    if not (relations.ok and report.flags.distinguished):
                        out.errors[item] = "relations fail or the pair is not distinguished"


def run_enum(cases: list, inputs, timer, workdir, out: Round) -> None:
    """count_orbits(..., mode="fast") per "series:dimV:kind" case."""
    for case in cases:
        series, dimv, kind = case.split(":")
        start = timer.now()
        try:
            n = timer.call(
                "catalog.count_orbits", case,
                count_orbits, series, int(dimv), kind, mode="fast",
            )
        except Exception as exc:
            out.fail(case, exc)
            continue
        out.latency_ms[case] = (timer.now() - start) * 1e3
        out.items += n
        out.outputs[case] = n


def _analyze_copy(timer, item, data, analyze_span):
    r = timer.call("liealg.realization_from_jsonable", item, realization_from_jsonable, data)
    relations = timer.call("liealg.verify_relations", item, verify_relations, r)
    report = timer.call(analyze_span, item, analyze, r)
    return r, relations, report


def run_verify(strata, inputs: list, timer, workdir, out: Round) -> None:
    """Each sampled realization arrives twice as JSON: as built (diagonal h)
    and conjugated by a rational isometry (non-diagonal h). Both reports
    must agree, and graph_from_pair must give back the input graph."""
    for entry in inputs:
        item = entry["id"]
        start = timer.now()
        try:
            r, relations, base = _analyze_copy(timer, item, entry["diag"], "centralizer.analyze_diag")
            graph = timer.call(
                "centralizer.graph_from_pair", item,
                graph_from_pair, r.spec, r.e1, r.e2, r.h1, r.h2,
            )
            _, moved_relations, moved = _analyze_copy(timer, item, entry["conj"], "centralizer.analyze_conj")
        except Exception as exc:
            out.fail(item, exc)
            continue
        out.latency_ms[item] = (timer.now() - start) * 1e3
        out.items += 1
        out.outputs[item] = _digest(_invariants(base))
        if not (relations.ok and base.flags.distinguished and graph == r.graph):
            out.errors[item] = "relations, distinguished flag or graph_from_pair mismatch"
        elif not moved_relations.ok or _invariants(moved) != _invariants(base):
            out.errors[item] = "conjugated report differs from the diagonal one"


def _file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()[:16]


def run_catalog(cases: list, inputs, timer, workdir: str, out: Round) -> None:
    """`skewpairs classify --format json --full-matrices`, then `export` to
    csv and table from that JSON, per "series:dimV:kind" case."""
    for case in cases:
        series, dimv, kind = case.split(":")
        stem = os.path.join(workdir, f"{series}{dimv}{kind}")
        paths = (stem + ".json", stem + ".csv", stem + ".txt")
        start = timer.now()
        try:
            codes = (
                timer.call("cli.classify", case, cli.main, [
                    "classify", "--series", series, "--dimv", dimv, "--kind", kind,
                    "--format", "json", "--full-matrices", "--output", paths[0],
                ]),
                timer.call("cli.export", case, cli.main, [
                    "export", "--input", paths[0], "--format", "csv", "--output", paths[1],
                ]),
                timer.call("cli.export", case, cli.main, [
                    "export", "--input", paths[0], "--format", "table", "--output", paths[2],
                ]),
            )
        except Exception as exc:
            out.fail(case, exc)
            continue
        out.latency_ms[case] = (timer.now() - start) * 1e3
        if codes != (0, 0, 0):
            out.errors[case] = f"exit codes {codes}"
        out.files.append((case, paths))


def _read_back(out: Round) -> None:
    """Digest the written catalogs and count their entries, untimed: this
    is checking, not work a user waits for."""
    for case, paths in out.files:
        try:
            out.outputs[case] = ":".join(_file_digest(p) for p in paths)
            with open(paths[0], "r", encoding="utf-8") as fh:
                out.items += json.load(fh)["entry_count"]
        except (OSError, ValueError, KeyError) as exc:
            out.fail(case, exc)


WORKLOADS = {
    "desk": run_desk,
    "enum": run_enum,
    "verify": run_verify,
    "catalog": run_catalog,
}


def call_counts(profiler: cProfile.Profile) -> dict:
    profiler.create_stats()
    counts = dict.fromkeys(COUNTED.values(), 0)
    for (filename, _, funcname), (_, ncalls, *_) in profiler.stats.items():
        path = filename.replace(os.sep, "/")
        for (suffix, name), counter in COUNTED.items():
            if funcname == name and path.endswith(suffix):
                counts[counter] += ncalls
    return counts


def run_job(job: dict) -> dict:
    """Run one round in this process and return its result document."""
    mode = job["mode"]
    clock = None if mode == "profile" else RefClock()
    timer = Timer(time.perf_counter if clock is None else clock.now, mode == "trace")
    profiler = cProfile.Profile() if mode == "profile" else None
    out = Round()
    work = WORKLOADS[job["workload"]]
    # A private directory per round: profiled rounds run side by side.
    workdir = tempfile.mkdtemp(dir=job["workdir"]) if "workdir" in job else None
    args = (job["cases"], job.get("inputs"), timer, workdir, out)
    if clock is not None:
        clock.start()
    raw_start = time.perf_counter()
    start = timer.now()
    if profiler is None:
        work(*args)
    else:
        profiler.runcall(work, *args)
    wall = timer.now() - start
    raw_wall = time.perf_counter() - raw_start
    if clock is not None:
        clock.stop()
    _read_back(out)
    if workdir is not None:
        shutil.rmtree(workdir)
    result = {
        "wall_s": wall,
        "raw_wall_s": raw_wall,
        "items": out.items,
        "latency_ms": out.latency_ms,
        "outputs": out.outputs,
        "errors": out.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if clock is not None:
        result["reference_ticks"] = len(clock.ticks)
    if timer.records is not None:
        result["spans"] = timer.records
    if profiler is not None:
        result["counts"] = call_counts(profiler)
    return result


def main(setup: dict) -> None:
    job = json.loads(sys.stdin.read())
    result = run_job(job)
    result.update(setup)
    sys.stdout.write(json.dumps(result) + "\n")
