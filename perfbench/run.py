"""Benchmark of the skewpairs pipeline, end to end and layer by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload {desk,enum,verify,catalog} \
        --seed N --seconds S --trace {0,1}

Every timed round runs in a fresh child interpreter, because every
command-line user starts with cold caches; PYTHONHASHSEED is fixed there
since set iteration over string-keyed arrows otherwise varies between
processes. Rounds repeat until S seconds have passed and the medians are
reported. Times are in reference seconds (refclock.py), which cancel the
machine's speed drift; the raw wall times are kept in the run record. The
seed drives only the `verify` sample and its conjugators, generated in a
separate, untimed process.

--trace 0 reports the end-to-end metrics. --trace 1 alternates plain and
traced rounds and reports per-layer span times, the tracing overhead, and
exact call counts from two cProfile passes, which must agree.

Outputs are checked against pins recorded at the seed commit
(expected.json) or, for `verify`, against each other; an exception or a
mismatch counts as a failed item. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. The lines before it
name every metric with its unit and record the run (interpreter, CPU count,
commit). Traces and full results are written under .perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from itertools import cycle, repeat
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

# Sizes are scaled down from desk scale (where one round takes 20-40 s) so
# that a round takes 6-7 reference seconds on CPython 3.11 and a 15 s run
# holds two or three rounds.
CASES = {
    "desk": {"A": 7, "B": 7, "C": 8, "D": 8},
    "enum": [
        "A:10:distinguished",
        "B:9:distinguished",
        "D:10:distinguished",
        "C:12:principal",
        "D:12:principal",
    ],
    # Seven strata of eight: the median and p90 items then fall inside a
    # stratum (A7/C8 and B9), not in the cost gap between two strata.
    "verify": [
        ["A", 6, 8], ["A", 7, 8], ["B", 7, 8], ["B", 9, 8],
        ["C", 6, 8], ["C", 8, 8], ["D", 8, 8],
    ],
    "catalog": [
        "A:7:principal",
        "A:8:principal",
        "D:10:principal",
        "D:12:principal",
        "B:7:distinguished",
        "D:8:distinguished",
    ],
}

SETUP_PROBES = 9
PROFILE_PASSES = 2
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}
SPANS = (
    "skewgraph.enumerate_admissible",
    "liealg.build_pair",
    "liealg.verify_relations",
    "centralizer.analyze",
    "liealg.realization_from_jsonable",
    "centralizer.analyze_diag",
    "centralizer.analyze_conj",
    "centralizer.graph_from_pair",
    "catalog.count_orbits",
    "cli.classify",
    "cli.export",
)
COUNTS = (
    "linalg.rref_calls",
    "linalg.nullspace_calls",
    "linalg.solve_calls",
    "liealg.verify_relations_calls",
    "skewgraph.canonical_form_calls",
    "skewgraph.classify_component_calls",
    "fractions.new_calls",
)
PER_LAYER = {
    **{name + "_s": "s" for name in SPANS},
    "tracing_overhead_s": "s",
    **{name: "count" for name in COUNTS},
    "profile.count_mismatches": "count",
}


class ChildFailed(RuntimeError):
    """A child interpreter crashed, timed out or printed no result."""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list, stdin_text: str, deadline: float) -> str:
    """Run a child to completion (killing it at the deadline); return stdout."""
    with subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=ROOT, env=_child_env(),
    ) as proc:
        try:
            out, err = proc.communicate(stdin_text, timeout=max(1.0, deadline - time.monotonic()))
        except BaseException:
            proc.kill()
            proc.communicate()
            raise
    if proc.returncode != 0 or not out.strip():
        tail = err.strip().splitlines()[-1:] or [f"exit code {proc.returncode}"]
        raise ChildFailed(f"{Path(argv[1]).name}: {tail[0]}")
    return out


def _child(args: list, job: dict | None, deadline: float) -> dict:
    spawned_at = time.monotonic()
    argv = [sys.executable, str(HERE / "child.py"), repr(spawned_at), *args]
    out = _spawn(argv, "" if job is None else json.dumps(job), deadline)
    return json.loads(out.strip().splitlines()[-1])


def run_round(job: dict, mode: str, deadline: float) -> dict:
    return _child([], dict(job, mode=mode), deadline)


def profile_rounds(job: dict, deadline: float) -> list:
    """PROFILE_PASSES profiled rounds side by side: they report counts,
    not times, so they need not run alone."""
    with ThreadPoolExecutor(PROFILE_PASSES) as pool:
        futures = [pool.submit(run_round, job, "profile", deadline) for _ in range(PROFILE_PASSES)]
        return [f.result() for f in futures]


def make_job(workload: str, cases, seed: int, deadline: float) -> dict:
    job = {"workload": workload, "cases": cases}
    if workload == "verify":
        argv = [sys.executable, str(HERE / "verify_inputs.py"), str(seed), json.dumps(cases)]
        job["inputs"] = json.loads(_spawn(argv, "", deadline))
    if workload == "catalog":
        workdir = STATE / "work"
        workdir.mkdir(parents=True, exist_ok=True)
        job["workdir"] = str(workdir)
    return job


def check(result: dict, expected: dict) -> tuple[int, dict]:
    """(items attempted, {item: reason}) for one round against the pins."""
    failed = dict(result["errors"])
    outputs = result["outputs"]
    for item, want in expected.items():
        if item not in failed and outputs.get(item) != want:
            failed[item] = f"expected {want!r}, got {outputs.get(item)!r}"
    if expected:
        for item in outputs.keys() - expected.keys():
            failed.setdefault(item, "not in the pinned outputs")
    return len(outputs.keys() | failed.keys() | expected.keys()), failed


def _latency_quantiles(plain: list) -> tuple[float, float]:
    """p50 and p90 over items of each item's median latency across rounds,
    so that the number of rounds in a run cannot move them."""
    per_item = {}
    for r in plain:
        for item, ms in r["latency_ms"].items():
            per_item.setdefault(item, []).append(ms)
    latencies = [statistics.median(v) for v in per_item.values()]
    if len(latencies) < 2:
        return latencies[0], latencies[0]
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return deciles[4], deciles[8]


def end_to_end_metrics(plain: list, setup: list) -> dict:
    p50, p90 = _latency_quantiles(plain)
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "items_per_s": statistics.median(r["items"] / r["wall_s"] for r in plain),
        "item_p50_ms": p50,
        "item_p90_ms": p90,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
    }


def per_layer_metrics(plain: list, traced: list, profiled: list) -> dict:
    metrics = {}
    for name in SPANS:
        metrics[name + "_s"] = statistics.median(
            sum(end - start for span, start, end, _, _ in r["spans"] if span == name)
            for r in traced
        )
    metrics["tracing_overhead_s"] = (
        statistics.median(r["wall_s"] for r in traced)
        - statistics.median(r["wall_s"] for r in plain)
    )
    first = profiled[0]["counts"]
    for name in COUNTS:
        metrics[name] = first[name]
    metrics["profile.count_mismatches"] = sum(
        any(r["counts"][name] != first[name] for r in profiled[1:]) for name in COUNTS
    )
    return metrics


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "skewpairs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def measure(workload: str, seed: int, seconds: float, trace: bool,
            cases=None, expected: dict | None = None) -> dict:
    """Run one benchmark run and return its result document."""
    deadline = time.monotonic() + DEADLINE_S
    if cases is None:
        cases = CASES[workload]
    if expected is None:
        expected = json.loads(EXPECTED.read_text())[workload]
    job = make_job(workload, cases, seed, deadline)

    _child(["probe"], None, deadline)  # untimed: fills the bytecode caches
    probes = [_child(["probe"], None, deadline) for _ in range(SETUP_PROBES)]

    rounds = {"plain": [], "trace": [], "profile": []}
    modes = cycle(("plain", "trace")) if trace else repeat("plain")
    start = time.monotonic()
    while True:
        mode = next(modes)
        rounds[mode].append(run_round(job, mode, deadline))
        if time.monotonic() - start >= seconds and (rounds["trace"] or not trace):
            break
    if trace:
        rounds["profile"] = profile_rounds(job, deadline)

    attempted, failed_count, failures = 0, 0, {}
    for r in (r for mode_rounds in rounds.values() for r in mode_rounds):
        n, failed = check(r, expected)
        attempted += n
        failed_count += len(failed)
        for item, reason in list(failed.items())[: 50 - len(failures)]:
            failures.setdefault(item, reason)

    if trace:
        metrics = per_layer_metrics(rounds["plain"], rounds["trace"], rounds["profile"])
        units = PER_LAYER
    else:
        metrics = end_to_end_metrics(rounds["plain"], [p["setup_s"] for p in probes])
        units = END_TO_END
    return {
        "record": {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": sys.version.split()[0],
            "implementation": sys.implementation.name,
            "cpu_count": os.cpu_count(),
            "commit": _commit(),
            "source_sha256": _source_digest(),
            "setup_s": [p["setup_s"] for p in probes],
            "raw_setup_s": [p["raw_setup_s"] for p in probes],
            "wall_s": {mode: [r["wall_s"] for r in rs] for mode, rs in rounds.items()},
            "raw_wall_s": {mode: [r["raw_wall_s"] for r in rs] for mode, rs in rounds.items()},
        },
        "failures": failures,
        "spans": [r["spans"] for r in rounds["trace"]],
        "correct": failed_count == 0,
        "attempted": attempted,
        "failed": failed_count,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def report(result: dict) -> None:
    """Save the run under .perfbench/ and print it; the last line is the result."""
    record = result["record"]
    out_dir = STATE / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")

    print("run_record " + json.dumps(record))
    for item, reason in result["failures"].items():
        print(f"failed_item {item}: {reason}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']!r} {metric['unit']}")
    print(f"fail_frac {result['failed'] / result['attempted']!r} "
          f"({result['failed']} of {result['attempted']} items)")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CASES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "skewpairs" / "__init__.py").is_file():
        print(f"error: no skewpairs sources under {SRC}", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
