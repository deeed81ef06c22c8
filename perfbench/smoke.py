"""Smoke test of the benchmark on tiny inputs (under a minute).

Usage: python3 perfbench/smoke.py

For every workload, on tiny cases with pins taken from a first round:
a run prints every metric that BENCHMARK.json names, with its unit, in both
trace modes, and reports no failed item; the two profiled passes agree.
Then one corrupted pin must make the run report a failed item, and the
benchmark must refuse to run where there are no skewpairs sources.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
import time

import run

TINY = {
    "desk": {"A": 4, "B": 3, "C": 4, "D": 4},
    "enum": ["A:5:distinguished", "D:6:distinguished"],
    "verify": [["A", 4, 2], ["C", 4, 2], ["D", 4, 2]],
    "catalog": ["A:4:principal", "B:5:distinguished"],
}


def _run(workload, trace, expected):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        run.report(run.measure(workload, 1, 0, trace, TINY[workload], expected))
    lines = buf.getvalue().splitlines()
    return lines, json.loads(lines[-1])


def _check_metrics(lines, result, declared):
    units = {m["name"]: m["unit"] for m in declared}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == units, (got, units)
    for name, unit in units.items():
        assert any(line.startswith(name + " ") and line.endswith(" " + unit) for line in lines), name


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert sorted(w["name"] for w in bench["workloads"]) == sorted(run.CASES)
    deadline = time.monotonic() + 120
    for workload, cases in TINY.items():
        job = run.make_job(workload, cases, 1, deadline)
        pins = run.run_round(job, "plain", deadline)["outputs"] if workload != "verify" else {}
        for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
            lines, result = _run(workload, trace, pins)
            assert result["correct"] and result["failed"] == 0, lines
            assert result["attempted"] >= 1
            _check_metrics(lines, result, declared)
        assert result["metrics"]["profile.count_mismatches"]["value"] == 0
        print(f"ok {workload}")

    job = run.make_job("desk", TINY["desk"], 1, deadline)
    pins = run.run_round(job, "plain", deadline)["outputs"]
    item = sorted(pins)[0]
    pins[item] = "0" * 16
    lines, result = _run("desk", False, pins)
    assert not result["correct"] and result["failed"] >= 1, lines
    assert any(line.startswith("fail_frac ") and float(line.split()[1]) > 0 for line in lines)
    assert any(line.startswith(f"failed_item {item}:") for line in lines)
    print("ok corrupted pin is reported")

    bare = run.STATE / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "desk", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print("ok no result without sources")


if __name__ == "__main__":
    main()
