"""Record the pinned outputs (expected.json) from one plain round of each
workload that has pins, at the current commit.

Usage: python3 perfbench/pin.py

The committed pins were recorded at the commit that introduced the
benchmark. Re-record them only for an intended, explained change of
output; never to make a failing run pass.
"""

import json
import time

import run

if __name__ == "__main__":
    deadline = time.monotonic() + 600
    pins = {"verify": {}}  # verify checks its two copies against each other
    for workload in ("desk", "enum", "catalog"):
        job = run.make_job(workload, run.CASES[workload], 0, deadline)
        result = run.run_round(job, "plain", deadline)
        if result["errors"]:
            raise SystemExit(f"{workload}: {result['errors']}")
        pins[workload] = result["outputs"]
    run.EXPECTED.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
