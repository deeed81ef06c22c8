"""The manifest of command-line output digests, tests/data/digests.json.

Each row is one `skewpairs` invocation, named by its argv and, after " < ",
what stdin holds, and run through cli.main in this process.  It holds the
sha256 of that stdin (null for none), of stdout and of stderr, and the exit
code.  rows() lists the rows; the README's "Install and test" names them.

    python tests/digests.py                   # check every row: exit 1 names those that differ
    python tests/digests.py --record NAME...  # record the named rows (every row, with no name)

It runs the skewpairs that Python imports: installed, or src on PYTHONPATH.
"""

from __future__ import annotations

import hashlib
import io
import json
import runpy
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache
from pathlib import Path
from unittest.mock import patch

from skewpairs.cli import main
from skewpairs.skewgraph import KINDS, SERIES

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tests" / "data" / "digests.json"
TEXT_ROWS = (
    "classify --series D --dimv 14 --kind principal --format csv --max-nodes 14",
    "classify --series A --dimv 12 --kind distinguished --format json",
    "build --series D --orbit-sign minus --input - < -1/2,-1/2 -1/2,1/2 1/2,-1/2 1/2,1/2",
    # Axiom (iv) fails at one square, two cells are not connected, and both.
    "render --input - < 0/1,0/1 1/1,0/1 1/1,1/1",
    "render --input - < 0/1,0/1 2/1,0/1",
    "render --input - < 0/1,0/1 1/1,0/1 1/1,1/1 3/1,1/1",
)


@lru_cache(maxsize=None)
def _perfbench(name: str) -> dict:
    """The globals of perfbench/<name>.py, run as a module that is not main."""
    return runpy.run_path(str(ROOT / "perfbench" / f"{name}.py"))


@lru_cache(maxsize=None)
def _seed_documents(seed: int) -> list[str]:
    entries = _perfbench("verify_inputs")["generate"](seed, _perfbench("run")["CASES"]["verify"])
    return [json.dumps(e[side]) for e in entries for side in ("diag", "conj")]


def rows() -> dict:
    """Each row's name -> its stdin: None, text, or a function that makes it."""
    out: dict = {f"classify --series {s} --dimv {d} --kind {k} --format {f}": None for s in SERIES
                 for d in range(1, 13) for k in KINDS for f in ("json --full-matrices", "csv", "table")}
    for name in TEXT_ROWS:
        out[name] = name.partition(" < ")[2] + "\n" if " < " in name else None
    for path in sorted((ROOT / "tests" / "data").glob("conjugated-*.json")):
        out[f"verify --input - < tests/data/{path.name}"] = path.read_text
    samples = [f"{s}{d} sample {k}, {side}" for s, d, count in _perfbench("run")["CASES"]["verify"]
               for k in range(count) for side in ("built", "conjugated")]
    for seed in (1, 2, 3):
        out.update({f"verify --input - < seed {seed}, {sample}": lambda seed=seed, i=i: _seed_documents(seed)[i]
                    for i, sample in enumerate(samples)})
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(name: str, stdin) -> dict:
    text = stdin() if callable(stdin) else stdin
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), patch("sys.stdin", io.StringIO(text or "")):
        code = main(name.partition(" < ")[0].split())
    return {"stdin": text and _sha(text), "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue()), "exit": code}


def check(select=lambda name: True) -> list[str]:
    """The selected rows that differ from the manifest or are not in it."""
    manifest = json.loads(MANIFEST.read_text())
    return [name for name, stdin in rows().items() if select(name) and manifest.get(name) != run(name, stdin)]


def record(names) -> None:
    specs, manifest = rows(), json.loads(MANIFEST.read_text())
    manifest.update({name: run(name, specs[name]) for name in names})
    MANIFEST.write_text(json.dumps({n: manifest[n] for n in specs if n in manifest}, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--record"]:
        record(sys.argv[2:] or rows())
    else:
        differ, total = check(), len(rows())
        print("\n".join(differ + [f"{total - len(differ)} of {total} rows match the manifest"]))
        sys.exit(1 if differ else 0)
