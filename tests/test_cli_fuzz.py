"""Input-boundary fuzzing: mutated `build` and `classify` output fed back to the CLI.

Each example edits a realization document, as JSON values or as text,
and runs `verify` on it, or edits the graph text it was built from and runs
`build` and `render`, or edits the JSON values of a catalog and runs
`export`.  Whatever the input, the CLI must return 0, 1 or 2 (`export` 0 or
2) and write at most one line to stderr: no exception may escape.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewpairs.catalog import classify, export_entries
from skewpairs.cli import main
from skewpairs.liealg import build_pair, realization_to_jsonable
from skewpairs.skewgraph import graph_from_text

GRAPHS = (
    ("A", "-1/1,1/2 0/1,1/2 0/1,-1/2 1/1,-1/2\n"),
    ("B", "-1/1,0/1 0/1,0/1 1/1,0/1\n"),
    ("C", "-3/2,0/1 -1/2,0/1 1/2,0/1 3/2,0/1\n"),
    ("D", "-1/1,0/1 0/1,0/1 1/1,0/1\n0/1,-1/1 0/1,0/1 0/1,1/1\n"),
)
DOCUMENTS = tuple(
    realization_to_jsonable(build_pair(series, graph_from_text(text)), fmt)
    for series, text in GRAPHS
    for fmt in ("dense", "sparse")
)

# The A2 domino, whose h1 the large-eigenvalue case replaces.
DOMINO = realization_to_jsonable(build_pair("A", graph_from_text("-1/2,0/1 1/2,0/1\n")))

CATALOGS = tuple(
    json.loads(export_entries(classify(series, dimv, kind), "json"))
    for series, dimv, kind in (("A", 3, "principal"), ("C", 4, "distinguished"), ("D", 6, "distinguished"))
)

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=12),
    st.sampled_from([0.5, -1.0, 1e300, float("nan"), float("inf")]),
    st.sampled_from(["0", "1", "-1", "1/2", "1/0", "x", "", "nan", "inf", "1e3", "A", "D", "plus"]),
)
json_values = st.recursive(
    scalars,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["shape", "entries", "components", "node", "component"]), kids, max_size=2),
    max_leaves=6,
)
json_edits = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(["replace", "delete", "duplicate"]), json_values),
    min_size=1,
    max_size=3,
)
# At most four edits, each a character or a token of the formats.
text_units = st.sampled_from(list("0123456789/,- \n\"[]{}:x.") + ["1e12", "1/0", "nan", "0/1,0/1", ",,"])
text_edits = st.lists(
    st.tuples(st.integers(min_value=0), st.sampled_from(["insert", "delete", "replace"]), text_units),
    min_size=1,
    max_size=4,
)


def _paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _paths(item, prefix + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from _paths(item, prefix + (index,))


def _edit_json(doc, edits):
    doc = json.loads(json.dumps(doc))
    for where, op, value in edits:
        paths = list(_paths(doc))
        path = paths[where % len(paths)]
        if not path:
            doc = value
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if op == "replace":
            parent[key] = value
        elif op == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, parent[key])
        else:
            parent[key] = [parent[key], parent[key]]
    return doc


def _edit_text(text, edits):
    for where, op, unit in edits:
        i = where % (len(text) + 1)
        if op == "insert":
            text = text[:i] + unit + text[i:]
        elif op == "delete":
            text = text[:i] + text[i + 1:]
        else:
            text = text[:i] + unit + text[i + 1:]
    return text


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(workdir, text, *argv):
    path = workdir / "input"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*argv, "--input", str(path)])
    assert code in (0, 1, 2), (argv, text)
    assert err.getvalue().count("\n") <= 1, (argv, text, err.getvalue())
    return code


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DOCUMENTS), json_edits)
def test_verify_survives_json_value_edits(workdir, doc, edits):
    _run(workdir, json.dumps(_edit_json(doc, edits)), "verify")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DOCUMENTS), text_edits)
def test_verify_survives_json_text_edits(workdir, doc, edits):
    _run(workdir, _edit_text(json.dumps(doc, indent=2), edits), "verify")


@settings(max_examples=50, deadline=None)
@given(st.one_of(
    st.integers(min_value=-10**40, max_value=10**40),
    st.builds(lambda k, sign: sign * 10**k, st.integers(min_value=0, max_value=40), st.sampled_from([1, -1])),
))
def test_verify_survives_large_eigenvalues(workdir, b):
    # h1 = [[0, b], [b, 0]] with e1 = e2 = h2 = 0: eigenvalues +-b, which a
    # search by trial division did not find within 20 s at b = 10^12.
    zero = [["0", "0"], ["0", "0"]]
    doc = dict(DOMINO, e1=zero, e2=zero, h1=[["0", str(b)], [str(b), "0"]], h2=zero)
    assert _run(workdir, json.dumps(doc), "verify") in (0, 1)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(GRAPHS), text_edits)
def test_build_and_render_survive_text_edits(workdir, graph, edits):
    series, text = graph
    text = _edit_text(text, edits)
    _run(workdir, text, "build", "--series", series)
    _run(workdir, text, "render")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CATALOGS), json_edits, st.sampled_from(["csv", "table"]))
def test_export_survives_json_value_edits(workdir, doc, edits, fmt):
    assert _run(workdir, json.dumps(_edit_json(doc, edits)), "export", "--format", fmt) in (0, 2)
