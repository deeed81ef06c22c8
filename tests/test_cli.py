"""CLI behaviour: exit codes, determinism, thin-adapter outputs."""

import json
import os
import pathlib
import random
import reprlib
import time

import pytest

from conftest import conjugated, deadline, large_dimv_document, small_realizations
from skewpairs import catalog, cli
from skewpairs.catalog import classify, export_entries
from skewpairs.cli import main
from skewpairs.liealg import json_text, realization_from_jsonable, realization_to_jsonable
from skewpairs.linalg import joint_eigenbasis
from skewpairs.skewgraph import graph_to_text


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_b9_principal(capsys):
    code, out, _ = run_cli(capsys, "count", "--series", "B", "--dimv", "9", "--kind", "principal")
    assert code == 0
    assert out == "3\n"


def test_only_classify_loads_hashlib():
    # hashlib loads OpenSSL; only classify hashes, to label its entries.  A
    # fresh isolated interpreter imports the package and runs count, then
    # classify, and reports whether hashlib was loaded after each.
    import subprocess
    import sys

    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import skewpairs; from skewpairs import cli; "
        "seen = ['hashlib' in sys.modules]; "
        "cli.main(['count', '--series', 'B', '--dimv', '9', '--kind', 'principal']); "
        "seen.append('hashlib' in sys.modules); "
        "cli.main(['classify', '--series', 'A', '--dimv', '2', '--kind', 'principal', '--format', 'csv']); "
        "print(seen + ['hashlib' in sys.modules])"
    )
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout.splitlines()[-1] == "[False, False, True]", done.stdout


def test_count_full_mode(capsys):
    code, out, _ = run_cli(
        capsys, "count", "--series", "C", "--dimv", "4", "--kind", "principal", "--mode", "full"
    )
    assert code == 0
    assert out == "2\n"


def test_enumerate_single_node(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "1")
    assert code == 0
    assert out == "0/1,0/1\n"


def test_enumerate_respects_limit(capsys):
    code, _, err = run_cli(capsys, "enumerate", "9", "--max-nodes", "6")
    assert code == 2
    assert "bound" in err


def test_classify_csv_has_seven_rows(capsys):
    code, out, _ = run_cli(
        capsys,
        "classify", "--series", "A", "--dimv", "4", "--kind", "principal", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8  # header + 7 data rows


def test_cli_byte_identical_runs(capsys):
    args = ("classify", "--series", "D", "--dimv", "6", "--kind", "principal", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_build_verify_round_trip(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/1,0/1 0/1,0/1 1/1,0/1\n0/1,-1/1 0/1,0/1 0/1,1/1\n")
    pair_file = tmp_path / "pair.json"
    code, out, _ = run_cli(
        capsys, "build", "--series", "D", "--input", str(graph_file), "--output", str(pair_file)
    )
    assert code == 0
    doc = json.loads(pair_file.read_text())
    assert doc["series"] == "D" and doc["dimv"] == 6

    code, out, _ = run_cli(capsys, "verify", "--input", str(pair_file))
    assert code == 0
    report = json.loads(out)
    assert all(report["relations"].values())
    assert report["report"]["flags"]["principal"] is True


def test_verify_flags_findings(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/2,0/1 1/2,0/1\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "A", "--input", str(graph_file), "--output", str(pair_file))
    doc = json.loads(pair_file.read_text())
    doc["e2"] = doc["e1"]  # break the grading
    pair_file.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "verify", "--input", str(pair_file))
    assert code == 1
    report = json.loads(out)
    assert report["relations"]["h2_e2_grading"] is False
    assert report["report"] is None


@pytest.mark.parametrize(
    "h1, reason",
    [
        pytest.param([["0", "1"], ["0", "0"]], "their joint eigenspaces span 1 of 2 dimensions", id="nilpotent"),
        pytest.param([["0", "1"], ["2", "0"]], "an eigenvalue is not rational", id="eigenvalues-plus-minus-root-2"),
    ],
)
def test_verify_reports_missing_joint_eigenbasis_as_finding(tmp_path, capsys, h1, reason):
    # All 11 relations hold (e1 = e2 = h2 = 0, h1 traceless), but h1 has no
    # rational eigenbasis: a mathematical finding, not a usage error.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/2,0/1 1/2,0/1\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "A", "--input", str(graph_file), "--output", str(pair_file))
    doc = json.loads(pair_file.read_text())
    zero = [["0", "0"], ["0", "0"]]
    doc.update(e1=zero, e2=zero, h1=h1, h2=zero)
    pair_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--input", str(pair_file))
    assert code == 1
    assert out == ""
    assert err == f"finding: h1, h2 have no rational joint eigenbasis: {reason}\n"


@pytest.mark.parametrize("b", [10**12, 10**40], ids=["1e12", "1e40"])
def test_verify_of_large_eigenvalues_is_a_finding(tmp_path, capsys, b):
    # h1 = [[0, b], [b, 0]] with e1 = e2 = h2 = 0: the eigenvalues +-b are
    # found in a few Newton steps (a divisor search of b^2 once hung), and
    # h1 is not in the image of ad e1 = 0 while h2 = 0 is in that of ad e2.
    # An e1-string from -b to b would take k = 2b steps, more than a string
    # of V's two vectors can, so the rectangularity test stops at k >= n
    # without taking a power of e1: well under a second, and the deadline
    # turns a loop over k into a failure.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/2,0/1 1/2,0/1\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "A", "--input", str(graph_file), "--output", str(pair_file))
    doc = json.loads(pair_file.read_text())
    zero = [["0", "0"], ["0", "0"]]
    doc.update(e1=zero, e2=zero, h1=[["0", str(b)], [str(b), "0"]], h2=zero)
    pair_file.write_text(json.dumps(doc))
    with deadline(10):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--input", str(pair_file))
        assert time.perf_counter() - start < 1
    assert (code, out) == (1, "")
    assert err == "finding: the rectangularity tests disagree: h1 is not in the image of ad e1, h2 is in that of ad e2\n"


def test_build_sparse_format(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/2,0/1 1/2,0/1\n")
    code, out, _ = run_cli(
        capsys, "build", "--series", "A", "--input", str(graph_file), "--format", "sparse"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["e1"]["entries"] == [[1, 0, "1"]]


def test_export_subcommand(tmp_path, capsys):
    catalog_file = tmp_path / "catalog.json"
    code, out, _ = run_cli(
        capsys,
        "classify", "--series", "C", "--dimv", "4", "--kind", "principal",
        "--format", "json", "--output", str(catalog_file),
    )
    assert code == 0
    code, out, _ = run_cli(capsys, "export", "--input", str(catalog_file), "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 3


@pytest.mark.parametrize("kind", ["distinguished", "principal"])
def test_an_empty_catalog_names_its_request(tmp_path, capsys, kind):
    # D2 has no orbit of either kind: the header and the table title name
    # the request, and export of the json writes the same table.
    request = ("classify", "--series", "D", "--dimv", "2", "--kind", kind)
    catalog_file = tmp_path / "catalog.json"
    assert run_cli(capsys, *request, "--format", "json", "--output", str(catalog_file))[0] == 0
    doc = json.loads(catalog_file.read_text())
    assert {k: doc.get(k) for k in ("series", "dimv", "kind", "entry_count")} == {
        "series": "D", "dimv": 2, "kind": kind, "entry_count": 0
    }
    code, out, _ = run_cli(capsys, *request, "--format", "csv")
    assert (code, out.count("\n"), out.startswith("series,dimv,kind,")) == (0, 1, True)
    code, table, _ = run_cli(capsys, *request, "--format", "table")
    title = "skewpairs-catalog catalog: series D, dimV 2, 0 entries"
    assert (code, table) == (0, f"{title}\n{'=' * len(title)}\n")
    assert run_cli(capsys, "export", "--input", str(catalog_file), "--format", "table") == (0, table, "")


def test_render_subcommand(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-3/2,1/2 -1/2,-1/2 -1/2,1/2 1/2,-1/2 1/2,1/2 3/2,-1/2\n")
    code, out, _ = run_cli(capsys, "render", "--input", str(graph_file))
    assert code == 0
    assert out == "###.\n.###\n"


@pytest.mark.parametrize(
    "text, finding",
    [
        pytest.param("0/1,0/1 1/2,0/1\n", "component 0: nodes do not all differ by integer vectors",
                     id="half-step"),
        pytest.param("0/1,0/1 1/1,1/1\n", "component 0: axiom (iv) fails at square -1/2,-1/2: -1/2,1/2 is missing;"
                     " component 0: axiom (iv) fails at square -1/2,-1/2: 1/2,-1/2 is missing; component 0: not connected",
                     id="diagonal-pair"),
        pytest.param("0/1,0/1 1/1,0/1\n1/1,0/1 2/1,0/1 3/1,0/1\n",
                     "components 0 and 1 share 1 nodes; only a single shared node (0,0) is allowed", id="overlap"),
    ],
)
def test_render_refuses_a_graph_that_is_no_skew_graph(tmp_path, capsys, text, finding):
    # Each was once drawn with exit 0, the first as "#".  The canonical form
    # of the input is validated, as build does, and its finding is one line.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(text)
    code, out, err = run_cli(capsys, "render", "--input", str(graph_file))
    assert (code, out, err) == (1, "", f"finding: the graph violates the axioms: {finding}\n")


def test_render_draws_a_valid_graph_where_it_lies(tmp_path, capsys):
    # A graph off the origin is valid once moved there, and is drawn as given.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("0/1,0/1 1/1,0/1\n1/1,0/1 2/1,0/1\n")
    code, out, _ = run_cli(capsys, "render", "--input", str(graph_file))
    assert (code, out) == (0, "a*b\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--series", "E", "--dimv", "4", "--kind", "principal"])
    assert exc.value.code == 2


def test_inadmissible_build_reports_finding(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/2,-1/2 -1/2,1/2 1/2,-1/2 1/2,1/2\n")
    code, _, err = run_cli(capsys, "build", "--series", "B", "--input", str(graph_file))
    assert code == 1
    assert "admissible" in err


def test_missing_input_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "render", "--input", "/nonexistent/graph.txt")
    assert code == 2
    assert "error" in err


def test_module_entry_point():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "skewpairs.cli", "count", "--series", "C", "--dimv", "4",
         "--kind", "principal"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "2\n"


def test_closed_stdout_exits_141_without_a_message():
    # A reader that stops after one line, as `skewpairs enumerate 12 | head -1`
    # does, once gave "error: [Errno 32] Broken pipe" and exit 2.
    import subprocess
    import sys

    proc = subprocess.Popen(
        [sys.executable, "-m", "skewpairs.cli", "enumerate", "12"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline().startswith(b"-11/2,0/1 ")
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(timeout=60), err) == (141, b"")


# The A2 domino, the B3 chain and the D6 graph of two chains sharing the origin.
_VERIFY_GRAPHS = {
    "A": "-1/2,0/1 1/2,0/1\n",
    "B": "-1/1,0/1 0/1,0/1 1/1,0/1\n",
    "D": "-1/1,0/1 0/1,0/1 1/1,0/1\n0/1,-1/1 0/1,0/1 0/1,1/1\n",
    # The D4 square, a connected series-D graph: build writes its orbit sign.
    "D4": "-1/2,-1/2 -1/2,1/2 1/2,-1/2 1/2,1/2\n",
}


def _verify_mutated(tmp_path, capsys, mutate, series="D"):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(_VERIFY_GRAPHS[series])
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", series[0], "--input", str(graph_file), "--output", str(pair_file))
    doc = json.loads(pair_file.read_text())
    mutate(doc)
    pair_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--input", str(pair_file))
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return code, err


@pytest.mark.parametrize("field", ["series", "dimv", "labels", "graph", "e1", "e2", "h1", "h2"])
def test_verify_names_a_missing_field(tmp_path, capsys, field):
    # Once printed as the bare key, "error: 'h1'"; a catalog names its
    # missing fields the same way.
    code, err = _verify_mutated(tmp_path, capsys, lambda doc: doc.pop(field))
    assert code == 2
    assert err == f"error: realization has no field {field!r}\n"


def test_verify_rejects_non_square_matrix(tmp_path, capsys):
    def drop_entry(doc):
        doc["e1"][0].pop()

    code, err = _verify_mutated(tmp_path, capsys, drop_entry)
    assert code == 2
    assert "e1" in err


def test_verify_rejects_dimv_that_disagrees_with_matrices(tmp_path, capsys):
    def shrink(doc):
        doc["dimv"] = 4

    code, _ = _verify_mutated(tmp_path, capsys, shrink)
    assert code == 2


def test_verify_rejects_missing_gram(tmp_path, capsys):
    def drop_gram(doc):
        doc["gram"] = None

    code, err = _verify_mutated(tmp_path, capsys, drop_gram)
    assert code == 2
    assert "gram" in err


@pytest.mark.parametrize("gram", [True, False], ids=["with-gram", "without-gram"])
def test_verify_names_an_unknown_series(tmp_path, capsys, gram):
    # Without a Gram matrix this was once refused as a series that needs one.
    def rename(doc):
        doc["series"] = "Z"
        if not gram:
            doc["gram"] = None

    assert _verify_mutated(tmp_path, capsys, rename) == (2, "error: unknown series 'Z'\n")


@pytest.mark.parametrize(
    "graph, changes, message",
    [
        # A zero form once exited 1 with the finding form_nondegenerate:
        # false, and a nondegenerate one exited 0.
        pytest.param("A", {"gram": {"shape": 2, "entries": []}}, "series A takes no gram matrix", id="A2-zero-gram"),
        pytest.param("A", {"gram": [["0", "1"], ["1", "0"]]}, "series A takes no gram matrix", id="A2-dense-gram"),
        pytest.param("B", {"gram": {"shape": 5, "entries": [[i, 4 - i, "1"] for i in range(5)]}},
                     "gram is not a 3x3 matrix", id="B3-5x5-gram"),
        pytest.param("B", {"dimv": 0, "labels": []}, "dimv must be a positive integer, got 0", id="B-dimv-0"),
    ],
)
def test_verify_refuses_a_gram_matrix_or_dimv_that_does_not_fit(tmp_path, capsys, graph, changes, message):
    assert _verify_mutated(tmp_path, capsys, lambda doc: doc.update(changes), graph) == (2, f"error: {message}\n")


@pytest.mark.parametrize(
    "graph, series, message",
    [
        pytest.param("D4", "B", "series B requires odd dimV", id="B4"),
        pytest.param("B", "C", "series C requires even dimV", id="C3"),
        pytest.param("B", "D", "series D requires even dimV", id="D3"),
    ],
)
def test_verify_refuses_a_series_of_the_wrong_parity(tmp_path, capsys, graph, series, message):
    def rename(doc):
        doc["series"] = series
        doc["orbit_sign"] = None

    assert _verify_mutated(tmp_path, capsys, rename, graph) == (2, f"error: {message}\n")


@pytest.mark.parametrize("verb", ["count", "classify"])
@pytest.mark.parametrize(
    "dimv, message",
    [
        pytest.param("0", "dimV must be positive", id="dimv-0"),
        pytest.param("13", "dimV 13 exceeds the configured bound of 12", id="dimv-13"),
    ],
)
def test_a_dimv_out_of_range_is_refused_by_name(capsys, verb, dimv, message):
    # 12 is the default --max-nodes.
    request = (verb, "--series", "A", "--dimv", dimv, "--kind", "distinguished")
    assert run_cli(capsys, *request) == (2, "", f"error: {message}\n")


def test_output_files_hold_the_bytes_stdout_prints(tmp_path, capsys):
    # build, verify and render once wrote their files without the newline
    # that ends what they print.
    graph, pair, catalog = tmp_path / "graph.txt", tmp_path / "pair.json", tmp_path / "catalog.json"
    graph.write_text("-1/2,0/1 1/2,0/1\n")
    requests = [
        ("build", "--series", "A", "--input", str(graph)),
        ("verify", "--input", str(pair)),
        ("classify", "--series", "C", "--dimv", "4", "--kind", "principal"),
        ("classify", "--series", "C", "--dimv", "4", "--kind", "principal", "--format", "table"),
        ("export", "--input", str(catalog), "--format", "csv"),
        ("render", "--input", str(graph)),
    ]
    pair.write_text(run_cli(capsys, *requests[0])[1])
    catalog.write_text(run_cli(capsys, *requests[2])[1])
    for argv in requests:
        code, out, err = run_cli(capsys, *argv)
        target = tmp_path / "out"
        assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", err) == (0, "", "")
        assert out.endswith("\n") and target.read_bytes() == out.encode()


def test_build_rejects_zero_denominator(tmp_path, capsys):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/2,0/1 1/0,0/1\n")
    code, out, err = run_cli(capsys, "build", "--series", "A", "--input", str(graph_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_rejects_zero_denominator(tmp_path, capsys):
    def divide_by_zero(doc):
        doc["h1"][0][0] = "1/0"

    code, err = _verify_mutated(tmp_path, capsys, divide_by_zero)
    assert code == 2
    assert "zero denominator" in err


def test_verify_rejects_label_without_two_coordinates(tmp_path, capsys):
    def shorten_label(doc):
        doc["labels"][0]["node"] = ["1/1"]

    code, _ = _verify_mutated(tmp_path, capsys, shorten_label)
    assert code == 2


def test_verify_rejects_large_dimv_with_few_labels(tmp_path, capsys):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(large_dimv_document()))
    code, out, err = run_cli(capsys, "verify", "--input", str(pair_file))
    assert code == 2
    assert out == ""
    assert err == "error: 4 labels for dimv 2000\n"


def test_catalog_verification_failure_is_a_finding(monkeypatch, capsys):
    import dataclasses

    from skewpairs import catalog

    real_analyze = catalog.analyze

    def not_distinguished(r):
        report = real_analyze(r)
        return dataclasses.replace(
            report, flags=dataclasses.replace(report.flags, distinguished=False)
        )

    monkeypatch.setattr(catalog, "analyze", not_distinguished)
    code, out, err = run_cli(
        capsys, "classify", "--series", "D", "--dimv", "6", "--kind", "principal"
    )
    assert code == 1
    assert out == ""
    assert err.startswith("finding: entry is not distinguished") and err.count("\n") == 1


@pytest.mark.parametrize("series, dimv, kind, flags", [
    pytest.param("D", "2", "distinguished", (), id="D2-empty"),
    pytest.param("D", "6", "principal", (), id="D6-principal"),
    pytest.param("C", "8", "distinguished", (), id="C8-distinguished"),
    pytest.param("A", "8", "principal", ("--full-matrices",), id="A8-principal-full-matrices"),
])
def test_classify_publishes_the_catalog_whole(tmp_path, capsys, series, dimv, kind, flags):
    # Streamed through a temporary file: copied to stdout, or renamed onto
    # --output in place of an older file, with nothing else left beside it.
    entries = classify(series, int(dimv), kind)
    target = tmp_path / "catalog"
    for fmt in ("json", "csv", "table"):
        target.write_text("an older catalog\n")
        expected = export_entries(entries, fmt, include_matrices=bool(flags), request=(series, int(dimv), kind))
        argv = ("classify", "--series", series, "--dimv", dimv, "--kind", kind, "--format", fmt, *flags)
        assert run_cli(capsys, *argv) == (0, expected, "")
        assert run_cli(capsys, *argv, "--output", str(target)) == (0, "", "")
        assert target.read_bytes() == expected.encode() and os.listdir(tmp_path) == ["catalog"]


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_a_failure_midway_publishes_nothing(tmp_path, capsys, monkeypatch, fmt, to_file):
    # The third of D6's 7 principal entries fails after two were written.
    real_analyze, analyzed = catalog.analyze, []

    def third_fails(r):
        analyzed.append(r)
        if len(analyzed) == 3:
            raise ValueError("relations fail")
        return real_analyze(r)

    monkeypatch.setattr(catalog, "analyze", third_fails)
    target = tmp_path / "catalog"
    target.write_bytes(b"an older catalog\n")
    output = ("--output", str(target)) if to_file else ()
    code, out, err = run_cli(capsys, "classify", "--series", "D", "--dimv", "6", "--kind", "principal",
                             "--format", fmt, *output)
    assert (code, out, err.count("\n")) == (1, "", 1) and len(analyzed) == 3
    assert err.startswith("finding: relations fail; offending graph: ")
    assert target.read_bytes() == b"an older catalog\n" and os.listdir(tmp_path) == ["catalog"]


@pytest.mark.parametrize("count", [6, 8])
def test_a_count_the_entries_do_not_meet_is_a_finding(tmp_path, capsys, monkeypatch, count):
    # The header is written from the count before the 7 D6 principal
    # entries are made; they are counted after the last.
    monkeypatch.setattr(catalog, "_admissible_count", lambda *request: count)
    target = tmp_path / "catalog.json"
    request = ("classify", "--series", "D", "--dimv", "6", "--kind", "principal", "--output", str(target))
    assert run_cli(capsys, *request) == (1, "", f"finding: 7 entries were written where the count is {count}\n")
    assert os.listdir(tmp_path) == []


def test_output_through_a_symlink_or_to_a_device(tmp_path, capsys):
    # A symlink's file is replaced and the link kept; a device, which cannot
    # be replaced, gets a copy.
    request = ("classify", "--series", "C", "--dimv", "4", "--kind", "principal", "--format", "csv")
    expected = run_cli(capsys, *request)[1]
    real, link = tmp_path / "real.csv", tmp_path / "link.csv"
    real.write_text("an older catalog\n")
    link.symlink_to(real)
    assert run_cli(capsys, *request, "--output", str(link)) == (0, "", "")
    assert link.is_symlink() and real.read_text() == expected
    assert sorted(os.listdir(tmp_path)) == ["link.csv", "real.csv"]
    assert run_cli(capsys, *request, "--output", os.devnull) == (0, "", "")


def _set_e1(value):
    def mutate(doc):
        doc["e1"] = value

    return mutate


def _set_e1_entry(value):
    def mutate(doc):
        doc["e1"][0][0] = value

    return mutate


def _set_label_node(value):
    def mutate(doc):
        doc["labels"][0]["node"] = value

    return mutate


def _set_graph_node(value):
    def mutate(doc):
        doc["graph"]["components"][0][0] = value

    return mutate


def _set_key(key, value):
    def mutate(doc):
        if key == "components":
            doc["graph"]["components"] = value
        else:
            doc[key] = value

    return mutate


@pytest.mark.parametrize(
    "mutate",
    [
        pytest.param(_set_e1(5), id="matrix-is-a-number"),
        pytest.param(_set_e1([1, 2, 3, 4, 5, 6]), id="matrix-rows-are-numbers"),
        pytest.param(_set_e1({"shape": "6", "entries": []}), id="sparse-shape-is-a-string"),
        pytest.param(_set_label_node([[1], "0"]), id="label-coordinate-is-a-list"),
        pytest.param(_set_label_node(7), id="label-node-is-a-number"),
        pytest.param(_set_graph_node([None, "0"]), id="graph-coordinate-is-null"),
        pytest.param(_set_key("labels", 5), id="labels-is-a-number"),
        pytest.param(_set_key("components", 5), id="components-is-a-number"),
        pytest.param(_set_label_node([True, False]), id="label-node-is-booleans"),
        pytest.param(_set_e1_entry(True), id="matrix-entry-is-true"),
        pytest.param(_set_e1_entry("1e40000000"), id="matrix-entry-has-a-huge-exponent"),
        pytest.param(_set_e1_entry("1e4300"), id="matrix-entry-has-4301-digits"),
        pytest.param(_set_e1_entry("1" * 5000), id="matrix-entry-has-5000-digits"),
    ],
)
def test_verify_rejects_wrong_json_types(tmp_path, capsys, mutate):
    # Each of these once escaped as a TypeError traceback with exit 1.
    code, _ = _verify_mutated(tmp_path, capsys, mutate)
    assert code == 2


def _build_error(tmp_path, capsys, text):
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(text)
    code, out, err = run_cli(capsys, "build", "--series", "A", "--input", str(graph_file))
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    return code, err


def test_build_rejects_repeated_node(tmp_path, capsys):
    # Once merged without a word into a dimV-1 realization with exit 0.
    code, err = _build_error(tmp_path, capsys, "1/1,0/1 1/1,0/1\n")
    assert code == 2
    assert "1/1,0/1 appears twice" in err


def test_verify_rejects_repeated_graph_node(tmp_path, capsys):
    def repeat_node(doc):
        nodes = doc["graph"]["components"][0]
        nodes.append(nodes[0])

    code, err = _verify_mutated(tmp_path, capsys, repeat_node)
    assert code == 2
    assert "appears twice" in err


@pytest.mark.parametrize(
    "token",
    [pytest.param("1/1", id="no-comma"), pytest.param("1/1,0/1,2/1", id="two-commas")],
)
def test_build_names_node_token_without_one_comma(tmp_path, capsys, token):
    code, err = _build_error(tmp_path, capsys, f"-1/1,0/1 {token}\n")
    assert code == 2
    assert f"node '{token}' is not two coordinates" in err


def test_build_refuses_a_huge_exponent_at_once(tmp_path, capsys):
    # Reading 10^40000000 as a Fraction once ran for minutes.
    start = time.perf_counter()
    code, err = _build_error(tmp_path, capsys, "0/1,0/1\n1e40000000,0/1\n")
    assert time.perf_counter() - start < 2
    assert code == 2
    assert "exponent of '1e40000000' exceeds 4300" in err


def test_render_rejects_nodes_spread_beyond_a_square(tmp_path, capsys):
    # Drawing 0 and 10^12 on one grid once ran until it was killed.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("0/1,0/1\n1e12,0/1\n")
    code, out, err = run_cli(capsys, "render", "--input", str(graph_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: nodes spread over 1000000000001 x 1 cells") and err.count("\n") == 1


@pytest.mark.parametrize(
    "token", [pytest.param("1e4300", id="4301-digits"), pytest.param("1" * 5000, id="5000-digits")]
)
def test_render_names_a_number_too_long_to_print(tmp_path, capsys, token):
    # Once read without a word, then refused on output by the interpreter's
    # digit limit, in a message that named neither the token nor the input.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text(f"0/1,0/1\n{token},0/1\n")
    code, out, err = run_cli(capsys, "render", "--input", str(graph_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"{reprlib.repr(token)} has more than 4300 digits" in err


def test_verify_reports_disagreeing_rectangularity_sides_as_finding(tmp_path, capsys):
    # A series-C chain with the middle entry of e1 deleted: the relations
    # hold, but h1 is not in the image of ad e1 while h2 = 0 is in that of
    # ad e2 = 0.  This once escaped as a RuntimeError traceback.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-3/2,0/1 -1/2,0/1 1/2,0/1 3/2,0/1\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "C", "--format", "sparse", "--input", str(graph_file), "--output", str(pair_file))
    doc = json.loads(pair_file.read_text())
    doc["e1"]["entries"] = [e for e in doc["e1"]["entries"] if e[:2] != [2, 1]]
    assert len(doc["e1"]["entries"]) == 2
    pair_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--input", str(pair_file))
    assert code == 1
    assert out == ""
    assert err == (
        "finding: the rectangularity tests disagree: h1 is not in the image of ad e1, h2 is in that of ad e2\n"
    )


def test_verify_rejects_a_gram_matrix_of_the_wrong_symmetry(tmp_path, capsys):
    # The rectangularity test reads [e, g] as the orthogonal of z_g(e) under
    # the trace form, which holds on so(G) and sp(G) only; a series-B Gram
    # matrix that is not symmetric is malformed input.
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-2/1,0/1 -1/1,0/1 0/1,0/1 1/1,0/1 2/1,0/1\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "B", "--format", "sparse", "--input", str(graph_file), "--output", str(pair_file))
    doc = json.loads(pair_file.read_text())
    assert [0, 4, "1"] in doc["gram"]["entries"]
    doc["gram"]["entries"] = [[0, 4, "2"] if e[:2] == [0, 4] else e for e in doc["gram"]["entries"]]
    pair_file.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "verify", "--input", str(pair_file))
    assert (code, out) == (2, "")
    assert err == "error: the gram matrix of a series B realization must be symmetric\n"


def test_verify_committed_conjugated_document(tmp_path, capsys):
    # tests/data/conjugated-d6-chains.json is the D6 graph of two chains
    # sharing the origin, moved by a seeded isometry (conjugated(r,
    # random.Random(2026))) so that h1 and h2 are not diagonal.  Its stdout
    # is pinned in tests/data/digests.json, which tier-1 checks.
    path = pathlib.Path(__file__).parent / "data" / "conjugated-d6-chains.json"
    doc = json.loads(path.read_text())
    assert any(entry[0] != entry[1] for name in ("h1", "h2") for entry in doc[name]["entries"])
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/1,0/1 0/1,0/1 1/1,0/1\n0/1,-1/1 0/1,0/1 0/1,1/1\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "D", "--input", str(graph_file), "--output", str(pair_file))
    reports = []
    for source in (pair_file, path):
        code, out, err = run_cli(capsys, "verify", "--input", str(source))
        assert (code, err) == (0, "")
        reports.append(json.loads(out)["report"])
    diag, conj = reports
    assert diag["dimension"] == conj["dimension"] == 3
    assert diag["flags"] == conj["flags"]


def test_verify_committed_conjugated_document_with_a_witness(tmp_path, capsys):
    # tests/data/conjugated-c4-zigzag.json is the C4 zigzag, distinguished
    # and not principal, moved by conjugated(r, random.Random(2026)).  Its
    # report has a nonpositive witness, mapped back to the document's
    # coordinates; the manifest pins its stdout.
    path = pathlib.Path(__file__).parent / "data" / "conjugated-c4-zigzag.json"
    doc = json.loads(path.read_text())
    assert any(entry[0] != entry[1] for name in ("h1", "h2") for entry in doc[name]["entries"])
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/1,1/2 0/1,-1/2 0/1,1/2 1/1,-1/2\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "C", "--input", str(graph_file), "--output", str(pair_file))
    outs = []
    for source in (pair_file, path):
        code, out, err = run_cli(capsys, "verify", "--input", str(source))
        assert (code, err) == (0, "")
        outs.append(out)
    diag, conj = (json.loads(out)["report"] for out in outs)
    diag.pop("nonpositive_witness")
    witness = conj.pop("nonpositive_witness")
    assert diag == conj and not conj["flags"]["principal"]
    assert (witness["p"], witness["q"]) == ("2", "-1")


def test_verify_committed_dense_conjugated_document(tmp_path, capsys):
    # tests/data/conjugated-b5-dense.json is a B5 graph, distinguished and
    # not principal, moved by conjugated(r, random.Random(2026)) and written
    # dense.  Its eigenframe has columns whose last entry is 2, so e1 and e2
    # are moved by rows of e T scaled to a common lead.  The manifest pins
    # its stdout, recorded when e1 and e2 were moved by T^-1.
    path = pathlib.Path(__file__).parent / "data" / "conjugated-b5-dense.json"
    doc = json.loads(path.read_text())
    assert doc["format"] == "dense"
    assert any(x != "0" for name in ("h1", "h2") for i, row in enumerate(doc[name]) for j, x in enumerate(row) if i != j)
    _, _, h1, h2 = realization_from_jsonable(doc)._scaled()
    assert any(next(x for x in reversed(v) if x) > 1 for _, vecs in joint_eigenbasis(h1, h2) for v in vecs)
    graph_file = tmp_path / "graph.txt"
    graph_file.write_text("-1/1,0/1 -1/1,1/1 0/1,0/1 1/1,-1/1 1/1,0/1\n")
    pair_file = tmp_path / "pair.json"
    run_cli(capsys, "build", "--series", "B", "--input", str(graph_file), "--output", str(pair_file))
    outs = []
    for source in (pair_file, path):
        code, out, err = run_cli(capsys, "verify", "--input", str(source))
        assert (code, err) == (0, "")
        outs.append(out)
    diag, conj = (json.loads(out)["report"] for out in outs)
    diag.pop("nonpositive_witness")
    witness = conj.pop("nonpositive_witness")
    assert diag == conj and not conj["flags"]["principal"]
    assert (witness["p"], witness["q"]) == ("2", "-1")


def _b3_sparse_document(tmp_path, capsys) -> dict:
    graph_file = tmp_path / "b3.txt"
    graph_file.write_text("-1/1,0/1 0/1,0/1 1/1,0/1\n")
    code, out, _ = run_cli(capsys, "build", "--series", "B", "--format", "sparse", "--input", str(graph_file))
    assert code == 0
    return json.loads(out)


def _verify_document(tmp_path, capsys, doc):
    pair_file = tmp_path / "pair.json"
    pair_file.write_text(json.dumps(doc))
    return run_cli(capsys, "verify", "--input", str(pair_file))


def _move_label(doc):
    doc["labels"][0]["node"] = ["5", "7"]


def _repeat_label(doc):
    doc["labels"][2] = dict(doc["labels"][1])


def _append_empty_component(doc):
    doc["graph"]["components"].append([])


def _drop_components(doc):
    doc["graph"]["components"] = []


@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(_move_label, "label 0: node (5, 7) is not a node of graph component 0", id="label-off-the-graph"),
        pytest.param(_repeat_label, "label 2 repeats component 0, node (0, 0)", id="label-repeated"),
        pytest.param(_append_empty_component, "graph component 1 has no node", id="empty-component"),
        pytest.param(_drop_components, "no components in graph", id="no-component"),
    ],
)
def test_verify_refuses_labels_or_components_that_describe_no_graph(tmp_path, capsys, mutate, message):
    # Each of these once verified with exit 0 and a full report.
    doc = _b3_sparse_document(tmp_path, capsys)
    mutate(doc)
    assert _verify_document(tmp_path, capsys, doc) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("node", [["1/2", "1/3"], ["1/3", "1/2"], ["-1/2", "1/2"]], ids=["y", "x", "sign"])
def test_verify_refuses_a_label_that_differs_from_its_node_in_one_part(tmp_path, capsys, node):
    # The labels are matched to the graph's nodes as ints, each coordinate
    # in lowest terms: the label of the B5 node (1/2, 1/2) moved to a node
    # with the same numerators, or to another node of the square, which
    # then appears twice.
    graph_file = tmp_path / "b5.txt"
    graph_file.write_text("-1/2,-1/2 -1/2,1/2 1/2,-1/2 1/2,1/2\n0/1,0/1\n")
    code, out, _ = run_cli(capsys, "build", "--series", "B", "--format", "sparse", "--input", str(graph_file))
    doc = json.loads(out)
    (i,) = [k for k, item in enumerate(doc["labels"]) if item["node"] == ["1/2", "1/2"]]
    doc["labels"][i]["node"] = node
    code, out, err = _verify_document(tmp_path, capsys, doc)
    assert (code, out) == (2, "")
    if node[0] == "-1/2":
        j = next(k for k, item in enumerate(doc["labels"]) if item["node"] == node and k != i)
        assert err == f"error: label {max(i, j)} repeats component 0, node (-1/2, 1/2)\n"
    else:
        assert err == f"error: label {i}: node ({node[0]}, {node[1]}) is not a node of graph component 0\n"


def test_verify_reads_one_number_spelled_four_ways_as_one(tmp_path, capsys):
    # The B5 graph of a 2x2 square and the point: its coordinates and h1, h2
    # hold +-1/2, here spelled "2/4" in the labels, "0.5" in the graph, the
    # number 0.5 in h1 and "1/2" in h2.
    graph_file = tmp_path / "b5.txt"
    graph_file.write_text("-1/2,-1/2 -1/2,1/2 1/2,-1/2 1/2,1/2\n0/1,0/1\n")
    code, out, _ = run_cli(capsys, "build", "--series", "B", "--input", str(graph_file))
    assert code == 0
    canonical = json.loads(out)
    doc = json.loads(out)

    def respell(values, half):
        return [{"1/2": half, "-1/2": "-" + half if isinstance(half, str) else -half}.get(x, x) for x in values]

    for item in doc["labels"]:
        item["node"] = respell(item["node"], "2/4")
    doc["graph"]["components"] = [[respell(nd, "0.5") for nd in nodes] for nodes in doc["graph"]["components"]]
    doc["h1"] = [respell(row, 0.5) for row in doc["h1"]]
    assert "2/4" in str(doc["labels"]) and "0.5" in str(doc["graph"]) and 0.5 in sum(doc["h1"], [])
    assert "1/2" in str(doc["h2"])
    r, back = realization_from_jsonable(canonical), realization_from_jsonable(doc)
    assert back.labels == r.labels and back.graph == r.graph and back._scaled() == r._scaled()
    expected = _verify_document(tmp_path, capsys, canonical)
    assert expected[0] == 0
    assert _verify_document(tmp_path, capsys, doc) == expected


def _set_label_component(value):
    def mutate(doc):
        doc["labels"][-1]["component"] = value

    return mutate


_SIGN_ONLY_FOR_D = "orbit_sign is only meaningful for connected series-D graphs"


@pytest.mark.parametrize(
    "series, mutate, message",
    [
        pytest.param("D", _set_key("orbit_sign", "zz"), "orbit_sign must be null, plus or minus, got 'zz'",
                     id="orbit-sign-zz"),
        pytest.param("D", _set_key("orbit_sign", 1), "orbit_sign must be null, plus or minus, got 1",
                     id="orbit-sign-1"),
        pytest.param("B", _set_key("orbit_sign", "plus"), _SIGN_ONLY_FOR_D, id="orbit-sign-plus-on-b3"),
        pytest.param("D", _set_key("orbit_sign", "minus"), _SIGN_ONLY_FOR_D, id="orbit-sign-minus-on-d6-chains"),
        pytest.param("D4", _set_key("orbit_sign", None),
                     "a connected series-D graph needs its orbit_sign, plus or minus", id="orbit-sign-null-on-d4-square"),
        pytest.param("D", _set_label_component("a"),
                     "label component 'a' is not the index of one of the 2 graph components", id="component-a"),
        pytest.param("D", _set_label_component(True),
                     "label component True is not the index of one of the 2 graph components", id="component-true"),
        pytest.param("D", _set_label_component(2),
                     "label component 2 is not the index of one of the 2 graph components", id="component-2"),
        pytest.param("D", _set_label_component(7),
                     "label component 7 is not the index of one of the 2 graph components", id="component-7"),
        pytest.param("D", _set_label_component(-1),
                     "label component -1 is not the index of one of the 2 graph components", id="component-minus-1"),
    ],
)
def test_verify_rejects_a_bad_orbit_sign_or_label_component(tmp_path, capsys, series, mutate, message):
    # Each of these was once read without a word, and verify exited 0.
    code, err = _verify_mutated(tmp_path, capsys, mutate, series)
    assert (code, err) == (2, f"error: {message}\n")


def _drop_series(doc):
    del doc["entries"][1]["series"]
    return doc


def _set_entry(index, key, value):
    def mutate(doc):
        doc["entries"][index][key] = value
        return doc

    return mutate


def _set_first_flag(doc):
    doc["entries"][0]["report"]["flags"]["principal"] = "yes"
    return doc


def _set_first_biexponent(doc):
    doc["entries"][0]["report"]["biexponents"][0] = 7
    return doc


def _set_report(field, value):
    def mutate(doc):
        doc["entries"][0]["report"][field] = value
        return doc

    return mutate


def _set_first_node(value):
    def mutate(doc):
        doc["entries"][0]["graph"]["components"][0][0] = value
        return doc

    return mutate


_NOT_A_PAIR = "entries[0].{}[0] must be a pair of rationals, strings n or n/d"


def _set_values_the_schema_forbids(doc):
    # The edits of one catalog that export once printed with exit 0: the
    # first one is named.
    doc.update(schema="nope", entry_count=3, series="Q", dimv=-3)
    doc["entries"][0]["orbit_sign"] = "sideways"
    doc["entries"][1]["kind"] = "weird"
    return doc


_BAD_LABEL = "entries[{}].orbit_label must be 12 hex digits and an optional sign + or -"


def _set_first_dimension(value):
    def mutate(doc):
        doc["entries"][0]["report"]["dimension"] = value
        return doc

    return mutate


def _set_label_rank_and_dimension(doc):
    # Values of the right JSON types that catalog.schema.json forbids: the
    # first one is named.
    doc["entries"][0].update(orbit_label="not a label\nsecond line", rank=-5)
    doc["entries"][0]["report"]["dimension"] = -1
    return doc


@pytest.mark.parametrize("fmt", ["csv", "table"])
@pytest.mark.parametrize(
    "mutate, message",
    [
        pytest.param(lambda doc: doc["entries"], "catalog must be an object", id="top-level-array"),
        pytest.param(lambda doc: {**doc, "entries": {"0": 1}}, "catalog.entries must be a list", id="entries-an-object"),
        pytest.param(lambda doc: {**doc, "entries": [5]}, "entries[0] must be an object", id="entry-a-number"),
        pytest.param(_drop_series, "entries[1] has no field 'series'", id="missing-series"),
        pytest.param(_set_entry(0, "dimv", True), "entries[0].dimv must be an integer", id="dimv-true"),
        pytest.param(_set_entry(1, "graph", {"components": [[]]}),
                     "entries[1].graph.components must be a nonempty list of nonempty node lists", id="empty-component"),
        pytest.param(_set_first_flag, "entries[0].report.flags.principal must be a boolean", id="flag-a-string"),
        pytest.param(_set_first_biexponent, _NOT_A_PAIR.format("report.biexponents"), id="biexponent-a-number"),
        pytest.param(_set_values_the_schema_forbids, "catalog.schema must be skewpairs-catalog", id="forbidden-values"),
        pytest.param(lambda doc: {**doc, "schema_version": 0}, "catalog.schema_version must be at least 1",
                     id="schema-version-0"),
        pytest.param(lambda doc: {**doc, "entry_count": 3}, "catalog.entry_count must be 9", id="entry-count-3"),
        pytest.param(lambda doc: {**doc, "series": "Q"}, "catalog.series must be A or B or C or D", id="series-Q"),
        pytest.param(lambda doc: {**doc, "dimv": -3}, "catalog.dimv must be at least 1", id="dimv-minus-3"),
        pytest.param(lambda doc: {**doc, "dimv": "6"}, "catalog.dimv must be an integer", id="dimv-a-string"),
        pytest.param(lambda doc: {**doc, "kind": None}, "catalog.kind must be distinguished or principal",
                     id="kind-null"),
        pytest.param(_set_entry(0, "orbit_sign", "sideways"), "entries[0].orbit_sign must be null or plus or minus",
                     id="orbit-sign-sideways"),
        pytest.param(_set_entry(1, "kind", "weird"), "entries[1].kind must be distinguished or principal",
                     id="entry-kind-weird"),
        pytest.param(_set_entry(2, "series", "Q"), "entries[2].series must be A or B or C or D", id="entry-series-Q"),
        pytest.param(_set_entry(3, "dimv", 0), "entries[3].dimv must be at least 1", id="entry-dimv-0"),
        pytest.param(_set_label_rank_and_dimension, _BAD_LABEL.format(0), id="label-two-lines-rank-dimension"),
        pytest.param(_set_entry(1, "orbit_label", "ABCDEF012345"), _BAD_LABEL.format(1), id="label-upper-case"),
        pytest.param(_set_entry(1, "orbit_label", "0123456789ab\n"), _BAD_LABEL.format(1), id="label-newline"),
        pytest.param(_set_entry(1, "orbit_label", "0123456789abc"), _BAD_LABEL.format(1), id="label-13-digits"),
        pytest.param(_set_entry(2, "rank", -5), "entries[2].rank must be at least 0", id="rank-minus-5"),
        pytest.param(_set_first_dimension(-1), "entries[0].report.dimension must be at least 0", id="dimension-minus-1"),
        pytest.param(_set_report("biexponents", [["one", "1/0"]]), _NOT_A_PAIR.format("report.biexponents"),
                     id="biexponent-one"),
        pytest.param(_set_report("biexponents", [["1", "0"], ["1 ", "0"]]),
                     "entries[0].report.biexponents[1] must be a pair of rationals, strings n or n/d",
                     id="biexponent-with-a-space"),
        pytest.param(_set_report("grading", [{"p": "x", "dim": -3}, 7]), "entries[0].report.grading[0] has no field 'q'",
                     id="grading-p-x-dim-minus-3"),
        pytest.param(_set_report("grading", [{"p": "x", "q": "0", "dim": 1}]),
                     "entries[0].report.grading[0].p must be a rational, a string n or n/d", id="grading-p-x"),
        pytest.param(_set_report("grading", [{"p": "1", "q": "1/2/3", "dim": 1}]),
                     "entries[0].report.grading[0].q must be a rational, a string n or n/d", id="grading-q-two-slashes"),
        pytest.param(_set_report("grading", [{"p": "1", "q": "0", "dim": 0}]),
                     "entries[0].report.grading[0].dim must be at least 1", id="grading-dim-0"),
        pytest.param(_set_report("grading", [{"p": "1", "q": "0", "dim": 1}, 7]),
                     "entries[0].report.grading[1] must be an object", id="grading-cell-a-number"),
        pytest.param(_set_first_node(["zero", "1/0"]), _NOT_A_PAIR.format("graph.components[0]"), id="node-zero"),
        pytest.param(_set_first_node([0, 0]), _NOT_A_PAIR.format("graph.components[0]"), id="node-numbers"),
        pytest.param(_set_first_node(["0", "0", "0"]), _NOT_A_PAIR.format("graph.components[0]"),
                     id="node-three-coordinates"),
        pytest.param(_set_report("biexponents", [["1/0", "0"]]), _NOT_A_PAIR.format("report.biexponents"),
                     id="biexponent-zero-denominator"),
        pytest.param(_set_report("grading", [{"p": "1/0", "q": "0", "dim": 1}]),
                     "entries[0].report.grading[0].p must be a rational, a string n or n/d", id="grading-p-zero-denominator"),
        pytest.param(_set_report("grading", [{"p": "1", "q": "-1/-00", "dim": 1}]),
                     "entries[0].report.grading[0].q must be a rational, a string n or n/d", id="grading-q-zero-denominator"),
        pytest.param(_set_first_node(["0", "1/0"]), _NOT_A_PAIR.format("graph.components[0]"),
                     id="node-zero-denominator"),
    ],
)
def test_export_names_the_malformed_field(tmp_path, capsys, mutate, message, fmt):
    # The first three once escaped as tracebacks with exit 1, and a missing
    # field printed only its name.  From forbidden-values on, each was once
    # exported with exit 0, the table titled "series Q, dimV -3" and so on;
    # a two-line label once printed a table row broken in two.  Each
    # bi-exponent, grading and csv node edit from biexponent-one on was once
    # exported with exit 0 too; a table once refused a node by its Fraction
    # parse, without naming the field.  The zero denominators, last, were
    # once exported as written, "(1/0,0)".
    code, out, _ = run_cli(capsys, "classify", "--series", "D", "--dimv", "6", "--kind", "distinguished")
    assert code == 0
    catalog_file = tmp_path / "catalog.json"
    catalog_file.write_text(json.dumps(mutate(json.loads(out))))
    code, out, err = run_cli(capsys, "export", "--input", str(catalog_file), "--format", fmt)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_build_and_verify_write_what_json_dumps_writes(tmp_path, capsys, monkeypatch):
    # Every build (dense and sparse) and verify document to dimV 6, verify
    # also on a conjugated copy and on a pair whose relations fail (exit 1).
    written = []

    def recording(obj):
        written.append(obj)
        return json_text(obj)

    monkeypatch.setattr(cli, "json_text", recording)
    graph_file, pair_file = tmp_path / "graph.txt", tmp_path / "pair.json"
    rng = random.Random(20261019)
    checked = 0
    for r in small_realizations():
        graph_file.write_text(graph_to_text(r.graph))
        sign = ("--orbit-sign", r.orbit_sign) if r.orbit_sign else ()
        docs = []
        for fmt in ("dense", "sparse"):
            code, out, _ = run_cli(capsys, "build", "--series", r.spec.series, "--format", fmt,
                                   "--input", str(graph_file), *sign)
            assert (code, out) == (0, json.dumps(written[-1], indent=2) + "\n")
            docs.append(out)
        moved = conjugated(r, rng) if r.spec.dimv > 1 else None
        if moved is not None:
            docs.append(json.dumps(realization_to_jsonable(moved)))
        broken = json.loads(docs[0])
        broken["e2"] = broken["e1"]
        docs.append(json.dumps(broken))
        for doc in docs:
            pair_file.write_text(doc)
            code, out, err = run_cli(capsys, "verify", "--input", str(pair_file))
            if err.startswith("finding: "):
                assert (code, out) == (1, "")
                continue
            assert code in (0, 1) and out == json.dumps(written[-1], indent=2) + "\n"
            checked += 1
    assert checked > 300
