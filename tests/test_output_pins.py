"""Library output pinned by digest, and tier-1's share of the manifest.

The command-line outputs are pinned in tests/data/digests.json (see
tests/digests.py); tier-1 checks each series' catalog rows in a test of its
own, and the other rows together.  What this file pins itself is library
output: each digest
is a sha256 recorded from the eigen layer that found rational eigenvalues by
a divisor search over a Fraction characteristic polynomial and split the
h2-action on each h1-eigenspace by restriction.  A change in any byte of
these outputs fails here:

- ``report_to_jsonable(analyze(r))``, with the basis that
  ``oracles.dense_basis`` maps back under the key "basis", and the text of
  ``graph_from_pair`` for every distinguished or principal realization
  with dimV <= 6 and for a seeded conjugated copy of each, grouped by
  (series, dimV);
- the same for every distinguished realization with dimV 7 or 8 and a
  seeded conjugated copy of each, where most of the moved frames have a
  nonpositive witness.

The closed forms are pinned by value: ``closed_form_centralizer`` of every
principal graph with dimV <= 14, and ``is_admissible(..., "principal")`` of
every distinguished graph with dimV <= 12 (series A: dimV <= 9)."""

import hashlib
import json
import random

import pytest

import digests
from conftest import conjugated, distinguished_realizations, small_realizations
from oracles import dense_basis
from skewpairs.centralizer import analyze, closed_form_centralizer, graph_from_pair, report_to_jsonable
from skewpairs.liealg import scaled_to_jsonable
from skewpairs.linalg import integral_rows
from skewpairs.skewgraph import SERIES, enumerate_admissible, graph_to_text, is_admissible

ANALYSIS_DIGESTS = {
    ("A", 1): "cefbb9f9cfafc511e3d81770baaf5b88c7f228467409e1293173d1aba682e766",
    ("A", 2): "ace84ef78c159bfacd1fe7184ca5dd02d2f4fcdea77a55c9b29d69d14f8c0341",
    ("A", 3): "a5670b3a229559726bff103b5902fd7b1c74001c2057a32ec91566ec09eaac4c",
    ("A", 4): "4c4b5905b9c60342d78875b736d8620f61efa785254636cbca2308856c073b30",
    ("A", 5): "b8cafcf7b344276fadef05b3cc1247cd360deca66fc4f622741bb95f49337e28",
    ("A", 6): "6938373d18e98e457489e522f8a9a859adc52ae32527f2e9c2bc64ba48160bca",
    ("B", 1): "cefbb9f9cfafc511e3d81770baaf5b88c7f228467409e1293173d1aba682e766",
    ("B", 3): "9e4b1cce384075d60c3e4ebb07940406daa5167f57cac61857ff2198dfaf71d0",
    ("B", 5): "426eb4918c1bb512f4cfe2383bee6bcabd5d68e6d7d239877c609cd185084ed7",
    ("C", 2): "b5d787619f1dc38c28bf33f89f3e1ff4f6a76aeb5763a530f54537553ea34c0b",
    ("C", 4): "44305e7cb855e48f677fe15fe355e31f7fa737d5b671a92a1b0fad0820eaa577",
    ("C", 6): "bc49a06e10be792215e6a68c5c5fd8aa06993bd53a3bd36c7f3968d8512e3b89",
    ("D", 4): "cfb50b6685ca9143e83a80d67307f51bfbfd3cc33b7384e4bf7ad71d7eaa8743",
    ("D", 6): "a31e74f532b5caad2487d2062aab769899b12d35ac06610ad464d418a17d741f",
}

ANALYSIS_DIGESTS_7_8 = {
    ("A", 7): "4b380c6004108b9fee208f5aabe0efce1e89da1550b3dff078a508d6a9fe1ce4",
    ("A", 8): "995451e1030490c4c6023967353aba335d418dcfb64bc2b09ae0ef62b70e9fa4",
    ("B", 7): "744350ceb047a273072e44cd38d459ad4ad1b3f76f8e2aa21cb322d9ef7e5520",
    ("C", 8): "a37724d8fe843cafc5f9fa923964968c6d5dc62f1b92360cb24fc77794ef421f",
    ("D", 8): "a91d47820530181d64fb598e05cf9c5df98c5c5823568cb93f27549ff331de0c",
}

CLOSED_FORM_DIGESTS = {
    "closed_form": "a7237cb08091537f2fc72a204f1de03c39f5318692380f51f62ce47a86459598",
    "principal_check": "c26542647cd27aa89b7b130789633341060bd9ec512501d4b7ef0af7d9858db4",
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def analysis_digests(realizations) -> dict:
    """(series, dimV) -> digest of the analysis texts of that group's
    realizations and their conjugated copies, in enumeration order.  Each
    group draws its conjugations from its own seeded generator."""
    texts: dict = {}
    rngs: dict = {}
    for r in realizations:
        key = (r.spec.series, r.spec.dimv)
        rng = rngs.setdefault(key, random.Random(f"pins {key[0]}{key[1]}"))
        copies = [r]
        moved = conjugated(r, rng) if r.spec.dimv > 1 else None
        if moved is not None:
            copies.append(moved)
        for c in copies:
            rep = analyze(c)
            report = report_to_jsonable(rep)
            report["basis"] = [scaled_to_jsonable(integral_rows(m)) for m in dense_basis(rep)]
            graph = graph_from_pair(c.spec, c.e1, c.e2, c.h1, c.h2)
            texts.setdefault(key, []).append(json.dumps(report, indent=1) + "\n" + graph_to_text(graph))
    return {key: _sha("\n\n".join(parts)) for key, parts in texts.items()}


def _in_tier1(name: str) -> bool:
    """Every manifest row but the seed documents and the catalogs of dimV 10
    to 12: about 2 s of the manifest's 30 s."""
    return " seed " not in name and not any(f"--dimv {d} " in name for d in (10, 11, 12))


def test_manifest_holds_every_row_in_order():
    assert list(json.loads(digests.MANIFEST.read_text())) == list(digests.rows())


def _catalog_of(name: str) -> str | None:
    """The series of a classify row, else None."""
    return name.split()[2] if name.startswith("classify --series ") else None


@pytest.mark.parametrize("series", "ABCD")
def test_catalog_output_pinned(series):
    assert digests.check(lambda name: _in_tier1(name) and _catalog_of(name) == series) == []


def test_tier1_rows_match_the_manifest():
    assert digests.check(lambda name: _in_tier1(name) and _catalog_of(name) is None) == []


def test_analysis_output_pinned():
    assert analysis_digests(small_realizations()) == ANALYSIS_DIGESTS


def test_analysis_output_pinned_at_dimv_7_and_8():
    # The range of the verify bench documents: 423 realizations, each with a
    # conjugated copy, 334 of which have a nonpositive witness.
    realizations = (r for r in distinguished_realizations(8) if r.spec.dimv >= 7)
    assert analysis_digests(realizations) == ANALYSIS_DIGESTS_7_8


def _graphs(series: str, top: int, kind: str):
    """The admissible graphs of series and kind with dimV <= top, by dimV."""
    for dimv in range(1 + (series in "CD"), top + 1, 1 if series == "A" else 2):
        yield from enumerate_admissible(series, dimv, kind, max_nodes=top)


def closed_form_digests() -> dict:
    """Each closed form as (case, sorted powers, A operator, rank), as the
    powers' frozenset has no stable order; and the principal check."""
    forms, checks = [], []
    for series in SERIES:
        for g in _graphs(series, 14, "principal"):
            pred = closed_form_centralizer(series, g)
            forms.append(repr((pred.case, sorted(pred.powers), pred.a_operator, pred.rank)))
        distinguished = _graphs(series, 9 if series == "A" else 12, "distinguished")
        checks += [str(int(is_admissible(series, g, "principal"))) for g in distinguished]
    return {"closed_form": _sha("\n".join(forms)), "principal_check": _sha("".join(checks))}


def test_closed_forms_pinned_by_value():
    assert closed_form_digests() == CLOSED_FORM_DIGESTS
