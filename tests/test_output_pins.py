"""Catalog and analysis output pinned by digest.

Each digest is a sha256 recorded from the eigen layer that found rational
eigenvalues by a divisor search over a Fraction characteristic polynomial
and split the h2-action on each h1-eigenspace by restriction.  A change in
any byte of these outputs fails here:

- the ``classify --format json --full-matrices`` catalog of every
  (series, dimV <= 8, kind);
- ``report_to_jsonable(analyze(r), include_basis=True)`` and the text of
  ``graph_from_pair`` for every distinguished or principal realization
  with dimV <= 6 and for a seeded conjugated copy of each, grouped by
  (series, dimV);
- the same for every distinguished realization with dimV 7 or 8 and a
  seeded conjugated copy of each, where most of the moved frames have a
  nonpositive witness.

The closed forms are pinned by value: ``closed_form_centralizer`` of every
principal graph with dimV <= 14, and ``is_admissible(..., "principal")`` of
every distinguished graph with dimV <= 12 (series A: dimV <= 9).
"""

import hashlib
import json
import random

import pytest

from conftest import conjugated, distinguished_realizations, small_realizations
from skewpairs.catalog import classify, export_entries
from skewpairs.centralizer import analyze, closed_form_centralizer, graph_from_pair, report_to_jsonable
from skewpairs.skewgraph import SERIES, enumerate_admissible, graph_to_text, is_admissible

CATALOG_DIGESTS = {
    ("A", 1, "distinguished"): "8418c61d0310eb70956fbadc85478496065f851b97f54b7998d97e7639b20cb3",
    ("A", 1, "principal"): "1644f2c55e57ef63b4935711849fc1916563a44ada68be076b7d056519aa0f5d",
    ("A", 2, "distinguished"): "efc917437fa99f351d5c844381b24199bda530b06249737ed78dc6903775d148",
    ("A", 2, "principal"): "472e44b7f6e19bfca6dd333ff53d2e4e9d502dd14f85182d1684734c54f9ca3a",
    ("A", 3, "distinguished"): "746185aba8a5c93ed8156d3138e8566998d2dddc14c5b59934b1330dadfafb7a",
    ("A", 3, "principal"): "df3b051f03946d13b915d0273b1ba3a6889382bded91ccf38721d8282ed690c9",
    ("A", 4, "distinguished"): "8a2e9662985a9c824cb0bf3f3e2121274543dad7c7fe81ec9d9ec8dd35077db9",
    ("A", 4, "principal"): "3e5d852090c1c938a8092f63aa35c267c3726c119074fbb5607d13d851638b7c",
    ("A", 5, "distinguished"): "74fbe1144f0044a26e2af670c7536341bec43c88fa3369272505510416311bb4",
    ("A", 5, "principal"): "1f2de634ab1d05a1bf206474d5981d7804603575707376280a7f3ee0897a927d",
    ("A", 6, "distinguished"): "ea5edc9388432060bd68db4e0b25e342d7227278d3c46991aad6890e6d4bc96c",
    ("A", 6, "principal"): "3e3497ff9dacb2c8c0d4bd14c9d443153d5480727769213aa52ec8645a7ab2c5",
    ("A", 7, "distinguished"): "b767b4d03bbf56f31e2476ae34ee31120f619f1620b1eee4b64fa97d783b6826",
    ("A", 7, "principal"): "83df5831d15b32b1163007614099086d891f6d7527a2b56e2d04f02d0c8aa4dc",
    ("A", 8, "distinguished"): "f92210131455f99ac918cb3bec334c93c5ad921aa3f96f984cb6c81b4464c059",
    ("A", 8, "principal"): "99902a28ff01a3162513e0dc350afa50c250eb68c64df3539b52716a44e7f570",
    ("B", 1, "distinguished"): "8caf681540a2dae0cdc057276a98672f0e5054c3c73f4faacfbff3e391d8c501",
    ("B", 1, "principal"): "baf6225a988dfe06e3a1915d11bf6ab4450ef6902f966f1c614301cc69a25cde",
    ("B", 3, "distinguished"): "3c9142b518c38465fb4a4d2f5b9ac986366fbfc2b895876820806ed047b1d7bb",
    ("B", 3, "principal"): "cff0e19bb68d927b4728271e1dda68b0fc2828e0ed05d610f523f94121e64cff",
    ("B", 5, "distinguished"): "e07eb70251f09cbdb3dd6a472e09ff65b7878f83410c7597da87ef7352621002",
    ("B", 5, "principal"): "be775b14910acaacd217f4533a54826dca546a4fc6b8b1fd94c9de589319ccdf",
    ("B", 7, "distinguished"): "ed1b4e55edf06d64a6c3001fdcf8c33ea07a05993304dfd0ed33891a50d2b96b",
    ("B", 7, "principal"): "52f5ead1b581f94d3aaad678e1edc2f961d3d203ea6991865c1f85bc67dd4aec",
    ("C", 2, "distinguished"): "5cefd24e28831c613acf4e66d0b7a623012035ea5cb73605ab87e90c73167d27",
    ("C", 2, "principal"): "4ba014e796705a5ec46e3597715c5df8b97ae19c0cc459ad76528cc2f288b099",
    ("C", 4, "distinguished"): "e3750ab98c8ed69f66365a00340e8fe315facf4c4c02c465a994b67e448c60c3",
    ("C", 4, "principal"): "17ab9b4ad254b095e92bbbc7d3925452f5b5f0bb6600e9df5560d2ff0fc3a8ca",
    ("C", 6, "distinguished"): "fbd094277b0466c3b3c6942e90f79d3e752fbf3cafdbf815b83125a050c2925a",
    ("C", 6, "principal"): "b0f1749849bc2f1ec1a26b78e44f31ebe63cad093e89083ffd3c5586372b87f9",
    ("C", 8, "distinguished"): "6acb1288f48e6c868bd4a137842fd64c3760bc399e10d7832ad8146cedb03834",
    ("C", 8, "principal"): "ef1d3da70974de0a56b6be6c96402300bc4f370167b875cadfefbc5153730f6c",
    ("D", 2, "distinguished"): "fd68697ca91ad087e6b7ea2694a7314aee9ae206cfbe447562e898d99e79d435",
    ("D", 2, "principal"): "fd68697ca91ad087e6b7ea2694a7314aee9ae206cfbe447562e898d99e79d435",
    ("D", 4, "distinguished"): "91d0042f89c7668fd1e5fea3bb808594d75ba75eef3d4070fd4fd35662e90196",
    ("D", 4, "principal"): "aaee4d41050458cb5ffe6bc8a31f2e80aa54f013aedb83ea31c2e8ead1dc86e7",
    ("D", 6, "distinguished"): "aefec989ddba0f25df1fb37aa2c1d0c121d73c44908b3d82c255fb6cd205c622",
    ("D", 6, "principal"): "af32ec45e7a661023fcd136003eb193df0f9fe975d7f3d29e37dbb4b9d5a7a1c",
    ("D", 8, "distinguished"): "331fe012dcde6437dc84ccd73d59d3c1897fd7e068d2e1b68890b7e746043a41",
    ("D", 8, "principal"): "27ca16b20bf70bcd5e0cfc793f5d47bef67ced7b30336e4592fda19fd0484d0d",
}

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


def catalog_digest(series: str, dimv: int, kind: str) -> str:
    return _sha(export_entries(classify(series, dimv, kind), "json", include_matrices=True))


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
            report = report_to_jsonable(analyze(c), include_basis=True)
            graph = graph_from_pair(c.spec, c.e1, c.e2, c.h1, c.h2)
            texts.setdefault(key, []).append(json.dumps(report, indent=1) + "\n" + graph_to_text(graph))
    return {key: _sha("\n\n".join(parts)) for key, parts in texts.items()}


@pytest.mark.parametrize("series", "ABCD")
def test_catalog_output_pinned(series):
    for (s, dimv, kind), expected in sorted(CATALOG_DIGESTS.items()):
        if s == series:
            assert catalog_digest(s, dimv, kind) == expected, (dimv, kind)


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
