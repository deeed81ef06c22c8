"""Enumeration output pinned by digest.

Each digest is the sha256 of the enumerated graphs' text forms
(``graph_to_text``) joined by blank lines, recorded from the grow-and-
deduplicate enumerator that the orderly generator replaced.  A change in
the content or the order of any enumeration fails here.  The pins past
dimV 10 were recorded from the filter over every connected shape that the
left-half generator of the symmetric shapes replaced.
"""

import hashlib

import pytest

from skewpairs.catalog import count_orbits
from skewpairs.skewgraph import enumerate_admissible, enumerate_connected, graph_to_text

CONNECTED_DIGESTS = {
    1: "b046757b1e5c3945fd149a35aaf22851c8b21d0453f3678458a6b1ca09f776e5",
    2: "ce1a75a4a60eb4bcb9eabb03b48f84b4c21ab608816087f71c3241b970af3cb6",
    3: "f4a892b7b9a680d00e5980aecbda176ed9e338471ec57cedf4f9415168c31175",
    4: "c73e068f23da794ee1971217ddd5c265548e3ce9fa951be02d27881683871082",
    5: "a8289ae523f3dcc658c51606eb6c511d0cdebe8b89f09e6fdd94c844ba994a11",
    6: "f797078be7e1f896cfbfc6b6a009fc0475a76c0e221872dc7cee400cb7884fab",
    7: "764d9470379313cda03e132e23b7fb2a6283fc5defd4d24edf72ec0d8029983f",
    8: "272a8445e30d1aed416cb4cf3942b60d4ba79d3bbb30b7903ba8e5dee7640910",
    9: "4ef57ab1ac59254c81dfb1747e74a5c75f841f62fa5bfc64b4fcacd930dadb3b",
    10: "238c077b42d53a847242c6b6b336aaff5b4dcb0f119c6fefef6917371cba6e9d",
}

ADMISSIBLE_DIGESTS = {
    ("A", 1, "distinguished"): "b046757b1e5c3945fd149a35aaf22851c8b21d0453f3678458a6b1ca09f776e5",
    ("A", 1, "principal"): "b046757b1e5c3945fd149a35aaf22851c8b21d0453f3678458a6b1ca09f776e5",
    ("A", 2, "distinguished"): "ce1a75a4a60eb4bcb9eabb03b48f84b4c21ab608816087f71c3241b970af3cb6",
    ("A", 2, "principal"): "ce1a75a4a60eb4bcb9eabb03b48f84b4c21ab608816087f71c3241b970af3cb6",
    ("A", 3, "distinguished"): "f4a892b7b9a680d00e5980aecbda176ed9e338471ec57cedf4f9415168c31175",
    ("A", 3, "principal"): "f4a892b7b9a680d00e5980aecbda176ed9e338471ec57cedf4f9415168c31175",
    ("A", 4, "distinguished"): "c73e068f23da794ee1971217ddd5c265548e3ce9fa951be02d27881683871082",
    ("A", 4, "principal"): "3f2557e09858aef5d0e42b806a8e3f531835493cf21837d9c6c84d673ad587a7",
    ("A", 5, "distinguished"): "a8289ae523f3dcc658c51606eb6c511d0cdebe8b89f09e6fdd94c844ba994a11",
    ("A", 5, "principal"): "4df0cd54d67758d4cbc4517c9569c6146cba21f162dce198c8992d26dcc71b84",
    ("A", 6, "distinguished"): "f797078be7e1f896cfbfc6b6a009fc0475a76c0e221872dc7cee400cb7884fab",
    ("A", 6, "principal"): "d913991cfce04de408479d2e21d604d9e67eced93c5cbc8b07269d396fd240b9",
    ("A", 7, "distinguished"): "764d9470379313cda03e132e23b7fb2a6283fc5defd4d24edf72ec0d8029983f",
    ("A", 7, "principal"): "67e921c4b15cdfa88b5cf547045dd237fa95d0494c728910073445e7c80b8d33",
    ("A", 8, "distinguished"): "272a8445e30d1aed416cb4cf3942b60d4ba79d3bbb30b7903ba8e5dee7640910",
    ("A", 8, "principal"): "e6326a8891eeb7e97019c30fb6130c4634097d7231e24d39e79201d5d5cd1130",
    ("A", 9, "distinguished"): "4ef57ab1ac59254c81dfb1747e74a5c75f841f62fa5bfc64b4fcacd930dadb3b",
    ("A", 9, "principal"): "400f54cf36f056dd24367486b8d15828fc354127863d057a224de55812f4e6ca",
    ("A", 10, "distinguished"): "238c077b42d53a847242c6b6b336aaff5b4dcb0f119c6fefef6917371cba6e9d",
    ("A", 10, "principal"): "985ebb739c358e0a664e9eda09da0d3407d37927bc5071e0073985280fb4d5fc",
    ("B", 1, "distinguished"): "b046757b1e5c3945fd149a35aaf22851c8b21d0453f3678458a6b1ca09f776e5",
    ("B", 1, "principal"): "b046757b1e5c3945fd149a35aaf22851c8b21d0453f3678458a6b1ca09f776e5",
    ("B", 3, "distinguished"): "90bcb287e12772a4b79775f8d717a28530d6ff4e793bd97dca3bf6df2e4d6328",
    ("B", 3, "principal"): "90bcb287e12772a4b79775f8d717a28530d6ff4e793bd97dca3bf6df2e4d6328",
    ("B", 5, "distinguished"): "5607f84b25a62a3d7078d67ca00abde197f0644df3ca581b0ddf8ff18ba4fa2a",
    ("B", 5, "principal"): "42e48fc805febf61a1e46aa87e6a63bcb869e1d7fc506d85e33a06beb6e83a91",
    ("B", 7, "distinguished"): "3627f699aa11200c3cd5d6c49a25b760ae08c101d671e61e01fc2cf509d7d9e7",
    ("B", 7, "principal"): "477b5e04c475fd8108ee42200f0732dfed5b4f70f8b4fa5cc97c6104a51bcc0c",
    ("B", 9, "distinguished"): "2529f22596113a9a748f862e36c83c8ba8a66ff5916cacd9a7dce72ef11f64a2",
    ("B", 9, "principal"): "18ced6db7d797ac9f83a661fff6529e120b91f768a7ebae4243f2aeb48cde312",
    ("C", 2, "distinguished"): "ce1a75a4a60eb4bcb9eabb03b48f84b4c21ab608816087f71c3241b970af3cb6",
    ("C", 2, "principal"): "ce1a75a4a60eb4bcb9eabb03b48f84b4c21ab608816087f71c3241b970af3cb6",
    ("C", 4, "distinguished"): "be770f1c15013e66848aac699911e73998d5f5924a1302925cfdc20d782dafe9",
    ("C", 4, "principal"): "30e54ed438196f9caf1db737529d31498f875f78f2602f5f8ee41aaef1daeee7",
    ("C", 6, "distinguished"): "b0618069f15342593fa4be0dc0a6e494bbc11ec74f17a87be091414438539828",
    ("C", 6, "principal"): "04bf6ae76a64f07a1a8ae65d9f36e0da4d7ae26d25e8b380678aceef0072bd0b",
    ("C", 8, "distinguished"): "57fad7dcf15098a551e75e015b7539a68460460cd1eaa670619167cd16fccde0",
    ("C", 8, "principal"): "2eab6586618acb6ddded3159c7cf58b2d6262a053bf9fe8bda1ebdd44af304bb",
    ("C", 10, "distinguished"): "e1ff66694b9c3e53f71a92115dd4eae05aa67a43318269584bdcc7054f9c239f",
    ("C", 10, "principal"): "79500e39745176c5d14733cc7b9841b3bfe9f8ed706f563889d30efa0f6afc5f",
    ("D", 2, "distinguished"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("D", 2, "principal"): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("D", 4, "distinguished"): "da058368ec7ec0f645bc25995f555c8f747766121b83a7b9491dd168d4776546",
    ("D", 4, "principal"): "da058368ec7ec0f645bc25995f555c8f747766121b83a7b9491dd168d4776546",
    ("D", 6, "distinguished"): "683594038ba46ce833e788edfcdd99af9de71bcd5f54d5772bbc48176d25d26a",
    ("D", 6, "principal"): "580be2069b767d72f36452c1b92dcfeccc00b97e04597334145c24febcfbc3d7",
    ("D", 8, "distinguished"): "328447273ab5731d82c47428db6aeaa2ea5dab970caf6d889306e387b56ef92f",
    ("D", 8, "principal"): "1156a1714727ca170512ab5051689370c4291024883033068eaac31cb5af0e3a",
    ("D", 10, "distinguished"): "4c8fa6c14557696386fdb384962ce232575a9527e4c00de849de1eb8e31fc270",
    ("D", 10, "principal"): "81983d226a9401465558f1cca8299a624741f0d33ead828d6716d10cefa58f45",
}

# Distinguished graphs past dimV 10: (graph count, orbit count, digest); a
# connected series-D graph names two orbits.
WIDE_DISTINGUISHED_DIGESTS = {
    ("B", 11): (90, 90, "ab0f7e399b00f1363b7efc25cd93702bbd2a2dd6d63d22b6cb2b94036048bec2"),
    ("B", 13): (232, 232, "c81b63752f226f21300409141964a7349a68be893db1ce15598c3790407f3e15"),
    ("C", 12): (241, 241, "9737f8c1f34ce21d7410a0d040a325ba4236e213b2ca1461c0737088361df6eb"),
    ("C", 14): (612, 612, "96e3fe2a37f96ec8c3c870b78efc230a01356e6d0c143bc6f2969f39d3dce36f"),
    ("D", 12): (145, 177, "eb74320507a7756fb0ca2d4d2ec690b5463f68f2a949eeafe1b4f9df3b612bbc"),
    ("D", 14): (374, 447, "eefeb207e001e2172b501dcb044ff476ba2abb1e959da36bb13bba94360eec4a"),
}


def _digest(graphs) -> str:
    text = "\n\n".join(graph_to_text(g) for g in graphs)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("n", sorted(CONNECTED_DIGESTS))
def test_connected_enumeration_pinned(n):
    assert _digest(enumerate_connected(n)) == CONNECTED_DIGESTS[n]


@pytest.mark.parametrize("series", "ABCD")
def test_admissible_enumeration_pinned(series):
    for (s, dimv, kind), expected in sorted(ADMISSIBLE_DIGESTS.items()):
        if s == series:
            assert _digest(enumerate_admissible(s, dimv, kind)) == expected, (dimv, kind)


@pytest.mark.parametrize("series, dimv", sorted(WIDE_DISTINGUISHED_DIGESTS))
def test_wide_distinguished_enumeration_pinned(series, dimv):
    graphs = enumerate_admissible(series, dimv, "distinguished", max_nodes=14)
    orbits = count_orbits(series, dimv, "distinguished", max_nodes=14)
    assert (len(graphs), orbits, _digest(graphs)) == WIDE_DISTINGUISHED_DIGESTS[series, dimv]
