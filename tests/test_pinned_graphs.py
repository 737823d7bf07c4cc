"""Pinned graphs: every generator must keep drawing the same graphs.

Each case hashes `to_text(generate(...))`, the file `netdecomp gen` writes.
The digests were computed before G(n, p) moved from a scalar skip loop to
batched draws with exact integer unranking, and they cover the graphs the
benchmark workloads and the CLI's default barrier build. A changed digest
means a different graph, so every decomposition and ledger downstream of it
changes too: update a digest only on purpose, and say so in the change.
"""

from __future__ import annotations

import hashlib

import pytest

from netdecomp import generate, to_text

GNP_WIDE = dict(n=20000, p=8 / 20000)

CASES = {
    **{f"gnp-20000-seed{s}": ("gnp", s, GNP_WIDE) for s in range(1, 11)},
    "path-10000": ("path", 0, dict(n=10000)),
    "path-8192": ("path", 0, dict(n=8192)),
    "grid-64x64": ("grid", 0, dict(rows=64, cols=64)),
    "regular-2048-4-seed1": ("regular_expander", 1, dict(n=2048, deg=4)),
    # the CLI's defaults: --base-nodes 64 --deg 4 --sub-len 8 --seed 0
    "barrier-default": ("barrier", 0, dict(base_nodes=64, degree=4, subdivision_length=8)),
}

DIGESTS = {
    "gnp-20000-seed1": "2aff9fd39d032edba2369e1bc9600ed1c1729cb9b23903cae2dcb5375aaee080",
    "gnp-20000-seed2": "57dd0adbcd859dd481f5420a3500020ac56f9d85a3f96516425dc221594c6af2",
    "gnp-20000-seed3": "ab3073336caa408d8fe5e41b6df1aaecf9ccafde4aa4ed9de0977639e9a476fb",
    "gnp-20000-seed4": "27324cc4ed971a68fab56c675ae45046969e542d784a5cc51768cb16c7d8e2c3",
    "gnp-20000-seed5": "bbb22ba45a60ca9ba4daf5b8771474b49ff72d788d5cb23a5071eab6cdc85a82",
    "gnp-20000-seed6": "7fbea11b9e7c6163ed9279c46fe9f1389f91d88cf320610e2a7f7436ef10ca72",
    "gnp-20000-seed7": "8f906726d3b20a1b49cf83dd778339995013bc22235bfc30b77e49c16e492099",
    "gnp-20000-seed8": "4a7328e72908f8ca0cd1552f57062d8490bb26c5f1e21ea19f28925a4ae2f580",
    "gnp-20000-seed9": "21e04a9379e11a2013256bde87cf521ae5c4a23970989045103623c28c0aa45b",
    "gnp-20000-seed10": "5fc11dc7df6d7a85a8ce6a0ba3022d8d6059343d2486d807a78cfc9eb2cd97bf",
    "path-10000": "9343b26119769819d5bb810e0021f8a3f07a03044a3d6bcc9aeb765cf29d9efa",
    "path-8192": "1137f546887bc88070f5835e922c69147a2d35ad7970166cde5c0681a10a1e88",
    "grid-64x64": "00a5034d5c33cde48552403190b20f4e4572956853fc2abcc23e2885fa5819de",
    "regular-2048-4-seed1": "6ee7a599f54a9f2c0e7f3b0a53489f73b247a4ece31bc059585411577ba83ab3",
    "barrier-default": "7dad016d6878c4c11378bac051a7fbf42e93c1b4d03bbb32100fd255b42f2dbc",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_generated_graph_is_pinned(case):
    kind, seed, params = CASES[case]
    text = to_text(generate(kind, seed, **params))
    assert hashlib.sha256(text.encode()).hexdigest() == DIGESTS[case]
