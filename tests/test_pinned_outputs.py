"""Pinned outputs: a speed-up must leave every decomposition byte-identical.

Each case hashes `decompose`'s decomposition JSON plus its ledger JSON,
written the way `netdecomp decompose` writes them. The digests were computed
before the traversal workspace landed and must not move with a performance
change. The weak carvings are pinned the same way, one black-box call per
case: `WeakCarving.to_json()` plus the ledger JSON, on the full node set and
on the node set without every 7th node, which splits the path and the
barrier into many components and so pins how components are merged. A changed digest is an algorithm change: update it only on purpose,
and say so in the change (ROADMAP: "A change to charged rounds is an
algorithm change, and the PR must say so").
"""

from __future__ import annotations

import hashlib
import json

import pytest

from netdecomp import (
    NodeMask,
    decompose,
    generate,
    linial_saks_black_box,
    make_refined_carver,
    make_strong_carver,
    trivial_black_box,
)

GRAPHS = {
    "path": dict(kind="path", n=300),
    "grid": dict(kind="grid", rows=15, cols=20),
    "gnp": dict(kind="gnp", seed=3, n=300, p=0.015),
    "regular_expander": dict(kind="regular_expander", seed=5, n=300, deg=4),
    "barrier": dict(kind="barrier", seed=7, base_nodes=20, degree=3, subdivision_length=6),
}
PIPELINES = {"strong": make_strong_carver, "refined": make_refined_carver}
BLACK_BOXES = {"trivial": trivial_black_box, "linial_saks": linial_saks_black_box}

DIGESTS = {
    ('barrier', 'refined', 'linial_saks'): '630d0e12434d2a61de308d860702c6a5b38d28c4c9607e3c86b7b6537853802c',
    ('barrier', 'refined', 'trivial'): '2fc18653c22e16454882f962d113c09e6066c29a93464b5d1cf3a30d78faae7f',
    ('barrier', 'strong', 'linial_saks'): '47bb78e2a4b359573a196ca61ab3bc5598d8701d05ed2a90ca70e79f7b2838af',
    ('barrier', 'strong', 'trivial'): 'c93e023185fb6bae07fe09b294d8eed24f7d75040c009b27981dd807d9b188e8',
    ('gnp', 'refined', 'linial_saks'): '28fd16920ac1fd755e09471396e25de621181ae1d5e80845a0c015b1dbddd2c0',
    ('gnp', 'refined', 'trivial'): 'cfb3ec89ecc98a1c944fe39ad37aed7c6076fac8c4a5e5e80f1d5d399e12c74a',
    ('gnp', 'strong', 'linial_saks'): 'ee1dd7c88e4bc25b1a9bfd1e2b430f35ca8dd8fe8476cf39fc714bdabaf1a551',
    ('gnp', 'strong', 'trivial'): 'af75e6abeac0ed1d807283e1c0527848df97a66a2692a19c57347ef5cba019bc',
    ('grid', 'refined', 'linial_saks'): '29ed8395e131867d1ca37c7e7374ffc95783803bbbda548552d51b61f8a8b3d4',
    ('grid', 'refined', 'trivial'): '0b3fe0e210964072a07431d21f6d73458aea4afdff9022db6db8864edee68f35',
    ('grid', 'strong', 'linial_saks'): '0c6c9d62b33a5ece9c8e7604913bbcae30239dfa01cff812a5d891803b19ed0c',
    ('grid', 'strong', 'trivial'): '47e930ca1fa95b7d18ddf3c93225fa05151fa4b53b54b2eee76d38755300407e',
    ('path', 'refined', 'linial_saks'): '69ed9922f694623ff29a3b1a39414398f75d1283a18ffc295f40fd1a0808bce0',
    ('path', 'refined', 'trivial'): 'ccea14c2d636586db677151eddebe6cd6213d4d685bee90985b574c8ab60ec24',
    ('path', 'strong', 'linial_saks'): '97756e0a10a63f106ca7bcd70f191fb9d3045be5a721ca3fd990639b4b61bd1f',
    ('path', 'strong', 'trivial'): '5a724c122d5e8b1e6622a76a9ef7c29395811be82b45d5995604d65007f92cfa',
    ('regular_expander', 'refined', 'linial_saks'): '8273d7e8ab5088211f1591d98d19a74eda8a13a0723bf4bc4fc03d4a24893e89',
    ('regular_expander', 'refined', 'trivial'): '5509852818080e4556cd0ad2d51b03da6cb63e9acb781dedeb2f6e7198a413ac',
    ('regular_expander', 'strong', 'linial_saks'): 'd1b20e01dd7a49e404c64be3c88b9a40c4daa28b9d6a6ab1ffb632ab9ca6d750',
    ('regular_expander', 'strong', 'trivial'): '6b031c614b5703b5b56188335c88192d28ab84b3e5c95477ce7c4b0ecc6aaebc',
}

WEAK_DIGESTS = {
    ('barrier', 'full', 'linial_saks', 0.5): 'a91593e107973a2e109f15809561fd6ee8db939b65d26d5abc05a3e4652553ba',
    ('barrier', 'full', 'linial_saks', 0.1): '0c9626909b055e63b87f8ce018813328a9f3db8a97b3e9870a917deded4e4d37',
    ('barrier', 'full', 'trivial', 0.5): 'cd6ef18f180f6505ffb82843f26f35bd045f843c6081c81468bbd7b077bfe4e3',
    ('barrier', 'full', 'trivial', 0.1): 'cd6ef18f180f6505ffb82843f26f35bd045f843c6081c81468bbd7b077bfe4e3',
    ('barrier', 'no7th', 'linial_saks', 0.5): 'cf49ade6fb312a5ed1197de94bca79ac3b7893ca4dd50b28a8bf1d9f07466639',
    ('barrier', 'no7th', 'linial_saks', 0.1): 'f7c55cf542891302bcebb5105197529f26f696c6c62336b6e0824988f986c168',
    ('barrier', 'no7th', 'trivial', 0.5): '343ca8142c66a826cac77097d1e2bdab86a16d10fa348881466abb5caa8b7957',
    ('barrier', 'no7th', 'trivial', 0.1): '343ca8142c66a826cac77097d1e2bdab86a16d10fa348881466abb5caa8b7957',
    ('gnp', 'full', 'linial_saks', 0.5): 'ff6b3476d1af406174355e42253c69943c847483155a90d04890f3fafa01994a',
    ('gnp', 'full', 'linial_saks', 0.1): '6a2e525ed88c58482decbea5f4a400cbcbb8c34dc2dd520957ad2c6e9d4edcf0',
    ('gnp', 'full', 'trivial', 0.5): 'fad7b99e09037473b713c5962f3c5dbfbc54464bd18def71bc9e9d7b70031246',
    ('gnp', 'full', 'trivial', 0.1): 'fad7b99e09037473b713c5962f3c5dbfbc54464bd18def71bc9e9d7b70031246',
    ('gnp', 'no7th', 'linial_saks', 0.5): 'cac5bdc33495c72eba6e2e893725025123fe05d89dc1a743d982f36159fa5d20',
    ('gnp', 'no7th', 'linial_saks', 0.1): 'bf0a09afe1b3ba6af6688a0f37b994a586b035ac7a8c67cbe61c2924cf350799',
    ('gnp', 'no7th', 'trivial', 0.5): 'c9f005817e4fc7ca245b586818d677eebe18b11fa84ec0b3e4c527cbed0b4c3d',
    ('gnp', 'no7th', 'trivial', 0.1): 'c9f005817e4fc7ca245b586818d677eebe18b11fa84ec0b3e4c527cbed0b4c3d',
    ('grid', 'full', 'linial_saks', 0.5): 'fea0cb57f6ded6c32e04f3935bd9a20a4513c13f83e31ff18f87333092ff16be',
    ('grid', 'full', 'linial_saks', 0.1): '38726a3fd2f25265a529ae7962a105d3a741488e82b26c98809586aa5eabe5f5',
    ('grid', 'full', 'trivial', 0.5): '602100ea064aed08e6092a825f40a985efc27cb360415204314acf1b026c3301',
    ('grid', 'full', 'trivial', 0.1): '602100ea064aed08e6092a825f40a985efc27cb360415204314acf1b026c3301',
    ('grid', 'no7th', 'linial_saks', 0.5): 'eb7cdef2546c312aa0b12a637fb721bba761546e61270c21d08d7d12a33f3bfb',
    ('grid', 'no7th', 'linial_saks', 0.1): 'f93b7c2ce7f15f07cf8d0f69fe25719a4e6ce5690a8564981f99a2b1b44db1f6',
    ('grid', 'no7th', 'trivial', 0.5): '5dc496629985b9079a14ae04c45d1c32fd2bf8192cda3ec8b38236bb90d3758f',
    ('grid', 'no7th', 'trivial', 0.1): '5dc496629985b9079a14ae04c45d1c32fd2bf8192cda3ec8b38236bb90d3758f',
    ('path', 'full', 'linial_saks', 0.5): 'bbb2b797e674956f6df2ba9240dd2af2bc5c5eb5083224d97466622bb8d70eb9',
    ('path', 'full', 'linial_saks', 0.1): '5dc53a8982bf9b644fa05e3cbca0412b29f9924c94e6af5074774b343a0c1f48',
    ('path', 'full', 'trivial', 0.5): '894bfb5c72bff4db37f5ba2183d9279e4fec7deebace9e25642a95bd5ccd04da',
    ('path', 'full', 'trivial', 0.1): '894bfb5c72bff4db37f5ba2183d9279e4fec7deebace9e25642a95bd5ccd04da',
    ('path', 'no7th', 'linial_saks', 0.5): '7901095e4b8af686db251140e8ada72dfce40ab91a263b456f61c52a19a238e1',
    ('path', 'no7th', 'linial_saks', 0.1): '9d9777c06e5fb100b8b9c8f4ac8ceba9a1148bd5bf290cab12b2bd8368ec5c70',
    ('path', 'no7th', 'trivial', 0.5): 'a0ceb8690da52ef78f57a2f4d9a702a2ab305b2d191a6c7195854362c33e9fdb',
    ('path', 'no7th', 'trivial', 0.1): 'a0ceb8690da52ef78f57a2f4d9a702a2ab305b2d191a6c7195854362c33e9fdb',
    ('regular_expander', 'full', 'linial_saks', 0.5): 'dd55fcbc092b0dcfd9c8a4125f1bef17a9a3c85aefb04c723a665d554805d416',
    ('regular_expander', 'full', 'linial_saks', 0.1): 'dd55fcbc092b0dcfd9c8a4125f1bef17a9a3c85aefb04c723a665d554805d416',
    ('regular_expander', 'full', 'trivial', 0.5): 'f06f3d90112fae78964da749e94caf067c657119d5f17af70af0e2ee5a64161b',
    ('regular_expander', 'full', 'trivial', 0.1): 'f06f3d90112fae78964da749e94caf067c657119d5f17af70af0e2ee5a64161b',
    ('regular_expander', 'no7th', 'linial_saks', 0.5): 'adf82990d5bdf6df22b09b5ac67a8cf0d35af4bb205a6e65de01046f616adb96',
    ('regular_expander', 'no7th', 'linial_saks', 0.1): 'b3381460b5fba56d383a0670e1b1a6f85b7db69d789341ee43b60d18abc0e7c0',
    ('regular_expander', 'no7th', 'trivial', 0.5): '4f47ad747249c67cd495678be6fa446bb8d3df617f5a42811bd8c1de67dfbb36',
    ('regular_expander', 'no7th', 'trivial', 0.1): '4f47ad747249c67cd495678be6fa446bb8d3df617f5a42811bd8c1de67dfbb36',
}


def _dumps(obj) -> str:
    return json.dumps(obj, indent=1, sort_keys=True) + "\n"


def output_digest(family: str, pipeline: str, black_box: str) -> str:
    g = generate(**GRAPHS[family])
    carver = PIPELINES[pipeline](BLACK_BOXES[black_box])
    decomp, ledger = decompose(g, 11, carver)
    text = _dumps(decomp.to_json()) + _dumps(ledger.to_json())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("black_box", sorted(BLACK_BOXES))
@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("family", sorted(GRAPHS))
def test_decomposition_and_ledger_are_pinned(family, pipeline, black_box):
    assert output_digest(family, pipeline, black_box) == DIGESTS[family, pipeline, black_box]


def weak_digest(family: str, mask: str, black_box: str, eps: float) -> str:
    g = generate(**GRAPHS[family])
    nodes = range(g.n) if mask == "full" else [v for v in range(g.n) if v % 7]
    wc, ledger = BLACK_BOXES[black_box](g, NodeMask.from_nodes(g.n, nodes), eps, 11)
    text = _dumps(wc.to_json()) + _dumps(ledger.to_json())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(WEAK_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_weak_carving_and_ledger_are_pinned(case):
    assert weak_digest(*case) == WEAK_DIGESTS[case]
