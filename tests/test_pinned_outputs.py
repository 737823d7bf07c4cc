"""Pinned outputs: a speed-up must leave every decomposition byte-identical.

Each case hashes `decompose`'s decomposition JSON plus its ledger JSON,
written the way `netdecomp decompose` writes them. The digests were computed
before the traversal workspace landed and must not move with a performance
change. A changed digest is an algorithm change: update it only on purpose,
and say so in the change (ROADMAP: "A change to charged rounds is an
algorithm change, and the PR must say so").
"""

from __future__ import annotations

import hashlib
import json

import pytest

from netdecomp import (
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
