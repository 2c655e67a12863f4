"""The generated inputs of every benchmark workload, pinned at seeds 0 and 1.

Each recipe is one ``load_scaled`` call a workload of ``BENCHMARK.json``
makes; a digest covers the CSR arrays, the labeled nodes, the reverse
PageRank scores weighted by them and the hot-node ranking GIDS pins from
them.  Graph set-up is meant to get faster without changing one byte of
what it builds, and the CLI and read-path goldens only notice a changed
graph on the small datasets they run:

* ``IGB-Full`` at 0.0005 — ``loader-miss``;
* ``IGB-tiny`` at 1.0 — ``loader-hit`` and ``loader-planes`` (its default
  scale) and ``serve-diurnal``;
* ``IGB-tiny`` at 0.3 — ``fleet-4gpu``;
* ``IGB-tiny`` at 0.08 — ``fullgraph-spill``.

Tier 1 checks the IGB-tiny recipes (~1.5 s); the IGB-Full pins cost about
3 s more and run in CI's full-graph job::

    PYTHONPATH=src python -m tests.test_graph_golden
"""

from __future__ import annotations

import hashlib
import sys

import numpy as np
import pytest

from repro.graph.datasets import load_scaled
from repro.graph.pagerank import hot_node_ranking, reverse_pagerank

#: (dataset, scale, seed) -> SHA-256 of each generated array's bytes.
PINS = {
    ("IGB-Full", 0.0005, 0): {
        "indptr": "93d13f734b5f2670a8cd6c7702f58395"
        "d227afdc897d223a8843a2303d70e0c8",
        "indices": "a73991a4b3e6efa0c6fe8029691fc675"
        "d9be5490f1f7d30aacfaeef294fe2e3d",
        "train_ids": "81a0fe2b89a9a3f1f77b3caaf1c9e30f"
        "9b28a610c9934b309ca7843ee1704de7",
        "scores": "d51f66a5609cc69209174dddb10e412e"
        "ad9a7cc03dda4128bfb2ce918703a62b",
        "hot": "6c0e2088a1a73c7f96c6401171900b7a"
        "03d4b11dca28e15c119e10044fc5b364",
    },
    ("IGB-Full", 0.0005, 1): {
        "indptr": "1771d039910e0aa078d3d87ee4a44395"
        "c2893694dda5b2fbc42eb465bf8e5927",
        "indices": "69a92db8d3fc33a71f11a620c9a36fca"
        "a3122b81070b874039145440e392ae23",
        "train_ids": "821faf258e1cc654d3f508e70b07e172"
        "309165aabf29c7036f91c8fb342e923a",
        "scores": "6e662d830f04dad8f8624ad139a3d7b9"
        "a0f5914de24adff163b23adf0ebdba80",
        "hot": "94b352e7ae7049beefcf8e39aed696c2"
        "0d0bff59be541d0f3ce717da5f10ada8",
    },
    ("IGB-tiny", 1.0, 0): {
        "indptr": "54d5320c38b643dfc768c059509f1de8"
        "289bacb769fffa861f8af3cabc201743",
        "indices": "41ae933aec8bb461d0a9b57eb119ccbd"
        "a9575a9bc0e03f883c74bde7f06c7d7e",
        "train_ids": "64e909242419f76e7965f321432239c2"
        "c3fc6e4a06ecec3fc6cfc7c22d1358e4",
        "scores": "e3edd026278b86f77c1b8f9d3c26a85e"
        "f8dd87055f2487dcf009051631e28a88",
        "hot": "47b28a0fbac249f3cf0dfcf07ff93812"
        "2d863c1c5ace0e9dcbf5d2852bee8cf7",
    },
    ("IGB-tiny", 1.0, 1): {
        "indptr": "e6eaef6f43b6ccb6d8e34929e37bec50"
        "02f18bd647fb7b837534f5b338c5ad39",
        "indices": "bb5ca346d247fa3dc4c177a14c5ebbf7"
        "070e0bf3d3103df7c9d324062dc5a584",
        "train_ids": "5648b029b7ddc6449fb0edb8f2ae4a0b"
        "5926dceaa5a03c3023f8d5c4a1f6d73f",
        "scores": "b99ea8b344f74dc5f67ab498996f16ac"
        "2be1d1cdc69d959b3566dbe14cf50eb6",
        "hot": "6c0159912d7255899d746bea81f104ad"
        "9a15b8e0dc76ade0ff743cf6c49fd4b3",
    },
    ("IGB-tiny", 0.3, 0): {
        "indptr": "0e807d27085bd8cccd2d1c3125056b66"
        "9e049c13de8653a8d49c3355235b5f5f",
        "indices": "24ef48aa84f17d8876935b76dc7d3cd0"
        "b65fdb8a97170fd9e9e54e58e295ffb9",
        "train_ids": "dfadd9bcf33d439c4012d74d078f7836"
        "b07f18f7f8ee9165b4349066ba5c7617",
        "scores": "a745010056c619ce405d4eb8fb0556c8"
        "1e8559342ffb5d60d8fa6048a70106e9",
        "hot": "58bf7db0801019b5b47304d60ca29946"
        "01077d1aa8d3a3a135a359758d4ab93f",
    },
    ("IGB-tiny", 0.3, 1): {
        "indptr": "aa4494fcf1b7e40d280e4416ae088235"
        "dd3ae999ff6833f466c91670fc0e564a",
        "indices": "ba14b282ed3715868713526e33ca8063"
        "5505c43c04a5b2418c4ae3ddfdf48a77",
        "train_ids": "9e977f71c995282299372e1bb8584b72"
        "f28093b29ad8904569a794694e6bfea1",
        "scores": "526f052eb98c2b48b1d4513162ec02cd"
        "86e19cc56b1e687215e454e34c27f026",
        "hot": "aaf08e7f3ddd78e8e405e263015ca5ee"
        "20701d8a9a14fad92e5bae6389adcce4",
    },
    ("IGB-tiny", 0.08, 0): {
        "indptr": "b3339948efd15fa013560149d4218869"
        "1bdd09c440c02f0db4a5c57880391514",
        "indices": "d223c856b60f84e4d29b6624e16e729e"
        "f3373862265d9c215083df38cbcffe57",
        "train_ids": "f4718aca272458547d4d7d796e4839f2"
        "c1b0d989e8aa950857bf2073abb0374b",
        "scores": "26c3edfc7adb04c27b6e50a7fc5baa50"
        "c9593a3b62ee611306d4f27f7efb83d6",
        "hot": "207c22b8bb5edc6124de02cdec957832"
        "81214ec60b1f104c4c1d1d089e78058e",
    },
    ("IGB-tiny", 0.08, 1): {
        "indptr": "c2720cadb3f6927ab85ce74b25dd1b45"
        "6a4335afdd51122065f65339fbb53389",
        "indices": "e0a8eafafc726a0a2492c0348aa96cd2"
        "2248170ef189e296c6a836398bfd45cd",
        "train_ids": "967763c2aa92e2e6725c4bd52f6e36eb"
        "9f5a051ca5c2f6cc0a66f4c1eeca7fa3",
        "scores": "6762e927f345809ed4991c1af20e58cf"
        "4e40fdf32ebd37cd0f2433991bff074a",
        "hot": "611f9a7ac46aa97d6d1db66d039d7fbd"
        "33d71e3352ea4773bab29d08a958dc50",
    },
}

TIER1 = [key for key in PINS if key[0] != "IGB-Full"]


def digests(name: str, scale: float, seed: int) -> dict[str, str]:
    dataset = load_scaled(name, scale, seed=seed)
    graph = dataset.graph
    weights = np.zeros(graph.num_nodes)
    weights[dataset.train_ids] = 1.0
    arrays = {
        "indptr": graph.indptr,
        "indices": graph.indices,
        "train_ids": dataset.train_ids,
        "scores": reverse_pagerank(graph, weights=weights),
        "hot": hot_node_ranking(
            graph, "reverse_pagerank", seed_weights=weights
        ),
    }
    return {
        field: hashlib.sha256(np.ascontiguousarray(array).tobytes())
        .hexdigest()
        for field, array in arrays.items()
    }


@pytest.mark.parametrize("key", TIER1, ids="{0[0]}@{0[1]}:{0[2]}".format)
def test_generated_inputs_are_pinned(key):
    assert digests(*key) == PINS[key]


def main() -> int:
    """Check every pin, IGB-Full's included; exit 1 if one moved."""
    moved = [key for key in PINS if digests(*key) != PINS[key]]
    for key in moved:
        print(f"moved: {key}", file=sys.stderr)
    print(f"{len(PINS) - len(moved)}/{len(PINS)} generated inputs as pinned")
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main())
