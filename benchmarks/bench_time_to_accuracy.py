"""Extension: time-to-accuracy with real training on simulated hardware."""

import json
from pathlib import Path

from repro.bench.time_to_accuracy import fullgraph_vs_minibatch, time_to_accuracy
from repro.config import SAMSUNG_980PRO

ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_fullgraph_tta.json"


def test_time_to_accuracy(benchmark):
    result = benchmark.pedantic(time_to_accuracy, rounds=1, iterations=1)
    print()
    print(result.render())
    extras = result.extras
    # Both loaders see identical batches, so their accuracy-per-step
    # curves coincide exactly...
    assert extras["per_step_accuracy_identical"]
    # ...and GIDS reaches the target far sooner in simulated time.
    assert extras["speedup"] is not None
    assert extras["speedup"] > 10.0


def test_fullgraph_vs_minibatch_tta(benchmark):
    result = benchmark.pedantic(
        fullgraph_vs_minibatch, rounds=1, iterations=1
    )
    print()
    print(result.render())
    extras = result.extras
    mini, full = extras["traces"]
    block = extras["fullgraph_block"]

    ARTIFACT.write_text(
        json.dumps(
            {
                "benchmark": "fullgraph_tta",
                "workload": "IGB-Full@5e-05",
                "ssd": SAMSUNG_980PRO.name,
                "num_ssds": 1,
                "target_accuracy": 0.6,
                "hbm_budget_bytes": block["hbm_budget_bytes"],
                "num_partitions": block["num_partitions"],
                "activations_resident": block["activations_resident"],
                "minibatch_time_to_target_s": extras[
                    "minibatch_time_to_target_s"
                ],
                "fullgraph_time_to_target_s": extras[
                    "fullgraph_time_to_target_s"
                ],
                "fullgraph_over_minibatch": extras[
                    "fullgraph_over_minibatch"
                ],
                "fullgraph_epochs": block["epochs_completed"],
                "fullgraph_final_accuracy": full.accuracies[-1],
                "minibatch_final_accuracy": mini.accuracies[-1],
                "spill_pages": block["traffic"]["spill_pages"],
                "reload_pages": block["traffic"]["reload_pages"],
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    # Both arms reach the target on this replica...
    assert extras["minibatch_time_to_target_s"] is not None
    assert extras["fullgraph_time_to_target_s"] is not None
    # ...but mini-batch sampling gets there in far less modeled time on
    # the same 980 Pro: the memory wall is real (GriNNder's motivation,
    # and exactly why the paper samples instead of sweeping).
    assert extras["fullgraph_over_minibatch"] > 10.0
    # The tight HBM budget actually exercised the offload path.
    assert not block["activations_resident"]
    assert block["traffic"]["spill_pages"] > 0
