#!/usr/bin/env python3
"""Real end-to-end node classification through the GIDS dataloader.

Everything in this example is functional: the sampler traverses a real
power-law graph, the GIDS loader serves real feature vectors through its
cache hierarchy, and a NumPy GraphSAGE is trained with exact gradients on
a synthetic-but-learnable labeling.  The loss curve and final training
accuracy demonstrate the dataloader feeds the model correctly.

Run:  python examples/node_classification.py
"""

from repro import (
    GIDSDataLoader,
    GraphSAGE,
    INTEL_OPTANE,
    LoaderConfig,
    SystemConfig,
    TrainingPipeline,
    load_scaled,
)

NUM_CLASSES = 8
ITERATIONS = 120


def main() -> None:
    dataset = load_scaled("IGB-tiny", scale=0.1, seed=0)
    system = SystemConfig(
        ssd=INTEL_OPTANE,
        cpu_memory_limit_bytes=dataset.total_bytes * 0.5,
    )
    config = LoaderConfig(
        gpu_cache_bytes=dataset.feature_data_bytes * 0.02,
        cpu_buffer_fraction=0.10,
        window_depth=4,
    )
    loader = GIDSDataLoader(
        dataset, system, config, batch_size=256, fanouts=(5, 5), seed=1
    )
    model = GraphSAGE(
        in_dim=dataset.feature_dim,
        hidden_dim=64,
        num_classes=NUM_CLASSES,
        num_layers=2,
        lr=0.05,
        seed=0,
    )
    pipeline = TrainingPipeline(loader, model, num_classes=NUM_CLASSES)

    print(
        f"training 2-layer GraphSAGE on {dataset.name} x{dataset.scale} "
        f"({dataset.num_nodes:,} nodes, {NUM_CLASSES} classes) "
        f"for {ITERATIONS} mini-batches..."
    )
    losses = pipeline.train(ITERATIONS).losses

    window = 10
    for start in range(0, len(losses), 3 * window):
        chunk = losses[start : start + window]
        mean = sum(chunk) / len(chunk)
        print(f"  steps {start:4d}-{start + len(chunk) - 1:4d}: "
              f"loss {mean:.4f}")
    print(f"\nfinal training accuracy: {pipeline.final_train_accuracy():.1%}")
    first = sum(losses[:window]) / window
    last = sum(losses[-window:]) / window
    print(f"loss improved {first:.4f} -> {last:.4f} "
          f"({(1 - last / first):.0%} reduction)")


if __name__ == "__main__":
    main()
