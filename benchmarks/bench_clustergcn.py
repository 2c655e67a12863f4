"""Section 4.7: partitioning cost vs GIDS's zero preprocessing."""

from repro.bench.clustergcn import section47_clustergcn


def test_section47_partitioning_cost(benchmark):
    result = benchmark.pedantic(
        section47_clustergcn, rounds=1, iterations=1
    )
    print()
    print(result.render())
    extras = result.extras
    # Partitioning the full-scale graph extrapolates to hours-to-days of
    # preprocessing, while GIDS's warmup is a fraction of a second of
    # (simulated) training time — the paper's Section 4.7 argument.
    assert extras["extrapolated_hours"] > 0.5
    assert extras["gids_warmup_seconds"] < 1.0
    assert (
        extras["extrapolated_hours"] * 3600
        > 1000 * extras["gids_warmup_seconds"]
    )

