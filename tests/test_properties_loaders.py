"""Property-based tests for loaders, typed sampling, and the NVMe engine."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.config import INTEL_OPTANE, LoaderConfig, SSDSpec, SystemConfig
from repro.core.gids import GIDSDataLoader
from repro.graph.datasets import load_scaled
from repro.graph.generators import power_law_graph
from repro.graph.hetero import stack_types
from repro.sampling.hetero_neighbor import HeteroNeighborSampler
from repro.sim.ssd import SSDMicrobench

# Shared fixtures built once (hypothesis re-runs the test body many times).
_DATASET = load_scaled("IGB-tiny", 0.02, seed=5)
_HETERO = stack_types(
    {"paper": 150, "author": 140, "institute": 10},
    power_law_graph(300, 2400, seed=4),
)


class TestLoaderProperties:
    @given(
        cache_fraction=st.floats(min_value=0.0, max_value=0.2),
        buffer_fraction=st.floats(min_value=0.0, max_value=0.3),
        window_depth=st.integers(min_value=0, max_value=8),
        accumulate=st.booleans(),
        batch_size=st.integers(min_value=4, max_value=64),
    )
    @settings(max_examples=25, deadline=None)
    def test_conservation_and_sanity_for_any_config(
        self, cache_fraction, buffer_fraction, window_depth, accumulate,
        batch_size,
    ):
        """For every loader configuration: each requested node is served
        by exactly one tier, all stage times are non-negative, and cache
        invariants hold after the run."""
        system = SystemConfig(
            ssd=INTEL_OPTANE,
            cpu_memory_limit_bytes=_DATASET.total_bytes * 0.5,
        )
        config = LoaderConfig(
            gpu_cache_bytes=_DATASET.feature_data_bytes * cache_fraction,
            cpu_buffer_fraction=buffer_fraction,
            window_depth=window_depth,
            accumulator_enabled=accumulate,
        )
        loader = GIDSDataLoader(
            _DATASET, system, config, batch_size=batch_size,
            fanouts=(4, 4), seed=0,
        )
        report = loader.run(4, warmup=1)
        assert report.num_iterations == 4
        for it in report.iterations:
            served = (
                it.counters.storage_requests
                + it.counters.gpu_cache_hits
                + it.counters.cpu_buffer_requests
            )
            assert served == it.num_input_nodes
            assert it.times.sampling >= 0
            assert it.times.aggregation >= 0
            assert it.times.training >= 0
        loader.cache.check_invariants()

    @given(
        buffer_fraction=st.floats(min_value=0.0, max_value=0.5),
    )
    @settings(max_examples=15, deadline=None)
    def test_bigger_cpu_buffer_never_increases_storage(self, buffer_fraction):
        """Monotonicity: growing the constant CPU buffer can only reduce
        storage requests (resident sets are nested prefixes of one
        ranking)."""
        system = SystemConfig(
            ssd=INTEL_OPTANE,
            cpu_memory_limit_bytes=_DATASET.total_bytes * 0.5,
        )

        def storage_requests(fraction):
            config = LoaderConfig(
                gpu_cache_bytes=0.0,
                cpu_buffer_fraction=fraction,
                window_depth=0,
                accumulator_enabled=False,
            )
            loader = GIDSDataLoader(
                _DATASET, system, config, batch_size=16, fanouts=(4, 4),
                seed=3,
            )
            return loader.run(4, warmup=0).counters.storage_requests

        small = storage_requests(buffer_fraction / 2)
        large = storage_requests(buffer_fraction)
        assert large <= small


class TestHeteroSamplerProperties:
    @given(
        paper_cap=st.integers(min_value=0, max_value=6),
        author_cap=st.integers(min_value=0, max_value=6),
        seeds=st.lists(
            st.integers(min_value=0, max_value=299), min_size=1, max_size=25
        ),
        rng_seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=50, deadline=None)
    def test_per_type_caps_always_hold(
        self, paper_cap, author_cap, seeds, rng_seed
    ):
        caps = {"paper": paper_cap, "author": author_cap}
        sampler = HeteroNeighborSampler(_HETERO, (caps,), seed=rng_seed)
        batch = sampler.sample(np.array(seeds, dtype=np.int64))
        layer = batch.layers[0]
        if layer.num_edges == 0:
            return
        types = _HETERO.type_of(layer.src)
        cap_by_type = np.array([paper_cap, author_cap, 0])
        for dst in np.unique(layer.dst):
            mask = layer.dst == dst
            counts = np.bincount(types[mask], minlength=3)
            assert np.all(counts <= cap_by_type)
        # Every edge exists.
        for s, d in zip(layer.src[:50], layer.dst[:50]):
            assert s in _HETERO.csr.neighbors(int(d))


class TestNVMeProperties:
    """The event-driven NVMe engine (:class:`SSDMicrobench`)."""

    @given(
        num_ssds=st.integers(min_value=1, max_value=4),
        n=st.integers(min_value=1, max_value=4096),
        latency_us=st.floats(min_value=5.0, max_value=500.0),
        latency_cv=st.sampled_from([0.0, 0.25]),
    )
    @settings(max_examples=40, deadline=None)
    def test_iops_bounded_by_device_and_positive(
        self, num_ssds, n, latency_us, latency_cv
    ):
        """Never faster than the devices' service slots allow: ``slots``
        commands per SSD in flight, each taking the spec latency (the rated
        peak, up to the rounding of internal parallelism to whole slots).
        With constant latencies the bound holds for any request count."""
        spec = SSDSpec(
            name="hypo", read_latency_s=latency_us * 1e-6, peak_iops=1e6
        )
        bench = SSDMicrobench(
            spec, num_ssds, latency_cv=latency_cv, seed=0
        )
        elapsed, iops = bench.run(n)
        assert elapsed > 0 and iops > 0
        if latency_cv == 0.0:
            slots = max(1, round(spec.internal_parallelism))
            assert iops <= num_ssds * slots / spec.read_latency_s * (1 + 1e-9)
