"""Byte and request accounting shared by all dataloaders.

Every loader reports where each requested feature vector was served from —
storage, the constant CPU buffer, or the GPU software cache — so benchmarks
can compute effective bandwidths and redirect fractions exactly as the paper
does (Figs. 9-12).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..state import StateRecord, scalar


@dataclass
class TransferCounters(StateRecord):
    """Mutable accumulator of data-movement statistics.

    The fault/resilience fields stay zero on healthy runs: ``storage_retries``
    counts re-issued commands after injected CQ errors, ``injected_faults``
    the failed completions themselves, ``fallback_requests``/``bytes`` the
    reads served by the CPU-buffer/feature-store path because their pages
    were lost (device dropout) or exhausted the retry policy, and
    ``retry_timeouts`` the batches whose retry-time budget ran out.

    The integrity fields likewise stay zero unless verify-on-read or the
    scrubber is active: ``verified_pages``/``unverified_pages`` partition
    the storage-served pages by whether their digest was checked,
    ``corrupt_detected``/``corrupt_repaired``/``corrupt_quarantined`` count
    digest mismatches and their outcomes, ``integrity_rereads`` the repair
    re-reads issued (each occupies device service like a fresh command),
    and ``scrubbed_pages`` the pages inspected by the background scrub.

    The storage-HA fields stay zero unless replication/parity is on:
    ``replica_redirects`` counts degraded-mode reads served by a surviving
    replica instead of the CPU mirror, ``parity_reconstructs`` the pages
    rebuilt inline from their parity group, ``reconstruct_reads`` the
    member reads those reconstructions issued (``k`` per page — each
    occupies device service like a fresh command), and ``rebuild_pages``
    the pages the online rebuilder rewrote on its background IOPS budget.
    """

    storage_requests: int = 0
    storage_bytes: int = 0
    cpu_buffer_requests: int = 0
    cpu_buffer_bytes: int = 0
    gpu_cache_hits: int = 0
    gpu_cache_bytes: int = 0
    page_faults: int = 0
    page_cache_hits: int = 0
    storage_retries: int = 0
    injected_faults: int = 0
    latency_spikes: int = 0
    fallback_requests: int = 0
    fallback_bytes: int = 0
    retry_timeouts: int = 0
    verified_pages: int = 0
    unverified_pages: int = 0
    corrupt_detected: int = 0
    corrupt_repaired: int = 0
    corrupt_quarantined: int = 0
    integrity_rereads: int = 0
    scrubbed_pages: int = 0
    replica_redirects: int = 0
    parity_reconstructs: int = 0
    reconstruct_reads: int = 0
    rebuild_pages: int = 0

    @property
    def total_requests(self) -> int:
        return (
            self.storage_requests
            + self.cpu_buffer_requests
            + self.gpu_cache_hits
            + self.fallback_requests
        )

    @property
    def ingress_bytes(self) -> int:
        """Bytes that crossed the GPU's PCIe ingress link."""
        return self.storage_bytes + self.cpu_buffer_bytes + self.fallback_bytes

    @property
    def fallback_fraction(self) -> float:
        """Fraction of requests served by the degraded-mode fallback path."""
        total = self.total_requests
        return self.fallback_requests / total if total else 0.0

    @property
    def total_feature_bytes(self) -> int:
        """Bytes of feature data served from any tier."""
        return self.ingress_bytes + self.gpu_cache_bytes

    @property
    def gpu_cache_hit_ratio(self) -> float:
        total = self.total_requests
        return self.gpu_cache_hits / total if total else 0.0

    @property
    def redirect_fraction(self) -> float:
        """Fraction of requests served without touching storage."""
        total = self.total_requests
        if not total:
            return 0.0
        return (total - self.storage_requests) / total

    def merge(self, other: "TransferCounters") -> None:
        """Add ``other``'s counts into this accumulator."""
        for name in _FIELD_NAMES:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def snapshot(self) -> "TransferCounters":
        """Return an independent copy of the current counts."""
        return TransferCounters(
            **{name: getattr(self, name) for name in _FIELD_NAMES}
        )

    def publish(self, registry, prefix: str = "transfer") -> None:
        """Add the current counts into a telemetry metrics registry.

        One :class:`~repro.telemetry.metrics.Counter` per field, named
        ``{prefix}.{field}``.  Publishing *adds*, so per-iteration counter
        objects (the loaders' granularity) can publish as they are produced
        and the registry accumulates the run total; publish a cumulative
        snapshot at most once.  The existing accounting API is unchanged.
        """
        for name in _FIELD_NAMES:
            value = getattr(self, name)
            if value:
                registry.counter(f"{prefix}.{name}").inc(value)


# Resolved once: merge/publish run per iteration and per served request.
_FIELD_NAMES = tuple(f.name for f in fields(TransferCounters))

# Every field is a count.  A snapshot from a different counter schema is
# rejected instead of dropping or zero-filling counts silently.
TransferCounters.STATE = tuple(scalar(name, int) for name in _FIELD_NAMES)
