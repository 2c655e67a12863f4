"""A degradable view of an :class:`~repro.sim.ssd.SSDArray`.

The analytic SSD array is a frozen value object; real arrays change state
over time.  :class:`FaultySSDArray` wraps a base array plus a
:class:`~repro.faults.injector.FaultInjector` and presents the same
Eq. 2-3 API, re-derived at the current simulated time from the devices
that are still alive (and their slowdown factors).  On a dropout the
survivors absorb the stripe — collective peak IOPS shrinks, so the
dynamic storage access accumulator (which reads
:meth:`required_overlapping` through this view) automatically re-solves
its threshold against the reduced peak.
"""

from __future__ import annotations

import numpy as np

from ..config import SSDSpec
from ..errors import FaultError
from ..sim.ssd import SSDArray
from ..state import Stateful, mapping, scalar
from .injector import FaultInjector


def _generation(gen) -> int:
    if not isinstance(gen, int) or isinstance(gen, bool) or gen < 0:
        raise ValueError("a clean generation is a non-negative int")
    return gen


class FaultySSDArray(Stateful):
    """Time-varying facade over a fixed SSD array.

    Args:
        base: the healthy array.
        injector: source of whole-device events and tail-spike draws.
    """

    def __init__(self, base: SSDArray, injector: FaultInjector) -> None:
        self.base = base
        self.injector = injector
        self.now_s = 0.0
        self._cache_key: tuple | None = None
        self._cache_array: SSDArray | None = None
        # Highest dropout generation per device that a rebuild has marked
        # clean.  A recovered device whose dropout count exceeds its clean
        # generation holds *stale* pages: it answers reads, but its data
        # predates the dropout and must not be served until rebuilt.
        self._clean_generation: dict[int, int] = {}

    def advance_to(self, now_s: float) -> None:
        """Move the view's simulated clock forward."""
        if now_s < 0:
            raise FaultError("simulated time cannot be negative")
        self.now_s = now_s

    # ------------------------------------------------------------------
    # Checkpointing

    #: The clock and the per-device clean generations.
    STATE = (
        scalar(
            "now_s", float,
            check=lambda self, now_s: now_s < 0 and "the clock is negative",
        ),
        mapping(
            "clean_generation", _generation, attr="_clean_generation",
            name=int, late=True,
            save=lambda clean: {
                str(device): gen for device, gen in sorted(clean.items())
            },
        ),
    )

    def _state_loaded(self) -> None:
        """The memoized effective array belongs to the old clock."""
        self._cache_key = None
        self._cache_array = None

    # ------------------------------------------------------------------
    # Device state

    def device_states(self) -> tuple[np.ndarray, np.ndarray]:
        """``(active, slowdown_factor)`` per device at the current time."""
        return self.injector.device_states(self.now_s, self.base.num_ssds)

    @property
    def num_active(self) -> int:
        active, _ = self.device_states()
        return int(active.sum())

    def lost_page_mask(self, pages: np.ndarray) -> np.ndarray:
        """Pages whose home device is currently dropped out."""
        return self.injector.lost_page_mask(
            pages, self.now_s, self.base.num_ssds
        )

    def dropout_counts(self) -> np.ndarray:
        """Per-device dropout-incident counts at the current time."""
        return self.injector.dropout_counts(self.now_s, self.base.num_ssds)

    def clean_generation(self, device: int) -> int:
        """Highest dropout generation rebuilt clean on ``device``."""
        if not 0 <= device < self.base.num_ssds:
            raise FaultError(
                f"device index {device} outside array of "
                f"{self.base.num_ssds} SSDs"
            )
        return self._clean_generation.get(int(device), 0)

    def mark_device_clean(self, device: int, generation: int) -> None:
        """Record that a rebuild restored ``device`` through ``generation``.

        Called by the online rebuilder once every page homed on the device
        has been rewritten from a surviving copy; from then on the device
        re-serves its stripe instead of holding stale pre-dropout data.
        """
        if not 0 <= device < self.base.num_ssds:
            raise FaultError(
                f"device index {device} outside array of "
                f"{self.base.num_ssds} SSDs"
            )
        if generation < 0:
            raise FaultError("clean generation must be non-negative")
        current = self._clean_generation.get(int(device), 0)
        self._clean_generation[int(device)] = max(current, int(generation))

    def stale_device_mask(self) -> np.ndarray:
        """Devices that recovered from a dropout but were never rebuilt.

        A stale device answers reads at full speed, yet its contents
        predate the dropout: serving them would silently hand out
        out-of-date feature pages.  Until
        :meth:`mark_device_clean` advances the device's clean generation
        past its dropout count, its pages stay unavailable.
        """
        counts = self.dropout_counts()
        if not counts.any():
            return np.zeros(self.base.num_ssds, dtype=bool)
        active, _ = self.device_states()
        clean = np.array(
            [
                self._clean_generation.get(device, 0)
                for device in range(self.base.num_ssds)
            ],
            dtype=np.int64,
        )
        return active & (counts > clean)

    def stale_page_mask(self, pages: np.ndarray) -> np.ndarray:
        """Pages homed on a recovered-but-not-yet-rebuilt device."""
        pages = np.asarray(pages, dtype=np.int64)
        stale = self.stale_device_mask()
        if not stale.any():
            return np.zeros(len(pages), dtype=bool)
        return stale[pages % self.base.num_ssds]

    def unavailable_page_mask(self, pages: np.ndarray) -> np.ndarray:
        """Pages that cannot be served from their home device right now.

        The union of *lost* pages (home device dropped out) and *stale*
        pages (home device recovered but not yet rebuilt).  Consumers
        without redundancy route these to the CPU-mirror fallback; the
        storage-HA layer routes them to replicas or parity reconstruction
        instead.
        """
        return self.lost_page_mask(pages) | self.stale_page_mask(pages)

    def effective(self) -> SSDArray:
        """The Eq. 2-3 array describing the surviving devices.

        Slowdowns scale a device's latency up and its peak IOPS down by
        the event factor; survivors are aggregated into an equivalent
        homogeneous array.  Raises :class:`FaultError` when no device is
        alive — callers must route everything to the fallback path first.
        """
        active, factors = self.device_states()
        key = (active.tobytes(), factors.tobytes())
        if key == self._cache_key and self._cache_array is not None:
            return self._cache_array
        n_active = int(active.sum())
        if n_active == 0:
            raise FaultError("all SSDs in the array have dropped out")
        live_factors = factors[active]
        spec = self.base.spec
        if (live_factors == 1.0).all() and n_active == self.base.num_ssds:
            array = self.base
        else:
            total_iops = float((spec.peak_iops / live_factors).sum())
            mean_factor = float(live_factors.mean())
            eff_spec = SSDSpec(
                name=f"{spec.name} (degraded)",
                read_latency_s=spec.read_latency_s * mean_factor,
                peak_iops=total_iops / n_active,
                page_bytes=spec.page_bytes,
            )
            array = SSDArray(
                eff_spec,
                n_active,
                t_init_extra_s=self.base.t_init_extra_s,
                t_term_s=self.base.t_term_s,
            )
        self._cache_key = key
        self._cache_array = array
        return array

    # ------------------------------------------------------------------
    # SSDArray API (delegated to the effective array)

    @property
    def spec(self) -> SSDSpec:
        return self.effective().spec

    @property
    def num_ssds(self) -> int:
        return self.effective().num_ssds

    @property
    def t_init_s(self) -> float:
        return self.effective().t_init_s

    @property
    def peak_iops(self) -> float:
        return self.effective().peak_iops

    @property
    def peak_bandwidth(self) -> float:
        return self.effective().peak_bandwidth

    def batch_service_time(self, n_requests: int) -> float:
        if n_requests == 0:
            # Valid even with every device dropped out: nothing to read.
            return 0.0
        return self.effective().batch_service_time(n_requests)

    def achieved_iops(self, n_overlapping: float) -> float:
        return self.effective().achieved_iops(n_overlapping)

    def achieved_bandwidth(self, n_overlapping: float) -> float:
        return self.effective().achieved_bandwidth(n_overlapping)

    def required_overlapping(self, target_fraction: float) -> int:
        if self.num_active == 0:
            # With no device alive every read falls back to the CPU path;
            # the healthy threshold keeps the accumulator well-defined.
            return self.base.required_overlapping(target_fraction)
        return self.effective().required_overlapping(target_fraction)

    # ------------------------------------------------------------------
    # Fault-time extras

    def tail_extra_time(self, n_spiked: int) -> float:
        """Extra elapsed time from ``n_spiked`` tail-latency requests.

        A spiked request occupies its device service slot for
        ``(multiplier - 1)`` extra latencies; the array's aggregate
        internal parallelism absorbs that occupancy, so the elapsed-time
        cost is the extra busy time divided across all live slots.
        """
        if n_spiked <= 0:
            return 0.0
        eff = self.effective()
        extra_per_request = (
            self.injector.plan.tail_latency_multiplier - 1.0
        ) * eff.spec.read_latency_s
        slots = max(1.0, eff.spec.internal_parallelism * eff.num_ssds)
        return n_spiked * extra_per_request / slots
