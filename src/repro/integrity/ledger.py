"""The corruption ledger: what was detected, repaired, and given up on.

One ledger rides each loader and is the authoritative account of the
integrity layer's work: per-device counts of detected / repaired /
unrepairable pages, the quarantine set (pages whose device copy is no
longer trusted and is served from the fallback tier), and the observed
detection latencies (simulated seconds between a corruption entering the
device and the verify/scrub path catching it).

The ledger is checkpointable: :meth:`state_dict` / :meth:`load_state_dict`
capture every count bit-exactly, so a killed-and-resumed run reports the
same integrity totals as one that never stopped.
"""

from __future__ import annotations

import numpy as np

from ..errors import IntegrityError
from ..state import Stateful, array, guard, seq
from ..utils import isin_set

#: Cap on retained detection-latency samples (oldest kept; the percentile
#: summaries benchmarks compute are insensitive to the tail being dropped).
MAX_LATENCY_SAMPLES = 100_000


class CorruptionLedger(Stateful):
    """Per-device corruption accounting plus the page quarantine set.

    Args:
        num_devices: SSDs in the array (pages stripe as ``page % n``).
    """

    def __init__(self, num_devices: int = 1) -> None:
        if num_devices <= 0:
            raise IntegrityError("num_devices must be positive")
        self.num_devices = num_devices
        self.detected = np.zeros(num_devices, dtype=np.int64)
        self.repaired = np.zeros(num_devices, dtype=np.int64)
        self.unrepairable = np.zeros(num_devices, dtype=np.int64)
        self._quarantined: set[int] = set()
        self.detection_latencies: list[float] = []

    # ------------------------------------------------------------------
    # Introspection

    @property
    def total_detected(self) -> int:
        return int(self.detected.sum())

    @property
    def total_repaired(self) -> int:
        return int(self.repaired.sum())

    @property
    def total_unrepairable(self) -> int:
        return int(self.unrepairable.sum())

    @property
    def num_quarantined(self) -> int:
        return len(self._quarantined)

    @property
    def quarantined_pages(self) -> np.ndarray:
        """Sorted page ids currently in quarantine."""
        return np.array(sorted(self._quarantined), dtype=np.int64)

    def is_consistent(self) -> bool:
        """Every detection ended as a repair or an unrepairable verdict."""
        return bool(
            (self.detected == self.repaired + self.unrepairable).all()
        )

    # ------------------------------------------------------------------
    # Recording

    def _device_of(self, page: int) -> int:
        return int(page) % self.num_devices

    def record_detected(self, page: int, *, latency_s: float = 0.0) -> None:
        """One digest mismatch caught on device ``page % num_devices``."""
        if latency_s < 0:
            raise IntegrityError("detection latency cannot be negative")
        self.detected[self._device_of(page)] += 1
        if len(self.detection_latencies) < MAX_LATENCY_SAMPLES:
            self.detection_latencies.append(float(latency_s))

    def record_repaired(self, page: int) -> None:
        """A detected corruption healed (re-read or rewrite succeeded)."""
        self.repaired[self._device_of(page)] += 1

    def record_unrepairable(self, page: int) -> None:
        """A detected corruption exhausted repair; the page is quarantined."""
        self.unrepairable[self._device_of(page)] += 1
        self._quarantined.add(int(page))

    def is_quarantined(self, page: int) -> bool:
        return int(page) in self._quarantined

    def release(self, page: int) -> None:
        """Drop a page from quarantine (after an out-of-band rewrite)."""
        self._quarantined.discard(int(page))

    def quarantined_mask(self, pages: np.ndarray) -> np.ndarray:
        """Boolean mask over ``pages``: which are currently quarantined."""
        pages = np.asarray(pages, dtype=np.int64)
        if not self._quarantined or len(pages) == 0:
            return np.zeros(len(pages), dtype=bool)
        return isin_set(pages, self._quarantined)

    # ------------------------------------------------------------------
    # Reporting

    def detection_latency_percentiles(
        self, percentiles: tuple[float, ...] = (50.0, 95.0, 99.0)
    ) -> dict[str, float]:
        """``{"p50": ..., ...}`` over the recorded detection latencies."""
        if not self.detection_latencies:
            return {f"p{int(p)}": 0.0 for p in percentiles}
        values = np.asarray(self.detection_latencies)
        return {
            f"p{int(p)}": float(np.percentile(values, p))
            for p in percentiles
        }

    def per_device_summary(self) -> list[dict[str, int]]:
        """One ``{device, detected, repaired, unrepairable}`` row per SSD."""
        return [
            {
                "device": d,
                "detected": int(self.detected[d]),
                "repaired": int(self.repaired[d]),
                "unrepairable": int(self.unrepairable[d]),
            }
            for d in range(self.num_devices)
        ]

    def totals(self) -> dict[str, int]:
        """The array-wide counts a run publishes as ``integrity.*``."""
        return {
            "detected": self.total_detected,
            "repaired": self.total_repaired,
            "unrepairable": self.total_unrepairable,
        }

    # ------------------------------------------------------------------
    # Checkpointing

    def _per_device(self, values):
        return (
            values.shape != (self.num_devices,) or (values < 0).any()
        ) and "not a non-negative count per device"

    #: Bit-exact: every count and the quarantine set.
    STATE = (
        guard("num_devices"),
        array("detected", np.int64, as_list=True, check=_per_device),
        array("repaired", np.int64, as_list=True, check=_per_device),
        array("unrepairable", np.int64, as_list=True, check=_per_device),
        seq("quarantined", int, attr="_quarantined", into=set, save=sorted),
        seq("detection_latencies", float),
    )
