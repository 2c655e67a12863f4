"""Redundant page placement over the striped SSD array.

Two layouts, both preserving the BaM queue-pair striping for the *primary*
copy (page ``p`` homes on device ``p % num_devices``) so that enabling
redundancy never perturbs where the first copy of any page lives — the
redundancy-off modeled times stay bit-identical:

* **Replication** — each page gets ``replication_factor - 1`` extra
  copies on the highest-rendezvous-weight devices among the remainder of
  the array, reusing the SplitMix64 HRW helper that shards training ids
  across the fleet.  Rendezvous placement keeps copy sets stable as the
  array grows: adding a device only attracts pages whose new weight wins,
  never reshuffles survivors.
* **Parity** — RAID-5-style left-rotating ``k + 1`` groups with
  ``k = num_devices - 1`` data pages per stripe: stripe ``s`` parks its
  parity block on device ``s % num_devices`` and lays the data pages on
  the remaining devices in order.  A page on an unavailable device is
  reconstructable from the ``k`` surviving group members at the modeled
  cost of ``k`` member reads.

Placement objects are frozen values: pure functions of
``(num_devices, mode, seed)`` with no mutable state, so they need no
checkpointing and can be rebuilt identically from CLI knobs on resume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigError
from ..utils import rendezvous_weights


@dataclass(frozen=True)
class ReplicatedPlacement:
    """``replication_factor`` copies of every page, primary on the stripe.

    Args:
        num_devices: SSDs in the array.
        replication_factor: total copies per page (1 = no redundancy).
        seed: salts the rendezvous hash for replica device choice.
    """

    num_devices: int
    replication_factor: int = 1
    seed: int = 0

    mode = "replication"

    def __post_init__(self) -> None:
        if self.num_devices < 1:
            raise ConfigError("placement needs at least one device")
        if not 1 <= self.replication_factor <= self.num_devices:
            raise ConfigError(
                f"replication factor must be in [1, {self.num_devices}] "
                f"for a {self.num_devices}-SSD array, "
                f"got {self.replication_factor}"
            )

    @property
    def width(self) -> int:
        """Copies stored per page."""
        return self.replication_factor

    @property
    def storage_overhead_factor(self) -> float:
        """Physical bytes written per logical byte."""
        return float(self.replication_factor)

    @property
    def reconstruct_reads_per_page(self) -> int:
        """Member reads needed to rebuild one page (replicas: one copy)."""
        return 1

    def primary_device(self, pages: np.ndarray) -> np.ndarray:
        """Stripe home of each page — identical to the non-HA layout."""
        pages = np.asarray(pages, dtype=np.int64)
        return pages % self.num_devices

    def copies(self, pages: np.ndarray) -> np.ndarray:
        """``(len(pages), replication_factor)`` device matrix, primary first.

        Replicas are the ``replication_factor - 1`` highest-weight devices
        among the non-primary ones, ranked by the pure
        ``(seed, page, device)`` rendezvous hash.
        """
        pages = np.asarray(pages, dtype=np.int64)
        primary = pages % self.num_devices
        if self.replication_factor == 1:
            return primary[:, None]
        weights = rendezvous_weights(pages, self.num_devices, self.seed)
        # The primary never competes for a replica slot.
        weights[np.arange(len(pages)), primary] = 0
        order = np.argsort(weights, axis=1, kind="stable")[:, ::-1]
        replicas = order[:, : self.replication_factor - 1]
        return np.concatenate([primary[:, None], replicas], axis=1)

    def pages_on_device(self, device: int, total_pages: int) -> int:
        """How many of the first ``total_pages`` pages keep a copy on ``device``."""
        if not 0 <= device < self.num_devices:
            raise ConfigError(
                f"device index {device} outside array of "
                f"{self.num_devices} SSDs"
            )
        if total_pages <= 0:
            return 0
        copies = self.copies(np.arange(total_pages, dtype=np.int64))
        return int((copies == device).any(axis=1).sum())


@dataclass(frozen=True)
class ParityPlacement:
    """RAID-5-style rotating parity: ``k = num_devices - 1`` data + 1 parity."""

    num_devices: int
    seed: int = 0

    mode = "parity"

    def __post_init__(self) -> None:
        if self.num_devices < 2:
            raise ConfigError(
                "parity placement needs at least 2 devices "
                f"(k data + 1 parity), got {self.num_devices}"
            )

    @property
    def k(self) -> int:
        """Data pages per stripe."""
        return self.num_devices - 1

    @property
    def width(self) -> int:
        """Copies stored per page (parity keeps a single data copy)."""
        return 1

    @property
    def storage_overhead_factor(self) -> float:
        """Physical bytes written per logical byte: ``(k + 1) / k``."""
        return (self.k + 1) / self.k

    @property
    def reconstruct_reads_per_page(self) -> int:
        """Member reads needed to rebuild one page from the stripe."""
        return self.k

    def primary_device(self, pages: np.ndarray) -> np.ndarray:
        """Data device of each page under left-rotating parity."""
        pages = np.asarray(pages, dtype=np.int64)
        stripe = pages // self.k
        index = pages % self.k
        parity = stripe % self.num_devices
        return index + (index >= parity)

    def copies(self, pages: np.ndarray) -> np.ndarray:
        """Single data copy per page — parity is not a readable copy."""
        return self.primary_device(pages)[:, None]

    def pages_on_device(self, device: int, total_pages: int) -> int:
        """Data pages of the first ``total_pages`` homed on ``device``."""
        if not 0 <= device < self.num_devices:
            raise ConfigError(
                f"device index {device} outside array of "
                f"{self.num_devices} SSDs"
            )
        if total_pages <= 0:
            return 0
        pages = np.arange(total_pages, dtype=np.int64)
        return int((self.primary_device(pages) == device).sum())


def make_placement(
    num_devices: int,
    *,
    replication: int = 1,
    parity: bool = False,
    seed: int = 0,
) -> "ReplicatedPlacement | ParityPlacement":
    """Build the placement for the CLI knob pair ``--replication/--parity``."""
    if parity and replication > 1:
        raise ConfigError(
            "replication and parity are mutually exclusive redundancy modes"
        )
    if parity:
        return ParityPlacement(num_devices, seed=seed)
    return ReplicatedPlacement(num_devices, replication, seed=seed)
