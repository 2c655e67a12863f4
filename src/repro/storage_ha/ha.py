"""The storage high-availability coordinator.

:class:`StorageHA` owns the three moving parts — placement, health
monitor, rebuilder — and exposes the two operations consumers need:

* :meth:`route` — given the miss pages of one storage batch, decide per
  page whether it is served **direct** from its primary device,
  **redirected** to a surviving replica, **reconstructed** from its
  parity group (``k`` member reads at modeled cost), or **lost** (no
  live copy — the caller's CPU-mirror fallback is the last resort).
  Hard unavailability (dropped-out or stale devices) *must* redirect;
  health-degraded devices redirect only when a healthy copy exists,
  otherwise the slow primary still serves.
* :meth:`background_sweep` — advance the rebuilder on the idle IOPS the
  finished foreground group left behind.

With no fault machinery attached (``fault_array=None``) every call is an
inert pass-through: all pages route direct, sweeps do nothing, and no
state mutates — redundancy plumbed through a healthy run costs nothing
and perturbs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..state import Stateful, child
from ..telemetry.tracer import ensure_tracer
from .health import HA_TRACK, DeviceHealthMonitor
from .placement import make_placement
from .rebuild import Rebuilder, RebuildSweepOutcome


@dataclass(frozen=True)
class HARouteOutcome:
    """Per-batch routing decision counts (plus the lost-page mask)."""

    n_direct: int = 0
    n_replica: int = 0
    n_reconstruct: int = 0
    reconstruct_reads: int = 0
    n_lost: int = 0
    lost_mask: "np.ndarray | None" = None

    @property
    def n_storage(self) -> int:
        """Pages served from the array (any route but the fallback)."""
        return self.n_direct + self.n_replica + self.n_reconstruct

    @property
    def extra_service_reads(self) -> int:
        """Device reads beyond one per served page (parity members)."""
        return self.reconstruct_reads - self.n_reconstruct


class StorageHA(Stateful):
    """Replication/parity, fail-slow health, and online rebuild in one.

    Args:
        num_devices: SSDs in the array.
        base_latency_s: rated device read latency (health EWMA seed).
        replication: total copies per page (1 = no replication).
        parity: use k+1 rotating parity instead of replication.
        rebuild_iops: background IOPS budget for the online rebuilder.
        total_pages: size of the protected page space.
        fault_array: the :class:`~repro.faults.array.FaultySSDArray`
            view, or ``None`` when the run has no fault machinery.
        seed: salts replica rendezvous placement.
        tracer: optional tracer (``storage.ha`` track).
    """

    def __init__(
        self,
        *,
        num_devices: int,
        base_latency_s: float,
        replication: int = 1,
        parity: bool = False,
        rebuild_iops: float = 0.0,
        total_pages: int = 0,
        fault_array=None,
        seed: int = 0,
        tracer=None,
    ) -> None:
        self.placement = make_placement(
            num_devices, replication=replication, parity=parity, seed=seed
        )
        self.fault_array = fault_array
        self.tracer = ensure_tracer(tracer)
        self.health = DeviceHealthMonitor(
            num_devices, base_latency_s, tracer=self.tracer
        )
        self.rebuilder = Rebuilder(self.placement, total_pages, rebuild_iops)

    # ------------------------------------------------------------------
    # Clock / observation

    def advance(self, now_s: float) -> None:
        """Move to simulated ``now_s`` and take one health observation."""
        if self.fault_array is None:
            return
        self.fault_array.advance_to(now_s)
        active, factors = self.fault_array.device_states()
        stale = self.fault_array.stale_device_mask()
        self.health.observe(now_s, active, factors, stale)

    # ------------------------------------------------------------------
    # Device availability

    def _availability(self) -> tuple[np.ndarray, np.ndarray]:
        """``(avail, prefer)`` device masks.

        ``avail`` — can serve valid data (live and not stale).
        ``prefer`` — ``avail`` minus health-degraded devices, the set the
        router *wants* to read from.
        """
        n = self.placement.num_devices
        if self.fault_array is None:
            ones = np.ones(n, dtype=bool)
            return ones, ones.copy()
        active, _ = self.fault_array.device_states()
        stale = self.fault_array.stale_device_mask()
        avail = active & ~stale
        prefer = avail & ~self.health.degraded_mask()
        return avail, prefer

    # ------------------------------------------------------------------
    # Routing

    def route(
        self, pages: np.ndarray, *, avoid: np.ndarray | None = None
    ) -> HARouteOutcome:
        """Route one batch of miss pages through the redundancy layout.

        ``avoid`` marks devices the caller forbids beyond what the fault
        timeline says — the serving path's breaker board: an open breaker
        is a routing decision, not a device state.
        """
        pages = np.asarray(pages, dtype=np.int64)
        n = len(pages)
        if n == 0:
            return HARouteOutcome(lost_mask=np.zeros(0, dtype=bool))
        avail, prefer = self._availability()
        if avoid is not None:
            avoid = np.asarray(avoid, dtype=bool)
            avail = avail & ~avoid
            prefer = prefer & ~avoid
        elif prefer.all():
            return HARouteOutcome(
                n_direct=n, lost_mask=np.zeros(n, dtype=bool)
            )
        primary = self.placement.primary_device(pages)
        direct = prefer[primary]
        rest = pages[~direct]
        outcome = self._route_rest(rest, avail, prefer)
        lost_mask = np.zeros(n, dtype=bool)
        if outcome["lost"] is not None:
            lost_mask[np.flatnonzero(~direct)[outcome["lost"]]] = True
        return HARouteOutcome(
            n_direct=int(direct.sum()) + outcome["extra_direct"],
            n_replica=outcome["replica"],
            n_reconstruct=outcome["reconstruct"],
            reconstruct_reads=outcome["reconstruct"]
            * self.placement.reconstruct_reads_per_page,
            n_lost=outcome["n_lost"],
            lost_mask=lost_mask,
        )

    def _route_rest(
        self, rest: np.ndarray, avail: np.ndarray, prefer: np.ndarray
    ) -> dict:
        """Route pages whose primary is not preferred (slow, stale, dead)."""
        if len(rest) == 0:
            return {
                "extra_direct": 0,
                "replica": 0,
                "reconstruct": 0,
                "n_lost": 0,
                "lost": None,
            }
        primary = self.placement.primary_device(rest)
        hard = ~avail[primary]
        if self.placement.mode == "replication":
            copies = self.placement.copies(rest)
            prefer_any = prefer[copies].any(axis=1)
            avail_any = avail[copies].any(axis=1)
            # A preferred copy wins outright; a hard-lost primary settles
            # for any available copy (a degraded replica still beats the
            # CPU mirror); a merely-degraded primary with no better copy
            # keeps serving direct, just slowly.
            replica = prefer_any | (hard & avail_any)
            lost = hard & ~replica
            extra_direct = int((~hard & ~replica).sum())
            return {
                "extra_direct": extra_direct,
                "replica": int(replica.sum()),
                "reconstruct": 0,
                "n_lost": int(lost.sum()),
                "lost": lost,
            }
        # Parity: a page is reconstructable iff every *other* device of
        # its (array-wide) stripe group is available; degraded-but-live
        # primaries serve direct — k member reads cost more than one
        # slow read.
        n_unavailable = int((~avail).sum())
        reconstruct = hard & (n_unavailable == 1)
        lost = hard & ~reconstruct
        return {
            "extra_direct": int((~hard).sum()),
            "replica": 0,
            "reconstruct": int(reconstruct.sum()),
            "n_lost": int(lost.sum()),
            "lost": lost,
        }

    def unrepairable_count(self, pages: np.ndarray) -> int:
        """Pages with no live copy and no reconstruction path right now."""
        return self.route(pages).n_lost

    # ------------------------------------------------------------------
    # Background rebuild

    def background_sweep(
        self, elapsed_s: float, now_s: float
    ) -> RebuildSweepOutcome | None:
        """Run one rebuild sweep over ``elapsed_s`` of foreground time."""
        if self.fault_array is None:
            return None
        outcome = self.rebuilder.sweep(elapsed_s, self.fault_array)
        if self.tracer.enabled and outcome.pages_rebuilt:
            self.tracer.instant(
                "rebuild.sweep",
                HA_TRACK,
                at_s=now_s,
                pages=outcome.pages_rebuilt,
                reads=outcome.read_requests,
                writes=outcome.write_requests,
            )
        if self.tracer.enabled:
            for device, kind, generation in outcome.completed_jobs:
                self.tracer.instant(
                    f"rebuild.{kind}.done",
                    HA_TRACK,
                    at_s=now_s,
                    device=device,
                    generation=generation,
                )
        return outcome

    # ------------------------------------------------------------------
    # Reporting

    def summary_block(self) -> dict:
        """The export-schema ``storage_ha`` block (sans traffic counters)."""
        placement = self.placement
        block = {
            "mode": placement.mode,
            "num_devices": placement.num_devices,
            "storage_overhead_factor": placement.storage_overhead_factor,
            "device_states": self.health.states(),
            "health_transitions": [
                dict(item) for item in self.health.transitions
            ],
            "fully_redundant": self.rebuilder.fully_redundant,
            "rebuild_jobs_open": self.rebuilder.jobs_summary(),
            "pages_rebuilt_total": self.rebuilder.pages_rebuilt_total,
            "rebuild_iops_budget": self.rebuilder.iops_budget,
        }
        if placement.mode == "replication":
            block["replication_factor"] = placement.replication_factor
        else:
            block["parity_group_k"] = placement.k
        return block

    # ------------------------------------------------------------------
    # Checkpointing

    # Everything mutable: health machine + rebuild progress.  The fault
    # array's own clock/clean-generation state is owned (and checkpointed)
    # by whichever consumer owns the array.
    STATE = (child("health"), child("rebuilder"))
