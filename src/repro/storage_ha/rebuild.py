"""Online redundancy rebuild on a budgeted background IOPS stream.

Same economics as the integrity scrubber: the rebuilder soaks otherwise
idle device IOPS, so a sweep "pays" only from a budget accrued at
``iops_budget`` over the elapsed modeled time of the foreground work it
overlaps — it never adds modeled time of its own, only counted traffic.
Fractional budget carries across sweeps so tiny groups still make
progress; carry is dropped whenever the job queue drains (no banking
budget while there is nothing to rebuild — pay-for-what-you-use).

Two job kinds, created from the fault timeline as it unfolds:

* ``reprotect`` (replication only) — a device dropped out; every page
  that kept a copy on it is re-replicated onto survivors (1 read of a
  surviving copy + 1 write per page) so a second failure cannot strand
  data.
* ``restore`` — a dropped device came back; its stripe share is
  rewritten from surviving copies (replication: 1 read + 1 write per
  page) or recomputed from the parity group (parity: ``k`` reads + 1
  write per page).  Completion calls
  :meth:`~repro.faults.array.FaultySSDArray.mark_device_clean`, which is
  the moment the device stops serving stale pages.

Every piece of progress state (budget carry, per-job cursors, seen
incident generations) rides in ``state_dict()`` for exact kill/resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError
from ..state import Stateful, records, scalar, seq

_JOB_KINDS = ("reprotect", "restore")


@dataclass
class RebuildSweepOutcome:
    """What one background sweep accomplished."""

    pages_rebuilt: int = 0
    read_requests: int = 0
    write_requests: int = 0
    completed_jobs: list = field(default_factory=list)


class Rebuilder(Stateful):
    """Budgeted background restoration of redundancy after device incidents.

    Args:
        placement: the redundancy layout (copy sets and rebuild costs).
        total_pages: size of the feature page space being protected.
        iops_budget: background device operations per second of modeled
            foreground time; 0 disables rebuilding entirely.
    """

    def __init__(self, placement, total_pages: int, iops_budget: float) -> None:
        if total_pages < 0:
            raise ConfigError("total_pages must be non-negative")
        if iops_budget < 0:
            raise ConfigError("rebuild IOPS budget must be non-negative")
        self.placement = placement
        self.total_pages = int(total_pages)
        self.iops_budget = float(iops_budget)
        self._carry = 0.0
        self._jobs: list[dict] = []
        self._seen_dropouts = [0] * placement.num_devices
        self.pages_rebuilt_total = 0

    # ------------------------------------------------------------------
    # Job discovery

    def _job_cost_per_page(self, kind: str) -> int:
        if kind == "restore" and self.placement.mode == "parity":
            # Recompute from the k surviving group members, then write.
            return self.placement.k + 1
        # Copy a surviving replica onto the target: one read + one write.
        return 2

    def _enqueue(self, device: int, kind: str, generation: int) -> None:
        pages = self.placement.pages_on_device(device, self.total_pages)
        if pages == 0:
            return
        self._jobs.append(
            {
                "device": device,
                "kind": kind,
                "generation": generation,
                "pages_total": pages,
                "pages_done": 0,
            }
        )

    def sync(self, fault_array) -> None:
        """Turn new fault-timeline incidents into rebuild jobs."""
        counts = fault_array.dropout_counts()
        active, _ = fault_array.device_states()
        stale = fault_array.stale_device_mask()
        for device in range(self.placement.num_devices):
            while self._seen_dropouts[device] < int(counts[device]):
                self._seen_dropouts[device] += 1
                generation = self._seen_dropouts[device]
                if self.placement.width > 1:
                    # Survivors still hold a copy — re-replicate the
                    # dropped device's share so redundancy is restored
                    # even if the device never returns.
                    self._enqueue(device, "reprotect", generation)
            if stale[device]:
                generation = int(counts[device])
                have = any(
                    job["device"] == device
                    and job["kind"] == "restore"
                    and job["generation"] == generation
                    for job in self._jobs
                )
                if not have and fault_array.clean_generation(device) < generation:
                    # The device is back: restoring it supersedes any
                    # still-queued re-protection of the same incident.
                    self._jobs = [
                        job
                        for job in self._jobs
                        if not (
                            job["device"] == device
                            and job["kind"] == "reprotect"
                            and job["generation"] == generation
                        )
                    ]
                    self._enqueue(device, "restore", generation)

    # ------------------------------------------------------------------
    # Background sweeps

    def sweep(self, elapsed_s: float, fault_array) -> RebuildSweepOutcome:
        """Spend up to ``carry + iops_budget * elapsed_s`` operations.

        The sweep overlaps the foreground work that took ``elapsed_s`` of
        modeled time, soaking idle IOPS — it contributes no modeled time
        itself, only rebuild traffic and (on restore completion) the
        device-clean transition.
        """
        if elapsed_s < 0:
            raise ConfigError("elapsed time must be non-negative")
        outcome = RebuildSweepOutcome()
        self.sync(fault_array)
        if not self._jobs:
            self._carry = 0.0
            return outcome
        if self.iops_budget == 0.0:
            return outcome
        budget = self._carry + self.iops_budget * elapsed_s
        while self._jobs:
            job = self._jobs[0]
            cost = self._job_cost_per_page(job["kind"])
            affordable = int(budget // cost)
            if affordable == 0:
                break
            remaining = job["pages_total"] - job["pages_done"]
            done = min(remaining, affordable)
            job["pages_done"] += done
            budget -= done * cost
            outcome.pages_rebuilt += done
            outcome.write_requests += done
            outcome.read_requests += done * (cost - 1)
            if job["pages_done"] >= job["pages_total"]:
                self._jobs.pop(0)
                outcome.completed_jobs.append(
                    (job["device"], job["kind"], job["generation"])
                )
                if job["kind"] == "restore":
                    fault_array.mark_device_clean(
                        job["device"], job["generation"]
                    )
        self.pages_rebuilt_total += outcome.pages_rebuilt
        self._carry = budget if self._jobs else 0.0
        return outcome

    # ------------------------------------------------------------------
    # Queries

    @property
    def fully_redundant(self) -> bool:
        """True when no rebuild work is outstanding."""
        return not self._jobs

    def rebuilding_mask(self) -> np.ndarray:
        """Devices with an open restore job (being rewritten in place)."""
        mask = np.zeros(self.placement.num_devices, dtype=bool)
        for job in self._jobs:
            if job["kind"] == "restore":
                mask[job["device"]] = True
        return mask

    def jobs_summary(self) -> list[dict]:
        """Open jobs with progress, oldest first (for reports/CLI)."""
        return [dict(job) for job in self._jobs]

    # ------------------------------------------------------------------
    # Checkpointing

    STATE = (
        scalar(
            "carry", float, attr="_carry",
            check=lambda self, carry: carry < 0 and "negative rebuild carry",
        ),
        records(
            "jobs", attr="_jobs",
            keys=("device", "kind", "generation", "pages_total", "pages_done"),
            check=lambda self, job: job["kind"] not in _JOB_KINDS
            and f"unknown rebuild job kind {job['kind']!r}",
        ),
        seq(
            "seen_dropouts", int, attr="_seen_dropouts",
            check=lambda self, seen: len(seen) != self.placement.num_devices
            and "sized for a different array",
        ),
        scalar("pages_rebuilt_total", int),
    )
