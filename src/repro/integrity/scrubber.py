"""Modeled-time background scrubbing of the feature table.

Verify-on-read only inspects pages the workload happens to touch; media
corruption on a cold page sits undetected until the sampler wanders into
it.  The scrubber closes that window: between training iterations it walks
the page space in id order under an IOPS budget, compares each page against
its digest, and rewrites poisoned pages from the ground-truth store
(releasing them from quarantine if verify-on-read had already given up on
them).

The budget math: a sweep after a group that consumed ``elapsed_s`` modeled
seconds may issue at most ``iops_budget * elapsed_s`` page reads — the
scrubber soaks up idle device IOPS rather than stealing from the training
path, which is why its reads charge no epoch time (they overlap training
compute) while still being accounted in the counters and the trace.
Fractional budget carries over between sweeps, so a tiny budget still makes
progress instead of rounding to zero forever.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import IntegrityError
from ..state import Stateful, scalar
from .ledger import CorruptionLedger


@dataclass(frozen=True)
class ScrubOutcome:
    """What one sweep did."""

    pages_scanned: int = 0
    detected: int = 0
    repaired: int = 0
    released: int = 0


class Scrubber(Stateful):
    """Budgeted sequential sweep over the page space.

    Args:
        total_pages: pages in the feature table.
        iops_budget: page reads the scrubber may issue per modeled second.
        ledger: the loader's corruption ledger (mutated in place).
        injector: the fault injector whose persistent-corruption model the
            sweep inspects; ``None`` scans clean media (useful for
            verify-only runs — the sweep still advances and is accounted).
        num_devices: SSDs in the array (for the injector's page striping).
        checksummer: optional digest source; detected pages materialize
            their digest so the mismatch is real and recomputable.
    """

    def __init__(
        self,
        *,
        total_pages: int,
        iops_budget: float,
        ledger: CorruptionLedger,
        injector=None,
        num_devices: int = 1,
        checksummer=None,
    ) -> None:
        if total_pages <= 0:
            raise IntegrityError("total_pages must be positive")
        if iops_budget < 0:
            raise IntegrityError("iops_budget must be non-negative")
        self.total_pages = int(total_pages)
        self.iops_budget = float(iops_budget)
        self.ledger = ledger
        self.injector = injector
        self.num_devices = int(num_devices)
        self.checksummer = checksummer
        self._cursor = 0
        self._carry = 0.0

    @property
    def cursor(self) -> int:
        """Next page id the sweep will inspect."""
        return self._cursor

    def sweep(self, elapsed_s: float, now_s: float) -> ScrubOutcome:
        """Scrub up to ``iops_budget * elapsed_s`` pages at time ``now_s``."""
        if elapsed_s < 0:
            raise IntegrityError("elapsed time cannot be negative")
        budget = self._carry + self.iops_budget * elapsed_s
        n = int(budget)
        self._carry = budget - n
        n = min(n, self.total_pages)  # at most one full pass per sweep
        if n == 0:
            return ScrubOutcome()
        pages = (
            np.arange(self._cursor, self._cursor + n, dtype=np.int64)
            % self.total_pages
        )
        self._cursor = int((self._cursor + n) % self.total_pages)

        detected = repaired = released = 0
        if self.injector is not None:
            poisoned, origins = self.injector.poisoned_info(
                pages, now_s, self.num_devices
            )
            if poisoned.any():
                # The sweep's reads observed corrupt bytes: they count as
                # emitted corruption exactly like a training read would.
                self.injector.count_emitted(int(poisoned.sum()))
            for idx in np.flatnonzero(poisoned):
                page = int(pages[idx])
                detected += 1
                self.ledger.record_detected(
                    page, latency_s=max(0.0, now_s - float(origins[idx]))
                )
                if self.checksummer is not None:
                    self.checksummer.digest(page)
                # Rewrite from ground truth heals the media copy.
                self.injector.mark_repaired(page)
                self.ledger.record_repaired(page)
                repaired += 1
                if self.ledger.is_quarantined(page):
                    self.ledger.release(page)
                    released += 1
        return ScrubOutcome(
            pages_scanned=n,
            detected=detected,
            repaired=repaired,
            released=released,
        )

    # ------------------------------------------------------------------
    # Checkpointing

    STATE = (
        scalar(
            "cursor", int, attr="_cursor",
            check=lambda self, cursor: not 0 <= cursor < self.total_pages
            and f"outside the {self.total_pages} scrubbed pages",
        ),
        scalar("carry", float, attr="_carry", late=True),
    )
