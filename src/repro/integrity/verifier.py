"""The verify-on-read policy: detect, repair, quarantine.

Every page a loader serves from storage can be checked against its
ground-truth digest.  Three modes trade confidence for modeled overhead:

* ``"off"`` — nothing is verified; corrupt bytes flow through to the model
  (this is the exposure the integrity layer exists to close, kept as an
  explicit mode so benchmarks can measure what detection costs and tests
  can prove the injected corruption does real damage);
* ``"sample"`` — each storage-served page is verified with probability
  ``sample_rate`` (seeded, checkpointable draws);
* ``"full"`` — every storage-served page is verified; no corrupt page can
  reach the model undetected.

A detected mismatch is repaired by bounded re-read: transient corruption
(an in-flight bit flip, a torn read racing a write) heals on the first
re-read; persistent corruption (storm-poisoned media) never does, so after
``max_rereads`` attempts the page is served from the fallback tier (the
constant CPU buffer mirror / ground-truth store) and *quarantined* — its
device copy is no longer trusted, later reads skip storage entirely until
the scrubber rewrites it.  With ``allow_fallback=False`` exhausted repair
raises :class:`~repro.errors.UnrepairablePageError` instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import IntegrityError, UnrepairablePageError
from ..faults.plan import (
    CORRUPT_BITFLIP,
    CORRUPT_NONE,
    CORRUPT_PERSISTENT,
    CORRUPT_TORN,
)
from ..state import Stateful, guard, rng_state
from .ledger import CorruptionLedger

#: Recognised verify-on-read modes.
VERIFY_MODES = ("off", "sample", "full")

#: Modeled digest-check throughput (bytes hashed per second).  CRC32C has
#: hardware support on every modern GPU/CPU; 50 GB/s keeps ``full`` cheap
#: but measurable (~80 ns per 4 KB page).
VERIFY_BANDWIDTH_BYTES_PER_S = 50e9


@dataclass(frozen=True)
class VerifyOutcome:
    """What one batch's verification did (counts plus the page verdicts)."""

    verified: int = 0
    unverified: int = 0
    detected: int = 0
    repaired: int = 0
    rereads: int = 0
    quarantined_pages: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )
    undetected_pages: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64)
    )

    @property
    def quarantined(self) -> int:
        return len(self.quarantined_pages)


class ReadVerifier(Stateful):
    """Applies one verify mode to batches of storage-served pages.

    Args:
        ledger: the loader's corruption ledger (mutated in place).
        mode: ``"off"``, ``"sample"`` or ``"full"``.
        sample_rate: per-page verify probability in ``"sample"`` mode.
        max_rereads: repair budget per detected corruption.
        allow_fallback: serve exhausted pages from the fallback tier
            (otherwise raise :class:`UnrepairablePageError`).
        seed: seed of the sampling stream (only ``"sample"`` draws from it,
            so ``"off"``/``"full"`` verifiers consume no random numbers).
        checksummer: optional digest source; when attached, the digest of
            every *detected* page is materialized (and memoized) so the
            modeled mismatch corresponds to a real, recomputable digest.
            Pages past its table — full-graph spill pages, which have no
            ground truth in the feature store — are skipped.
    """

    def __init__(
        self,
        ledger: CorruptionLedger,
        *,
        mode: str = "full",
        sample_rate: float = 0.1,
        max_rereads: int = 2,
        allow_fallback: bool = True,
        seed: int = 0,
        checksummer=None,
    ) -> None:
        if mode not in VERIFY_MODES:
            raise IntegrityError(
                f"unknown verify mode {mode!r}; expected one of {VERIFY_MODES}"
            )
        if not 0.0 < sample_rate <= 1.0 and mode == "sample":
            raise IntegrityError("sample_rate must be in (0, 1]")
        if max_rereads < 1:
            raise IntegrityError("max_rereads must be >= 1")
        self.ledger = ledger
        self.mode = mode
        self.sample_rate = float(sample_rate)
        self.max_rereads = int(max_rereads)
        self.allow_fallback = allow_fallback
        self.checksummer = checksummer
        self._seed = int(seed)
        self._rng = np.random.default_rng(seed)

    def process(
        self,
        pages: np.ndarray,
        kinds: np.ndarray,
        *,
        now_s: float = 0.0,
        origin_times: np.ndarray | None = None,
    ) -> VerifyOutcome:
        """Verify one batch of storage-served pages.

        Args:
            pages: page ids just served from storage.
            kinds: per-page corruption kind (``CORRUPT_*`` codes) as
                emitted by the fault injector; all-zero on healthy reads.
            now_s: simulated time of the read (detection-latency clock).
            origin_times: per-page simulated time the corruption entered
                the device (persistent kinds); defaults to ``now_s``
                everywhere, which is exact for transient corruption.

        Returns:
            A :class:`VerifyOutcome`; the ledger is updated in place.
        """
        pages = np.asarray(pages, dtype=np.int64)
        kinds = np.asarray(kinds, dtype=np.uint8)
        if kinds.shape != pages.shape:
            raise IntegrityError("kinds must align with pages")
        n = len(pages)
        if n == 0:
            return VerifyOutcome()

        if self.mode == "off":
            checked = np.zeros(n, dtype=bool)
        elif self.mode == "full":
            checked = np.ones(n, dtype=bool)
        else:
            checked = self._rng.random(n) < self.sample_rate

        corrupt = kinds != CORRUPT_NONE
        caught = checked & corrupt
        missed = corrupt & ~checked

        detected = repaired = rereads = 0
        quarantined: list[int] = []
        for idx in np.flatnonzero(caught):
            page = int(pages[idx])
            kind = int(kinds[idx])
            detected += 1
            latency = 0.0
            if origin_times is not None:
                latency = max(0.0, now_s - float(origin_times[idx]))
            self.ledger.record_detected(page, latency_s=latency)
            if (
                self.checksummer is not None
                and page < self.checksummer.total_pages
            ):
                self.checksummer.digest(page)
            if kind in (CORRUPT_BITFLIP, CORRUPT_TORN):
                # Transient: the device copy is fine, the read was not.
                rereads += 1
                repaired += 1
                self.ledger.record_repaired(page)
            elif kind == CORRUPT_PERSISTENT:
                # Poisoned media: every re-read returns the same bad bytes.
                rereads += self.max_rereads
                if not self.allow_fallback:
                    raise UnrepairablePageError(
                        f"page {page} still corrupt after "
                        f"{self.max_rereads} re-reads and fallback is "
                        f"disabled"
                    )
                self.ledger.record_unrepairable(page)
                quarantined.append(page)
            else:
                raise IntegrityError(f"unknown corruption kind {int(kind)}")

        return VerifyOutcome(
            verified=int(checked.sum()),
            unverified=int(n - checked.sum()),
            detected=detected,
            repaired=repaired,
            rereads=rereads,
            quarantined_pages=np.array(quarantined, dtype=np.int64),
            undetected_pages=pages[missed].copy(),
        )

    # ------------------------------------------------------------------
    # Checkpointing

    #: The sampling stream (the verifier's only mutable state beyond the
    #: ledger, which the loader checkpoints separately).
    STATE = (guard("mode"), guard("seed", "_seed"), rng_state())
