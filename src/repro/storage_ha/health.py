"""Fail-slow detection and the per-device health state machine.

Fail-slow (gray) failures are the hard case for a storage array: the
device never errors, it just quietly serves at a multiple of its rated
latency and drags the whole stripe down.  The monitor infers them the way
production fleets do — from *measured* service latency, not from fault
metadata: each observation folds every live device's current effective
latency (rated latency times whatever slowdown/fail-slow factor is in
force) into a per-device EWMA, then compares each EWMA against the live
array median.  A device persistently skewed above the median walks the
state machine::

    healthy -> suspect -> degraded -> dead -> rebuilding -> healthy

* ``suspect`` — skew above :data:`SUSPECT_SKEW` for fewer than
  :data:`PATIENCE` consecutive observations; no routing change yet (tail
  noise is real).
* ``degraded`` — skew above :data:`DEGRADED_SKEW` once, or above
  :data:`SUSPECT_SKEW` for :data:`PATIENCE` observations in a row; the HA
  router soft-redirects reads to replicas where one exists.
* ``dead`` — the device dropped out of the array entirely.
* ``rebuilding`` — the device answers (post-recovery) but holds stale
  pages until the online rebuilder marks it clean.

The monitor is deterministic — no RNG draws, observations are pure
functions of injector device state — so it preserves the bit-identical
kill/resume contract for free, provided its EWMA/streak state rides in
``state_dict()``.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConfigError
from ..state import Stateful, array, records, seq
from ..telemetry.tracer import ensure_tracer
from ..telemetry.tracks import HA_TRACK

#: Every state the per-device machine can be in, in escalation order.
HEALTH_STATES = ("healthy", "suspect", "degraded", "dead", "rebuilding")

#: EWMA weight of the newest latency observation.
ALPHA = 0.3
#: EWMA-over-median ratio that makes a device suspect.
SUSPECT_SKEW = 1.5
#: Ratio that degrades a device immediately.
DEGRADED_SKEW = 3.0
#: Consecutive suspect observations before degrading.
PATIENCE = 3

__all__ = ["HA_TRACK", "HEALTH_STATES", "DeviceHealthMonitor"]


class DeviceHealthMonitor(Stateful):
    """EWMA latency-skew fail-slow detector over the array.

    Args:
        num_devices: SSDs in the array.
        base_latency_s: the device's rated read latency (EWMA seed).
        tracer: optional tracer; state transitions become instants on the
            ``storage.ha`` track.
    """

    def __init__(
        self,
        num_devices: int,
        base_latency_s: float,
        *,
        tracer=None,
    ) -> None:
        if num_devices < 1:
            raise ConfigError("health monitor needs at least one device")
        if base_latency_s <= 0:
            raise ConfigError("base latency must be positive")
        self.num_devices = num_devices
        self.base_latency_s = float(base_latency_s)
        self.tracer = ensure_tracer(tracer)
        self._ewma = np.full(num_devices, float(base_latency_s))
        self._streak = np.zeros(num_devices, dtype=np.int64)
        self._states = ["healthy"] * num_devices
        self.transitions: list[dict] = []

    # ------------------------------------------------------------------
    # Observation

    def _set_state(self, device: int, state: str, now_s: float) -> None:
        if self._states[device] == state:
            return
        self.transitions.append(
            {
                "device": device,
                "from": self._states[device],
                "to": state,
                "at_time_s": now_s,
            }
        )
        self._states[device] = state
        if self.tracer.enabled:
            self.tracer.instant(
                f"health.{state}", HA_TRACK, at_s=now_s, device=device
            )

    def observe(
        self,
        now_s: float,
        active: np.ndarray,
        factors: np.ndarray,
        stale: np.ndarray,
    ) -> None:
        """Fold one array-wide latency sample into the state machine.

        Args:
            now_s: simulated time of the sample.
            active: per-device liveness from the fault injector.
            factors: per-device slowdown factors — the *measurement*: a
                live device's effective service latency is
                ``base_latency_s * factor``, which is how declared
                ``"fail_slow"`` events and inferred slow devices end up
                indistinguishable here, by design.
            stale: per-device recovered-but-not-rebuilt mask.
        """
        live = np.asarray(active, dtype=bool)
        factors = np.asarray(factors, dtype=float)
        stale = np.asarray(stale, dtype=bool)
        measurable = live & ~stale
        latencies = self.base_latency_s * factors
        self._ewma[measurable] = (
            ALPHA * latencies[measurable]
            + (1.0 - ALPHA) * self._ewma[measurable]
        )
        median = (
            float(np.median(self._ewma[measurable]))
            if measurable.any()
            else self.base_latency_s
        )
        for device in range(self.num_devices):
            if not live[device]:
                self._set_state(device, "dead", now_s)
                self._streak[device] = 0
                continue
            if stale[device]:
                self._set_state(device, "rebuilding", now_s)
                self._streak[device] = 0
                continue
            skew = self._ewma[device] / median if median > 0 else 1.0
            if skew >= DEGRADED_SKEW:
                self._streak[device] = PATIENCE
                self._set_state(device, "degraded", now_s)
            elif skew >= SUSPECT_SKEW:
                self._streak[device] = min(
                    PATIENCE, int(self._streak[device]) + 1
                )
                if self._streak[device] >= PATIENCE:
                    self._set_state(device, "degraded", now_s)
                else:
                    self._set_state(device, "suspect", now_s)
            else:
                self._streak[device] = 0
                self._set_state(device, "healthy", now_s)

    # ------------------------------------------------------------------
    # Queries

    def states(self) -> list[str]:
        """Current per-device health states."""
        return list(self._states)

    def state_of(self, device: int) -> str:
        if not 0 <= device < self.num_devices:
            raise ConfigError(
                f"device index {device} outside array of "
                f"{self.num_devices} SSDs"
            )
        return self._states[device]

    def degraded_mask(self) -> np.ndarray:
        """Devices the router should read around when a copy exists."""
        return np.array(
            [state == "degraded" for state in self._states], dtype=bool
        )

    def ewma_latencies(self) -> np.ndarray:
        """Per-device EWMA service latency (seconds)."""
        return self._ewma.copy()

    # ------------------------------------------------------------------
    # Checkpointing

    def _sized(self, values):
        return len(values) != self.num_devices and "sized for a different array"

    def _named(self, states):
        unknown = [name for name in states if name not in HEALTH_STATES]
        return self._sized(states) or (
            unknown and f"unknown health state {unknown[0]!r}"
        )

    STATE = (
        array("ewma", np.float64, attr="_ewma", as_list=True, check=_sized),
        array("streak", np.int64, attr="_streak", as_list=True, check=_sized),
        seq("states", attr="_states", check=_named),
        records("transitions"),
    )
