"""Per-device circuit breakers over the faulty SSD array.

A read into a dropped-out device does not fail fast — it times out, and
under load those timeouts compound into exactly the tail blow-up the
serving SLO cannot afford.  Each device therefore gets a breaker:

* **closed** — reads flow to the device; page outcomes (served vs
  lost/timed-out) feed a sliding window, and when the window's failure
  ratio crosses the threshold the breaker **opens**.
* **open** — reads for the device skip storage entirely and go to the
  CPU-mirror fallback path, paying CPU-path bandwidth instead of a device
  timeout.  After a modeled cooldown the breaker goes **half-open**.
* **half-open** — a limited number of probe pages are let through; a
  failure re-opens (and restarts the cooldown), while :data:`PROBES`
  consecutive successes close the breaker again.

The window, threshold and probe count are constants; the two values the
serving and fleet callers set differently — the samples needed before the
ratio is trusted and the open time — are constructor arguments.

All transitions happen in modeled time, are recorded as telemetry instants
on the ``serving.breakers`` track, and live in ``state_dict`` so a
killed-and-resumed run replays bit-identical transitions.
"""

from __future__ import annotations

from collections import deque

from ..errors import ServingError
from ..state import Stateful, children, each, records, scalar, seq
from ..telemetry import Tracer
from ..telemetry.tracks import BREAKERS_TRACK

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

__all__ = ["BREAKERS_TRACK", "CLOSED", "OPEN", "HALF_OPEN",
           "CircuitBreaker", "BreakerBoard"]

#: Sliding window length (page outcomes) per device.
WINDOW = 64
#: Failure ratio over the window that opens the breaker.
THRESHOLD = 0.5
#: Consecutive successful probes that close a half-open breaker.
PROBES = 3
#: Serving's defaults for the two per-caller values: outcomes required
#: before the ratio is trusted, and modeled open time before probing.
MIN_SAMPLES = 8
COOLDOWN_S = 0.05

#: Default of the per-call ``tracer`` argument (drivers pass their own).
#: Shared, which is safe because only its ``enabled`` switch is ever read.
_UNTRACED = Tracer(enabled=False)


class CircuitBreaker(Stateful):
    """Sliding-window breaker for one device."""

    def __init__(
        self,
        device: int,
        *,
        min_samples: int = MIN_SAMPLES,
        cooldown_s: float = COOLDOWN_S,
    ) -> None:
        self.device = device
        self.min_samples = min_samples
        self.cooldown_s = cooldown_s
        self.state = CLOSED
        #: Recent page outcomes, True = failure.
        self.window: deque[bool] = deque(maxlen=WINDOW)
        self.opened_at_s: float | None = None
        self.probe_successes = 0
        self.transitions: list[dict] = []

    def _transition(self, state: str, now_s: float, tracer: Tracer) -> None:
        previous = self.state
        self.state = state
        entry = {
            "device": self.device,
            "at_s": now_s,
            "from": previous,
            "to": state,
        }
        self.transitions.append(entry)
        if tracer.enabled:
            tracer.instant(
                f"breaker.{state}",
                BREAKERS_TRACK,
                at_s=now_s,
                device=self.device,
                previous=previous,
            )

    def allows_storage(self, now_s: float, tracer=_UNTRACED) -> bool:
        """May reads reach the device right now?  Advances open→half-open."""
        if self.state == OPEN:
            assert self.opened_at_s is not None
            if now_s - self.opened_at_s >= self.cooldown_s:
                self.probe_successes = 0
                self._transition(HALF_OPEN, now_s, tracer)
        return self.state != OPEN

    @property
    def failure_ratio(self) -> float:
        if not self.window:
            return 0.0
        return sum(self.window) / len(self.window)

    def record(
        self, n_ok: int, n_failed: int, now_s: float, tracer=_UNTRACED
    ) -> None:
        """Feed page outcomes for this device and run the state machine."""
        if n_ok < 0 or n_failed < 0:
            raise ServingError("outcome counts must be non-negative")
        if self.state == HALF_OPEN:
            if n_failed > 0:
                self.opened_at_s = now_s
                self._transition(OPEN, now_s, tracer)
                return
            self.probe_successes += n_ok
            if self.probe_successes >= PROBES:
                self.window.clear()
                self._transition(CLOSED, now_s, tracer)
            return
        if self.state != CLOSED:
            return
        self.window.extend([False] * n_ok + [True] * n_failed)
        if (
            len(self.window) >= self.min_samples
            and self.failure_ratio >= THRESHOLD
        ):
            self.opened_at_s = now_s
            self._transition(OPEN, now_s, tracer)

    STATE = (
        scalar("state", str),
        seq("window", bool, save=each(bool), into=None),
        scalar("opened_at_s", float, optional=True),
        scalar("probe_successes", int),
        records("transitions"),
    )


class BreakerBoard(Stateful):
    """One breaker per device of the array."""

    def __init__(
        self,
        num_devices: int,
        *,
        min_samples: int = MIN_SAMPLES,
        cooldown_s: float = COOLDOWN_S,
    ) -> None:
        if num_devices <= 0:
            raise ServingError("num_devices must be positive")
        self.breakers = tuple(
            CircuitBreaker(d, min_samples=min_samples, cooldown_s=cooldown_s)
            for d in range(num_devices)
        )

    def __getitem__(self, device: int) -> CircuitBreaker:
        return self.breakers[device]

    def __len__(self) -> int:
        return len(self.breakers)

    @property
    def open_count(self) -> int:
        return sum(1 for b in self.breakers if b.state != CLOSED)

    def transitions(self) -> list[dict]:
        """All transitions across devices, in modeled-time order."""
        merged = [
            t for breaker in self.breakers for t in breaker.transitions
        ]
        merged.sort(key=lambda t: (t["at_s"], t["device"]))
        return merged

    STATE = (children("breakers"),)
