"""Brownout degradation: trade answer quality for tail latency, reversibly.

When protection layers below (shedding, breakers, hedging) are not enough
to hold the p99 objective, the brownout controller steps the service down a
declared quality ladder — full fanout, reduced neighbor fanout, cache-only
answers with staleness accounting — and steps back up when the tail
recovers.  Quality is degraded *for everyone* instead of latency being
blown *for someone*: the classic brownout trade.

Every :data:`EVAL_EVERY` completions the controller takes the exact p99
of the last :data:`WINDOW` latencies, publishes it as the
``serving.p99_window`` gauge (so ``serve --alerts`` rules and metric
snapshots see it) and compares it with ``slo_p99_s``; the evaluation fires
when the window p99 is above the objective.
:data:`STEP_DOWN_AFTER` consecutive firing evaluations step down one level
of :data:`~repro.serving.config.DEFAULT_BROWNOUT_LEVELS`;
:data:`STEP_UP_AFTER` consecutive healthy ones step back up.
Every transition is an instant named ``brownout.level`` on the telemetry
``alerts`` track and an entry in the exported transition log.
"""

from __future__ import annotations

from collections import deque

from ..state import Stateful, records, scalar, seq
from ..telemetry.tracer import ensure_tracer
from ..telemetry.tracks import ALERTS_TRACK
from ..utils import percentile
from .config import DEFAULT_BROWNOUT_LEVELS, BrownoutLevel, ServingConfig

#: Consecutive SLO-violating evaluations before stepping down a level.
STEP_DOWN_AFTER = 2
#: Consecutive healthy evaluations before stepping back up.
STEP_UP_AFTER = 4
#: Completed requests between controller evaluations.
EVAL_EVERY = 16
#: Completed requests in the sliding p99 window.
WINDOW = 128


class BrownoutController(Stateful):
    """Steps service quality down/up as the window p99 misses or meets
    the objective."""

    def __init__(
        self,
        config: ServingConfig,
        registry,
        *,
        tracer=None,
    ) -> None:
        self.config = config
        self.registry = registry
        self.tracer = ensure_tracer(tracer)
        self.level_index = 0
        self.violation_streak = 0
        self.healthy_streak = 0
        self.transitions: list[dict] = []
        self._window: deque[float] = deque(maxlen=WINDOW)
        self._since_eval = 0
        #: Modeled seconds spent at each level (updated by the server).
        self.level_seconds = [0.0] * len(DEFAULT_BROWNOUT_LEVELS)

    @property
    def level(self) -> BrownoutLevel:
        return DEFAULT_BROWNOUT_LEVELS[self.level_index]

    @property
    def degraded(self) -> bool:
        return self.level_index > 0

    def observe(self, latency_s: float, now_s: float) -> None:
        """Fold one completed request's latency in; maybe evaluate."""
        self._window.append(float(latency_s))
        self._since_eval += 1
        if self._since_eval >= EVAL_EVERY:
            self._since_eval = 0
            self.evaluate(now_s)

    def evaluate(self, now_s: float) -> None:
        """Publish the window p99 and step on whether it meets the SLO."""
        if not self._window:
            return
        p99 = percentile(self._window, 99.0)
        self.registry.gauge("serving.p99_window").set(p99)
        if p99 > self.config.slo_p99_s:
            self.violation_streak += 1
            self.healthy_streak = 0
            if (
                self.violation_streak >= STEP_DOWN_AFTER
                and self.level_index < len(DEFAULT_BROWNOUT_LEVELS) - 1
            ):
                self._step(self.level_index + 1, now_s)
        else:
            self.healthy_streak += 1
            self.violation_streak = 0
            if (
                self.healthy_streak >= STEP_UP_AFTER
                and self.level_index > 0
            ):
                self._step(self.level_index - 1, now_s)

    def _step(self, new_index: int, now_s: float) -> None:
        previous = self.level_index
        self.level_index = new_index
        self.violation_streak = 0
        self.healthy_streak = 0
        entry = {
            "at_s": now_s,
            "from": previous,
            "to": new_index,
            "from_level": DEFAULT_BROWNOUT_LEVELS[previous].name,
            "to_level": DEFAULT_BROWNOUT_LEVELS[new_index].name,
        }
        self.transitions.append(entry)
        if self.tracer.enabled:
            args = {k: v for k, v in entry.items() if k != "at_s"}
            self.tracer.instant(
                "brownout.level",
                ALERTS_TRACK,
                at_s=now_s,
                **args,
            )

    STATE = (
        scalar("level_index", int),
        scalar("violation_streak", int),
        scalar("healthy_streak", int),
        records("transitions"),
        seq("window", float, attr="_window", into=None),
        scalar("since_eval", int, attr="_since_eval"),
        seq("level_seconds", float),
    )
