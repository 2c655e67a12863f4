"""Brownout degradation: trade answer quality for tail latency, reversibly.

When protection layers below (shedding, breakers, hedging) are not enough
to hold the p99 objective, the brownout controller steps the service down a
declared quality ladder — full fanout, reduced neighbor fanout, cache-only
answers with staleness accounting — and steps back up when the tail
recovers.  Quality is degraded *for everyone* instead of latency being
blown *for someone*: the classic brownout trade.

The trigger is literal SLO machinery, not a private heuristic: the
controller publishes a sliding-window p99 gauge into a metrics registry and
asks a :class:`~repro.observatory.slo.SLOMonitor` whether its rule
(``metrics.serving.p99_window.value > slo_p99_s`` by default) fires.
``brownout_step_down_after`` consecutive firing evaluations step down one
level; ``brownout_step_up_after`` consecutive healthy ones step back up.
Every transition is an instant named ``brownout.level`` on the telemetry
``alerts`` track and an entry in the exported transition log.
"""

from __future__ import annotations

from collections import deque

from ..observatory.slo import ALERTS_TRACK, AlertRule, SLOMonitor
from ..state import Stateful, records, scalar, seq
from ..telemetry.tracer import ensure_tracer
from .config import BrownoutLevel, ServingConfig


def _exact_percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile over a small window (exact, deterministic)."""
    ordered = sorted(values)
    rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
    return ordered[min(rank, len(ordered)) - 1]


class BrownoutController(Stateful):
    """Steps service quality down/up according to the SLO monitor."""

    def __init__(
        self,
        config: ServingConfig,
        registry,
        *,
        monitor: SLOMonitor | None = None,
        tracer=None,
    ) -> None:
        self.config = config
        self.registry = registry
        self.tracer = ensure_tracer(tracer)
        if monitor is None:
            monitor = SLOMonitor(
                [
                    AlertRule(
                        name="serving-p99",
                        metric="metrics.serving.p99_window.value",
                        op=">",
                        threshold=config.slo_p99_s,
                        severity="critical",
                    )
                ],
            )
        self.monitor = monitor
        self.level_index = 0
        self.violation_streak = 0
        self.healthy_streak = 0
        self.transitions: list[dict] = []
        self._window: deque[float] = deque(maxlen=config.brownout_window)
        self._since_eval = 0
        #: Modeled seconds spent at each level (updated by the server).
        self.level_seconds = [0.0] * len(config.brownout_levels)

    @property
    def level(self) -> BrownoutLevel:
        return self.config.brownout_levels[self.level_index]

    @property
    def degraded(self) -> bool:
        return self.level_index > 0

    def scaled_fanouts(self, fanouts: tuple[int, ...]) -> tuple[int, ...]:
        """The configured fanouts at the current quality level."""
        scale = self.level.fanout_scale
        return tuple(max(1, int(round(f * scale))) for f in fanouts)

    def observe(self, latency_s: float, now_s: float) -> None:
        """Fold one completed request's latency in; maybe evaluate."""
        self._window.append(float(latency_s))
        self._since_eval += 1
        if self._since_eval >= self.config.brownout_eval_every:
            self._since_eval = 0
            self.evaluate(now_s)

    def evaluate(self, now_s: float) -> None:
        """Publish the window p99 and run the monitor's step logic."""
        if not self._window:
            return
        p99 = _exact_percentile(list(self._window), 99.0)
        self.registry.gauge("serving.p99_window").set(p99)
        alerts = self.monitor.evaluate(None, self.registry)
        if not alerts["ok"]:
            self.violation_streak += 1
            self.healthy_streak = 0
            if (
                self.violation_streak
                >= self.config.brownout_step_down_after
                and self.level_index < len(self.config.brownout_levels) - 1
            ):
                self._step(self.level_index + 1, now_s)
        else:
            self.healthy_streak += 1
            self.violation_streak = 0
            if (
                self.healthy_streak >= self.config.brownout_step_up_after
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
            "from_level": self.config.brownout_levels[previous].name,
            "to_level": self.config.brownout_levels[new_index].name,
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
