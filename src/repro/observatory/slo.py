"""Declarative SLO alert rules evaluated over run reports and metrics.

A rules file is plain JSON — either a list of rule objects or
``{"rules": [...]}`` — where each rule names a metric, a comparison and a
threshold::

    [
      {"name": "cache-too-cold", "metric": "report.gpu_cache_hit_ratio",
       "op": "<", "threshold": 0.3, "severity": "warn"},
      {"name": "lost-pages", "metric": "report.counters.corrupt_quarantined",
       "op": ">", "threshold": 0, "severity": "critical"}
    ]

Three metric namespaces are understood:

* ``report.*`` — run-level quantities off the
  :class:`~repro.pipeline.metrics.RunReport` (``e2e_seconds``,
  ``seconds_per_iteration``, ``gpu_cache_hit_ratio``, ``redirect_fraction``,
  ``fallback_fraction``, ``stage_seconds.<stage>``, and any
  :class:`~repro.sim.counters.TransferCounters` field or property via
  ``report.counters.<field>``).
* ``metrics.<name>.<stat>`` — a :class:`~repro.telemetry.metrics
  .MetricsRegistry` entry; ``<stat>`` is ``value`` for counters/gauges and
  ``count``/``sum``/``mean``/``min``/``max``/``p50``/``p95``/``p99`` for
  histograms.  Registry metric names themselves contain dots, so the *last*
  segment is the stat.
* ``iteration.*`` — evaluated once per iteration (``sampling``,
  ``aggregation``, ``transfer``, ``training``, ``preparation``, ``total``,
  ``num_seeds``, ``num_input_nodes``, ``num_sampled``, ``num_edges``, or
  ``iteration.counters.<field>``); the fired entry lists the offending
  iteration indices.

Firing is observable two ways: the returned ``alerts`` block (embedded in
the schema-v6 export) and — when a tracer is attached — one instant per
fired rule on the ``alerts`` track, placed at the modeled time of the
offence so it lines up with the stage spans in the Chrome trace.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass

from ..errors import ObservatoryError
from ..pipeline.metrics import STAGES, RunReport
from ..telemetry.tracer import ensure_tracer
from ..telemetry.tracks import ALERTS_TRACK

#: Comparison operators an alert rule may use.
OPS = {
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
    "==": operator.eq,
    "!=": operator.ne,
}

#: Recognised severities, mildest first.
SEVERITIES = ("warn", "critical")

#: Per-iteration numeric fields addressable as ``iteration.<field>``.
_ITERATION_TIME_FIELDS = STAGES + ("preparation", "total")
_ITERATION_COUNT_FIELDS = (
    "num_seeds",
    "num_input_nodes",
    "num_sampled",
    "num_edges",
)

#: Report-level scalars addressable as ``report.<field>``.
_REPORT_FIELDS = (
    "e2e_seconds",
    "seconds_per_iteration",
    "gpu_cache_hit_ratio",
    "redirect_fraction",
    "fallback_fraction",
)

#: Cap on offending-iteration indices listed per fired rule.
_MAX_LISTED_ITERATIONS = 20


@dataclass(frozen=True)
class AlertRule:
    """One declarative SLO rule: fire when ``metric op threshold`` holds."""

    name: str
    metric: str
    op: str
    threshold: float
    severity: str = "warn"

    def __post_init__(self) -> None:
        if not self.name:
            raise ObservatoryError("alert rule needs a non-empty name")
        if self.op not in OPS:
            raise ObservatoryError(
                f"alert rule {self.name!r}: unknown op {self.op!r}; "
                f"expected one of {sorted(OPS)}"
            )
        if self.severity not in SEVERITIES:
            raise ObservatoryError(
                f"alert rule {self.name!r}: unknown severity "
                f"{self.severity!r}; expected one of {SEVERITIES}"
            )
        if not isinstance(self.threshold, (int, float)) or not math.isfinite(
            float(self.threshold)
        ):
            raise ObservatoryError(
                f"alert rule {self.name!r}: threshold must be a finite "
                f"number, got {self.threshold!r}"
            )
        scope = self.metric.split(".", 1)[0]
        if scope not in ("report", "metrics", "iteration"):
            raise ObservatoryError(
                f"alert rule {self.name!r}: metric {self.metric!r} must "
                "start with 'report.', 'metrics.' or 'iteration.'"
            )

    @property
    def scope(self) -> str:
        return self.metric.split(".", 1)[0]

    def check(self, value: float) -> bool:
        """True when ``value`` violates the SLO (the rule fires)."""
        return bool(OPS[self.op](value, self.threshold))

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "metric": self.metric,
            "op": self.op,
            "threshold": self.threshold,
            "severity": self.severity,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "AlertRule":
        if not isinstance(state, dict):
            raise ObservatoryError(
                f"alert rule must be an object, got {type(state).__name__}"
            )
        unknown = set(state) - {"name", "metric", "op", "threshold",
                                "severity"}
        if unknown:
            raise ObservatoryError(
                f"alert rule has unknown fields: {sorted(unknown)}"
            )
        missing = {"name", "metric", "op", "threshold"} - set(state)
        if missing:
            raise ObservatoryError(
                f"alert rule is missing fields: {sorted(missing)}"
            )
        return cls(
            name=str(state["name"]),
            metric=str(state["metric"]),
            op=str(state["op"]),
            threshold=state["threshold"],
            severity=str(state.get("severity", "warn")),
        )


def load_alert_rules(path: str) -> list[AlertRule]:
    """Parse a JSON rules file into :class:`AlertRule` objects."""
    try:
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
    except OSError as exc:
        raise ObservatoryError(
            f"cannot read alert rules {path!r}: {exc}"
        ) from exc
    except ValueError as exc:
        raise ObservatoryError(
            f"alert rules {path!r} are not valid JSON: {exc}"
        ) from exc
    if isinstance(payload, dict):
        payload = payload.get("rules")
    if not isinstance(payload, list):
        raise ObservatoryError(
            f"alert rules {path!r} must be a JSON list or "
            "{'rules': [...]} object"
        )
    rules = [AlertRule.from_dict(entry) for entry in payload]
    names = [rule.name for rule in rules]
    dupes = sorted({n for n in names if names.count(n) > 1})
    if dupes:
        raise ObservatoryError(
            f"alert rules {path!r} contain duplicate names: {dupes}"
        )
    return rules


def _report_metric(report: RunReport, path: str) -> float | None:
    """Resolve a ``report.*`` metric path, ``None`` when unresolvable."""
    if path in _REPORT_FIELDS:
        if path == "e2e_seconds":
            return report.e2e_time
        if path == "seconds_per_iteration":
            if not report.iterations:
                return None
            return report.time_per_iteration()
        if path in ("redirect_fraction", "fallback_fraction"):
            return getattr(report.counters, path)
        return getattr(report, path)
    if path.startswith("stage_seconds."):
        stage = path.split(".", 1)[1]
        if stage not in STAGES:
            return None
        return getattr(report.stage_totals, stage)
    if path.startswith("counters."):
        value = getattr(report.counters, path.split(".", 1)[1], None)
        return float(value) if isinstance(value, (int, float)) else None
    return None


def _registry_metric(registry, path: str) -> float | None:
    """Resolve ``<name>.<stat>`` against a metrics registry."""
    if registry is None or "." not in path:
        return None
    name, stat = path.rsplit(".", 1)
    if name not in registry:
        return None
    summary = registry.to_dict().get(name, {})
    value = summary.get(stat)
    return float(value) if isinstance(value, (int, float)) else None


def _iteration_metric(metrics, path: str) -> float | None:
    """Resolve an ``iteration.*`` metric path for one iteration."""
    if path in _ITERATION_TIME_FIELDS:
        return getattr(metrics.times, path)
    if path in _ITERATION_COUNT_FIELDS:
        return float(getattr(metrics, path))
    if path.startswith("counters."):
        value = getattr(metrics.counters, path.split(".", 1)[1], None)
        return float(value) if isinstance(value, (int, float)) else None
    return None


class SLOMonitor:
    """Evaluates alert rules against a finished (or in-flight) run.

    Args:
        rules: the rule set, typically from :func:`load_alert_rules`.
        tracer: optional :class:`~repro.telemetry.tracer.Tracer`; fired
            rules additionally record instants on the ``alerts`` track of
            an enabled one.
    """

    def __init__(self, rules, tracer=None) -> None:
        self.rules = list(rules)
        self.tracer = ensure_tracer(tracer)

    def evaluate(self, report: RunReport | None, registry=None) -> dict:
        """Evaluate every rule; returns the ``alerts`` summary block.

        ``registry`` defaults to the tracer's metrics registry, so
        ``metrics.*`` rules work out of the box on traced runs.  ``report``
        may be ``None`` for registry-only evaluation (the serving layer's
        brownout controller runs mid-flight, before any
        :class:`~repro.pipeline.metrics.RunReport` exists); ``report.*``
        and ``iteration.*`` rules then resolve as missing.
        """
        if registry is None:
            registry = self.tracer.metrics
        fired: list[dict] = []
        missing: list[str] = []
        for rule in self.rules:
            path = rule.metric.split(".", 1)[1]
            if rule.scope in ("iteration", "report") and report is None:
                missing.append(rule.metric)
                continue
            if rule.scope == "iteration":
                entry = self._evaluate_iterations(rule, path, report)
                if entry is None and not any(
                    _iteration_metric(it, path) is not None
                    for it in report.iterations
                ):
                    missing.append(rule.metric)
                elif entry is not None:
                    fired.append(entry)
                continue
            if rule.scope == "report":
                value = _report_metric(report, path)
            else:
                value = _registry_metric(registry, path)
            if value is None:
                missing.append(rule.metric)
                continue
            if rule.check(value):
                fired.append({**rule.to_dict(), "value": value})
                self._fire_instant(rule, value)
        return {
            "rules": len(self.rules),
            "fired": fired,
            "missing": missing,
            "ok": not fired,
        }

    def _evaluate_iterations(
        self, rule: AlertRule, path: str, report: RunReport
    ) -> dict | None:
        """Check one per-iteration rule; returns its fired entry or None."""
        offenders: list[int] = []
        worst: float | None = None
        # Place instants on the modeled timeline the stage spans occupy:
        # the tracer clock sits at the end of the run, so the traced region
        # started stage_totals.total seconds earlier.
        at_s = max(0.0, self.tracer.clock_s - report.stage_totals.total)
        for index, metrics in enumerate(report.iterations):
            value = _iteration_metric(metrics, path)
            iteration_end = at_s + metrics.times.total
            if value is not None and rule.check(value):
                offenders.append(index)
                if worst is None or OPS[rule.op](value, worst):
                    worst = value
                if len(offenders) <= _MAX_LISTED_ITERATIONS:
                    self._fire_instant(
                        rule, value, at_s=iteration_end, iteration=index
                    )
            at_s = iteration_end
        if not offenders:
            return None
        return {
            **rule.to_dict(),
            "value": worst,
            "count": len(offenders),
            "iterations": offenders[:_MAX_LISTED_ITERATIONS],
        }

    def _fire_instant(
        self,
        rule: AlertRule,
        value: float,
        at_s: float | None = None,
        **extra,
    ) -> None:
        if self.tracer.enabled:
            self.tracer.instant(
                f"slo.{rule.name}",
                ALERTS_TRACK,
                at_s=at_s,
                metric=rule.metric,
                op=rule.op,
                threshold=rule.threshold,
                value=value,
                severity=rule.severity,
                **extra,
            )
