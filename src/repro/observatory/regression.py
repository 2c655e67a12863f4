"""Regression detection: compare a fresh report against a baseline report.

The candidate is compared with one baseline report, metric by metric, with
a relative threshold.  Identical-seed reruns are bit-identical in this
repository (modeled time, seeded RNG), so the deltas are exactly zero and
the verdict is ``neutral``.

Verdicts are CI-friendly: ``exit_code`` is 0 for ``neutral``/
``improvement`` and :data:`REGRESSION_EXIT_CODE` for ``regression``; bad
inputs raise :class:`~repro.errors.ObservatoryError` (CLI exit 2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..errors import ObservatoryError
from .attribution import validate_summary

#: Default relative tolerance before a delta counts as a verdict.
DEFAULT_THRESHOLD = 0.05

#: Process exit code ``repro compare`` returns on a regression verdict.
REGRESSION_EXIT_CODE = 3

#: ``(metric, lower_is_better)`` pairs every comparison evaluates.
COMPARED_METRICS = (
    ("e2e_seconds", True),
    ("seconds_per_iteration", True),
    ("stage_seconds.sampling", True),
    ("stage_seconds.aggregation", True),
    ("stage_seconds.transfer", True),
    ("stage_seconds.training", True),
    ("gpu_cache_hit_ratio", False),
)

#: Absolute floor below which time deltas are ignored entirely (guards
#: all-zero stages against spurious infinite relative deltas).
_ABS_FLOOR = 1e-12


@dataclass(frozen=True)
class MetricDelta:
    """One metric's baseline-vs-candidate comparison."""

    metric: str
    baseline: float | None
    candidate: float | None
    delta: float | None
    fraction: float | None
    verdict: str  # "regression" | "improvement" | "neutral"

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "delta": self.delta,
            "fraction": self.fraction,
            "verdict": self.verdict,
        }


@dataclass(frozen=True)
class ComparisonResult:
    """Per-metric deltas plus the overall verdict."""

    verdict: str
    deltas: list[MetricDelta]
    threshold: float
    drifting: list[str] = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        return REGRESSION_EXIT_CODE if self.verdict == "regression" else 0

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "mode": "baseline",
            "threshold": self.threshold,
            "drifting": list(self.drifting),
            "deltas": [d.to_dict() for d in self.deltas],
        }


def _lookup(summary: dict, metric: str) -> float | None:
    node: object = summary
    for part in metric.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if node is None:
        return None
    value = float(node)
    return value if math.isfinite(value) else None


def _judge(
    baseline: float | None,
    candidate: float | None,
    tolerance: float,
    lower_is_better: bool,
) -> tuple[float | None, float | None, str]:
    """Return ``(delta, fraction, verdict)`` for one metric."""
    if baseline is None or candidate is None:
        return None, None, "neutral"
    delta = candidate - baseline
    scale = abs(baseline)
    fraction = delta / scale if scale > 0 else None
    if abs(delta) <= _ABS_FLOOR:
        return delta, fraction, "neutral"
    if scale <= _ABS_FLOOR:
        # Metric appeared out of nowhere (e.g. a transfer stage that was
        # exactly zero); any visible time is judged on its own.
        worse = delta > 0 if lower_is_better else delta < 0
        return delta, None, "regression" if worse else "improvement"
    if abs(fraction) <= tolerance:
        return delta, fraction, "neutral"
    worse = fraction > 0 if lower_is_better else fraction < 0
    return delta, fraction, "regression" if worse else "improvement"


def _overall(deltas: list[MetricDelta]) -> str:
    verdicts = {d.verdict for d in deltas}
    if "regression" in verdicts:
        return "regression"
    if "improvement" in verdicts:
        return "improvement"
    return "neutral"


def _drifting(deltas: list[MetricDelta]) -> list[str]:
    """Neutral metrics that still moved measurably (> 1e-9 relative)."""
    return [
        d.metric
        for d in deltas
        if d.verdict == "neutral"
        and d.fraction is not None
        and abs(d.fraction) > 1e-9
    ]


def compare_summaries(
    baseline: dict,
    candidate: dict,
    *,
    threshold: float = DEFAULT_THRESHOLD,
) -> ComparisonResult:
    """Compare two report summaries metric by metric."""
    validate_summary(baseline)
    validate_summary(candidate)
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ObservatoryError(
            f"threshold must be a finite non-negative number, got "
            f"{threshold!r}"
        )
    if baseline.get("loader") != candidate.get("loader"):
        raise ObservatoryError(
            f"cannot compare across loaders: baseline is "
            f"{baseline.get('loader')!r}, candidate is "
            f"{candidate.get('loader')!r}"
        )
    if baseline.get("iterations") != candidate.get("iterations"):
        raise ObservatoryError(
            f"cannot compare across iteration counts: baseline ran "
            f"{baseline.get('iterations')}, candidate "
            f"{candidate.get('iterations')}"
        )
    deltas = []
    for metric, lower_is_better in COMPARED_METRICS:
        base = _lookup(baseline, metric)
        cand = _lookup(candidate, metric)
        delta, fraction, verdict = _judge(
            base, cand, threshold, lower_is_better
        )
        deltas.append(
            MetricDelta(metric, base, cand, delta, fraction, verdict)
        )
    return ComparisonResult(
        verdict=_overall(deltas),
        deltas=deltas,
        threshold=threshold,
        drifting=_drifting(deltas),
    )
