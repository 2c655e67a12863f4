"""Serving-run accounting and the versioned run-export block.

:class:`ServingStats` is the front-door ledger — every offered request ends
in exactly one of ``admitted``/``shed``/``rejected``, per priority tier, and
:meth:`ServingStats.consistent` checks that invariant.  Admitted requests
are further partitioned into ``completed`` and ``expired`` (dropped at
dequeue because their deadline could no longer be met — serving them would
only delay everyone behind them).  :class:`ServingReport`
adds the latency record of admitted requests (exact, per-request — serving
percentiles gate SLOs, so bucket-approximate percentiles are not enough) and
flattens everything into the ``serving`` block of the versioned run export.
"""

from __future__ import annotations

from ..errors import ServingError
from ..pipeline.export import SERVING_ROWS, _finite, run_document
from ..pipeline.metrics import STAGES
from ..state import Stateful, seq
from ..utils import percentile
from .config import PRIORITIES

#: Ledger fields counted per priority tier.
_TIER_FIELDS = (
    "offered",
    "admitted",
    "shed",
    "rejected_queue",
    "rejected_deadline",
    "expired",
    "completed",
    "deadline_met",
    "deadline_missed",
)


class ServingStats(Stateful):
    """Per-tier request ledger for one serving run."""

    def __init__(self) -> None:
        tiers = len(PRIORITIES)
        for name in _TIER_FIELDS:
            setattr(self, name, [0] * tiers)

    def count(self, field: str, priority: int) -> None:
        getattr(self, field)[priority] += 1

    def total(self, field: str) -> int:
        return sum(getattr(self, field))

    @property
    def rejected(self) -> list[int]:
        return [
            q + d
            for q, d in zip(self.rejected_queue, self.rejected_deadline)
        ]

    def consistent(self) -> bool:
        """Every offered request was admitted, shed, or rejected."""
        return all(
            o == a + s + r
            for o, a, s, r in zip(
                self.offered, self.admitted, self.shed, self.rejected
            )
        )

    @property
    def shed_fraction(self) -> float:
        offered = self.total("offered")
        return self.total("shed") / offered if offered else 0.0

    def to_dict(self) -> dict:
        block = {}
        for name in _TIER_FIELDS:
            values = getattr(self, name)
            block[name] = {
                "total": sum(values),
                "by_priority": dict(zip(PRIORITIES, values)),
            }
        block["rejected"] = {
            "total": sum(self.rejected),
            "by_priority": dict(zip(PRIORITIES, self.rejected)),
        }
        return block

    STATE = tuple(
        seq(
            name, int,
            check=lambda self, tiers: len(tiers) != len(PRIORITIES)
            and f"expected {len(PRIORITIES)} tiers",
        )
        for name in _TIER_FIELDS
    )


class ServingReport:
    """Everything :meth:`~repro.serving.server.InferenceServer.report`
    knows about a finished (or in-flight) serving run."""

    def __init__(
        self,
        *,
        stats: ServingStats,
        latencies: list[float],
        protection: bool,
        arrival: dict,
        slo_p99_s: float,
        duration_s: float,
        busy_s: float,
        stage_seconds: dict,
        counters,
        degraded_requests: int,
        stale_requests: int,
        stale_pages: int,
        hedge: dict,
        breaker_transitions: list[dict],
        breaker_open_count: int,
        brownout_transitions: list[dict],
        brownout_level_seconds: list[float],
        brownout_level_names: list[str],
    ) -> None:
        self.stats = stats
        self.latencies = latencies
        self.protection = protection
        self.arrival = arrival
        self.slo_p99_s = slo_p99_s
        self.duration_s = duration_s
        self.busy_s = busy_s
        self.stage_seconds = stage_seconds
        self.counters = counters
        self.degraded_requests = degraded_requests
        self.stale_requests = stale_requests
        self.stale_pages = stale_pages
        self.hedge = hedge
        self.breaker_transitions = breaker_transitions
        self.breaker_open_count = breaker_open_count
        self.brownout_transitions = brownout_transitions
        self.brownout_level_seconds = brownout_level_seconds
        self.brownout_level_names = brownout_level_names

    # ------------------------------------------------------------------
    # Derived quantities

    def latency_percentile(self, p: float) -> float | None:
        """Exact latency percentile over admitted completed requests."""
        return percentile(self.latencies, p)

    @property
    def goodput_req_s(self) -> float:
        """Deadline-meeting completions per modeled second."""
        if self.duration_s <= 0:
            return 0.0
        return self.stats.total("deadline_met") / self.duration_s

    @property
    def capacity_req_s(self) -> float:
        """Completions per busy second — the service rate the stack
        sustains when it never waits for work."""
        if self.busy_s <= 0:
            return 0.0
        return self.stats.total("completed") / self.busy_s

    @property
    def degraded_fraction(self) -> float:
        completed = self.stats.total("completed")
        return self.degraded_requests / completed if completed else 0.0

    # ------------------------------------------------------------------
    # Export

    def to_dict(self) -> dict:
        """The ``serving`` block of the versioned run export."""
        if not self.stats.consistent():
            raise ServingError(
                "serving ledger is inconsistent: "
                "offered != admitted + shed + rejected"
            )
        return {
            "protection": self.protection,
            "arrival": dict(self.arrival),
            "slo_p99_s": self.slo_p99_s,
            "duration_s": _finite(self.duration_s),
            "busy_s": _finite(self.busy_s),
            "requests": self.stats.to_dict(),
            "shed_fraction": _finite(self.stats.shed_fraction),
            "goodput_req_s": _finite(self.goodput_req_s),
            "capacity_req_s": _finite(self.capacity_req_s),
            "latency_s": {
                "count": len(self.latencies),
                "p50": _finite(self.latency_percentile(50)),
                "p95": _finite(self.latency_percentile(95)),
                "p99": _finite(self.latency_percentile(99)),
                "max": _finite(max(self.latencies))
                if self.latencies
                else None,
            },
            "degraded": {
                "requests": self.degraded_requests,
                "fraction": _finite(self.degraded_fraction),
                "stale_requests": self.stale_requests,
                "stale_pages": self.stale_pages,
            },
            "hedge": dict(self.hedge),
            "breakers": {
                "open_count": self.breaker_open_count,
                "transitions": [dict(t) for t in self.breaker_transitions],
            },
            "brownout": {
                "levels": list(self.brownout_level_names),
                "level_seconds": [
                    _finite(s) for s in self.brownout_level_seconds
                ],
                "transitions": [
                    dict(t) for t in self.brownout_transitions
                ],
            },
        }

    def export_dict(self, *, tracer=None, system=None, **blocks) -> dict:
        """Full versioned run-report document for this serving run.

        Written by :func:`repro.pipeline.export.run_document` over the
        document rows a serving run has (:data:`SERVING_ROWS`), taking
        ``blocks`` by row name like
        :func:`~repro.pipeline.export.report_to_dict` — same required
        keys — so ``repro analyze``, ``repro compare`` and
        ``validate_summary`` accept serving exports unchanged.
        """
        completed = self.stats.total("completed")
        return run_document(
            self.counters,
            SERVING_ROWS,
            blocks,
            tracer=tracer,
            system=system,
            loader="GIDS-serve",
            iterations=completed,
            overlapped=False,
            e2e_seconds=_finite(self.duration_s),
            seconds_per_iteration=_finite(
                self.duration_s / completed if completed else None
            ),
            stage_seconds={
                stage: _finite(self.stage_seconds.get(stage, 0.0))
                for stage in STAGES
            },
            serving=self.to_dict(),
        )
