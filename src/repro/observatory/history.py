"""Append-only run history: JSONL store of report summaries over time.

Every recorded run becomes one line of ``history.jsonl`` keyed by a
*config fingerprint* (a hash of the run's configuration-identity fields:
loader, iteration count, overlap mode and the embedded hardware specs) plus
the git revision that produced it.  Runs of the same fingerprint across
seeds or commits form a trend; their spread is the noise band the
regression detector compares fresh reports against.

The store is deliberately plain: one JSON object per line, append-only,
human-diffable, safe to commit as a baseline artifact or to ship between
machines.  Records never mutate — a re-run appends a new line.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
from dataclasses import dataclass, field

from ..errors import ObservatoryError
from .attribution import validate_summary

#: File name of the JSONL store inside the history directory.
HISTORY_FILE = "history.jsonl"

#: Default history directory (git-ignored; see ``.gitignore``).
DEFAULT_HISTORY_DIR = ".repro-history"

#: Summary fields copied verbatim into each record.
_RECORD_FIELDS = (
    "loader",
    "iterations",
    "e2e_seconds",
    "seconds_per_iteration",
    "gpu_cache_hit_ratio",
    "redirect_fraction",
)


def config_fingerprint(summary: dict, extra: dict | None = None) -> str:
    """Stable 12-hex-digit fingerprint of a run's configuration identity.

    Hashes the fields that define *what was run* — loader, iteration
    count, overlap mode and the hardware spec snapshot embedded by the
    exporter — and deliberately excludes everything that varies run to run
    (times, counters, seeds), so repeat runs and across-seed repeats of
    the same configuration share a fingerprint and form one trend line.
    ``extra`` folds caller-supplied identity (e.g. a workload label) into
    the hash.
    """
    validate_summary(summary)
    attribution = summary.get("attribution") or {}
    key = {
        "loader": summary.get("loader"),
        "iterations": summary.get("iterations"),
        "overlapped": summary.get("overlapped"),
        "specs": attribution.get("specs") or {},
        "extra": extra or {},
    }
    digest = hashlib.sha256(
        json.dumps(key, sort_keys=True).encode("utf-8")
    ).hexdigest()
    return digest[:12]


def git_revision(cwd: str | None = None) -> str:
    """Short git revision of ``cwd``, or ``"unknown"`` outside a repo."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else "unknown"


@dataclass(frozen=True)
class RunRecord:
    """One recorded run summary (one JSONL line)."""

    fingerprint: str
    git_rev: str
    loader: str
    iterations: int
    e2e_seconds: float | None
    seconds_per_iteration: float | None
    stage_seconds: dict
    gpu_cache_hit_ratio: float | None
    redirect_fraction: float | None
    bottleneck: str | None = None
    label: str | None = None
    recorded_at: str | None = None
    extra: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "git_rev": self.git_rev,
            "loader": self.loader,
            "iterations": self.iterations,
            "e2e_seconds": self.e2e_seconds,
            "seconds_per_iteration": self.seconds_per_iteration,
            "stage_seconds": dict(self.stage_seconds),
            "gpu_cache_hit_ratio": self.gpu_cache_hit_ratio,
            "redirect_fraction": self.redirect_fraction,
            "bottleneck": self.bottleneck,
            "label": self.label,
            "recorded_at": self.recorded_at,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, state: dict) -> "RunRecord":
        if not isinstance(state, dict) or "fingerprint" not in state:
            raise ObservatoryError(
                "history line is not a run record (no fingerprint)"
            )
        return cls(
            fingerprint=str(state["fingerprint"]),
            git_rev=str(state.get("git_rev", "unknown")),
            loader=str(state.get("loader", "?")),
            iterations=int(state.get("iterations", 0)),
            e2e_seconds=state.get("e2e_seconds"),
            seconds_per_iteration=state.get("seconds_per_iteration"),
            stage_seconds=dict(state.get("stage_seconds") or {}),
            gpu_cache_hit_ratio=state.get("gpu_cache_hit_ratio"),
            redirect_fraction=state.get("redirect_fraction"),
            bottleneck=state.get("bottleneck"),
            label=state.get("label"),
            recorded_at=state.get("recorded_at"),
            extra=dict(state.get("extra") or {}),
        )


def record_from_summary(
    summary: dict,
    *,
    label: str | None = None,
    git_rev: str | None = None,
    recorded_at: str | None = None,
    extra: dict | None = None,
) -> RunRecord:
    """Build a :class:`RunRecord` from a report summary dict."""
    validate_summary(summary)
    attribution = summary.get("attribution") or {}
    fields = {name: summary.get(name) for name in _RECORD_FIELDS}
    # The label annotates the record but is NOT config identity: a
    # labeled record must trend with unlabeled reruns of the same
    # configuration (compare --history fingerprints the candidate
    # without any label).
    return RunRecord(
        fingerprint=config_fingerprint(summary),
        git_rev=git_revision() if git_rev is None else git_rev,
        loader=str(fields["loader"]),
        iterations=int(fields["iterations"]),
        e2e_seconds=fields["e2e_seconds"],
        seconds_per_iteration=fields["seconds_per_iteration"],
        stage_seconds=dict(summary.get("stage_seconds") or {}),
        gpu_cache_hit_ratio=fields["gpu_cache_hit_ratio"],
        redirect_fraction=fields["redirect_fraction"],
        bottleneck=attribution.get("bottleneck"),
        label=label,
        recorded_at=recorded_at,
        extra=extra or {},
    )


class RunHistory:
    """Append-only JSONL store of :class:`RunRecord` lines.

    Args:
        root: directory holding ``history.jsonl``; created on first
            append.  Reads of a missing file return an empty history.
    """

    def __init__(self, root: str = DEFAULT_HISTORY_DIR) -> None:
        self.root = root
        self.path = os.path.join(root, HISTORY_FILE)

    def append(
        self,
        summary: dict,
        *,
        label: str | None = None,
        git_rev: str | None = None,
        recorded_at: str | None = None,
        extra: dict | None = None,
    ) -> RunRecord:
        """Record one report summary; returns the stored record."""
        record = record_from_summary(
            summary,
            label=label,
            git_rev=git_rev,
            recorded_at=recorded_at,
            extra=extra,
        )
        os.makedirs(self.root, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(
                json.dumps(record.to_dict(), sort_keys=True) + "\n"
            )
        return record

    def records(
        self, fingerprint: str | None = None
    ) -> list[RunRecord]:
        """All stored records in append order, optionally filtered."""
        if not os.path.exists(self.path):
            return []
        records = []
        with open(self.path, encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    state = json.loads(line)
                except ValueError as exc:
                    raise ObservatoryError(
                        f"{self.path}:{lineno}: malformed history line "
                        f"({exc})"
                    ) from exc
                record = RunRecord.from_dict(state)
                if fingerprint is None or record.fingerprint == fingerprint:
                    records.append(record)
        return records

    def noise_band(
        self, fingerprint: str, metric: str = "e2e_seconds"
    ) -> dict:
        """Spread of ``metric`` across records of one fingerprint.

        ``metric`` is a record field name or ``stage_seconds.<stage>``.
        Returns ``{count, mean, std, min, max}`` (population std); raises
        :class:`~repro.errors.ObservatoryError` when no record of the
        fingerprint carries a finite value.
        """
        values = []
        for record in self.records(fingerprint):
            value = _record_metric(record, metric)
            if value is not None and math.isfinite(value):
                values.append(float(value))
        if not values:
            raise ObservatoryError(
                f"history holds no finite {metric!r} values for "
                f"fingerprint {fingerprint!r}"
            )
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        return {
            "count": len(values),
            "mean": mean,
            "std": math.sqrt(var),
            "min": min(values),
            "max": max(values),
        }


def _record_metric(record: RunRecord, metric: str) -> float | None:
    if metric.startswith("stage_seconds."):
        return record.stage_seconds.get(metric.split(".", 1)[1])
    if metric in _RECORD_FIELDS:
        return getattr(record, metric)
    raise ObservatoryError(
        f"unknown history metric {metric!r}; expected one of "
        f"{_RECORD_FIELDS} or 'stage_seconds.<stage>'"
    )
