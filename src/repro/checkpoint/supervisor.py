"""Supervised run lifecycle: checkpoint cadence, crashes, watchdog, restarts.

The :class:`RunSupervisor` plays the role of a cluster job manager around
one functional training run.  It owns a :class:`CheckpointStore`, drives
the pipeline through its ``on_step`` hook (writing a snapshot every
``checkpoint_every`` completed iterations), injects the fault plan's
:class:`~repro.faults.plan.CrashEvent` process deaths, watches for stalled
iterations via the loader's *modeled* clock, and — after a crash — builds
a fresh pipeline, restores the latest snapshot that passes its integrity
check (skipping corrupted ones), applies an exponential restart backoff,
and continues — at most :data:`MAX_RESTARTS` times.  Because every piece
of run state round-trips through ``state_dict``, the supervised run's
losses, counters and report are bit-identical to an uninterrupted run of
the same length.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..errors import (
    ConfigError,
    FaultError,
    RestartLimitError,
    SimulatedCrashError,
    StalledRunError,
)
from ..pipeline.metrics import RunReport
from ..pipeline.runner import TrainingPipeline, TrainingResult
from .store import CheckpointStore

#: Restarts allowed before the run is declared dead with
#: :class:`~repro.errors.RestartLimitError`.
MAX_RESTARTS = 3
#: Modeled wait before the first restart, and the growth factor of each
#: successive one.
RESTART_BACKOFF_BASE_S = 1.0
RESTART_BACKOFF_MULTIPLIER = 2.0


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervised run lifecycle.

    Args:
        checkpoint_every: write a snapshot each time this many iterations
            complete (a final snapshot is always written at run end).
        watchdog_stall_threshold_s: kill-and-restart an attempt when one
            iteration consumes more than this much *modeled* time; ``None``
            disables the watchdog.
    """

    checkpoint_every: int = 10
    watchdog_stall_threshold_s: float | None = None

    def __post_init__(self) -> None:
        if self.checkpoint_every <= 0:
            raise ConfigError("checkpoint_every must be positive")
        if (
            self.watchdog_stall_threshold_s is not None
            and self.watchdog_stall_threshold_s <= 0
        ):
            raise ConfigError("watchdog threshold must be positive")


@dataclass
class CheckpointSummary:
    """What the supervisor did to keep the run alive."""

    snapshots_written: int = 0
    snapshot_bytes: int = 0
    restores: int = 0
    corrupted_skipped: int = 0
    crashes: int = 0
    watchdog_stalls: int = 0
    restarts: int = 0
    backoff_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "snapshots_written": self.snapshots_written,
            "snapshot_bytes": self.snapshot_bytes,
            "restores": self.restores,
            "corrupted_skipped": self.corrupted_skipped,
            "crashes": self.crashes,
            "watchdog_stalls": self.watchdog_stalls,
            "restarts": self.restarts,
            "backoff_s": self.backoff_s,
        }


@dataclass(frozen=True)
class SupervisedRunResult:
    """Outcome of a supervised run: training result + report + supervision."""

    result: TrainingResult
    report: RunReport
    summary: CheckpointSummary


class RunSupervisor:
    """Keeps one training run alive across simulated crashes.

    Args:
        pipeline_factory: builds a *fresh* pipeline with the run's exact
            configuration; called once per attempt (the modeled process
            start).  Construction-time RNG draws do not matter — the
            restored snapshot overwrites every stream.
        checkpoint_dir: where snapshots live (or a ready-made
            :class:`CheckpointStore`; a directory gets the default
            retained-snapshot ring).
        config: lifecycle knobs.
        summary: optional pre-existing summary to accumulate into (so a
            CLI can thread one summary through several phases).
        blackbox_path: optional path; when the run dies on a fault, the
            loader's tracer dumps its flight recorder there, if it has one
            (crash noted last), before the restart logic runs.

    Crash events come from the pipeline loader's fault plan
    (``crash_events``); they are one-shot — the supervisor, which survives
    the modeled process death, remembers which have fired.
    """

    def __init__(
        self,
        pipeline_factory: Callable[[], TrainingPipeline],
        checkpoint_dir: str | CheckpointStore,
        *,
        config: SupervisorConfig | None = None,
        summary: CheckpointSummary | None = None,
        blackbox_path: str | None = None,
    ) -> None:
        self.pipeline_factory = pipeline_factory
        self.config = config if config is not None else SupervisorConfig()
        if isinstance(checkpoint_dir, CheckpointStore):
            self.store = checkpoint_dir
        else:
            self.store = CheckpointStore(checkpoint_dir)
        self.summary = summary if summary is not None else CheckpointSummary()
        self.blackbox_path = blackbox_path
        self._fired_crashes: set[int] = set()

    # ------------------------------------------------------------------

    def _crash_iterations(self, pipeline: TrainingPipeline) -> set[int]:
        plan = pipeline.loader.fault_plan
        if plan is None:
            return set()
        return {event.at_iteration for event in plan.crash_events}

    def run(self, num_iterations: int) -> SupervisedRunResult:
        """Train ``num_iterations`` total iterations, surviving crashes.

        Returns the same losses/report an unsupervised
        ``pipeline.train(num_iterations)`` would produce, plus the
        :class:`CheckpointSummary`.  Raises
        :class:`~repro.errors.RestartLimitError` when the restart budget
        runs out before the run completes.
        """
        if num_iterations <= 0:
            raise ConfigError("num_iterations must be positive")
        config = self.config
        attempt = 0
        while True:
            pipeline = self.pipeline_factory()
            crash_at = self._crash_iterations(pipeline)
            loaded = self.store.load_latest()
            if loaded is not None:
                pipeline.load_state_dict(loaded.payload)
                self.summary.restores += 1
                self.summary.corrupted_skipped += loaded.corrupted_skipped
            if pipeline.completed_steps >= num_iterations:
                return SupervisedRunResult(
                    result=pipeline.result(),
                    report=pipeline.report,
                    summary=self.summary,
                )
            watchdog_last = [pipeline.loader.sim_now_s]

            def on_step(pipe: TrainingPipeline) -> None:
                step = pipe.completed_steps
                now = pipe.loader.sim_now_s
                if (
                    config.watchdog_stall_threshold_s is not None
                    and now - watchdog_last[0]
                    > config.watchdog_stall_threshold_s
                ):
                    self.summary.watchdog_stalls += 1
                    raise StalledRunError(
                        f"iteration {step} consumed "
                        f"{now - watchdog_last[0]:.3f} modeled seconds "
                        f"(threshold "
                        f"{config.watchdog_stall_threshold_s:.3f})"
                    )
                watchdog_last[0] = now
                if step % config.checkpoint_every == 0 or step == num_iterations:
                    written = self.store.save(step, pipe.state_dict())
                    self.summary.snapshots_written += 1
                    self.summary.snapshot_bytes += written
                if step in crash_at and step not in self._fired_crashes:
                    self._fired_crashes.add(step)
                    self.summary.crashes += 1
                    raise SimulatedCrashError(
                        f"injected crash after iteration {step}"
                    )

            try:
                result = pipeline.train(
                    num_iterations - pipeline.completed_steps,
                    on_step=on_step,
                )
            except FaultError as exc:
                if isinstance(exc, RestartLimitError):
                    raise
                self._dump_blackbox(pipeline, exc)
                attempt += 1
                if attempt > MAX_RESTARTS:
                    raise RestartLimitError(
                        f"run still failing after {MAX_RESTARTS} "
                        f"restarts: {exc}"
                    ) from exc
                self.summary.restarts += 1
                self.summary.backoff_s += (
                    RESTART_BACKOFF_BASE_S
                    * RESTART_BACKOFF_MULTIPLIER ** (attempt - 1)
                )
                continue
            return SupervisedRunResult(
                result=result,
                report=pipeline.report,
                summary=self.summary,
            )

    def _dump_blackbox(self, pipeline: TrainingPipeline, exc: Exception) -> None:
        """Dump the flight recorder on a fatal fault, crash noted last."""
        if self.blackbox_path is None:
            return
        pipeline.loader.tracer.dump_flight(
            self.blackbox_path,
            trigger=f"{type(exc).__name__}: {exc}",
            at_s=pipeline.loader.sim_now_s,
            context={
                "completed_steps": int(pipeline.completed_steps),
                "restarts_so_far": self.summary.restarts,
            },
            crash=exc,
        )
