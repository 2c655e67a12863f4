"""Supervised run lifecycle: checkpoint cadence, crashes, watchdog, restarts.

The :class:`RunSupervisor` plays the role of a cluster job manager around
one run of a :class:`Driver` (the loader ``TrainingPipeline`` or the
``FullGraphTrainer``).  Through the driver's ``on_step`` hook it writes a
snapshot every ``checkpoint_every`` steps and at the run's end, injects
the fault plan's process deaths and watches the *modeled* clock for
stalls; after a crash it builds a fresh driver, restores the newest
snapshot that passes its integrity check, charges an exponential restart
backoff and continues — at most :data:`MAX_RESTARTS` times.  Every piece
of run state round-trips through the driver's checkpoint, so the
supervised run's losses, counters and report are bit-identical to an
uninterrupted run's.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Protocol

from ..errors import (
    ConfigError,
    FaultError,
    RestartLimitError,
    SimulatedCrashError,
    StalledRunError,
)
from .store import CheckpointStore, LoadedSnapshot

#: Restarts allowed before the run is declared dead with
#: :class:`~repro.errors.RestartLimitError`.
MAX_RESTARTS = 3
#: Modeled wait before the first restart, and the growth factor of each
#: successive one.
RESTART_BACKOFF_BASE_S = 1.0
RESTART_BACKOFF_MULTIPLIER = 2.0


class Driver(Protocol):
    """What the supervisor drives.

    ``completed_steps`` is the run's progress, ``clock_s`` its modeled
    time (the watchdog's clock), ``crash_events`` its fault plan's
    process deaths and ``tracer`` the telemetry the black box dumps.
    ``checkpoint()`` / ``restore(payload)`` round-trip the whole run
    through one snapshot payload.  ``run_until(step, on_step=)`` runs to
    ``completed_steps == step``, calling ``on_step(self)`` after each
    step (a true return ends the run there).  It is the one entry point,
    and it runs whole groups of steps — the loader's accumulator sizes a
    group by the steps left to ``step`` — so the supervisor never steps
    one at a time.
    """

    completed_steps: int
    clock_s: float
    crash_events: tuple
    tracer: object

    def checkpoint(self) -> dict: ...

    def restore(self, payload: dict) -> None: ...

    def run_until(self, step: int, *, on_step=None) -> None: ...


@dataclass(frozen=True)
class SupervisorConfig:
    """Knobs of the supervised run lifecycle.

    Args:
        checkpoint_every: write a snapshot each time the completed-step
            count reaches a multiple of this (a final snapshot is always
            written at run end).
        watchdog_stall_threshold_s: kill-and-restart an attempt when one
            step consumes more than this much *modeled* time; ``None``
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
        return asdict(self)


class RunSupervisor:
    """Keeps one run alive across simulated crashes.

    Args:
        driver_factory: builds a *fresh* :class:`Driver` with the run's
            exact configuration; called once per attempt (the modeled
            process start).  Construction-time RNG draws do not matter —
            the restored snapshot overwrites every stream.
        store: where snapshots live.
        config: lifecycle knobs.
        blackbox_path: optional path; when the run dies on a fault, the
            driver's tracer dumps its flight recorder there, if it has one
            (crash noted last), before the restart logic runs.

    Crash events come from the driver's fault plan; they are one-shot —
    the supervisor, which survives the modeled process death, remembers
    which have fired.  :attr:`summary` counts what it did, and
    :attr:`resumed_from` is the snapshot the first attempt continued from
    (``None`` for a run that started at step 0).
    """

    def __init__(
        self,
        driver_factory: Callable[[], Driver],
        store: CheckpointStore,
        *,
        config: SupervisorConfig | None = None,
        blackbox_path: str | None = None,
    ) -> None:
        self.driver_factory = driver_factory
        self.config = config if config is not None else SupervisorConfig()
        self.store = store
        self.summary = CheckpointSummary()
        self.blackbox_path = blackbox_path
        self.resumed_from: LoadedSnapshot | None = None
        self._fired_crashes: set[int] = set()

    # ------------------------------------------------------------------

    def run(
        self,
        num_steps: int,
        *,
        stop: Callable[[Driver], bool] | None = None,
        driver: Driver | None = None,
    ) -> Driver:
        """Run to ``num_steps`` completed steps, surviving crashes.

        Args:
            num_steps: where the run ends.
            stop: optional early end, checked after the restore and after
                every step; where it holds the run ends as at
                ``num_steps``, with a final snapshot.
            driver: the first attempt's driver, when the caller already
                built one; restarts always call the factory.

        Returns the driver that finished the run: its losses and report
        are what an uninterrupted run would have produced.  Raises
        :class:`~repro.errors.RestartLimitError` when the restart budget
        runs out before the run completes.
        """
        if num_steps <= 0:
            raise ConfigError("num_steps must be positive")
        config = self.config

        def finished(d: Driver) -> bool:
            return d.completed_steps >= num_steps or (
                stop is not None and bool(stop(d))
            )

        attempt, start_trace = 0, None
        while True:
            if driver is None:
                driver = self.driver_factory()
            loaded = self.store.load_latest()
            if loaded is not None:
                driver.restore(loaded.payload)
                self.summary.restores += 1
                self.summary.corrupted_skipped += loaded.corrupted_skipped
                if attempt == 0:
                    self.resumed_from = loaded
            elif start_trace is None:
                start_trace = driver.tracer.state_dict()
            else:
                # No snapshot yet: the restart begins again at step 0, and
                # so does the tracer, which outlives the dead driver.
                driver.tracer.load_state_dict(start_trace)
            if finished(driver):
                return driver
            crash_at = {event.at_iteration for event in driver.crash_events}
            watchdog_last = [driver.clock_s]

            def on_step(d: Driver) -> bool:
                step, now = d.completed_steps, d.clock_s
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
                done = finished(d)
                if step % config.checkpoint_every == 0 or done:
                    written = self.store.save(step, d.checkpoint())
                    self.summary.snapshots_written += 1
                    self.summary.snapshot_bytes += written
                if step in crash_at and step not in self._fired_crashes:
                    self._fired_crashes.add(step)
                    self.summary.crashes += 1
                    raise SimulatedCrashError(
                        f"injected crash after iteration {step}"
                    )
                return done

            try:
                driver.run_until(num_steps, on_step=on_step)
            except FaultError as exc:
                if isinstance(exc, RestartLimitError):
                    raise
                self._dump_blackbox(driver, exc)
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
                driver = None
                continue
            return driver

    def _dump_blackbox(self, driver: Driver, exc: Exception) -> None:
        """Dump the flight recorder on a fatal fault, crash noted last."""
        if self.blackbox_path is None:
            return
        driver.tracer.dump_flight(
            self.blackbox_path,
            trigger=f"{type(exc).__name__}: {exc}",
            at_s=driver.clock_s,
            context={
                "completed_steps": int(driver.completed_steps),
                "restarts_so_far": self.summary.restarts,
            },
            crash=exc,
        )
