"""Declarative fault plans: what goes wrong, when, and how badly.

A :class:`FaultPlan` is a frozen, JSON-round-trippable description of every
fault the simulated storage stack should suffer during a run:

* per-request read failures (NVMe completion-queue error status) at a
  configured rate, with an optional distinct rate for retried commands;
* tail-latency spikes — a fraction of requests serviced at a multiple of
  the device latency (the "high variance in latency" of paper §4.2);
* whole-device events — an SSD slowing down, dropping out of the array, or
  recovering at a given *simulated* time;
* PCIe ingress link degradation (reduced effective bandwidth).

Plans are pure data; the :class:`~repro.faults.injector.FaultInjector`
turns them into seeded stochastic draws so that one plan + one seed always
reproduces the same fault sequence.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

from ..errors import ConfigError, FaultPlanError
from .retry import RetryPolicy

#: Recognised whole-device event kinds.  ``"fail_slow"`` is a gray failure:
#: the device keeps answering but at ``factor`` times its rated latency, the
#: signature the health monitor (:mod:`repro.storage_ha.health`) detects from
#: EWMA service-time skew against the array median.
DEVICE_EVENT_KINDS = ("slowdown", "dropout", "recovery", "fail_slow")

#: Recognised worker-scoped (GPU) event kinds.
WORKER_EVENT_KINDS = ("dropout", "recovery", "straggle")

#: Per-read corruption kind codes, as emitted by
#: :meth:`~repro.faults.injector.FaultInjector.corruption_kinds` and
#: interpreted by :class:`~repro.integrity.verifier.ReadVerifier`.
CORRUPT_NONE = 0
#: A transient in-flight bit flip: the device copy is fine, the read is not.
CORRUPT_BITFLIP = 1
#: A torn read racing a page write: half old bytes, half new.
CORRUPT_TORN = 2
#: Storm-poisoned media: every re-read returns the same corrupt bytes.
CORRUPT_PERSISTENT = 3


@dataclass(frozen=True)
class DeviceEvent:
    """One whole-device state change at a simulated point in time.

    Args:
        device: index of the SSD within the array (0-based).
        kind: ``"slowdown"`` (device serves at ``1/factor`` of its rated
            speed), ``"dropout"`` (device vanishes; its pages are lost until
            recovery), ``"recovery"`` (device returns at full speed), or
            ``"fail_slow"`` (gray failure: the device still answers every
            request but ``factor`` times slower — indistinguishable from a
            slowdown at the array level, but flagged for the storage-HA
            health monitor to catch via latency-skew inference).
        at_time_s: simulated time at which the event takes effect.
        factor: slowdown factor (>= 1) for ``"slowdown"`` events.
    """

    device: int
    kind: str
    at_time_s: float
    factor: float = 1.0

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ConfigError(f"device index must be >= 0, got {self.device}")
        if self.kind not in DEVICE_EVENT_KINDS:
            raise ConfigError(
                f"unknown device event kind {self.kind!r}; "
                f"expected one of {DEVICE_EVENT_KINDS}"
            )
        if self.at_time_s < 0:
            raise ConfigError("event time must be non-negative")
        if self.factor < 1.0:
            raise ConfigError("slowdown factor must be >= 1")


def _parse_worker(worker: "int | str") -> int:
    """Normalize a worker reference (``3`` or ``"gpu:3"``) to an index."""
    if isinstance(worker, bool):
        raise ConfigError(f"worker must be an index or 'gpu:<k>', got {worker!r}")
    if isinstance(worker, int):
        return worker
    if isinstance(worker, str):
        text = worker.strip()
        if text.startswith("gpu:"):
            text = text[len("gpu:"):]
        try:
            return int(text, 10)
        except ValueError:
            pass
    raise ConfigError(
        f"worker must be an index or 'gpu:<k>', got {worker!r}"
    )


@dataclass(frozen=True)
class WorkerEvent:
    """One GPU-worker state change at a simulated point in time.

    Unlike :class:`DeviceEvent` (which degrades an SSD of the shared
    array), a worker event targets one GPU of an elastic training fleet
    (:class:`~repro.core.fleet.ElasticFleetTrainer`).  The storage stack
    never sees these — a plan holding only worker events is still *null*
    for a single-GPU loader, mirroring ``crash_events``.

    Args:
        worker: fleet worker index, either as an integer or as the
            ``"gpu:<k>"`` string form used by CLI tooling.
        kind: ``"dropout"`` (the worker vanishes mid-epoch; its remaining
            shard is re-assigned to survivors), ``"recovery"`` (the worker
            rejoins with a cold cache and reclaims a fair share of work),
            or ``"straggle"`` (the worker's local PCIe/SSD path degrades
            and its I/O runs ``factor`` times slower).
        at_time_s: simulated time at which the event takes effect.
        factor: I/O slowdown factor (>= 1) for ``"straggle"`` events.
    """

    worker: int
    kind: str
    at_time_s: float
    factor: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "worker", _parse_worker(self.worker))
        if self.worker < 0:
            raise ConfigError(
                f"worker index must be >= 0, got {self.worker}"
            )
        if self.kind not in WORKER_EVENT_KINDS:
            raise ConfigError(
                f"unknown worker event kind {self.kind!r}; "
                f"expected one of {WORKER_EVENT_KINDS}"
            )
        if self.at_time_s < 0:
            raise ConfigError("event time must be non-negative")
        if self.factor < 1.0:
            raise ConfigError("straggle factor must be >= 1")

    @property
    def target(self) -> str:
        """The canonical ``"gpu:<k>"`` spelling of the worker."""
        return f"gpu:{self.worker}"


@dataclass(frozen=True)
class CrashEvent:
    """A simulated whole-process crash after a completed training iteration.

    Unlike :class:`DeviceEvent` faults — which the storage stack absorbs
    in-line — a crash kills the training *process*: the
    :class:`~repro.checkpoint.supervisor.RunSupervisor` observes it, tears
    the pipeline down, and restarts from the latest valid snapshot.  Crash
    events are one-shot: once a crash has fired, the supervisor does not
    re-fire it after the restart (the modeled process only dies once per
    event).

    Args:
        at_iteration: the global completed-iteration count (1-based) after
            which the process dies.
    """

    at_iteration: int

    def __post_init__(self) -> None:
        if self.at_iteration <= 0:
            raise ConfigError(
                f"crash iteration must be >= 1, got {self.at_iteration}"
            )


@dataclass(frozen=True)
class CorruptionEvent:
    """A device-scoped silent-corruption storm at a simulated time.

    From ``at_time_s`` onward, a seeded pseudo-random ``page_fraction`` of
    the pages striped onto ``device`` hold *persistently* corrupt bytes —
    the media copy itself is poisoned, so re-reads keep returning the same
    bad data (unlike the plan's per-read transient rates).  Membership is a
    pure hash of ``(plan seed, storm index, page id)``: no set is ever
    materialized, no random stream is consumed, and two runs (or a
    killed-and-resumed one) agree on exactly which pages are poisoned.  A
    poisoned page heals only when something rewrites it from a good copy —
    the background scrubber, or a repair path that falls back to the
    CPU-buffer mirror.

    Args:
        device: index of the SSD within the array (0-based).
        at_time_s: simulated time the storm lands.
        page_fraction: fraction of the device's pages poisoned, in (0, 1].
    """

    device: int
    at_time_s: float
    page_fraction: float = 0.01

    def __post_init__(self) -> None:
        if self.device < 0:
            raise ConfigError(f"device index must be >= 0, got {self.device}")
        if self.at_time_s < 0:
            raise ConfigError("storm time must be non-negative")
        if not 0.0 < self.page_fraction <= 1.0:
            raise ConfigError(
                f"page_fraction must be in (0, 1], got {self.page_fraction}"
            )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, serializable fault scenario for one run.

    All rates are probabilities in ``[0, 1)`` applied independently per
    request.  The default plan injects nothing: a null plan is guaranteed
    not to perturb modeled times or consume random numbers, so fault
    support is pay-for-what-you-use.

    ``crash_events`` are invisible to the dataloader (a plan containing
    only crashes is still *null* for the storage stack); they are consumed
    by the run supervisor, which kills and restarts the training process at
    the configured iterations.  ``worker_events`` are likewise invisible:
    they target GPU workers of an elastic multi-GPU fleet and are consumed
    by :class:`~repro.core.fleet.ElasticFleetTrainer`.
    """

    seed: int = 0
    read_failure_rate: float = 0.0
    retry_failure_rate: float | None = None
    tail_latency_rate: float = 0.0
    tail_latency_multiplier: float = 10.0
    bitflip_rate: float = 0.0
    torn_page_rate: float = 0.0
    device_events: tuple[DeviceEvent, ...] = ()
    crash_events: tuple[CrashEvent, ...] = ()
    corruption_events: tuple[CorruptionEvent, ...] = ()
    worker_events: tuple[WorkerEvent, ...] = ()
    pcie_degradation_factor: float = 1.0
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    def __post_init__(self) -> None:
        for name in (
            "read_failure_rate",
            "tail_latency_rate",
            "bitflip_rate",
            "torn_page_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {rate}")
        if self.retry_failure_rate is not None:
            if not 0.0 <= self.retry_failure_rate <= 1.0:
                raise ConfigError("retry_failure_rate must be in [0, 1]")
        if self.tail_latency_multiplier < 1.0:
            raise ConfigError("tail_latency_multiplier must be >= 1")
        if self.pcie_degradation_factor < 1.0:
            raise ConfigError("pcie_degradation_factor must be >= 1")
        object.__setattr__(
            self, "device_events", tuple(self.device_events)
        )
        object.__setattr__(
            self, "crash_events", tuple(self.crash_events)
        )
        object.__setattr__(
            self, "corruption_events", tuple(self.corruption_events)
        )
        object.__setattr__(
            self, "worker_events", tuple(self.worker_events)
        )

    @property
    def effective_retry_failure_rate(self) -> float:
        """Failure probability of a retried command."""
        if self.retry_failure_rate is None:
            return self.read_failure_rate
        return self.retry_failure_rate

    def is_null(self) -> bool:
        """Whether this plan injects no faults into the *storage stack*.

        Crash events are deliberately excluded: they model process death,
        which the supervisor handles above the loader, so a crash-only plan
        must not activate the loader's fault machinery (whose presence would
        perturb nothing, but whose absence is the cheaper invariant).
        """
        return (
            self.read_failure_rate == 0.0
            and self.tail_latency_rate == 0.0
            and not self.device_events
            and self.pcie_degradation_factor == 1.0
            and not self.has_corruption
        )

    @property
    def has_corruption(self) -> bool:
        """Whether any silent-corruption mechanism is configured."""
        return (
            self.bitflip_rate > 0.0
            or self.torn_page_rate > 0.0
            or bool(self.corruption_events)
        )

    def target_errors(
        self,
        *,
        num_ssds: int | None = None,
        fleet_size: int | None = None,
        iterations: int | None = None,
    ) -> list[str]:
        """One line per event whose target lies outside the system: a
        device or corruption event past a ``num_ssds``-SSD array, a worker
        event past a ``fleet_size``-GPU fleet, a crash after an
        ``iterations``-long run.  A width left ``None`` is not checked;
        drivers refuse a plan with any such event, ``faults validate``
        lists them."""
        problems = [
            f"crash event at iteration {e.at_iteration} never fires in a "
            f"{iterations}-iteration run"
            for e in self.crash_events
            if iterations is not None and e.at_iteration > iterations
        ]
        problems += [
            f"{e.kind} event targets {e.target} but a {fleet_size}-GPU "
            f"fleet only has workers gpu:0..gpu:{fleet_size - 1}"
            for e in self.worker_events
            if fleet_size is not None and e.worker >= fleet_size
        ]
        devices = [(f"{e.kind} event", e.device) for e in self.device_events]
        devices += [("corruption storm", e.device)
                    for e in self.corruption_events]
        return problems + [
            f"{what} targets device {device} but a {num_ssds}-SSD array "
            f"only has devices 0..{num_ssds - 1}"
            for what, device in devices
            if num_ssds is not None and device >= num_ssds
        ]

    # ------------------------------------------------------------------
    # Serialization

    def to_dict(self) -> dict:
        """Plain-dict rendering (JSON-safe)."""
        d = asdict(self)
        d["device_events"] = [asdict(e) for e in self.device_events]
        d["crash_events"] = [asdict(e) for e in self.crash_events]
        d["corruption_events"] = [
            asdict(e) for e in self.corruption_events
        ]
        d["worker_events"] = [
            {**asdict(e), "worker": e.target} for e in self.worker_events
        ]
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        if not isinstance(data, dict):
            raise ConfigError(f"fault plan must be a JSON object, got {data!r}")
        known = {
            "seed", "read_failure_rate", "retry_failure_rate",
            "tail_latency_rate", "tail_latency_multiplier",
            "bitflip_rate", "torn_page_rate",
            "device_events", "crash_events", "corruption_events",
            "worker_events", "pcie_degradation_factor", "retry",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(
                f"unknown fault plan keys: {sorted(unknown)}"
            )
        kwargs = dict(data)
        if "device_events" in kwargs:
            kwargs["device_events"] = tuple(
                e if isinstance(e, DeviceEvent) else DeviceEvent(**e)
                for e in kwargs["device_events"]
            )
        if "crash_events" in kwargs:
            kwargs["crash_events"] = tuple(
                e if isinstance(e, CrashEvent) else CrashEvent(**e)
                for e in kwargs["crash_events"]
            )
        if "corruption_events" in kwargs:
            kwargs["corruption_events"] = tuple(
                e if isinstance(e, CorruptionEvent) else CorruptionEvent(**e)
                for e in kwargs["corruption_events"]
            )
        if "worker_events" in kwargs:
            kwargs["worker_events"] = tuple(
                e if isinstance(e, WorkerEvent) else WorkerEvent(**e)
                for e in kwargs["worker_events"]
            )
        if "retry" in kwargs and not isinstance(kwargs["retry"], RetryPolicy):
            kwargs["retry"] = RetryPolicy(**kwargs["retry"])
        return cls(**kwargs)

    def to_json(self, *, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, *, source: str | None = None) -> "FaultPlan":
        """Parse a plan from JSON text.

        Malformed JSON raises :class:`~repro.errors.FaultPlanError` (never
        a raw :class:`json.JSONDecodeError`), naming ``source`` when given
        so CLI messages point at the offending file.
        """
        where = f" in {source!r}" if source else ""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(
                f"invalid fault plan JSON{where}: {exc}"
            ) from exc
        try:
            return cls.from_dict(data)
        except TypeError as exc:
            # Dataclass constructors surface bad field shapes as TypeError
            # (e.g. a string where an event object belongs); keep the
            # typed-error contract for callers.
            raise FaultPlanError(
                f"malformed fault plan{where}: {exc}"
            ) from exc

    @classmethod
    def from_json_file(cls, path: str) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--fault-plan`` CLI flag).

        Unreadable files and malformed JSON raise
        :class:`~repro.errors.FaultPlanError` carrying ``path`` — raw
        ``OSError``/``JSONDecodeError`` never escape to callers.
        """
        try:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise FaultPlanError(
                f"cannot read fault plan {path!r}: {exc}"
            ) from exc
        return cls.from_json(text, source=path)
