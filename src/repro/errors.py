"""Exception hierarchy for the GIDS reproduction library.

Every error raised by this package derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ReproError):
    """A hardware or loader configuration is inconsistent or out of range."""


class GraphError(ReproError):
    """A graph structure is malformed (bad indptr, out-of-range indices...)."""


class DatasetError(ReproError):
    """An unknown dataset name or an invalid scaling request."""


class CapacityError(ReproError):
    """A memory budget (GPU cache, CPU buffer, page cache) is violated."""


class SamplingError(ReproError):
    """Invalid sampling parameters (empty fanout, bad seed set...)."""


class PipelineError(ReproError):
    """The training pipeline was driven in an invalid order or state."""


class StorageError(ReproError):
    """A feature-store access referenced nodes outside the stored table."""


class FaultError(ReproError):
    """An injected hardware fault could not be absorbed by the storage stack."""


class FaultPlanError(FaultError, ConfigError):
    """A fault plan file could not be read or parsed.

    Derives from both :class:`FaultError` (it concerns the fault subsystem)
    and :class:`ConfigError` (a plan is configuration), so callers that
    historically caught either keep working.
    """


class RetryExhaustedError(FaultError):
    """Storage reads kept failing after the retry policy's final attempt."""


class IntegrityError(ReproError):
    """A data-integrity invariant was violated (digest mismatch, bad state)."""


class TelemetryError(ReproError):
    """A tracer, metric, or trace export was used or formed inconsistently."""


class ObservatoryError(ReproError):
    """A performance-analysis input (report, threshold, alert rule) is
    invalid."""


class ServingError(ReproError):
    """The online-serving layer was configured or driven inconsistently."""


class FullGraphError(ReproError):
    """A full-graph sweep (plan, schedule, or trainer state) is invalid."""


class CheckpointError(ReproError):
    """A checkpoint could not be written, read, or applied to a pipeline."""


class CheckpointCorruptError(CheckpointError):
    """A snapshot file failed its integrity check (magic, version or CRC)."""


class SimulatedCrashError(FaultError):
    """A :class:`~repro.faults.plan.CrashEvent` killed the modeled process."""


class StalledRunError(FaultError):
    """The supervisor's modeled-time watchdog detected a stalled iteration."""


class RestartLimitError(FaultError):
    """The supervisor exhausted its restart budget without finishing the run."""
