"""Configuration for the online-serving layer.

Two frozen dataclasses: :class:`ArrivalConfig` describes the open-loop
traffic (shape, rate, priority mix, deadlines), :class:`ServingConfig` the
protection switch and the p99 objective.  Both follow the
:class:`~repro.faults.retry.RetryPolicy` validation discipline — every
numeric field goes through :func:`~repro.utils.require_finite`, so a NaN
deadline or an infinite objective fails construction with a
:class:`~repro.errors.ConfigError` instead of silently disabling a guard.
The protection layers' own tunables are module constants of the layer that
uses them (``admission``, ``breaker``, ``hedging``, ``brownout``).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..utils import require_finite

#: Recognised arrival shapes.
ARRIVAL_SHAPES = ("poisson", "diurnal", "bursty")

#: Priority tiers, most important first.  Shedding walks them backwards.
PRIORITIES = ("high", "normal", "low")

#: The ``"bursty"`` flash crowd: ``rate`` is multiplied by
#: ``BURST_MULTIPLIER`` from ``BURST_START_S`` for ``BURST_DURATION_S``.
BURST_MULTIPLIER = 5.0
BURST_START_S = 1.0
BURST_DURATION_S = 1.0


@dataclass(frozen=True)
class ArrivalConfig:
    """Open-loop arrival process description (all seeded, all modeled time).

    Args:
        shape: ``"poisson"`` (constant rate), ``"diurnal"`` (sinusoidal
            rate swing with period ``period_s`` and relative amplitude
            ``amplitude``) or ``"bursty"`` (flash crowd: ``rate`` is
            multiplied by :data:`BURST_MULTIPLIER` during the
            :data:`BURST_DURATION_S` window starting at
            :data:`BURST_START_S`).
        rate: steady-state offered load in requests per modeled second.
        seed: RNG seed for interarrival draws, priority assignment and
            seed-node selection.  The stream is private to the arrival
            process, mirroring the fault injector's isolation rule.
        priority_mix: probability of each tier in :data:`PRIORITIES`
            (must sum to 1).
        deadline_s: per-request completion deadline, measured from arrival.
    """

    shape: str = "poisson"
    rate: float = 1000.0
    seed: int = 0
    priority_mix: tuple[float, float, float] = (0.2, 0.6, 0.2)
    deadline_s: float = 0.05
    period_s: float = 10.0
    amplitude: float = 0.5

    def __post_init__(self) -> None:
        if self.shape not in ARRIVAL_SHAPES:
            raise ConfigError(
                f"unknown arrival shape {self.shape!r}; expected one of "
                f"{ARRIVAL_SHAPES}"
            )
        require_finite("rate", self.rate, minimum=0.0, exclusive_minimum=True)
        if len(self.priority_mix) != len(PRIORITIES):
            raise ConfigError(
                f"priority_mix needs {len(PRIORITIES)} entries "
                f"({', '.join(PRIORITIES)}), got {len(self.priority_mix)}"
            )
        total = 0.0
        for name, p in zip(PRIORITIES, self.priority_mix):
            total += require_finite(
                f"priority_mix[{name}]", p, minimum=0.0, maximum=1.0
            )
        if abs(total - 1.0) > 1e-9:
            raise ConfigError(
                f"priority_mix must sum to 1, got {total}"
            )
        require_finite(
            "deadline_s", self.deadline_s, minimum=0.0, exclusive_minimum=True
        )
        require_finite(
            "period_s", self.period_s, minimum=0.0, exclusive_minimum=True
        )
        require_finite("amplitude", self.amplitude, minimum=0.0, maximum=1.0)

    @property
    def peak_rate(self) -> float:
        """Upper bound of the instantaneous rate (thinning envelope)."""
        if self.shape == "diurnal":
            return self.rate * (1.0 + self.amplitude)
        if self.shape == "bursty":
            return self.rate * BURST_MULTIPLIER
        return self.rate


@dataclass(frozen=True)
class BrownoutLevel:
    """One declared service-quality level of the brownout ladder."""

    name: str
    fanout_scale: float = 1.0
    cache_only: bool = False


#: The brownout ladder: full quality, reduced fanout, cache-only.
DEFAULT_BROWNOUT_LEVELS = (
    BrownoutLevel("full", fanout_scale=1.0),
    BrownoutLevel("reduced-fanout", fanout_scale=0.5),
    BrownoutLevel("cache-only", fanout_scale=0.5, cache_only=True),
)


@dataclass(frozen=True)
class ServingConfig:
    """The two knobs of the layered overload-protection subsystem.

    Args:
        protection: the master switch.  Off means an unbounded FIFO queue
            with no shedding, breakers, hedging or brownout — the
            configuration that produces the classic latency collapse past
            saturation.
        slo_p99_s: the p99 latency objective the brownout controller
            enforces.
    """

    protection: bool = True
    slo_p99_s: float = 0.05

    def __post_init__(self) -> None:
        require_finite(
            "slo_p99_s", self.slo_p99_s, minimum=0.0, exclusive_minimum=True
        )
