"""Seeded open-loop arrival processes in modeled time.

Open-loop means the traffic does not care how the server is doing: requests
keep arriving at the configured rate whether or not earlier ones finished,
which is exactly the regime where an unprotected pipeline queues unboundedly
past saturation.  Three shapes are provided — Poisson steady state, a
sinusoidal diurnal swing, and a flash-crowd burst — all generated by
thinning a homogeneous Poisson process at the shape's peak rate, so one
private RNG stream yields a deterministic trace for any shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import ServingError
from ..state import Stateful, rng_state, scalar
from .config import (
    BURST_DURATION_S,
    BURST_MULTIPLIER,
    BURST_START_S,
    ArrivalConfig,
)


@dataclass(frozen=True)
class Request:
    """One inference request drawn from the arrival process."""

    index: int
    arrival_s: float
    priority: int
    deadline_s: float
    node: int

    @property
    def deadline_at_s(self) -> float:
        return self.arrival_s + self.deadline_s

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "arrival_s": self.arrival_s,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
            "node": self.node,
        }

    @classmethod
    def from_dict(cls, state: dict) -> "Request":
        return cls(
            index=int(state["index"]),
            arrival_s=float(state["arrival_s"]),
            priority=int(state["priority"]),
            deadline_s=float(state["deadline_s"]),
            node=int(state["node"]),
        )


class ArrivalProcess(Stateful):
    """Generates the seeded request trace for one serving run.

    Args:
        config: traffic description.
        num_nodes: seed-node id space (requests target uniform nodes).
    """

    def __init__(self, config: ArrivalConfig, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise ServingError("num_nodes must be positive")
        self.config = config
        self.num_nodes = int(num_nodes)
        self._rng = np.random.default_rng(config.seed)
        # Generator.choice(n, p=mix) is this cdf searched with one
        # random(); building it once skips choice's re-validation of p.
        cdf = np.cumsum(np.asarray(config.priority_mix, dtype=np.float64))
        self._priority_cdf = cdf / cdf[-1]
        self._now_s = 0.0
        self._index = 0

    @property
    def generated(self) -> int:
        """Requests produced so far."""
        return self._index

    def rate_at(self, t_s: float) -> float:
        """Instantaneous offered rate of the configured shape at ``t_s``."""
        cfg = self.config
        if cfg.shape == "diurnal":
            swing = math.sin(2.0 * math.pi * t_s / cfg.period_s)
            return cfg.rate * (1.0 + cfg.amplitude * swing)
        if cfg.shape == "bursty":
            in_burst = BURST_START_S <= t_s < BURST_START_S + BURST_DURATION_S
            return cfg.rate * BURST_MULTIPLIER if in_burst else cfg.rate
        return cfg.rate

    def next_request(self) -> Request:
        """Draw the next arrival (thinned non-homogeneous Poisson)."""
        cfg = self.config
        peak = cfg.peak_rate
        while True:
            self._now_s += float(self._rng.exponential(1.0 / peak))
            if cfg.shape == "poisson":
                break
            # Thinning: accept the candidate with prob rate(t)/peak.  The
            # uniform is drawn unconditionally so the stream position is a
            # pure function of how many candidates were considered.
            if self._rng.random() < self.rate_at(self._now_s) / peak:
                break
        priority = int(
            self._priority_cdf.searchsorted(self._rng.random(), side="right")
        )
        node = int(self._rng.integers(0, self.num_nodes))
        request = Request(
            index=self._index,
            arrival_s=self._now_s,
            priority=priority,
            deadline_s=cfg.deadline_s,
            node=node,
        )
        self._index += 1
        return request

    # ------------------------------------------------------------------
    # Checkpointing

    STATE = (
        rng_state(),
        scalar("now_s", float, attr="_now_s"),
        scalar("index", int, attr="_index"),
    )
