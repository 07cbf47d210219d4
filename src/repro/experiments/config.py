"""Experiment sizing and scale presets.

The paper runs 200,000 subscriptions and 100,000 events on a five-machine
testbed.  A pure-Python in-process reproduction cannot grind that per
measurement point in reasonable benchmark time, so the default scale is
reduced.  The reported curves are ratios and proportions, and we assume
their shapes hold at paper scale; that has not been checked.  The
``paper`` preset restores the original magnitudes for long offline runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.heuristics import Dimension
from repro.errors import ExperimentError
from repro.workloads.auction import AuctionWorkloadConfig


@dataclass
class ExperimentConfig:
    """Everything that determines one experiment run."""

    seed: int = 42
    subscription_count: int = 1500
    event_count: int = 400
    grid_points: int = 11
    broker_count: int = 5
    #: Broker graph shape for the distributed setting: ``"line"`` (the
    #: paper's five-brokers-in-a-line), ``"star"``, or ``"tree"``.
    topology: str = "line"
    clients_per_broker: int = 4
    dimensions: Tuple[Dimension, ...] = (
        Dimension.NETWORK,
        Dimension.THROUGHPUT,
        Dimension.MEMORY,
    )
    bandwidth_bps: float = 10e6
    per_message_overhead_s: float = 100e-6
    workload: Optional[AuctionWorkloadConfig] = None

    def __post_init__(self) -> None:
        if self.subscription_count < 1:
            raise ExperimentError("subscription_count must be positive")
        if self.event_count < 1:
            raise ExperimentError("event_count must be positive")
        if self.grid_points < 2:
            raise ExperimentError("grid_points must be at least 2")
        if self.broker_count < 1:
            raise ExperimentError("broker_count must be positive")
        if self.topology not in ("line", "star", "tree"):
            raise ExperimentError("topology must be 'line', 'star', or 'tree'")
        if self.clients_per_broker < 1:
            raise ExperimentError("clients_per_broker must be positive")
        if not self.dimensions:
            raise ExperimentError("at least one dimension is required")
        if self.workload is None:
            self.workload = AuctionWorkloadConfig(seed=self.seed)

    @property
    def proportions(self) -> Tuple[float, ...]:
        """The x-axis grid: ``grid_points`` proportions spanning [0, 1]."""
        step = 1.0 / (self.grid_points - 1)
        return tuple(round(index * step, 6) for index in range(self.grid_points))


#: Scale presets: (subscriptions, events, grid points).
SCALES: Dict[str, Tuple[int, int, int]] = {
    "tiny": (250, 80, 5),
    "small": (800, 250, 9),
    "default": (1500, 400, 11),
    "large": (5000, 1200, 11),
    "paper": (200000, 100000, 21),
}


def config_for_scale(scale: str, seed: int = 42) -> ExperimentConfig:
    """An :class:`ExperimentConfig` for a named scale preset."""
    try:
        subscriptions, events, points = SCALES[scale]
    except KeyError:
        raise ExperimentError(
            "unknown scale %r (choose from %s)" % (scale, ", ".join(sorted(SCALES)))
        )
    return ExperimentConfig(
        seed=seed,
        subscription_count=subscriptions,
        event_count=events,
        grid_points=points,
    )
