"""Service-level objectives: deadlines from the modeled hardware latency.

The per-frame deadline is grounded in :mod:`repro.hardware.timing`: the
modeled BlissCam tracking latency (start-of-exposure to gaze-ready) is
the *service time* every processed frame pays, and the deadline allows
on top of it a configurable number of frame periods of queueing slack.
A frame that waited ``w`` ticks completes at virtual latency
``w * tick_s + service_s`` and meets its deadline iff ``w <=
slack_ticks`` — an exact integer comparison, so deadline accounting can
never float-drift between runs or machines.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.energy import WorkloadProfile
from repro.hardware.timing import TimingModel

__all__ = ["SLOModel"]


@dataclass(frozen=True)
class SLOModel:
    """Deadline arithmetic for one serving scenario."""

    #: One camera frame period, seconds.
    tick_s: float
    #: Modeled per-frame service latency (hardware.timing), seconds.
    service_s: float
    #: Queueing slack before a completion misses its deadline, ticks.
    slack_ticks: int
    #: ``drop`` sheds doomed frames at dispatch; ``best_effort``
    #: processes them and records the miss.
    policy: str = "drop"

    def __post_init__(self) -> None:
        if self.policy not in ("drop", "best_effort"):
            raise ValueError(f"unknown deadline policy: {self.policy!r}")
        if self.slack_ticks < 0:
            raise ValueError(f"slack_ticks must be >= 0: {self.slack_ticks}")

    @classmethod
    def from_hardware(
        cls,
        fps: float,
        slack_ticks: int = 1,
        policy: str = "drop",
    ) -> "SLOModel":
        """Derive the service time from BlissCam's modeled latency at the
        paper's operating point."""
        service = (
            TimingModel().tracking_latency("BlissCam", WorkloadProfile(), fps).total
        )
        return cls(
            tick_s=1.0 / fps,
            service_s=service,
            slack_ticks=slack_ticks,
            policy=policy,
        )

    @property
    def deadline_s(self) -> float:
        """Latest acceptable completion latency, seconds."""
        return self.service_s + self.slack_ticks * self.tick_s

    def latency_s(self, wait_ticks: int) -> float:
        """Virtual completion latency after ``wait_ticks`` in the queue."""
        return wait_ticks * self.tick_s + self.service_s

    def meets_deadline(self, wait_ticks: int) -> bool:
        return wait_ticks <= self.slack_ticks

    def sheds(self, wait_ticks: int) -> bool:
        """Should a frame this late be dropped instead of processed?"""
        return self.policy == "drop" and not self.meets_deadline(wait_ticks)
