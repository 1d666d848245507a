"""VR-headset power-budget model (the Sec. II-C system context).

The paper motivates BlissCam with system numbers: a standalone VR device
has a 3-6 W total budget; always-on commercial eye trackers draw over
2 W — half of it; recent 120 FPS sensors alone take 10-60 % of the
budget.  This module turns the per-frame energy model into sustained
power and answers the designer's question: *what fraction of the headset
budget does each eye-tracking variant consume, and how much battery life
does BlissCam buy back?*
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.energy import SystemEnergyModel, WorkloadProfile

__all__ = ["HeadsetBudget", "PowerReport"]


@dataclass(frozen=True)
class PowerReport:
    """Sustained eye-tracking power for one variant."""

    variant: str
    fps: float
    power_w: float
    budget_fraction: float
    battery_hours: float


@dataclass(frozen=True)
class HeadsetBudget:
    """A standalone VR headset's electrical envelope.

    Defaults follow the paper's quoted range: ~5 W total draw (mid of the
    3-6 W range) and a Quest-2-class ~14 Wh battery.
    """

    total_power_w: float = 5.0
    battery_wh: float = 14.0
    #: Both eyes are tracked; the paper's pipeline is per-eye.
    num_eyes: int = 2

    def __post_init__(self):
        if self.total_power_w <= 0 or self.battery_wh <= 0:
            raise ValueError("budget parameters must be positive")
        if self.num_eyes < 1:
            raise ValueError("need at least one eye")

    def tracking_power(self, variant: str, fps: float) -> float:
        """Sustained eye-tracking power (both eyes), watts, at the paper's
        operating point."""
        per_frame = (
            SystemEnergyModel().frame_energy(variant, WorkloadProfile(), fps).total
        )
        return self.num_eyes * per_frame * fps

    def report(self, variant: str, fps: float) -> PowerReport:
        """Power, budget share, and battery life with this variant."""
        power = self.tracking_power(variant, fps)
        if power >= self.total_power_w:
            raise ValueError(
                f"{variant} at {fps} FPS needs {power:.2f} W, exceeding the "
                f"{self.total_power_w} W headset budget"
            )
        return PowerReport(
            variant=variant,
            fps=fps,
            power_w=power,
            budget_fraction=power / self.total_power_w,
            battery_hours=self.battery_wh / self.total_power_w,
        )

    def battery_gain_hours(self, baseline: str, variant: str, fps: float) -> float:
        """Extra runtime from switching ``baseline`` -> ``variant``.

        The rest of the headset keeps drawing its share; only the
        eye-tracking power changes.
        """
        base_power = self.tracking_power(baseline, fps)
        new_power = self.tracking_power(variant, fps)
        rest = self.total_power_w - base_power
        if rest <= 0:
            raise ValueError("baseline tracking power exceeds the budget")
        hours_before = self.battery_wh / self.total_power_w
        hours_after = self.battery_wh / (rest + new_power)
        return hours_after - hours_before
