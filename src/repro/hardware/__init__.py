"""Hardware models: the sensor datapath, NPUs, MIPI, DRAM, process
scaling, and the composed system energy/latency/area models."""

from repro.hardware.area import AreaModel, AreaReport
from repro.hardware.dram import LPDDR3Model
from repro.hardware.energy import (
    VARIANTS,
    EnergyBreakdown,
    ProcessNodes,
    SystemEnergyModel,
    Traffic,
    WorkloadProfile,
    traffic,
)
from repro.hardware.mipi import (
    LATENCY_REQUIREMENT_S,
    STANDARD_RESOLUTIONS,
    MipiLink,
)
from repro.hardware.npu import SystolicNPU, host_npu, in_sensor_npu
from repro.hardware.power_budget import HeadsetBudget, PowerReport
from repro.hardware.timing import LatencyBreakdown, TimingModel
from repro.hardware import scaling

__all__ = [
    "AreaModel",
    "AreaReport",
    "LPDDR3Model",
    "VARIANTS",
    "EnergyBreakdown",
    "ProcessNodes",
    "SystemEnergyModel",
    "Traffic",
    "WorkloadProfile",
    "traffic",
    "MipiLink",
    "STANDARD_RESOLUTIONS",
    "LATENCY_REQUIREMENT_S",
    "SystolicNPU",
    "HeadsetBudget",
    "PowerReport",
    "host_npu",
    "in_sensor_npu",
    "LatencyBreakdown",
    "TimingModel",
    "scaling",
]
