"""BlissCam sensor hardware: pixel circuits, ADC, SRAM RNG, sparse readout,
run-length coding, and the composed functional sensor simulator."""

from repro.hardware.sensor.adc import SingleSlopeADC
from repro.hardware.sensor.pixel import BLISSCAM_DPS, CONVENTIONAL_DPS, PixelCircuit
from repro.hardware.sensor.readout import ReadoutResult, SparseReadout
from repro.hardware.sensor.rle import RleStats, RunLengthCodec
from repro.hardware.sensor.sensor import BlissCamSensor, SensorFrameOutput
from repro.hardware.sensor.sram_rng import (
    BITS_PER_PIXEL,
    SramPowerUpRNG,
    ThresholdLUT,
)

__all__ = [
    "SingleSlopeADC",
    "PixelCircuit",
    "CONVENTIONAL_DPS",
    "BLISSCAM_DPS",
    "SparseReadout",
    "ReadoutResult",
    "RunLengthCodec",
    "RleStats",
    "BlissCamSensor",
    "SensorFrameOutput",
    "SramPowerUpRNG",
    "ThresholdLUT",
    "BITS_PER_PIXEL",
]
