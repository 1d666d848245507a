"""Checked-in outputs of the analytical hardware models.

The energy, timing, power and area models are pure-Python float
arithmetic with no BLAS, so their outputs are the same bits on every
host.  This file pins them, compared with ``==`` and no tolerance:

* the Fig. 3 MIPI frame latency at each standard resolution;
* the ``metrics`` of the six analytical workloads run through
  ``Session.run``;
* for each variant at 120 FPS, the full energy components and latency
  stages, plus the exposure reduction and schedule feasibility at 120
  and 500 FPS — under the default ``WorkloadProfile`` and under an
  off-default one (the CI-scale operating point);
* the serving SLO's service time and the headset battery gain.

A deliberate change of the model's numbers re-records the file with
``PYTHONPATH=src python tests/hardware/test_golden_hardware.py`` and
says so in its change notes.
"""

import json
import sys
from pathlib import Path

import pytest

from repro.api import Session
from repro.hardware import (
    STANDARD_RESOLUTIONS,
    VARIANTS,
    HeadsetBudget,
    MipiLink,
    SystemEnergyModel,
    TimingModel,
    WorkloadProfile,
)
from repro.serve.slo import SLOModel

GOLDEN_PATH = Path(__file__).with_name("golden_hardware.json")
WORKLOADS = ("energy", "latency", "area", "power", "fps_sweep", "node_sweep")
#: The CI-scale operating point perfbench ``track`` measures.
PROFILES = {
    "default": WorkloadProfile(),
    "ci_scale": WorkloadProfile(
        height=64,
        width=64,
        roi_fraction=0.61,
        sampled_fraction=0.0337,
        valid_token_fraction=0.645,
    ),
}
FEASIBILITY_FPS = (120.0, 500.0)


def variant_record(variant: str, profile: WorkloadProfile) -> dict:
    energy = SystemEnergyModel()
    timing = TimingModel()
    return {
        "energy_components": energy.frame_energy(variant, profile, 120.0).components,
        "latency_stages": timing.tracking_latency(variant, profile, 120.0).stages,
        "exposure_reduction": {
            f"{fps:g}": timing.exposure_reduction(variant, profile, fps)
            for fps in FEASIBILITY_FPS
        },
        "schedule_feasible": {
            f"{fps:g}": timing.schedule_feasible(variant, profile, fps)
            for fps in FEASIBILITY_FPS
        },
    }


def record_all() -> dict:
    link = MipiLink()
    with Session() as session:
        workloads = {
            name: session.run({"workload": name}).metrics for name in WORKLOADS
        }
    record = {
        "mipi_frame_latency_s": {
            name: link.frame_latency(h, w)
            for name, (h, w) in STANDARD_RESOLUTIONS.items()
        },
        "workloads": workloads,
        "variants": {
            label: {v: variant_record(v, profile) for v in VARIANTS}
            for label, profile in PROFILES.items()
        },
        "slo_service_s": SLOModel.from_hardware(fps=120.0).service_s,
        "battery_gain_hours": HeadsetBudget().battery_gain_hours(
            "NPU-Full", "BlissCam", 120.0
        ),
    }
    # Through JSON, so tuples, dict keys and floats compare in the form
    # the file holds them (float repr round-trips exactly).
    return json.loads(json.dumps(record))


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def actual():
    return record_all()


@pytest.mark.parametrize(
    "section",
    ["mipi_frame_latency_s", "workloads", "variants", "slo_service_s",
     "battery_gain_hours"],
)
def test_matches_golden(golden, actual, section):
    assert actual[section] == golden[section]


def test_every_section_recorded(golden, actual):
    assert sorted(actual) == sorted(golden)
    assert sorted(golden["workloads"]) == sorted(WORKLOADS)
    assert sorted(golden["variants"]) == sorted(PROFILES)
    for label in PROFILES:
        assert sorted(golden["variants"][label]) == sorted(VARIANTS)


if __name__ == "__main__":
    out = Path(sys.argv[1]) if len(sys.argv) > 1 else GOLDEN_PATH
    out.write_text(json.dumps(record_all(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
