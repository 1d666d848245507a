"""Fig. 4 — readout circuitry's share of image-sensor power.

The paper surveys six recent sensors and finds the readout chain consumes
~66 % of sensor power on average.  We reproduce the survey table and show
that our modelled conventional sensor (NPU-Full's sensor side) lands in
the same regime — which is what makes skipping ADC conversions worthwhile.
"""

import numpy as np

from repro.api.result import PaperComparison, Table
from repro.hardware import SystemEnergyModel, WorkloadProfile

#: The six surveyed sensors of Fig. 4 (approximate readout-power shares).
SURVEY = {
    "JSSC'19": 0.71,
    "TCAS-1'20": 0.58,
    "TCAS-2'21": 0.62,
    "ISSCC'21": 0.74,
    "JSSC'22": 0.61,
    "IISW'23": 0.70,
}


def readout_shares() -> dict[str, float]:
    shares = dict(SURVEY)
    model = SystemEnergyModel()
    breakdown = model.frame_energy("NPU-Full", WorkloadProfile(), 120)
    shares["our model (NPU-Full)"] = (
        breakdown.components["readout"] / breakdown.sensor_side
    )
    return shares


def test_fig04_readout_power(benchmark):
    shares = benchmark(readout_shares)

    table = Table(
        ["sensor", "readout share (%)"],
        title="Fig. 4 — readout power share of sensor power",
    )
    for name, share in shares.items():
        table.add_row(name, round(100 * share, 1))
    print()
    print(table.render())

    survey_mean = float(np.mean(list(SURVEY.values())))
    cmp = PaperComparison("Fig. 4")
    cmp.add("survey mean (%)", 66, round(100 * survey_mean, 1))
    cmp.add(
        "our conventional sensor (%)",
        "~66",
        round(100 * shares["our model (NPU-Full)"], 1),
    )
    print(cmp.render())

    assert 0.60 < survey_mean < 0.72
    assert 0.5 < shares["our model (NPU-Full)"] < 0.9
