"""System-context check: eye tracking within a VR headset's power budget.

Sec. II-C's framing: commercial eye trackers draw >2 W against a 3-6 W
standalone-headset budget.  This bench converts the per-frame energy
model into sustained two-eye tracking power and battery-life impact.
"""

from _helpers import once
from repro.api.result import PaperComparison, Table
from repro.hardware import VARIANTS
from repro.hardware.power_budget import HeadsetBudget

FPS = 120.0


def run_power_budget():
    budget = HeadsetBudget()
    reports = {v: budget.report(v, FPS) for v in VARIANTS}
    gain = budget.battery_gain_hours("NPU-Full", "BlissCam", FPS)
    return budget, reports, gain


def test_power_budget(benchmark):
    budget, reports, gain_hours = once(benchmark, run_power_budget)

    table = Table(
        ["variant", "tracking power (mW, 2 eyes)", "share of 5 W budget"],
        title="Headset power budget at 120 FPS",
    )
    for variant, report in reports.items():
        table.add_row(
            variant,
            round(report.power_w * 1e3, 1),
            f"{report.budget_fraction:.1%}",
        )
    print()
    print(table.render())

    cmp = PaperComparison("Sec. II power context")
    cmp.add(
        "conventional tracker is a major consumer",
        ">10 % of budget (paper: sensors alone 10-60 %)",
        f"{reports['NPU-Full'].budget_fraction:.1%}",
    )
    cmp.add(
        "BlissCam share of budget",
        "small",
        f"{reports['BlissCam'].budget_fraction:.1%}",
    )
    cmp.add("battery life gained (min)", ">0", round(gain_hours * 60, 1))
    print(cmp.render())

    assert reports["NPU-Full"].power_w > reports["BlissCam"].power_w
    assert gain_hours > 0
    # Every variant must fit the headset budget at the paper's frame rate.
    assert all(r.budget_fraction < 1.0 for r in reports.values())
