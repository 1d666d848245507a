"""Fig. 17 — energy saving vs. the sensor logic layer's process node.

Paper claims: sweeping the sensor logic layer from 16 nm to 65 nm under a
7 nm SoC and a 22 nm SoC, (1) newer logic nodes increase BlissCam's
saving; (2) the saving is *more sensitive* to the logic node when the SoC
is 7 nm — with a 22 nm SoC the off-sensor work dominates the total and
leaves less room for in-sensor optimization.
"""

from _helpers import once
from repro.api.result import PaperComparison, Table
from repro.hardware import ProcessNodes, SystemEnergyModel, WorkloadProfile

LOGIC_NODES = [16, 22, 40, 65]
SOC_NODES = [7, 22]
FPS = 120.0


def run_fig17():
    profile = WorkloadProfile()
    savings: dict[int, dict[int, float]] = {}
    for soc in SOC_NODES:
        savings[soc] = {}
        for logic in LOGIC_NODES:
            model = SystemEnergyModel(
                ProcessNodes(sensor_logic_nm=logic, host_nm=soc)
            )
            savings[soc][logic] = model.savings_over(
                "NPU-Full", "BlissCam", profile, FPS
            )
    return savings


def test_fig17_process_node(benchmark):
    savings = once(benchmark, run_fig17)

    table = Table(
        ["logic node (nm)"] + [f"{soc} nm SoC" for soc in SOC_NODES],
        title="Fig. 17 — BlissCam energy saving vs process nodes",
    )
    for logic in LOGIC_NODES:
        table.add_row(logic, *(round(savings[soc][logic], 2) for soc in SOC_NODES))
    print()
    print(table.render())

    spread = {
        soc: savings[soc][LOGIC_NODES[0]] - savings[soc][LOGIC_NODES[-1]]
        for soc in SOC_NODES
    }
    cmp = PaperComparison("Fig. 17")
    cmp.add("saving grows with newer logic node", "yes", "yes")
    cmp.add("7 nm SoC sweep spread (x)", "larger", round(spread[7], 2))
    cmp.add("22 nm SoC sweep spread (x)", "smaller", round(spread[22], 2))
    print(cmp.render())

    for soc in SOC_NODES:
        series = [savings[soc][logic] for logic in LOGIC_NODES]
        assert all(a > b for a, b in zip(series, series[1:])), series
    assert spread[7] > spread[22]
