"""Sec. VI-D — area estimation of the BlissCam sensor.

Paper numbers at 640x400 with a 5 um pixel pitch: 6.4 mm^2 pixel array,
0.4 mm^2 in-sensor NPU (~5.8 % overhead), 0.1 mm^2 output buffer + RLE;
the per-pixel augmentation is ~12 SRAM-cell equivalents; the host-side
RLE decoder is <0.1 % of SoC area.
"""

from _helpers import once
from repro.api.result import PaperComparison, Table
from repro.hardware import AreaModel
from repro.hardware.area import PUBLISHED_PIXELS


def run_area():
    model = AreaModel()
    return model, model.estimate(400, 640)


def test_area_estimation(benchmark):
    model, report = once(benchmark, run_area)

    table = Table(
        ["component", "area"],
        title="Sec. VI-D — area estimate (640x400, 5 um pitch)",
    )
    table.add_row("pixel array (mm^2)", round(report.pixel_array_mm2, 2))
    table.add_row("in-sensor NPU (mm^2)", report.in_sensor_npu_mm2)
    table.add_row("output buffer + RLE (mm^2)", report.output_buffer_mm2)
    table.add_row("TOTAL (mm^2)", round(report.total_mm2, 2))
    table.add_row(
        "per-pixel augmentation (um^2)",
        round(report.augmentation_per_pixel_um2, 2),
    )
    for name, (pitch, node, inventory) in PUBLISHED_PIXELS.items():
        table.add_row(f"anchor: {name}", f"{pitch} um @ {node} nm ({inventory})")
    print()
    print(table.render())

    cmp = PaperComparison("Sec. VI-D")
    cmp.add("pixel array (mm^2)", 6.4, round(report.pixel_array_mm2, 2))
    cmp.add("in-sensor NPU (mm^2)", 0.4, report.in_sensor_npu_mm2)
    cmp.add("output buffer (mm^2)", 0.1, report.output_buffer_mm2)
    cmp.add(
        "NPU area overhead (%)", 5.8, round(100 * report.npu_overhead_fraction, 1)
    )
    cmp.add(
        "host RLE decoder share (%)",
        "<0.1",
        round(100 * model.host_rle_decoder_fraction(), 3),
    )
    print(cmp.render())

    assert abs(report.pixel_array_mm2 - 6.4) < 0.1
    assert abs(report.npu_overhead_fraction - 0.058) < 0.01
