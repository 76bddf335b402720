"""Integration: every paper exhibit renders and carries its signatures."""

import pytest

from repro.cli import main
from repro.exhibits import (
    DTYPE_VARIANTS,
    EXHIBITS,
    counter_table,
    fig2_stream,
    fig3_1d_scaling,
    fig_2d_stencil,
    table1,
)
from repro.hardware import machine_names

#: The paper's own numbering, in the order the paper shows them, and one
#: string only that exhibit's body can have produced.
PAPER_EXHIBITS = {
    "table1": ("TABLE I:", "Peak Performance"),
    "table2": ("TABLE II:", "NSIMD"),
    "fig2": ("Fig 2:", "GB/s"),
    "fig3": ("Fig 3:", "Weak scaling"),
    "fig4": ("Fig 4:", "Xeon E5-2660 v3, grid 8192x131072"),
    "fig5": ("Fig 5:", "Kunpeng 916, grid 8192x131072"),
    "fig6": ("Fig 6:", "A64FX, grid 8192x131072"),
    "fig7": ("Fig 7:", "A64FX, grid 8192x196608"),
    "fig8": ("Fig 8:", "ThunderX2, grid 8192x131072"),
    "table3": ("TABLE III:", "Hardware Counters for Intel"),
    "table4": ("TABLE IV:", "Hardware Counters for HiSilicon"),
    "table5": ("TABLE V:", "Hardware Counters for Fujitsu"),
    "table6": ("TABLE VI:", "Hardware Counters for Marvell"),
}


def test_exhibits_are_listed_in_paper_order():
    assert list(EXHIBITS) == list(PAPER_EXHIBITS)


@pytest.mark.parametrize("name", EXHIBITS)
def test_every_exhibit_renders_under_its_paper_label(name):
    label, signature = PAPER_EXHIBITS[name]
    text = EXHIBITS[name]()
    assert text.startswith(label)
    assert signature in text
    assert len(text.splitlines()) > 2


def test_cli_without_names_prints_every_exhibit_in_paper_order(capsys):
    assert main(["exhibits"]) == 0
    separator = "\n\n" + "=" * 78 + "\n\n"
    expected = separator.join(render() for render in EXHIBITS.values())
    assert capsys.readouterr().out == expected + "\n"


def test_table1_contains_all_machines():
    text = EXHIBITS["table1"]()
    for name in ("Xeon E5-2660 v3", "Kunpeng 916", "ThunderX2", "A64FX"):
        assert name in text
    headers, rows = table1()
    assert len(headers) == 5  # label column + 4 machines
    assert len(rows) == 7  # the seven spec rows of Table I
    assert any("Peak Performance" in row[0] for row in rows)


def test_fig2_renders_every_machine():
    text = EXHIBITS["fig2"]()
    assert text.count("GB/s") == 4
    series = fig2_stream()
    assert {len(s.points) > 2 for s in series} == {True}


def test_fig2_scatter_variant():
    compact = fig2_stream(pinning="compact")
    scatter = fig2_stream(pinning="scatter")
    # Scatter exposes aggregate bandwidth earlier on multi-domain nodes.
    xeon_c = compact[0]
    xeon_s = scatter[0]
    mid = len(xeon_c.points) // 2
    assert xeon_s.ys()[mid] >= xeon_c.ys()[mid]


def test_fig3_contains_strong_and_weak():
    text = EXHIBITS["fig3"]()
    assert "Strong scaling" in text and "Weak scaling" in text
    data = fig3_1d_scaling()
    assert set(data) == {"strong", "weak"}
    assert len(data["strong"]) == 4 and len(data["weak"]) == 4


@pytest.mark.parametrize("name", machine_names())
def test_fig_2d_renders_with_variants_and_peaks(name):
    series = fig_2d_stencil(name)
    names = [s.name for s in series]
    assert len(names) == 8  # 4 variants + 4 peak lines
    assert names[:4] == [label for label, _, _ in DTYPE_VARIANTS]
    assert "Expected Peak Min (Float)" in names
    assert "Expected Peak Max (Double)" in names


def test_fig7_uses_large_grid_label():
    text = EXHIBITS["fig7"]()
    assert "Fig 7" in text and "196608" in text and "GLUP/s" in text
    assert "196608" not in EXHIBITS["fig6"]()


@pytest.mark.parametrize("name", machine_names())
def test_counter_tables_have_four_variants(name):
    headers, rows = counter_table(name)
    assert [row[0] for row in rows] == [
        "Float",
        "Vector Float",
        "Double",
        "Vector Double",
    ]


def test_counter_table_numbers_match_paper_format():
    text = EXHIBITS["table3"]()
    assert "3.153e10" in text  # Table III's first instruction count
