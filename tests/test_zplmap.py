import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from defect_spectra.core import ValidationError
from defect_spectra.zplmap import (
    component_ranges,
    default_table,
    load_response_table,
    shift_for_strain,
)


@pytest.fixture(scope="module")
def table():
    return default_table()


def test_table_axes_and_grids(table):
    for axis in ("x", "z", "xy", "xz", "iso"):
        grid, shifts = table.axis_curve(axis)
        assert len(grid) == 21
        assert grid[0] == -0.01 and grid[-1] == 0.01
        assert shifts[np.flatnonzero(grid == 0)[0]] == 0.0


def test_pure_axis_values(table):
    # per-axis slopes of the shipped curves: x is -550/+50 meV per unit
    # strain (tension/compression), z is +250/+40, shears are even
    assert shift_for_strain(table, [0.01, 0, 0, 0, 0, 0]) == pytest.approx(-5.5)
    assert shift_for_strain(table, [-0.01, 0, 0, 0, 0, 0]) == pytest.approx(-0.5)
    assert shift_for_strain(table, [0, 0, 0.01, 0, 0, 0]) == pytest.approx(2.5)
    assert shift_for_strain(table, [0, 0, -0.01, 0, 0, 0]) == pytest.approx(-0.4)
    assert shift_for_strain(table, [0, 0, 0, 0.01, 0, 0]) == pytest.approx(-2.5)
    assert shift_for_strain(table, [0, 0, 0, 0, 0.01, 0]) == pytest.approx(-1.2)


def test_yy_and_yz_reuse_symmetry_partners(table):
    e = 0.004
    assert shift_for_strain(table, [e, 0, 0, 0, 0, 0]) == \
        pytest.approx(shift_for_strain(table, [0, e, 0, 0, 0, 0]))
    assert shift_for_strain(table, [0, 0, 0, 0, e, 0]) == \
        pytest.approx(shift_for_strain(table, [0, 0, 0, 0, 0, e]))


def test_shear_curves_are_even(table):
    for idx in (3, 4, 5):
        plus = np.zeros(6)
        plus[idx] = 0.0063
        minus = -plus
        assert shift_for_strain(table, plus) == \
            pytest.approx(shift_for_strain(table, minus))


def test_interpolation_between_nodes(table):
    # the shipped curves are linear on each side of zero, so the
    # interpolated value off the nodes follows the analytic slope
    e = 0.00035
    assert shift_for_strain(table, [e, 0, 0, 0, 0, 0]) == \
        pytest.approx(-550 * e)
    e = -0.0047
    assert shift_for_strain(table, [0, 0, e, 0, 0, 0]) == \
        pytest.approx(40 * e)


def test_additive_composition(table):
    a = np.array([0.002, -0.001, 0.003, 0.0, 0.0, 0.0])
    b = np.array([0.0, 0.0, 0.0, 0.004, -0.002, 0.001])
    parts = sum(
        shift_for_strain(table, np.eye(6)[i] * (a + b)[i]) for i in range(6))
    assert shift_for_strain(table, a + b) == pytest.approx(parts)


def test_vectorized_matches_scalar(table):
    rng = np.random.default_rng(7)
    strains = rng.uniform(-0.009, 0.009, size=(40, 6))
    batch = shift_for_strain(table, strains)
    singles = [shift_for_strain(table, s) for s in strains]
    assert np.allclose(batch, singles)


def test_out_of_range_names_axis(table):
    with pytest.raises(ValidationError, match="axis 'x'"):
        shift_for_strain(table, [0.011, 0, 0, 0, 0, 0])
    with pytest.raises(ValidationError, match="axis 'yz'"):
        shift_for_strain(table, [0, 0, 0, 0, 0, -0.011])


@given(st.floats(-0.01, 0.01))
def test_x_curve_never_blueshifts(e):
    # the dominant-axis curve is redshift-only for either strain sign
    table = default_table()
    assert shift_for_strain(table, [e, 0, 0, 0, 0, 0]) <= 0.0


def test_iso_consistency(table):
    # iso = 2x + z by construction of the shipped table
    grid, iso = table.axis_curve("iso")
    gx, sx = table.axis_curve("x")
    gz, sz = table.axis_curve("z")
    assert np.allclose(iso, 2 * sx + sz)


def test_load_table_round_trip(tmp_path, table):
    import csv

    path = tmp_path / "table.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["axis", "strain", "shift_mev"])
        for axis, (grid, shifts) in table.curves.items():
            for g, s in zip(grid, shifts):
                writer.writerow([axis, f"{g:.6f}", f"{s:.10g}"])
    loaded = load_response_table(path)
    for axis in table.curves:
        g0, s0 = table.axis_curve(axis)
        g1, s1 = loaded.axis_curve(axis)
        assert np.allclose(g0, g1) and np.allclose(s0, s1)


def test_load_table_rejects_bad_curves(tmp_path):
    path = tmp_path / "bad.csv"
    cases = [
        ("x,-0.001,0.1\nx,0.0,0.5\nx,0.001,-0.1\n",
         "axis 'x': curve must pass through (0, 0)"),
        # duplicate strain nodes collapse the grid ordering
        ("x,0.001,0.1\nx,0.0,0.0\nx,0.001,-0.1\n",
         "axis 'x': strain grid must be strictly increasing"),
        ("x,-0.001,-inf\nx,0.0,0.0\nx,0.001,-0.1\n",
         "axis 'x': strains and shifts must be finite"),
        ("w,-0.001,-0.1\nw,0.0,0.0\nw,0.001,-0.1\n", "axis 'w': unknown axis"),
        # a single axis is not enough
        ("x,-0.001,-0.1\nx,0.0,0.0\nx,0.001,-0.1\n", "missing axes"),
    ]
    for rows, message in cases:
        path.write_text("axis,strain,shift_mev\n" + rows)
        with pytest.raises(ValidationError, match=re.escape(message)) as info:
            load_response_table(path)
        assert str(path) in str(info.value)
    with pytest.raises(FileNotFoundError):
        load_response_table(tmp_path / "missing.csv")
    path.write_text("strain,shift\n0,0\n")
    with pytest.raises(ValidationError, match="header"):
        load_response_table(path)


@pytest.mark.parametrize("scale, ok", [(1.0, True), (1.0 + 5e-6, False)])
def test_mirror_curve_must_be_identical(tmp_path, table, scale, ok):
    # a spelled-out y curve is accepted only when it repeats x exactly
    grid, shifts = table.curves["x"]
    rows = [f"{axis},{g:.17g},{s:.17g}" for axis, (grid_a, shifts_a)
            in table.curves.items() for g, s in zip(grid_a, shifts_a)]
    rows += [f"y,{g:.17g},{s * scale:.17g}" for g, s in zip(grid, shifts)]
    path = tmp_path / "table.csv"
    path.write_text("axis,strain,shift_mev\n" + "\n".join(rows) + "\n")
    if ok:
        loaded = load_response_table(path)
        assert shift_for_strain(loaded, [0, 0.01, 0, 0, 0, 0]) == \
            shift_for_strain(table, [0.01, 0, 0, 0, 0, 0])
    else:
        with pytest.raises(ValidationError, match="mirror symmetry") as info:
            load_response_table(path)
        assert str(path) in str(info.value)


@pytest.mark.parametrize("span, ok", [(0.05, True), (0.1, False)])
def test_table_nodes_stay_within_the_strain_cap(tmp_path, span, ok):
    # the cap is checked once, here: every node lies within it, so a strain
    # inside the table's range is inside the cap; the loader refuses a
    # table reaching past it, naming file and axis
    rows = [f"{axis},{s:g},{-abs(s):g}" for axis in ("x", "z", "xy", "xz")
            for s in (-span, 0.0, span)]
    path = tmp_path / "wide.csv"
    path.write_text("axis,strain,shift_mev\n" + "\n".join(rows) + "\n")
    if ok:
        low, high = component_ranges(load_response_table(path))
        assert low.tolist() == [-span] * 6 and high.tolist() == [span] * 6
    else:
        with pytest.raises(ValidationError, match=re.escape(
                f"response table {path}, axis 'x': strain nodes span -0.1 "
                "to 0.1, beyond the physical cap of +-0.05")):
            load_response_table(path)
