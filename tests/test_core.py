import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from defect_spectra.core import (
    HC_EV_NM,
    STRAIN_COMPONENTS,
    ZPL_WAVELENGTH_NM,
    EmitterParams,
    ValidationError,
    delta_e_from_delta_lambda,
    delta_lambda_from_delta_e,
    make_stream,
)
from defect_spectra.zplmap import default_table, shift_for_strain


def test_zpl_constants():
    assert ZPL_WAVELENGTH_NM == 1278.3


def test_shift_conversion_sign_and_magnitude():
    # a shift toward lower energy moves the line toward longer wavelength
    dl = delta_lambda_from_delta_e(-1.0, 1278.3)
    # first-order oracle: |dl| = lambda^2 * |de| * 1e-3 / (h c)
    assert dl == pytest.approx(1278.3**2 * 1.0e-3 / HC_EV_NM)
    assert dl == pytest.approx(1.317950908, rel=1e-9)
    assert delta_lambda_from_delta_e(1.0, 1278.3) == pytest.approx(-dl)


@given(st.floats(-20, 20), st.floats(900, 1600))
def test_shift_conversion_round_trip(de_mev, wavelength_nm):
    dl = delta_lambda_from_delta_e(de_mev, wavelength_nm)
    back = delta_e_from_delta_lambda(dl, wavelength_nm)
    assert back == pytest.approx(de_mev, abs=1e-12)


def test_conversion_rejects_nonpositive_reference():
    with pytest.raises(ValidationError, match="lambda0_nm must be positive"):
        delta_lambda_from_delta_e(1.0, 0.0)
    with pytest.raises(ValidationError, match="lambda0_nm must be positive"):
        delta_e_from_delta_lambda(1.0, -5.0)


def test_validate_strain_shapes():
    # shift_for_strain is the one check of a strain: shape, then range
    table = default_table()
    assert isinstance(shift_for_strain(table, [0.001, 0, 0, 0, 0, 0]), float)
    assert shift_for_strain(table, np.zeros((7, 6))).shape == (7,)
    for shape in ((3, 5), (), (2, 3, 6)):
        with pytest.raises(ValidationError, match="needs 6 components"):
            shift_for_strain(table, np.zeros(shape))
    with pytest.raises(ValidationError, match="e_xx = nan outside"):
        shift_for_strain(table, [np.nan, 0, 0, 0, 0, 0])
    # magnitudes beyond any physical lattice strain are beyond every
    # table's range, since the loader keeps nodes within the cap
    with pytest.raises(ValidationError, match="e_xx = 0.5 outside"):
        shift_for_strain(table, [0.5, 0, 0, 0, 0, 0])


def _out_of_range_reference(arr, table):
    """The range check of shift_for_strain, cell by cell in Python."""
    for idx, (component, axis) in enumerate(
            zip(STRAIN_COMPONENTS, ("x", "y", "z", "xy", "xz", "yz"))):
        grid, _ = table.axis_curve(axis)
        lo, hi = float(grid[0]), float(grid[-1])
        bad = [v for v in arr[:, idx].tolist() if not lo <= v <= hi]
        if bad:
            worst = next((v for v in bad if v != v),
                         max(bad, key=lambda v: max(lo - v, v - hi)))
            raise ValidationError(
                f"{component} = {worst:.5g} outside table range "
                f"[{lo:.5g}, {hi:.5g}] for axis {axis!r}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0625, -0.0625],
                         ids=str)
def test_validate_strain_matches_elementwise_checks(bad):
    # one bad component in a large array that also holds an out-of-range
    # cell of the other sign and a smaller excess in the same component;
    # the error's class and message are the reference's, with no warning
    table = default_table()
    arr = make_stream(1, 99).uniform(-0.005, 0.005, size=(50_000, 6))
    arr[20_000, 4] = -0.011 if bad > 0 else 0.011
    arr[31_337, 4] = bad
    with pytest.raises(ValidationError) as want:
        _out_of_range_reference(arr, table)
    assert "for axis 'xz'" in str(want.value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(want.type) as got:
            shift_for_strain(table, arr)
    assert str(got.value) == str(want.value)


def test_validate_strain_keeps_an_empty_array():
    shifts = shift_for_strain(default_table(), np.empty((0, 6)))
    assert isinstance(shifts, np.ndarray) and shifts.shape == (0,)


def test_emitter_params_validation():
    with pytest.raises(ValidationError, match="zpl_wavelength_nm"):
        EmitterParams(zpl_wavelength_nm=-1.0)
    with pytest.raises(ValidationError, match="homogeneous_fwhm_nm"):
        EmitterParams(homogeneous_fwhm_nm=0.0)
    with pytest.raises(ValidationError, match="radiative_lifetime_ns"):
        EmitterParams(radiative_lifetime_ns=0.0)


def test_stream_reproducible_and_decorrelated():
    a = make_stream(123, 1, 0).random(100)
    b = make_stream(123, 1, 0).random(100)
    assert np.array_equal(a, b)
    # different chunk, mode, or seed gives a different substream
    assert not np.array_equal(a, make_stream(123, 1, 1).random(100))
    assert not np.array_equal(a, make_stream(123, 2, 0).random(100))
    assert not np.array_equal(a, make_stream(124, 1, 0).random(100))


@given(st.integers(0, 2**31), st.integers(0, 1000))
def test_stream_determinism_property(seed, chunk):
    x = make_stream(seed, 3, chunk).random(8)
    y = make_stream(seed, 3, chunk).random(8)
    assert np.array_equal(x, y)
