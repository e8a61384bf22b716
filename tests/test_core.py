import numpy as np
import pytest
from hypothesis import given, strategies as st

from defect_spectra.core import (
    HC_EV_NM,
    STRAIN_CAP,
    ZPL_WAVELENGTH_NM,
    EmitterParams,
    ValidationError,
    delta_e_from_delta_lambda,
    delta_lambda_from_delta_e,
    make_stream,
    validate_strain,
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
    one = validate_strain([0.001, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert one.shape == (6,)
    many = validate_strain(np.zeros((7, 6)))
    assert many.shape == (7, 6)
    with pytest.raises(ValidationError, match="needs 6 components"):
        validate_strain(np.zeros((3, 5)))
    with pytest.raises(ValidationError, match="must be finite"):
        validate_strain([np.nan, 0, 0, 0, 0, 0])
    # magnitudes beyond any physical lattice strain are rejected outright
    with pytest.raises(ValidationError, match="exceeds the physical cap"):
        validate_strain([0.5, 0, 0, 0, 0, 0])


def _validate_strain_reference(arr):
    """The elementwise checks of validate_strain: isfinite, then abs."""
    if not np.all(np.isfinite(arr)):
        raise ValidationError("strain components must be finite")
    if np.any(np.abs(arr) > STRAIN_CAP):
        worst = float(np.max(np.abs(arr)))
        raise ValidationError(
            f"strain component magnitude {worst:.4g} exceeds the physical cap "
            f"{STRAIN_CAP}")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0625, -0.0625],
                         ids=str)
def test_validate_strain_matches_elementwise_checks(bad):
    # one bad component in a large array that also holds an over-cap
    # component of the other sign and a smaller magnitude; the error's
    # class and message are the reference's
    arr = make_stream(1, 99).uniform(-0.01, 0.01, size=(50_000, 6))
    arr[20_000, 1] = -0.055 if bad > 0 else 0.055
    arr[31_337, 4] = bad
    with pytest.raises(ValidationError) as want:
        _validate_strain_reference(arr)
    with pytest.raises(want.type) as got:
        validate_strain(arr)
    assert str(got.value) == str(want.value)


def test_validate_strain_keeps_an_empty_array():
    empty = np.empty((0, 6))
    assert validate_strain(empty) is empty
    shifts = shift_for_strain(default_table(), empty)
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
