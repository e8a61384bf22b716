import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defect_spectra.core import ValidationError
from defect_spectra.ensemble import SingleDefectSpec
from defect_spectra.strainfield import (
    ElasticParams,
    PointDefect,
    dilatation_strain,
    dipole_strain,
    dipole_strain_columns,
    superpose,
)

OMEGA0 = 0.0200


def test_vacancy_field_on_axis():
    """Analytic check against the isotropic dilatation-center form.

    For a center of strength A = dV*Omega0/(4 pi) at distance r along z,
    e_zz = -2A/r^3 and e_xx = e_yy = A/r^3, shears vanish.
    """
    r = 1.0
    defect = PointDefect("vacancy", (0.0, 0.0, -r))
    strain = dilatation_strain(defect, [0.0, 0.0, 0.0])
    amp = -0.25 * OMEGA0 / (4 * np.pi)
    assert strain[0] == pytest.approx(amp / r**3)
    assert strain[1] == pytest.approx(amp / r**3)
    assert strain[2] == pytest.approx(-2 * amp / r**3)
    assert np.allclose(strain[3:], 0.0, atol=1e-18)


def test_interstitial_sign_and_scale():
    vac = dilatation_strain(PointDefect("vacancy", (0.0, 0.9, 0.0)),
                            [0.0, 0.0, 0.0])
    inter = dilatation_strain(PointDefect("interstitial", (0.0, 0.9, 0.0)),
                              [0.0, 0.0, 0.0])
    # opposite relaxation sign, 0.60/0.25 magnitude ratio
    assert np.allclose(inter, vac * (0.60 / -0.25))


def test_inverse_cube_falloff():
    p1 = dilatation_strain(PointDefect("vacancy", (0.7, 0.0, 0.0)), [0, 0, 0])
    p2 = dilatation_strain(PointDefect("vacancy", (1.4, 0.0, 0.0)), [0, 0, 0])
    assert np.allclose(p1, p2 * 8.0)


@settings(max_examples=60)
@given(st.floats(0.3, 5.0), st.floats(-1, 1), st.floats(-1, 1),
       st.floats(-1, 1))
def test_field_is_traceless(r, ux, uy, uz):
    norm = np.sqrt(ux**2 + uy**2 + uz**2)
    if norm < 1e-3:
        return
    pos = np.array([ux, uy, uz]) / norm * r
    strain = dilatation_strain(PointDefect("interstitial", tuple(pos)),
                               [0.0, 0.0, 0.0])
    assert strain[:3].sum() == pytest.approx(0.0, abs=1e-15)


@pytest.mark.parametrize("shape", [(), (1,), (5000,), (7, 9)], ids=str)
def test_dipole_strain_stacks_its_columns_bit_for_bit(shape):
    # the (..., 6) expression the component columns were split from
    gen = np.random.default_rng(17)
    d = gen.normal(size=shape + (3,)) * gen.uniform(0.3, 3.0, size=shape + (1,))
    amp = gen.normal(size=shape) * 1e-3
    r = np.linalg.norm(d, axis=-1)
    n = d / r[..., None]
    i, j = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
    want = (amp / r ** 3)[..., None] * ((i == j) - 3.0 * n[..., i] * n[..., j])
    got = dipole_strain(amp, d)
    assert got.shape == shape + (6,)
    assert np.array_equal(got, want)
    assert all(np.array_equal(column, want[..., c]) for c, column in
               enumerate(dipole_strain_columns(amp, np.moveaxis(d, -1, 0))))


def test_custom_relaxation_volume():
    base = dilatation_strain(PointDefect("vacancy", (0, 0, 1.0)), [0, 0, 0])
    params = ElasticParams(atomic_volume_nm3=2 * OMEGA0)
    doubled = dilatation_strain(PointDefect("vacancy", (0, 0, 1.0)),
                                [0, 0, 0], params)
    assert np.allclose(doubled, 2 * base)


def test_core_cutoff_raises():
    defect = PointDefect("vacancy", (0.0, 0.0, 0.2))
    with pytest.raises(ValidationError, match="within core cutoff"):
        dilatation_strain(defect, [0.0, 0.0, 0.0])
    # exactly at the cutoff is allowed
    ok = dilatation_strain(PointDefect("vacancy", (0.0, 0.0, 0.25)),
                           [0.0, 0.0, 0.0])
    assert np.isfinite(ok).all()


def test_core_cutoff_configurable():
    params = ElasticParams(core_cutoff_nm=0.5)
    with pytest.raises(ValidationError, match=r"within core cutoff \(0.5 nm\)"):
        dilatation_strain(PointDefect("vacancy", (0.0, 0.0, 0.4)),
                          [0.0, 0.0, 0.0], params)


def test_superpose_is_linear():
    defects = [PointDefect("vacancy", (1.0, 0.2, -0.3)),
               PointDefect("interstitial", (-0.8, 0.5, 0.9)),
               PointDefect("vacancy", (0.0, -1.1, 0.4))]
    total = superpose(defects, [0.0, 0.0, 0.0])
    parts = sum(dilatation_strain(d, [0.0, 0.0, 0.0]) for d in defects)
    assert np.allclose(total, parts)


def test_superpose_reports_offender_index():
    defects = [PointDefect("vacancy", (1.0, 0.0, 0.0)),
               PointDefect("vacancy", (0.1, 0.0, 0.0))]
    with pytest.raises(ValidationError,
                       match=r"within core cutoff .*\(defect 1\)$"):
        superpose(defects, [0.0, 0.0, 0.0])


def test_multiple_field_points():
    defect = PointDefect("interstitial", (0.0, 0.0, 0.0))
    pts = np.array([[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    out = dilatation_strain(defect, pts)
    assert out.shape == (3, 6)
    # symmetry: each axis point sees the same pattern rotated
    assert out[0][0] == pytest.approx(out[1][1])
    assert out[0][0] == pytest.approx(out[2][2])


def test_defect_kind_validation():
    with pytest.raises(ValidationError, match="unknown defect kind") as point:
        PointDefect("bogus", (0.0, 0.0, 1.0))
    with pytest.raises(ValidationError, match="unknown defect kind") as spec:
        SingleDefectSpec("bogus")
    assert str(point.value) == str(spec.value)
    with pytest.raises(ValidationError, match="3 Cartesian components"):
        dilatation_strain(PointDefect("vacancy", (1, 0, 0)), [[1, 2]])


def test_elastic_params_validation():
    with pytest.raises(ValidationError, match="atomic_volume_nm3"):
        ElasticParams(atomic_volume_nm3=0.0)
    with pytest.raises(ValidationError, match="core_cutoff_nm"):
        ElasticParams(core_cutoff_nm=-0.1)
