"""The input boundary: the number parser, the CSV reader, and the field and
grid checks every params object and grid consumer shares."""

import dataclasses

import numpy as np
import pytest

from defect_spectra.core import (
    EmitterParams,
    ValidationError,
    check_fields,
    increasing_grid,
    number,
)
from defect_spectra.ensemble import (
    BiasedZSpec,
    DefectDensitySpec,
    SingleDefectSpec,
)
from defect_spectra.kinetics import DamageParams, DecayModelParams, ScheduleSegment
from defect_spectra.output import read_csv
from defect_spectra.strainfield import ElasticParams

SEGMENT = {"flux_cm2_s": 1e12, "duration_s": 1.0}

# (class, field, other required arguments) for every sign-checked field
CHECKED_FIELDS = [
    *((EmitterParams, f.name, {}) for f in dataclasses.fields(EmitterParams)),
    *((ElasticParams, f.name, {}) for f in dataclasses.fields(ElasticParams)),
    (BiasedZSpec, "xy_threshold", {}),
    (BiasedZSpec, "keep_fraction", {}),
    (SingleDefectSpec, "separation_nm", {}),
    (DefectDensitySpec, "vacancy_density_cm3", {}),
    (DefectDensitySpec, "interstitial_density_cm3", {}),
    (DefectDensitySpec, "r_min_nm", {}),
    (DefectDensitySpec, "r_max_nm", {}),
    *((DecayModelParams, f.name, {})
      for f in dataclasses.fields(DecayModelParams)
      if f.name != "trap_saturation_density_cm3"),
    (ScheduleSegment, "flux_cm2_s", SEGMENT),
    (ScheduleSegment, "duration_s", SEGMENT),
    (ScheduleSegment, "gap_s", SEGMENT),
    *((DamageParams, f.name, {}) for f in dataclasses.fields(DamageParams)),
]


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "cls, name, given", CHECKED_FIELDS,
    ids=[f"{cls.__name__}.{name}" for cls, name, _ in CHECKED_FIELDS])
def test_non_finite_field_is_refused(cls, name, given, value):
    with pytest.raises(ValidationError, match=name):
        cls(**{**given, name: value})


def test_trap_saturation_takes_none_and_inf_but_not_nan():
    assert DecayModelParams(trap_saturation_density_cm3=None)
    assert DecayModelParams(trap_saturation_density_cm3=np.inf)
    for bad in (np.nan, 0.0, -1.0):
        with pytest.raises(ValidationError,
                           match="trap_saturation_density_cm3"):
            DecayModelParams(trap_saturation_density_cm3=bad)


def test_check_fields_rules():
    @dataclasses.dataclass
    class Box:
        a: float = 0.0
        b: float | None = None

    check_fields(Box(), nonnegative=("a", "b"))
    with pytest.raises(ValidationError, match="a must be positive"):
        check_fields(Box(), positive=("a",))
    with pytest.raises(ValidationError, match="b must be nonnegative"):
        check_fields(Box(b=-1.0), nonnegative=("b",))


def test_number_names_its_field_and_refuses_nan():
    assert number("k", " 2.5 ") == 2.5
    assert number("k", "-inf") == -np.inf
    assert number("k", "7", int) == 7
    for text in ("nan", "NaN", "abc", ""):
        with pytest.raises(ValidationError, match="config key k"):
            number("config key k", text)
    with pytest.raises(ValidationError):
        number("k", "2.5", int)


def test_increasing_grid():
    grid = increasing_grid([0, 1, 2], "t")
    assert grid.dtype == float and list(grid) == [0.0, 1.0, 2.0]
    for bad in ([0, 0, 1], [0, np.nan, 2], [2, 1, 0], [1], [[0, 1]]):
        with pytest.raises(ValidationError, match="t must be strictly "
                                                  "increasing"):
            increasing_grid(bad, "t")
    with pytest.raises(ValidationError, match="at least 3"):
        increasing_grid([0, 1], "t", min_points=3)
    with pytest.raises(ValidationError, match="matching"):
        increasing_grid([0, 1, 2], "t", y=[1, 2])


def test_read_csv(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("# comment\n a , b \n\n1, 2\n ,\n# 3,4\n5,6\n")
    assert read_csv(path) == (["a", "b"], [["1", "2"], ["5", "6"]])
    for text in ("", "# only a comment\n", "a,b\n"):
        path.write_text(text)
        with pytest.raises(ValidationError, match="no data rows"):
            read_csv(path)
    path.write_text("a,b\n1,2\n3\n")
    with pytest.raises(ValidationError, match="exactly 2 columns"):
        read_csv(path)
