"""Strain-to-ZPL-shift response table and its interpolation.

The table carries one shift curve per strain axis (normal x, z and shear
xy, xz) on a common strain grid; y and yz follow x and xz by the defect's
mirror symmetry unless a file spells them out. Shifts compose additively,

    shift = f_x(e_xx) + f_x(e_yy) + f_z(e_zz)
          + f_xy(e_xy) + f_xz(e_xz) + f_xz(e_yz)

in meV with positive = blueshift. Interpolation is linear between grid
nodes and never extrapolates. An optional isotropic curve is used only to
cross-check the additive composition, not for evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import (
    RangeError,
    ValidationError,
    increasing_grid,
    number,
    validate_strain,
)
from .output import read_csv

REQUIRED_AXES = ("x", "z", "xy", "xz")
OPTIONAL_AXES = ("y", "yz", "iso")
# tensor component index -> table axis
_COMPONENT_AXIS = (("e_xx", "x"), ("e_yy", "y"), ("e_zz", "z"),
                   ("e_xy", "xy"), ("e_xz", "xz"), ("e_yz", "yz"))
_SYMMETRY_SOURCE = {"y": "x", "yz": "xz"}

DEFAULT_TABLE_RESOURCE = "default_response_table.csv"


@dataclass(frozen=True)
class ResponseTable:
    """Per-axis shift curves; ``curves[axis] = (strain_grid, shift_mev)``."""

    curves: dict
    source: str = "unspecified"

    def axis_curve(self, axis: str):
        if axis in self.curves:
            return self.curves[axis]
        if axis in _SYMMETRY_SOURCE:
            return self.curves[_SYMMETRY_SOURCE[axis]]
        raise ValidationError(f"table has no curve for axis {axis!r}")

    def strain_range(self, axis: str):
        grid, _ = self.axis_curve(axis)
        return float(grid[0]), float(grid[-1])


def component_ranges(table: ResponseTable):
    """(low, high) arrays of the strain range of each 6-vector component,
    each taken from the table axis that component maps to."""
    low, high = zip(*(table.strain_range(axis)
                      for _, axis in _COMPONENT_AXIS))
    return np.array(low), np.array(high)


def load_response_table(path) -> ResponseTable:
    """Read a CSV table ``axis,strain,shift_mev``; rows in any order."""
    header, rows = read_csv(path)
    if header != ["axis", "strain", "shift_mev"]:
        raise ValidationError(f"response table {path} must start with header "
                              "'axis,strain,shift_mev'")
    rows = [(axis, number(f"strain cell of response table {path}", strain),
             number(f"shift_mev cell of response table {path}", shift))
            for axis, strain, shift in rows]
    curves = {}
    for axis in sorted({r[0] for r in rows}):
        if axis not in REQUIRED_AXES + OPTIONAL_AXES:
            raise ValidationError(f"unknown axis {axis!r} in response table")
        pts = sorted(r[1:] for r in rows if r[0] == axis)
        grid, shifts = np.array(pts).T.copy()
        increasing_grid(grid, f"axis {axis!r}: strain grid", ValidationError,
                        min_points=3)
        at_zero = np.flatnonzero(grid == 0.0)
        if len(at_zero) != 1 or shifts[at_zero[0]] != 0.0:
            raise ValidationError(
                f"axis {axis!r}: curve must pass through (0, 0)")
        if not np.all(np.isfinite([grid, shifts])):
            raise ValidationError(
                f"axis {axis!r}: strains and shifts must be finite")
        curves[axis] = (grid, shifts)

    missing = [a for a in REQUIRED_AXES if a not in curves]
    if missing:
        raise ValidationError(f"response table missing axes {missing}")
    for axis, src in _SYMMETRY_SOURCE.items():
        if axis in curves:
            g0, s0 = curves[src]
            g1, s1 = curves[axis]
            if not (np.array_equal(g0, g1) and np.allclose(s0, s1, atol=1e-12)):
                raise ValidationError(
                    f"axis {axis!r} must match {src!r} by mirror symmetry; "
                    "drop it from the file or make it identical")
    return ResponseTable(curves=curves, source=str(path))


def default_table() -> ResponseTable:
    """The placeholder table shipped with the package.

    Its curves are synthetic: piecewise-linear with a kink at zero, scaled
    so that the qualitative response survey holds (x strains dominate and
    redshift, z strains stay smaller and lean blue, shears redshift).
    Replace it with a calibrated file for quantitative work.
    """
    ref = resources.files("defect_spectra").joinpath("data", DEFAULT_TABLE_RESOURCE)
    with resources.as_file(ref) as path:
        table = load_response_table(path)
    return ResponseTable(curves=table.curves, source="builtin-placeholder")


def shift_for_strain(table: ResponseTable, strain) -> np.ndarray:
    """Interpolated additive ZPL shift in meV for strain 6-vectors.

    Any component outside its axis grid raises RangeError naming the axis;
    there is no extrapolation.
    """
    arr = validate_strain(strain)
    flat = np.atleast_2d(arr)
    total = np.zeros(flat.shape[0])
    for idx, (component, axis) in enumerate(_COMPONENT_AXIS):
        grid, shifts = table.axis_curve(axis)
        vals = flat[:, idx]
        if np.any(vals < grid[0]) or np.any(vals > grid[-1]):
            worst = float(vals[np.argmax(np.maximum(grid[0] - vals,
                                                    vals - grid[-1]))])
            raise RangeError(
                f"{component} = {worst:.5g} outside table range "
                f"[{grid[0]:.5g}, {grid[-1]:.5g}] for axis {axis!r}")
        total += np.interp(vals, grid, shifts)
    if arr.ndim == 1:
        return float(total[0])
    return total


def isotropic_consistency(table: ResponseTable) -> dict:
    """Compare the optional iso curve against the additive composition.

    Returns the shared strain grid, both evaluations and the maximum
    absolute discrepancy in meV. Raises ValidationError when the table
    ships no iso curve.
    """
    if "iso" not in table.curves:
        raise ValidationError("response table has no iso curve to check")
    grid, iso = table.curves["iso"]
    strain = np.zeros((len(grid), 6))
    strain[:, 0] = grid
    strain[:, 1] = grid
    strain[:, 2] = grid
    composed = shift_for_strain(table, strain)
    return {
        "strain": grid.copy(),
        "iso_mev": iso.copy(),
        "composed_mev": np.asarray(composed),
        "max_discrepancy_mev": float(np.max(np.abs(composed - iso))),
    }
