"""Strain-to-ZPL-shift response table and its interpolation.

The table carries one shift curve per strain axis (normal x, z and shear
xy, xz) on a common strain grid; y and yz follow x and xz by the defect's
mirror symmetry unless a file spells them out. Shifts compose additively,

    shift = f_x(e_xx) + f_x(e_yy) + f_z(e_zz)
          + f_xy(e_xy) + f_xz(e_xz) + f_xz(e_yz)

in meV with positive = blueshift. Interpolation is linear between grid
nodes and never extrapolates; every node lies within the strain cap, so
a sampler rejects an over-cap strain as out of table range. An optional
isotropic (iso) curve is loaded and validated like any axis but never
evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import (
    STRAIN_CAP,
    STRAIN_COMPONENTS,
    ValidationError,
    increasing_grid,
    number,
)
from .output import read_csv

REQUIRED_AXES = ("x", "z", "xy", "xz")
OPTIONAL_AXES = ("y", "yz", "iso")
# tensor component index -> table axis
_COMPONENT_AXIS = tuple(zip(STRAIN_COMPONENTS,
                            ("x", "y", "z", "xy", "xz", "yz")))
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


def component_ranges(table: ResponseTable):
    """(low, high) arrays of the strain range of each 6-vector component,
    each taken from the table axis that component maps to."""
    grids = [table.axis_curve(axis)[0] for _, axis in _COMPONENT_AXIS]
    return (np.array([grid[0] for grid in grids]),
            np.array([grid[-1] for grid in grids]))


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
        where = f"response table {path}, axis {axis!r}"
        if axis not in REQUIRED_AXES + OPTIONAL_AXES:
            raise ValidationError(f"{where}: unknown axis")
        pts = sorted(r[1:] for r in rows if r[0] == axis)
        grid, shifts = np.array(pts).T.copy()
        increasing_grid(grid, f"{where}: strain grid", min_points=3)
        at_zero = np.flatnonzero(grid == 0.0)
        if len(at_zero) != 1 or shifts[at_zero[0]] != 0.0:
            raise ValidationError(f"{where}: curve must pass through (0, 0)")
        if not np.all(np.isfinite([grid, shifts])):
            raise ValidationError(
                f"{where}: strains and shifts must be finite")
        if max(-grid[0], grid[-1]) > STRAIN_CAP:
            raise ValidationError(
                f"{where}: strain nodes span {grid[0]:g} to {grid[-1]:g}, "
                f"beyond the physical cap of +-{STRAIN_CAP}")
        curves[axis] = (grid, shifts)

    missing = [a for a in REQUIRED_AXES if a not in curves]
    if missing:
        raise ValidationError(f"response table {path} missing axes {missing}")
    for axis, src in _SYMMETRY_SOURCE.items():
        if axis in curves:
            g0, s0 = curves[src]
            g1, s1 = curves[axis]
            if not (np.array_equal(g0, g1)
                    and np.allclose(s0, s1, rtol=0.0, atol=1e-12)):
                raise ValidationError(
                    f"response table {path}, axis {axis!r} must match "
                    f"{src!r} by mirror symmetry; drop it from the file or "
                    "make it identical")
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
    """Interpolated additive ZPL shift in meV for a strain 6-vector or an
    (n, 6) array of them.

    Any component outside its axis grid, NaN and +-inf included, raises
    ValidationError naming the component and the axis; there is no
    extrapolation. Every node lies within the strain cap, so an in-range
    strain is within it too.
    """
    arr = np.asarray(strain, dtype=float)
    if arr.ndim not in (1, 2) or arr.shape[-1] != 6:
        raise ValidationError(
            f"strain vector needs 6 components, got shape {arr.shape}")
    flat = np.atleast_2d(arr)
    total = np.zeros(flat.shape[0])
    for idx, (component, axis) in enumerate(_COMPONENT_AXIS):
        grid, shifts = table.axis_curve(axis)
        lo, hi = grid[0], grid[-1]
        vals = flat[:, idx]
        # NaN fails both comparisons, so it is out of range like +-inf
        if not np.all((vals >= lo) & (vals <= hi)):
            worst = float(vals[np.argmax(np.maximum(lo - vals, vals - hi))])
            raise ValidationError(
                f"{component} = {worst:.5g} outside table range "
                f"[{lo:.5g}, {hi:.5g}] for axis {axis!r}")
        total += np.interp(vals, grid, shifts)
    if arr.ndim == 1:
        return float(total[0])
    return total
