"""Continuum strain fields of point defects near an emitter at the origin.

Each defect is a center of dilatation. At displacement r from the defect
the strain tensor is

    eps_ij = (A / r^3) (delta_ij - 3 rhat_i rhat_j),   A = dV / (4 pi)

with dV the relaxation volume. The field is traceless: a vacancy
(negative dV) is radially tensile and tangentially compressive, an
interstitial (positive dV) the reverse. Anisotropy of the real defects
is deliberately not modeled; the relaxation volume is the single knob.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    SI_ATOMIC_VOLUME_NM3,
    CoreRegionError,
    InvalidArgumentError,
    check_fields,
)

# relaxation volumes in units of the atomic volume, by defect kind
DEFAULT_RELAXATION_VOLUMES = {
    "vacancy": -0.25,
    "interstitial": +0.60,
}


@dataclass(frozen=True)
class ElasticParams:
    atomic_volume_nm3: float = SI_ATOMIC_VOLUME_NM3
    core_cutoff_nm: float = 0.25

    def __post_init__(self):
        check_fields(self, positive=("atomic_volume_nm3", "core_cutoff_nm"))


@dataclass(frozen=True)
class PointDefect:
    """A dilatation center at ``position_nm`` relative to the emitter."""

    kind: str
    position_nm: tuple
    relaxation_volume_omega0: float | None = None

    def __post_init__(self):
        if self.kind not in DEFAULT_RELAXATION_VOLUMES:
            raise InvalidArgumentError(
                f"unknown defect kind {self.kind!r}; expected one of "
                f"{sorted(DEFAULT_RELAXATION_VOLUMES)}")

    def relaxation_volume(self) -> float:
        if self.relaxation_volume_omega0 is not None:
            return self.relaxation_volume_omega0
        return DEFAULT_RELAXATION_VOLUMES[self.kind]


# Cartesian index pairs (i, j) of the strain 6-vector components
_I = np.array([0, 1, 2, 0, 0, 1])
_J = np.array([0, 1, 2, 1, 2, 2])
_DELTA = (_I == _J).astype(float)


def dipole_strain(amplitudes, displacements) -> np.ndarray:
    """Strain 6-vectors (e_xx, e_yy, e_zz, e_xy, e_xz, e_yz) of dilatation
    centers of strength ``amplitudes`` (A = dV / (4 pi), nm^3), each at
    ``displacements`` (..., 3) nm from its field point.

    The field is even in the displacement, so its sign does not matter.
    There is no core check: every displacement must be nonzero.
    """
    d = np.asarray(displacements, dtype=float)
    r = np.linalg.norm(d, axis=-1)
    n = d / r[..., None]
    a = np.asarray(amplitudes, dtype=float) / r ** 3
    return a[..., None] * (_DELTA - 3.0 * n[..., _I] * n[..., _J])


def dilatation_strain(defect: PointDefect, points_nm,
                      params: ElasticParams = ElasticParams(),
                      defect_index: int | None = None) -> np.ndarray:
    """Strain 6-vectors (e_xx, e_yy, e_zz, e_xy, e_xz, e_yz) at points.

    Raises CoreRegionError when any point falls within the core cutoff of
    the defect, where the continuum form is meaningless.
    """
    pts = np.atleast_2d(np.asarray(points_nm, dtype=float))
    if pts.shape[-1] != 3:
        raise InvalidArgumentError("points must have 3 Cartesian components")
    rvec = pts - np.asarray(defect.position_nm, dtype=float)
    if np.any(np.linalg.norm(rvec, axis=-1) < params.core_cutoff_nm):
        raise CoreRegionError(
            f"field point within core cutoff ({params.core_cutoff_nm} nm) of "
            f"{defect.kind} at {tuple(defect.position_nm)}",
            defect_index=defect_index)

    amp = defect.relaxation_volume() * params.atomic_volume_nm3 / (4.0 * np.pi)
    out = dipole_strain(amp, rvec)
    if np.asarray(points_nm).ndim == 1:
        return out[0]
    return out


def superpose(defects, points_nm,
              params: ElasticParams = ElasticParams()) -> np.ndarray:
    """Total strain from several defects; linear superposition.

    Core-region violations propagate with the index of the offending
    defect attached.
    """
    pts = np.asarray(points_nm, dtype=float)
    total = np.zeros((np.atleast_2d(pts).shape[0], 6))
    for i, defect in enumerate(defects):
        total = total + np.atleast_2d(
            dilatation_strain(defect, pts, params, defect_index=i))
    if pts.ndim == 1:
        return total[0]
    return total
