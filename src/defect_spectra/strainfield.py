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
    ValidationError,
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

    def amplitude_nm3(self, volume):
        """A = dV / (4 pi) in nm^3 of relaxation volumes in atomic volumes."""
        return volume * (self.atomic_volume_nm3 / (4.0 * np.pi))


def relaxation_volume(kind: str) -> float:
    """Relaxation volume of ``kind`` in atomic volumes."""
    if kind not in DEFAULT_RELAXATION_VOLUMES:
        raise ValidationError(
            f"unknown defect kind {kind!r}; expected one of "
            f"{sorted(DEFAULT_RELAXATION_VOLUMES)}")
    return DEFAULT_RELAXATION_VOLUMES[kind]


@dataclass(frozen=True)
class PointDefect:
    """A dilatation center at ``position_nm`` relative to the emitter."""

    kind: str
    position_nm: tuple

    def __post_init__(self):
        relaxation_volume(self.kind)  # refuses an unknown kind


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
    d = np.moveaxis(np.asarray(displacements, dtype=float), -1, 0)
    return np.stack(list(dipole_strain_columns(amplitudes, d)), axis=-1)


def dipole_strain_columns(amplitudes, displacements):
    """The components of ``dipole_strain`` of component-major
    ``displacements`` (3, ...), yielded one at a time in 6-vector order, so
    that a caller reducing them never holds all six."""
    d = np.asarray(displacements, dtype=float)
    r = np.linalg.norm(d, axis=0)
    n = d / r
    a = np.asarray(amplitudes, dtype=float) / r ** 3
    for delta, i, j in zip(_DELTA, _I, _J):
        yield a * (delta - 3.0 * n[i] * n[j])


def dilatation_strain(defect: PointDefect, points_nm,
                      params: ElasticParams = ElasticParams()) -> np.ndarray:
    """Strain 6-vectors (e_xx, e_yy, e_zz, e_xy, e_xz, e_yz) at points.

    Raises ValidationError when any point falls within the core cutoff of
    the defect, where the continuum form is meaningless.
    """
    pts = np.atleast_2d(np.asarray(points_nm, dtype=float))
    if pts.shape[-1] != 3:
        raise ValidationError("points must have 3 Cartesian components")
    rvec = pts - np.asarray(defect.position_nm, dtype=float)
    if np.any(np.linalg.norm(rvec, axis=-1) < params.core_cutoff_nm):
        raise ValidationError(
            f"field point within core cutoff ({params.core_cutoff_nm} nm) of "
            f"{defect.kind} at {tuple(defect.position_nm)}")

    out = dipole_strain(params.amplitude_nm3(relaxation_volume(defect.kind)),
                        rvec)
    if np.asarray(points_nm).ndim == 1:
        return out[0]
    return out


def superpose(defects, points_nm,
              params: ElasticParams = ElasticParams()) -> np.ndarray:
    """Total strain from several defects; linear superposition.

    A refused defect, such as one whose core holds a field point, is
    named by its index in the message, e.g. ``(defect 1)``.
    """
    pts = np.asarray(points_nm, dtype=float)
    total = np.zeros((np.atleast_2d(pts).shape[0], 6))
    for i, defect in enumerate(defects):
        try:
            strain = dilatation_strain(defect, pts, params)
        except ValidationError as exc:
            raise ValidationError(f"{exc} (defect {i})") from None
        total = total + np.atleast_2d(strain)
    if pts.ndim == 1:
        return total[0]
    return total
