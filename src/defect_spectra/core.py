"""Shared constants, unit conversions, and RNG plumbing.

Internal unit conventions used across the package:

* energy shifts      meV   (positive = blueshift)
* wavelengths        nm
* times              ns  (irradiation schedules use seconds and say so)
* densities          cm^-3 for volume, cm^-2 for areal quantities
* strain             dimensionless
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ---------------------------------------------------------------------------
# physical constants
# ---------------------------------------------------------------------------

HC_EV_NM = 1239.842            # h*c in eV nm
SI_LATTICE_CONSTANT_NM = 0.5431  # conventional cubic cell edge of silicon
SI_ATOMIC_VOLUME_NM3 = 0.0200    # volume per Si atom (Omega_0)
KB_EV_K = 8.617333e-5          # Boltzmann constant in eV/K

# default emitter values for the 1278 nm carbon-pair center
ZPL_WAVELENGTH_NM = 1278.3
HOMOGENEOUS_FWHM_NM = 0.073
RADIATIVE_LIFETIME_NS = 45.0

STRAIN_COMPONENTS = ("e_xx", "e_yy", "e_zz", "e_xy", "e_xz", "e_yz")
STRAIN_CAP = 0.05  # hard physical cap on any single strain component


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------

class DefectSpectraError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(DefectSpectraError, ValueError):
    """An argument is structurally invalid (wrong sign, wrong shape, ...)."""


class ValidationError(DefectSpectraError, ValueError):
    """Input data violates a documented contract (bad table, bad config key)."""


class RangeError(DefectSpectraError, ValueError):
    """A value falls outside the supported range and no extrapolation is done."""


class ResolutionError(DefectSpectraError, ValueError):
    """A grid is too coarse for the structure it must resolve."""


class CoreRegionError(DefectSpectraError, ValueError):
    """A field was evaluated inside the excluded defect core region."""

    def __init__(self, message: str, defect_index: int | None = None):
        super().__init__(message)
        self.defect_index = defect_index


class EmptyEnsembleError(DefectSpectraError, ValueError):
    """An operation that needs samples received none."""


class FitError(DefectSpectraError, RuntimeError):
    """A fit could not be initialized or did not converge."""


class NoDecayError(FitError):
    """Trace shows no decaying section to fit."""


class NoRiseError(DefectSpectraError, ValueError):
    """Trace has no interior maximum, so a rise time is undefined."""


class UnboundedLineError(DefectSpectraError, ValueError):
    """A spectrum never crosses half maximum on both sides of its peak."""


class IntegrationError(DefectSpectraError, RuntimeError):
    """A rate-equation integration failed or produced nonphysical state."""


# ---------------------------------------------------------------------------
# outside input: numbers, params fields and grids
# ---------------------------------------------------------------------------

def number(field, text, cast=float):
    """Outside text as a number; text that does not parse or parses to NaN
    raises ValidationError naming ``field``. +-inf parse."""
    try:
        value = cast(text)
        if value != value:
            raise ValueError
        return value
    except ValueError:
        raise ValidationError(f"{field} has invalid value {text!r}") from None


def check_fields(obj, positive=(), nonnegative=(), error=InvalidArgumentError):
    """Require each named field of ``obj`` that is not None to be finite
    and > 0 (``positive``) or >= 0 (``nonnegative``); NaN fails both."""
    for names, rule, low in ((positive, "positive", np.greater),
                             (nonnegative, "nonnegative", np.greater_equal)):
        for name in names:
            value = getattr(obj, name)
            if value is not None and not (np.isfinite(value) and low(value, 0)):
                raise error(f"{name} must be {rule} and finite, got {value}")


def increasing_grid(x, what, error=InvalidArgumentError, min_points=2, y=None):
    """``x`` as a float array, once it is a strictly increasing 1-D grid of
    ``min_points`` or more (NaN fails) that ``y``, if given, matches."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or len(x) < min_points or not np.all(np.diff(x) > 0):
        raise error(f"{what} must be strictly increasing 1-D with at least "
                    f"{min_points} points")
    if y is not None and np.shape(y) != x.shape:
        raise error(f"{what} and its values must be matching 1-D arrays")
    return x


# ---------------------------------------------------------------------------
# emitter description
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EmitterParams:
    """Reference emitter: unstrained line position, homogeneous width, tau_r."""

    zpl_wavelength_nm: float = ZPL_WAVELENGTH_NM
    homogeneous_fwhm_nm: float = HOMOGENEOUS_FWHM_NM
    radiative_lifetime_ns: float = RADIATIVE_LIFETIME_NS

    def __post_init__(self):
        check_fields(self, positive=("zpl_wavelength_nm", "homogeneous_fwhm_nm",
                                     "radiative_lifetime_ns"))

    @property
    def zpl_energy_ev(self) -> float:
        return HC_EV_NM / self.zpl_wavelength_nm


# ---------------------------------------------------------------------------
# unit conversion
# ---------------------------------------------------------------------------

def delta_lambda_from_delta_e(delta_e_mev, lambda0_nm=ZPL_WAVELENGTH_NM):
    """Convert an energy shift in meV to a wavelength shift in nm.

    First-order expansion about ``lambda0_nm``; a positive energy shift
    (blueshift) gives a negative wavelength shift. Accepts scalars or
    arrays.
    """
    if lambda0_nm <= 0:
        raise InvalidArgumentError("lambda0_nm must be positive")
    delta_e_mev = np.asarray(delta_e_mev, dtype=float)
    out = -(lambda0_nm ** 2) * delta_e_mev * 1e-3 / HC_EV_NM
    return float(out) if out.ndim == 0 else out


def delta_e_from_delta_lambda(delta_lambda_nm, lambda0_nm=ZPL_WAVELENGTH_NM):
    """Inverse of :func:`delta_lambda_from_delta_e` (same linearization)."""
    if lambda0_nm <= 0:
        raise InvalidArgumentError("lambda0_nm must be positive")
    delta_lambda_nm = np.asarray(delta_lambda_nm, dtype=float)
    out = -delta_lambda_nm * HC_EV_NM * 1e3 / lambda0_nm ** 2
    return float(out) if out.ndim == 0 else out


def validate_strain(strain) -> np.ndarray:
    """Check a strain vector (or array of them, last axis 6) and return it.

    Components are ordered ``e_xx, e_yy, e_zz, e_xy, e_xz, e_yz``.
    """
    arr = np.asarray(strain, dtype=float)
    if arr.shape[-1] != 6:
        raise InvalidArgumentError(
            f"strain vector needs 6 components, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise InvalidArgumentError("strain components must be finite")
    if np.any(np.abs(arr) > STRAIN_CAP):
        worst = float(np.max(np.abs(arr)))
        raise RangeError(
            f"strain component magnitude {worst:.4g} exceeds the physical cap "
            f"{STRAIN_CAP}")
    return arr


# ---------------------------------------------------------------------------
# deterministic RNG streams
# ---------------------------------------------------------------------------

def make_stream(seed: int, *key: int) -> np.random.Generator:
    """Return a counter-based generator for stream ``key`` under ``seed``.

    The same (seed, key) always yields the same sequence, no matter how many
    other streams were drawn from before it. Samplers derive one stream per
    fixed-size work chunk, so results do not depend on thread scheduling.
    """
    if seed < 0:
        raise InvalidArgumentError("seed must be a non-negative integer")
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))
