"""Monte Carlo strain ensembles and inhomogeneous spectrum synthesis.

Sampling is organized in fixed-size chunks of 4096 samples; chunk ``j`` of
a run draws from its own counter-based stream ``(seed, mode_id, j)``, so
the assembled ensemble is bit-identical no matter how many worker threads
(env var ``DEFECT_SPECTRA_THREADS``) processed the chunks or in which
order they finished.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import (
    EmitterParams,
    EmptyEnsembleError,
    InvalidArgumentError,
    RangeError,
    ResolutionError,
    check_fields,
    delta_lambda_from_delta_e,
    increasing_grid,
    make_stream,
)
from .strainfield import (
    DEFAULT_RELAXATION_VOLUMES,
    ElasticParams,
    dipole_strain,
)
from .zplmap import ResponseTable, component_ranges, shift_for_strain

CHUNK = 4096
# Samples per block of the Lorentzian sum in synthesize_spectrum: one
# block-by-grid buffer stays in cache. Each grid point's summation order
# depends on it, so it is fixed here and never derived from the grid, a
# thread count or a user setting.
SYNTH_BLOCK = 256
_MODE_IDS = {"uniform": 1, "biased-z": 2, "defect-field": 3}


def _thread_count() -> int:
    raw = os.environ.get("DEFECT_SPECTRA_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise InvalidArgumentError(
            f"DEFECT_SPECTRA_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def _run_chunks(n_chunks, worker):
    """Evaluate ``worker(j)`` for every chunk index, possibly threaded, and
    return results ordered by chunk index."""
    threads = _thread_count()
    if threads == 1 or n_chunks == 1:
        return [worker(j) for j in range(n_chunks)]
    out = [None] * n_chunks
    with ThreadPoolExecutor(max_workers=threads) as pool:
        for j, res in zip(range(n_chunks), pool.map(worker, range(n_chunks))):
            out[j] = res
    return out


# ---------------------------------------------------------------------------
# sampler specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformSpec:
    """Independent uniform normal strains, shears held at zero."""

    strain_low: float = -0.01
    strain_high: float = 0.01

    def __post_init__(self):
        if not self.strain_low < self.strain_high:
            raise InvalidArgumentError("strain_low must be below strain_high")


@dataclass(frozen=True)
class BiasedZSpec:
    """Uniform strains with rejection against large in-plane components.

    A raw draw whose max(|e_xx|, |e_yy|) exceeds ``xy_threshold`` survives
    only with probability ``keep_fraction``.
    """

    strain_low: float = -0.01
    strain_high: float = 0.01
    xy_threshold: float = 0.001
    keep_fraction: float = 0.1

    def __post_init__(self):
        if not self.strain_low < self.strain_high:
            raise InvalidArgumentError("strain_low must be below strain_high")
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise InvalidArgumentError("keep_fraction must be within [0, 1]")
        check_fields(self, nonnegative=("xy_threshold",))


@dataclass(frozen=True)
class SingleDefectSpec:
    """One defect of fixed kind at fixed separation, direction uniform."""

    kind: str = "vacancy"
    separation_nm: float = 0.9
    relaxation_volume_omega0: float | None = None

    def __post_init__(self):
        if self.kind not in DEFAULT_RELAXATION_VOLUMES:
            raise InvalidArgumentError(f"unknown defect kind {self.kind!r}")
        check_fields(self, positive=("separation_nm",))


@dataclass(frozen=True)
class DefectDensitySpec:
    """Poisson defect counts in a spherical shell around the emitter."""

    vacancy_density_cm3: float = 0.0
    interstitial_density_cm3: float = 0.0
    r_min_nm: float = 0.9
    r_max_nm: float = 1.4
    vacancy_volume_omega0: float | None = None
    interstitial_volume_omega0: float | None = None

    def __post_init__(self):
        check_fields(self, positive=("r_max_nm",), nonnegative=(
            "vacancy_density_cm3", "interstitial_density_cm3"))
        if not 0 < self.r_min_nm < self.r_max_nm:
            raise InvalidArgumentError("need 0 < r_min_nm < r_max_nm")


@dataclass
class EnsembleProvenance:
    mode: str
    seed: int
    n_requested: int
    n_retained: int
    n_raw_draws: int = 0
    n_range_rejections: int = 0
    spec: object = None


@dataclass
class ShiftEnsemble:
    """Sampled strain vectors with their ZPL shifts and bookkeeping."""

    shifts_mev: np.ndarray                  # (n,)
    strains: np.ndarray                     # (n, 6)
    provenance: EnsembleProvenance
    dominant_kind: list = field(default_factory=list)      # per sample
    dominant_separation_nm: np.ndarray | None = None

    def __len__(self):
        return len(self.shifts_mev)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _check_table_covers(table: ResponseTable, low: float, high: float):
    for axis in ("x", "z"):
        lo, hi = table.strain_range(axis)
        if low < lo or high > hi:
            raise RangeError(
                f"sampler strain range [{low}, {high}] exceeds table range "
                f"[{lo}, {hi}] on axis {axis!r}")


def sample_uniform(spec: UniformSpec, n_samples: int, seed: int,
                   table: ResponseTable) -> ShiftEnsemble:
    """Uniform normal-strain ensemble of exactly ``n_samples``."""
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
    _check_table_covers(table, spec.strain_low, spec.strain_high)
    mode_id = _MODE_IDS["uniform"]
    n_chunks = -(-n_samples // CHUNK)

    def worker(j):
        gen = make_stream(seed, mode_id, j)
        block = np.zeros((CHUNK, 6))
        block[:, :3] = gen.uniform(spec.strain_low, spec.strain_high,
                                   size=(CHUNK, 3))
        return block

    strains = np.vstack(_run_chunks(n_chunks, worker))[:n_samples]
    shifts = np.asarray(shift_for_strain(table, strains))
    prov = EnsembleProvenance(mode="uniform", seed=seed,
                              n_requested=n_samples, n_retained=n_samples,
                              n_raw_draws=n_samples, spec=spec)
    return ShiftEnsemble(shifts_mev=shifts, strains=strains, provenance=prov)


def _biased_chunk(spec: BiasedZSpec, seed: int, j: int):
    gen = make_stream(seed, _MODE_IDS["biased-z"], j)
    block = np.zeros((CHUNK, 6))
    block[:, :3] = gen.uniform(spec.strain_low, spec.strain_high,
                               size=(CHUNK, 3))
    coins = gen.random(CHUNK)
    small_xy = np.max(np.abs(block[:, :2]), axis=1) <= spec.xy_threshold
    keep = small_xy | (coins < spec.keep_fraction)
    return block, keep


def biased_z_retention(spec: BiasedZSpec, n_raw: int, seed: int) -> float:
    """Fraction of ``n_raw`` raw draws the rejection rule retains."""
    if n_raw < 1:
        raise InvalidArgumentError("n_raw must be >= 1")
    n_chunks = -(-n_raw // CHUNK)
    kept = _run_chunks(n_chunks,
                       lambda j: int(_biased_chunk(spec, seed, j)[1][
                           :min(CHUNK, n_raw - j * CHUNK)].sum()))
    return sum(kept) / n_raw


def sample_biased_z(spec: BiasedZSpec, n_samples: int, seed: int,
                    table: ResponseTable) -> ShiftEnsemble:
    """Rejection-sampled ensemble biased against in-plane strain.

    Chunks are consumed in index order until ``n_samples`` survivors have
    accumulated, so the result does not depend on thread scheduling.
    """
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
    if spec.keep_fraction == 0.0 and spec.xy_threshold == 0.0:
        raise InvalidArgumentError("rejection rule retains nothing")
    _check_table_covers(table, spec.strain_low, spec.strain_high)

    expected = max(spec.keep_fraction, 1e-3)
    kept_blocks = []
    n_kept = 0
    n_raw = 0
    next_chunk = 0
    while n_kept < n_samples:
        deficit = n_samples - n_kept
        n_more = max(1, -(-int(deficit / expected * 1.2) // CHUNK))
        blocks = _run_chunks(n_more, lambda j, base=next_chunk:
                             _biased_chunk(spec, seed, base + j))
        for block, keep in blocks:
            kept_blocks.append(block[keep])
            n_kept += int(keep.sum())
            n_raw += CHUNK
        next_chunk += n_more

    strains = np.vstack(kept_blocks)[:n_samples]
    shifts = np.asarray(shift_for_strain(table, strains))
    prov = EnsembleProvenance(mode="biased-z", seed=seed,
                              n_requested=n_samples, n_retained=n_samples,
                              n_raw_draws=n_raw, spec=spec)
    return ShiftEnsemble(shifts_mev=shifts, strains=strains, provenance=prov)


def _directions(gen, k):
    vec = gen.normal(size=(k, 3))
    return vec / np.linalg.norm(vec, axis=1, keepdims=True)


def _volume(override, kind):
    return DEFAULT_RELAXATION_VOLUMES[kind] if override is None else override


def _single_defect_draws(spec: SingleDefectSpec, gen, size):
    """One defect per sample at the fixed separation."""
    return (np.arange(size), np.full(size, spec.kind == "vacancy"),
            np.full(size, _volume(spec.relaxation_volume_omega0, spec.kind)),
            _directions(gen, size) * spec.separation_nm)


def _density_draws(spec: DefectDensitySpec, gen, size):
    """Poisson vacancy and interstitial counts per sample, then the radii
    and directions of all of them, uniform in the shell volume."""
    shell_cm3 = (4.0 / 3.0) * np.pi * (spec.r_max_nm ** 3
                                       - spec.r_min_nm ** 3) * 1e-21
    counts_v = gen.poisson(spec.vacancy_density_cm3 * shell_cm3, size)
    counts_i = gen.poisson(spec.interstitial_density_cm3 * shell_cm3, size)
    samples = np.arange(size)
    owner = np.concatenate([np.repeat(samples, counts_v),
                            np.repeat(samples, counts_i)])
    is_vacancy = np.arange(len(owner)) < counts_v.sum()
    volume = np.where(is_vacancy,
                      _volume(spec.vacancy_volume_omega0, "vacancy"),
                      _volume(spec.interstitial_volume_omega0, "interstitial"))
    u = gen.random(len(owner))
    radii = (u * (spec.r_max_nm ** 3 - spec.r_min_nm ** 3)
             + spec.r_min_nm ** 3) ** (1.0 / 3.0)
    return owner, is_vacancy, volume, _directions(gen, len(owner)) * radii[:, None]


def _defect_field_chunk(size, owner, is_vacancy, amplitude, positions):
    """Strain at each of ``size`` emitters from the defects around them,
    with the kind and separation of the defect of largest |A|/r^3 (the
    first on ties; "none" and NaN for an emitter without defects).

    Defect ``k`` of amplitude ``amplitude[k]`` sits at ``positions[k]``
    relative to emitter ``owner[k]``.
    """
    per_defect = dipole_strain(amplitude, positions)
    strains = np.stack([np.bincount(owner, per_defect[:, c], minlength=size)
                        for c in range(6)], axis=1)
    r = np.linalg.norm(positions, axis=1)
    # stable sort by owner, strongest first, so ties keep draw order
    order = np.lexsort((-np.abs(amplitude) / r ** 3, owner))
    dominant = order[np.diff(owner[order], prepend=-1) != 0]
    kinds = np.full(size, "none", dtype=object)
    kinds[owner[dominant]] = np.where(is_vacancy[dominant], "vacancy",
                                      "interstitial")
    separations = np.full(size, np.nan)
    separations[owner[dominant]] = r[dominant]
    return strains, kinds, separations


def sample_defect_field(spec, n_samples: int, seed: int,
                        table: ResponseTable,
                        elastic: ElasticParams = ElasticParams()) -> ShiftEnsemble:
    """Ensemble of emitters embedded in random point-defect environments.

    ``spec`` is a SingleDefectSpec or a DefectDensitySpec. No defect is
    placed inside the core cutoff: a separation or inner shell radius below
    it is refused up front. Samples with a strain component outside its
    response-table axis range are discarded and counted in the provenance,
    not resampled, so the returned ensemble can be shorter than requested.
    """
    if n_samples < 1:
        raise InvalidArgumentError("n_samples must be >= 1")
    if isinstance(spec, SingleDefectSpec):
        draws, inner_nm = _single_defect_draws, spec.separation_nm
    elif isinstance(spec, DefectDensitySpec):
        draws, inner_nm = _density_draws, spec.r_min_nm
    else:
        raise InvalidArgumentError(
            "spec must be SingleDefectSpec or DefectDensitySpec")
    if inner_nm < elastic.core_cutoff_nm:
        raise InvalidArgumentError(
            f"defects at {inner_nm} nm would sit inside the core cutoff "
            f"{elastic.core_cutoff_nm} nm")
    amplitude_per_omega0 = elastic.atomic_volume_nm3 / (4.0 * np.pi)

    def worker(j):
        gen = make_stream(seed, _MODE_IDS["defect-field"], j)
        size = min(CHUNK, n_samples - j * CHUNK)
        owner, is_vacancy, volume, positions = draws(spec, gen, size)
        return _defect_field_chunk(size, owner, is_vacancy,
                                   volume * amplitude_per_omega0, positions)

    parts = _run_chunks(-(-n_samples // CHUNK), worker)
    strains, kinds, separations = (np.concatenate(p) for p in zip(*parts))
    low, high = component_ranges(table)
    in_range = np.all((strains >= low) & (strains <= high), axis=1)
    strains = strains[in_range]
    shifts = np.asarray(shift_for_strain(table, strains)) if len(strains) \
        else np.zeros(0)
    prov = EnsembleProvenance(
        mode="defect-field", seed=seed, n_requested=n_samples,
        n_retained=len(strains), n_raw_draws=n_samples,
        n_range_rejections=int((~in_range).sum()), spec=spec)
    return ShiftEnsemble(shifts_mev=shifts, strains=strains, provenance=prov,
                         dominant_kind=list(kinds[in_range]),
                         dominant_separation_nm=separations[in_range])


# ---------------------------------------------------------------------------
# spectrum synthesis and histograms
# ---------------------------------------------------------------------------

def default_wavelength_grid(shifts_mev, emitter: EmitterParams,
                            points_per_fwhm: int = 8) -> np.ndarray:
    """Grid covering every shifted line plus ten homogeneous widths."""
    shifts_mev = np.asarray(shifts_mev, dtype=float)
    if shifts_mev.size == 0:
        raise EmptyEnsembleError("cannot build a grid for an empty ensemble")
    dl = delta_lambda_from_delta_e(shifts_mev, emitter.zpl_wavelength_nm)
    margin = float(np.max(np.abs(dl))) + 10.0 * emitter.homogeneous_fwhm_nm
    step = emitter.homogeneous_fwhm_nm / points_per_fwhm
    half = int(np.ceil(margin / step))
    return emitter.zpl_wavelength_nm + step * np.arange(-half, half + 1)


def synthesize_spectrum(shifts_mev, emitter: EmitterParams,
                        wavelength_grid=None, weights=None):
    """Peak-normalized sum of unit-area Lorentzians, one per sample.

    Returns (wavelength_nm, intensity). The grid must cover the reference
    line plus the largest shift plus ten homogeneous widths on both sides,
    with steps no coarser than a fifth of the homogeneous FWHM.
    """
    shifts_mev = np.atleast_1d(np.asarray(shifts_mev, dtype=float))
    if shifts_mev.size == 0:
        raise EmptyEnsembleError("no samples to synthesize a spectrum from")
    if weights is not None:
        weights = np.atleast_1d(np.asarray(weights, dtype=float))
        if weights.shape != shifts_mev.shape:
            raise InvalidArgumentError("weights must match shifts in shape")

    if wavelength_grid is None:
        wavelength_grid = default_wavelength_grid(shifts_mev, emitter)
    grid = increasing_grid(wavelength_grid, "wavelength grid")

    fwhm = emitter.homogeneous_fwhm_nm
    step = float(np.max(np.diff(grid)))
    if step > fwhm / 5.0:
        raise ResolutionError(
            f"grid step {step:.4g} nm exceeds fwhm/5 = {fwhm / 5.0:.4g} nm")
    dl = delta_lambda_from_delta_e(shifts_mev, emitter.zpl_wavelength_nm)
    margin = float(np.max(np.abs(dl))) + 10.0 * fwhm
    lam0 = emitter.zpl_wavelength_nm
    if grid[0] > lam0 - margin or grid[-1] < lam0 + margin:
        raise ResolutionError(
            "grid does not cover the reference line plus max shift plus ten "
            "homogeneous widths")

    # The area factor fwhm/(2*pi) is constant, and the peak normalization
    # below cancels it, so each term is 1/((x - c)^2 + (fwhm/2)^2).
    centers = lam0 + dl
    half_sq = (fwhm / 2.0) ** 2
    intensity = np.zeros_like(grid)
    buf = np.empty((min(SYNTH_BLOCK, len(centers)), len(grid)))
    for start in range(0, len(centers), SYNTH_BLOCK):
        c = centers[start:start + SYNTH_BLOCK, None]
        b = buf[:len(c)]
        np.subtract(grid, c, out=b)
        np.square(b, out=b)
        b += half_sq
        np.reciprocal(b, out=b)
        if weights is None:
            intensity += b.sum(axis=0)
        else:
            intensity += weights[start:start + SYNTH_BLOCK] @ b
    peak = float(intensity.max())
    if peak > 0:
        intensity = intensity / peak
    return grid, intensity


def histogram_shifts(shifts_mev, bin_width_mev: float):
    """Counts over bins aligned to integer multiples of the bin width.

    Returns (edges, counts); counts sum to the sample count.
    """
    shifts_mev = np.atleast_1d(np.asarray(shifts_mev, dtype=float))
    if shifts_mev.size == 0:
        raise EmptyEnsembleError("no samples to histogram")
    if not 0 < bin_width_mev < np.inf:
        raise InvalidArgumentError("bin_width_mev must be positive and finite")
    lo = np.floor(shifts_mev.min() / bin_width_mev) * bin_width_mev
    hi = np.ceil(shifts_mev.max() / bin_width_mev) * bin_width_mev
    if hi <= lo:
        hi = lo + bin_width_mev
    n_bins = int(round((hi - lo) / bin_width_mev))
    edges = lo + bin_width_mev * np.arange(n_bins + 1)
    counts, _ = np.histogram(shifts_mev, bins=edges)
    return edges, counts
