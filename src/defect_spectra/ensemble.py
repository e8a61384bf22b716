"""Monte Carlo strain ensembles and inhomogeneous spectrum synthesis.

Sampling is organized in fixed-size chunks of 4096 samples; chunk ``j`` of
a run draws from its own counter-based stream ``(seed, mode_id, j)``, and
the chunks are stitched in index order, so a longer run re-yields a shorter
one with the same seed as an exact prefix. Every mode collects its chunks
into one preallocated samples-by-6 array of zeros, dropping the samples
outside the response table's range as it goes, and evaluates the shifts of
the retained prefix ``CHUNK`` rows at a time into one preallocated array. A
chunk may carry only the leading components of its samples: the
normal-strain modes draw the three normal components, and their shears stay
zero.

A spectrum is a sum of one Lorentzian per sample over a wavelength grid,
taken by a fast multipole method over a binary tree of equal wavelength
boxes. Each sample is summed directly over the grid points of the leaves
within two of its own, and through ``FMM_TERMS`` moments and local
expansions everywhere else. The tree depends only on the grid's span and
the line width, so the output is a function of the inputs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .core import (
    STRAIN_COMPONENTS,
    EmitterParams,
    ValidationError,
    check_fields,
    delta_lambda_from_delta_e,
    increasing_grid,
    make_stream,
)
from .strainfield import (
    ElasticParams,
    dipole_strain_columns,
    relaxation_volume,
)
from .zplmap import ResponseTable, component_ranges, shift_for_strain

CHUNK = 4096
# Samples per block of the direct Lorentzian sum in synthesize_spectrum: one
# block-by-grid buffer stays in cache. Each grid point's summation order
# depends on it and on FMM_TERMS, so both are fixed here and never derived
# from a user setting.
SYNTH_BLOCK = 256
# Terms of every multipole and local expansion of the fast multipole sum. On
# the benchmark's spectra 26 terms leave 2.9e-14 relative and each further
# one cuts that about 3.6-fold, so at 36 rounding dominates (5.3e-15 at most).
FMM_TERMS = 36
# Most raw draws a biased-z run may expect to need: a rule that retains too
# few of them is refused up front instead of running for hours or forever.
MAX_RAW_DRAWS = 1e9
# Most defects one chunk of a density run may expect to draw. Each keeps its
# owner, volume and radius (24 bytes) while directions and strains are taken
# CHUNK defects at a time: a chunk of about 46k defects peaks at 41 bytes
# per defect. A shell too large for its densities is refused up front
# instead of exhausting memory. One defect per lattice site in both kinds
# on the default shell expects 3.46e6.
MAX_CHUNK_DEFECTS = 4e6
# Most bins a histogram may have; a narrower bin width is refused up front.
MAX_HISTOGRAM_BINS = 10**6
# Most points a default wavelength grid may have; more is refused up front.
# Synthesis on 10**6 points peaks at about 0.13 GB, the expansions of its
# 2**17 leaves.
MAX_GRID_POINTS = 10**6
# Most samples a sampler may be asked for, refused before any draw. A run
# holds about 73 bytes per sample at its peak: the collected strains and
# shifts (56), then the line centers and their sorted copy in synthesis, so
# 10**7 samples need about 0.73 GB.
MAX_SAMPLES = 10**7
_MODE_IDS = {"uniform": 1, "biased-z": 2, "defect-field": 3}


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
            raise ValidationError("strain_low must be below strain_high")


@dataclass(frozen=True)
class BiasedZSpec(UniformSpec):
    """Uniform strains with rejection against large in-plane components.

    A raw draw whose max(|e_xx|, |e_yy|) exceeds ``xy_threshold`` survives
    only with probability ``keep_fraction``.
    """

    xy_threshold: float = 0.001
    keep_fraction: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.keep_fraction <= 1.0:
            raise ValidationError("keep_fraction must be within [0, 1]")
        check_fields(self, nonnegative=("xy_threshold",))


@dataclass(frozen=True)
class SingleDefectSpec:
    """One defect of fixed kind at fixed separation, direction uniform."""

    defect_kind: str = "vacancy"
    separation_nm: float = 0.9

    def __post_init__(self):
        relaxation_volume(self.defect_kind)  # refuses an unknown kind
        check_fields(self, positive=("separation_nm",))
        _check_cube(self, "separation_nm")


@dataclass(frozen=True)
class DefectDensitySpec:
    """Poisson defect counts in a spherical shell around the emitter."""

    vacancy_density_cm3: float = 0.0
    interstitial_density_cm3: float = 0.0
    r_min_nm: float = 0.9
    r_max_nm: float = 1.4

    def __post_init__(self):
        check_fields(self, positive=("r_max_nm",), nonnegative=(
            "vacancy_density_cm3", "interstitial_density_cm3"))
        if not 0 < self.r_min_nm < self.r_max_nm:
            raise ValidationError("need 0 < r_min_nm < r_max_nm")
        _check_cube(self, "r_max_nm")


def _check_cube(spec, key):
    """Refuse a defect distance whose cube, which the strain kernel and the
    shell volume take, overflows a float."""
    r = getattr(spec, key)
    if not r * r * r < np.inf:
        raise ValidationError(f"{key} {r:g} is too large: its cube "
                              "overflows a float")


@dataclass
class EnsembleProvenance:
    n_retained: int
    n_raw_draws: int
    n_range_rejections: int


@dataclass
class ShiftEnsemble:
    """Sampled strain vectors with their ZPL shifts and bookkeeping."""

    shifts_mev: np.ndarray                  # (n,)
    strains: np.ndarray                     # (n, 6)
    provenance: EnsembleProvenance

    def __len__(self):
        return len(self.shifts_mev)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _check_table_covers(table: ResponseTable, low: float, high: float):
    # the normal components: the shears of these samplers are zero
    for component, lo, hi in zip(STRAIN_COMPONENTS[:3],
                                 *component_ranges(table)):
        if low < lo or high > hi:
            raise ValidationError(
                f"sampler strain range [{low}, {high}] exceeds table range "
                f"[{lo}, {hi}] of {component}")


def _check_n_samples(n_samples):
    if not 1 <= n_samples <= MAX_SAMPLES:
        raise ValidationError(
            f"n_samples must be >= 1 and <= {MAX_SAMPLES}, got {n_samples}")


def _chunks(n_samples):
    """Index and size of each chunk of an ``n_samples`` run."""
    return ((j, min(CHUNK, n_samples - j * CHUNK))
            for j in range(-(-n_samples // CHUNK)))


def _ensemble(blocks, n_samples, table) -> ShiftEnsemble:
    """Collect the first ``n_samples`` rows of ``blocks``, an iterable of
    (raw draws, strain rows) pairs, into one preallocated array.

    A block of width ``w`` < 6 holds the leading ``w`` components of its
    rows; the others are zero. Rows with a component outside its table axis
    range count as range rejections and are dropped; the retained prefix
    gets its shifts ``CHUNK`` rows at a time, so the shift evaluation's
    working columns do not grow with the run. No block is drawn after the
    first ``n_samples`` rows.
    """
    low, high = component_ranges(table)
    strains = np.zeros((n_samples, 6))
    n_raw = n_seen = n_kept = 0
    for draws, rows in blocks:
        rows = rows[:n_samples - n_seen]
        w = rows.shape[1]
        in_range = np.all((rows >= low[:w]) & (rows <= high[:w]), axis=1)
        n_in = int(np.count_nonzero(in_range))
        strains[n_kept:n_kept + n_in, :w] = rows[in_range]
        n_raw += draws
        n_seen += len(rows)
        n_kept += n_in
        if n_seen == n_samples:
            break
    strains = strains[:n_kept]
    shifts = np.empty(n_kept)
    for start in range(0, n_kept, CHUNK):
        part = slice(start, start + CHUNK)
        shifts[part] = shift_for_strain(table, strains[part])
    prov = EnsembleProvenance(n_retained=n_kept, n_raw_draws=n_raw,
                              n_range_rejections=n_seen - n_kept)
    return ShiftEnsemble(shifts_mev=shifts, strains=strains, provenance=prov)


def sample_uniform(spec: UniformSpec, n_samples: int, seed: int,
                   table: ResponseTable) -> ShiftEnsemble:
    """Uniform normal-strain ensemble of exactly ``n_samples``."""
    _check_n_samples(n_samples)
    _check_table_covers(table, spec.strain_low, spec.strain_high)
    blocks = ((size, _normal_strains(
        spec, make_stream(seed, _MODE_IDS["uniform"], j)))
        for j, size in _chunks(n_samples))
    return _ensemble(blocks, n_samples, table)


def _normal_strains(spec, gen):
    """The uniform normal components of CHUNK strain vectors, (CHUNK, 3)."""
    return gen.uniform(spec.strain_low, spec.strain_high, size=(CHUNK, 3))


def _biased_chunk(spec: BiasedZSpec, seed: int, j: int):
    gen = make_stream(seed, _MODE_IDS["biased-z"], j)
    block = _normal_strains(spec, gen)
    coins = gen.random(CHUNK)
    t = spec.xy_threshold
    keep = coins < spec.keep_fraction
    keep |= (np.abs(block[:, 0]) <= t) & (np.abs(block[:, 1]) <= t)
    return block, keep


def biased_z_retention(spec: BiasedZSpec, n_raw: int, seed: int) -> float:
    """Fraction of ``n_raw`` raw draws the rejection rule retains."""
    if n_raw < 1:
        raise ValidationError("n_raw must be >= 1")
    kept = 0
    for j in range(-(-n_raw // CHUNK)):
        kept += int(_biased_chunk(spec, seed, j)[1][:n_raw - j * CHUNK].sum())
    return kept / n_raw


def sample_biased_z(spec: BiasedZSpec, n_samples: int, seed: int,
                    table: ResponseTable) -> ShiftEnsemble:
    """Rejection-sampled ensemble biased against in-plane strain.

    Chunks are drawn one at a time, in index order, until ``n_samples``
    survivors have accumulated; the raw draw count is that of those whole
    chunks. A rule expected to need more than MAX_RAW_DRAWS raw draws, or
    one that retains nothing, is refused before any draw.
    """
    _check_n_samples(n_samples)
    # a raw draw is kept when both in-plane components lie within the
    # threshold, a share s of the strain range each, or by the coin
    t = spec.xy_threshold
    s = max(0.0, min(spec.strain_high, t) - max(spec.strain_low, -t)) / (
        spec.strain_high - spec.strain_low)
    retention = s * s + (1.0 - s * s) * spec.keep_fraction
    if not n_samples <= MAX_RAW_DRAWS * retention:
        raise ValidationError(
            f"keep_fraction {spec.keep_fraction:g} with xy_threshold {t:g} "
            f"retains {retention:.3g} of raw draws, too few for {n_samples} "
            f"samples within {MAX_RAW_DRAWS:.0e} draws")
    _check_table_covers(table, spec.strain_low, spec.strain_high)

    chunks = (_biased_chunk(spec, seed, j) for j in itertools.count())
    blocks = ((CHUNK, block[keep]) for block, keep in chunks)
    return _ensemble(blocks, n_samples, table)


def _directions(gen, k):
    """``k`` directions uniform on the sphere, component-major (3, k)."""
    vec = gen.normal(size=(k, 3)).T
    vec /= np.linalg.norm(vec, axis=0)
    return vec


def _single_defect_draws(spec: SingleDefectSpec, gen, size):
    """One defect per sample at the fixed separation."""
    volume = relaxation_volume(spec.defect_kind)
    return (np.arange(size), np.full(size, volume),
            np.full(size, spec.separation_nm))


def _shell_cm3(spec: DefectDensitySpec) -> float:
    return (4.0 / 3.0) * np.pi * (spec.r_max_nm ** 3
                                  - spec.r_min_nm ** 3) * 1e-21


def _density_draws(spec: DefectDensitySpec, gen, size):
    """Poisson vacancy and interstitial counts per sample, then the radii
    of all of them, uniform in the shell volume."""
    shell_cm3 = _shell_cm3(spec)
    counts_v = gen.poisson(spec.vacancy_density_cm3 * shell_cm3, size)
    counts_i = gen.poisson(spec.interstitial_density_cm3 * shell_cm3, size)
    owner = np.repeat(np.tile(np.arange(size), 2),
                      np.concatenate([counts_v, counts_i]))
    volume = np.repeat([relaxation_volume("vacancy"),
                        relaxation_volume("interstitial")],
                       [counts_v.sum(), counts_i.sum()])
    radii = gen.random(len(owner))
    radii *= spec.r_max_nm ** 3 - spec.r_min_nm ** 3
    radii += spec.r_min_nm ** 3
    radii **= 1.0 / 3.0
    return owner, volume, radii


def _defect_field_chunk(strains, owner, amplitude, positions):
    """Add to ``strains`` (6, size) the strain at each emitter from the
    defects around it, in defect order.

    Defect ``k`` of amplitude ``amplitude[k]`` sits at ``positions[:, k]``
    relative to emitter ``owner[k]``.
    """
    for row, column in zip(strains,
                           dipole_strain_columns(amplitude, positions)):
        np.add.at(row, owner, column)


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
    _check_n_samples(n_samples)
    if isinstance(spec, SingleDefectSpec):
        draws, inner_nm = _single_defect_draws, spec.separation_nm
    elif isinstance(spec, DefectDensitySpec):
        draws, inner_nm = _density_draws, spec.r_min_nm
    else:
        raise ValidationError(
            "spec must be SingleDefectSpec or DefectDensitySpec")
    if inner_nm < elastic.core_cutoff_nm:
        raise ValidationError(
            f"defects at {inner_nm} nm would sit inside the core cutoff "
            f"{elastic.core_cutoff_nm} nm")
    sites_cm3 = 1e21 / elastic.atomic_volume_nm3
    for key in ("vacancy_density_cm3", "interstitial_density_cm3"):
        if getattr(spec, key, 0.0) > sites_cm3:
            raise ValidationError(
                f"{key} {getattr(spec, key):g} exceeds one defect per "
                f"lattice site, {sites_cm3:.3g} cm^-3")
    if isinstance(spec, DefectDensitySpec):
        size = min(n_samples, CHUNK)
        expected = size * _shell_cm3(spec) * (spec.vacancy_density_cm3
                                              + spec.interstitial_density_cm3)
        if expected > MAX_CHUNK_DEFECTS:
            raise ValidationError(
                f"r_max_nm {spec.r_max_nm:g} with vacancy_density_cm3 "
                f"{spec.vacancy_density_cm3:g} and interstitial_density_cm3 "
                f"{spec.interstitial_density_cm3:g} expects {expected:.3g} "
                f"defects per chunk of {size} samples, more than "
                f"{MAX_CHUNK_DEFECTS:.0e}; use a smaller shell or density")

    def block(j, size):
        # each defect keeps its owner, volume and radius; directions and
        # strains are taken CHUNK defects at a time, after every radius
        gen = make_stream(seed, _MODE_IDS["defect-field"], j)
        owner, volume, radii = draws(spec, gen, size)
        strains = np.zeros((6, size))
        for start in range(0, len(owner), CHUNK):
            part = slice(start, start + CHUNK)
            positions = _directions(gen, len(radii[part]))
            positions *= radii[part]
            _defect_field_chunk(strains, owner[part],
                                elastic.amplitude_nm3(volume[part]),
                                positions)
        return size, strains.T

    return _ensemble((block(j, size) for j, size in _chunks(n_samples)),
                     n_samples, table)


# ---------------------------------------------------------------------------
# spectrum synthesis and histograms
# ---------------------------------------------------------------------------

def _lines(shifts_mev, emitter: EmitterParams):
    """Line centers of the samples, and the half-width around the reference
    line that a grid must cover: the largest shift plus ten FWHM. Lines
    that reach beyond the largest float are refused."""
    shifts_mev = np.atleast_1d(np.asarray(shifts_mev, dtype=float))
    if shifts_mev.size == 0:
        raise ValidationError("no samples to place lines for")
    lam0, fwhm = emitter.zpl_wavelength_nm, emitter.homogeneous_fwhm_nm
    # a numpy scalar overflows to inf where a Python float raises; inf
    # times a zero shift is NaN, and both are refused below
    with np.errstate(over="ignore", invalid="ignore"):
        dl = delta_lambda_from_delta_e(shifts_mev, np.float64(lam0))
    margin = max(float(dl.max()), -float(dl.min())) + 10.0 * fwhm
    if not lam0 + margin < np.inf:
        largest = max(float(shifts_mev.max()), -float(shifts_mev.min()))
        raise ValidationError(
            f"zpl_wavelength_nm {lam0:g} with homogeneous_fwhm_nm {fwhm:g} "
            f"and largest shift {largest:.4g} meV places lines beyond the "
            "largest float")
    dl += lam0
    return dl, margin


def default_wavelength_grid(shifts_mev, emitter: EmitterParams) -> np.ndarray:
    """Grid covering every shifted line plus ten homogeneous widths, eight
    points per homogeneous FWHM."""
    return _grid_for(_lines(shifts_mev, emitter)[1], shifts_mev, emitter)


def _grid_for(margin, shifts_mev, emitter: EmitterParams) -> np.ndarray:
    """The default grid of half-width ``margin``, the margin that
    ``_lines`` gives for ``shifts_mev``."""
    step = emitter.homogeneous_fwhm_nm / 8
    if margin > step * ((MAX_GRID_POINTS - 1) // 2):
        raise ValidationError(
            f"homogeneous_fwhm_nm {emitter.homogeneous_fwhm_nm:g} with "
            f"largest shift {np.max(np.abs(shifts_mev)):.4g} meV needs more "
            f"than {MAX_GRID_POINTS} grid points")
    half = int(np.ceil(margin / step))
    return emitter.zpl_wavelength_nm + step * np.arange(-half, half + 1)


def synthesize_spectrum(shifts_mev, emitter: EmitterParams,
                        wavelength_grid=None):
    """Peak-normalized sum of unit-area Lorentzians, one per sample.

    Returns (wavelength_nm, intensity). The grid must cover the reference
    line plus the largest shift plus ten homogeneous widths on both sides,
    with steps no coarser than a fifth of the homogeneous FWHM.
    """
    centers, margin = _lines(shifts_mev, emitter)
    if wavelength_grid is None:
        wavelength_grid = _grid_for(margin, shifts_mev, emitter)
    grid = increasing_grid(wavelength_grid, "wavelength grid")

    fwhm = emitter.homogeneous_fwhm_nm
    step = float(np.max(np.diff(grid)))
    if step > fwhm / 5.0:
        raise ValidationError(
            f"grid step {step:.4g} nm exceeds fwhm/5 = {fwhm / 5.0:.4g} nm")
    lam0 = emitter.zpl_wavelength_nm
    if grid[0] > lam0 - margin or grid[-1] < lam0 + margin:
        raise ValidationError(
            "grid does not cover the reference line plus max shift plus ten "
            "homogeneous widths")

    # The area factor fwhm/(2*pi) is constant, and the peak normalization
    # below cancels it, so each term is 1/((x - c)^2 + (fwhm/2)^2). The sum
    # is taken in units of 2**e, the binade of fwhm/2, so that no term over-
    # or underflows; a power of two scales every operation exactly while
    # the values stay normal floats, so the normalized bits are those of the
    # sum in nm.
    e = int(np.frexp(fwhm / 2.0)[1])
    intensity = _fmm_sum(np.ldexp(grid, -e),
                         np.ldexp(centers, -e, out=centers),
                         np.ldexp(fwhm / 2.0, -e))
    peak = float(intensity.max())
    if peak > 0:
        intensity = intensity / peak
    return grid, intensity


def _block_sum(out, x, centers, half_sq, buf):
    """Add the sum over ``centers`` of 1/((x - c)^2 + half_sq) to
    ``out``, SYNTH_BLOCK centers at a time in the flat scratch ``buf``."""
    for start in range(0, len(centers), SYNTH_BLOCK):
        c = centers[start:start + SYNTH_BLOCK, None]
        b = buf[:len(c) * len(x)].reshape(len(c), len(x))
        np.subtract(x, c, out=b)
        np.square(b, out=b)
        b += half_sq
        np.reciprocal(b, out=b)
        out += b.sum(axis=0)


@functools.cache
def _fmm_operators():
    """Translation matrices of the fast multipole sum in box-width units:
    M2M and L2L for the left and right child, and M2L by box offset."""
    p = FMM_TERMS
    n = np.arange(2 * p)[:, None]
    k = np.arange(1, 2 * p)
    binom = np.cumprod(np.c_[np.ones(2 * p), (n - k + 1) / k], axis=1)
    k = np.arange(p)[:, None]
    pascal, shift = binom[:p, :p], k - k.T
    m2m = [pascal * e ** shift / 2.0 ** k for e in (-0.5, 0.5)]
    l2l = [pascal.T * e ** -shift / 2.0 ** (k + 1) for e in (-0.25, 0.25)]
    m2l = {d: (-1.0) ** k * binom[k + k.T, k.T] / float(d) ** (k + k.T + 1)
           for d in (-5, -4, -3, 3, 4, 5)}
    return m2m, l2l, m2l


def _fmm_sum(grid, centers, half):
    """Sum over ``centers`` of 1/((x - c)^2 + half^2) at every grid point,
    by the 1-D fast multipole method (Greengard and Rokhlin, J. Comput.
    Phys. 73, 325, 1987; Dutt, Gu and Rokhlin, SIAM J. Numer. Anal. 33,
    1689, 1996). The centers must lie within [grid[0], grid[-1]].

    Each term is Im(1/(z - c)) / half with z = x - i half. A binary tree of
    equal boxes spans the grid; its leaves are 1.5 to 3 half-widths wide,
    and there are at least 4. A leaf's centers are summed directly
    (``_block_sum``) over the grid points of the leaves within two of it.
    Every farther center reaches a grid point through FMM_TERMS moments
    about its box's middle, shifted up the tree (M2M), turned into local
    expansions of the boxes three to five away whose parents are within two
    (M2L), shifted down (L2L) and summed by Horner's rule in
    (z - middle) / width at each grid point (L2P). Centers and grid points
    belong to the leaf that ``leaf_of`` gives them, so the near and far
    parts cover each pair once. Memory is the sorted copy of the centers,
    one ``CHUNK`` of their leaves and offsets, one block, and about 1 KB
    per leaf, 0.13 GB on a default grid of 10**6 points.
    """
    g0 = grid[0]
    depth = max(2, int(np.ceil(np.log2((grid[-1] - g0) / (3.0 * half)))))
    n = 1 << depth
    width = (grid[-1] - g0) / n

    def leaf_of(x):
        """Leaf of each x, and its offset from the leaf's middle in widths."""
        t = (x - g0) / width
        leaf = np.minimum(t.astype(np.intp), n - 1)
        return leaf, t - (leaf + 0.5)

    c = np.sort(centers)
    moments = np.zeros((FMM_TERMS, n))
    for a in range(0, len(c), CHUNK):
        lc, uc = leaf_of(c[a:a + CHUNK])
        first = np.flatnonzero(np.diff(lc, prepend=-1))
        power = np.ones_like(uc)
        for row in moments:
            row[lc[first]] += np.add.reduceat(power, first)
            power *= uc

    m2m, l2l, m2l = _fmm_operators()
    levels = [moments]
    while levels[-1].shape[1] > 4:
        m = levels[-1]
        levels.append(m2m[0] @ m[:, 0::2] + m2m[1] @ m[:, 1::2])
    local = np.zeros((FMM_TERMS, 4))
    while levels:
        m = levels.pop()
        nb = m.shape[1]
        if nb > 4:   # children 2j and 2j + 1 of box j
            local = np.stack([op @ local for op in l2l], axis=2).reshape(
                FMM_TERMS, nb)
        for d, op in m2l.items():
            # target j takes source j - d; offset 5 only from its parent's
            # far side: odd targets for d = 5, even ones for d = -5
            t0, t1, step = max(d, 0), nb + min(d, 0), 2 if abs(d) == 5 else 1
            if t1 > t0:
                local[:, t0:t1:step] += op @ m[:, t0 - d:t1 - d:step]

    gleaf, zeta = leaf_of(grid)
    zeta = zeta - 1j * (half / width)
    q = local[-1][gleaf].astype(complex)
    for row in local[-2::-1]:
        q *= zeta
        q += row[gleaf]
    intensity = q.imag / (width * half)

    # the zeroth moments are the leaves' center counts, exact in a double
    bounds = np.r_[0, np.cumsum(moments[0].astype(np.intp))]
    near = np.searchsorted(gleaf, np.arange(n + 1))
    filled = np.flatnonzero(np.diff(bounds))
    lo, hi = near[np.maximum(filled - 2, 0)], near[np.minimum(filled + 3, n)]
    buf = np.empty(min(SYNTH_BLOCK, int(np.diff(bounds).max()))
                   * int((hi - lo).max()))
    for a0, a1, b0, b1 in zip(*(v.tolist() for v in (
            lo, hi, bounds[filled], bounds[filled + 1]))):
        _block_sum(intensity[a0:a1], grid[a0:a1], c[b0:b1], half * half,
                   buf)
    return intensity


def histogram_shifts(shifts_mev, bin_width_mev: float):
    """Counts over bins aligned to integer multiples of the bin width.

    Returns (edges, counts); counts sum to the sample count.
    """
    shifts_mev = np.atleast_1d(np.asarray(shifts_mev, dtype=float))
    if shifts_mev.size == 0:
        raise ValidationError("no samples to histogram")
    if not 0 < bin_width_mev < np.inf:
        raise ValidationError("bin_width_mev must be positive and finite")
    with np.errstate(over="ignore", invalid="ignore"):   # refused below
        first = np.floor(shifts_mev.min() / bin_width_mev)
        n_bins = max(np.ceil(shifts_mev.max() / bin_width_mev) - first, 1.0)
    if not n_bins <= MAX_HISTOGRAM_BINS:
        raise ValidationError(
            f"bin_width_mev {bin_width_mev:g} gives {n_bins:.3g} bins, "
            f"more than {MAX_HISTOGRAM_BINS}")
    edges = first * bin_width_mev + bin_width_mev * np.arange(int(n_bins) + 1)
    counts, _ = np.histogram(shifts_mev, bins=edges)
    return edges, counts
