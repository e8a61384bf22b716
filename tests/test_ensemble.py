import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from defect_spectra import ensemble
from defect_spectra.core import (
    EmitterParams,
    ValidationError,
    delta_e_from_delta_lambda,
    delta_lambda_from_delta_e,
)
from defect_spectra.ensemble import (
    CHUNK,
    MAX_SAMPLES,
    SYNTH_BLOCK,
    BiasedZSpec,
    DefectDensitySpec,
    SingleDefectSpec,
    UniformSpec,
    _biased_chunk,
    _defect_field_chunk,
    _fmm_sum,
    biased_z_retention,
    default_wavelength_grid,
    histogram_shifts,
    sample_biased_z,
    sample_defect_field,
    sample_uniform,
    synthesize_spectrum,
)
from defect_spectra.fitting import numerical_fwhm
from defect_spectra.strainfield import (
    ElasticParams,
    PointDefect,
    dipole_strain,
    superpose,
)
from defect_spectra.zplmap import (
    ResponseTable,
    component_ranges,
    default_table,
    shift_for_strain,
)


@pytest.fixture(scope="module")
def table():
    return default_table()


# ---------------------------------------------------------------------------
# uniform sampler
# ---------------------------------------------------------------------------

def test_uniform_sampler_basic(table):
    ens = sample_uniform(UniformSpec(), 5000, seed=3, table=table)
    assert len(ens) == 5000
    assert ens.strains.shape == (5000, 6)
    # normal strains inside bounds, shears identically zero
    assert np.all(ens.strains[:, :3] >= -0.01)
    assert np.all(ens.strains[:, :3] <= 0.01)
    assert np.all(ens.strains[:, 3:] == 0.0)
    prov = ens.provenance
    assert prov.n_retained == 5000
    assert prov.n_raw_draws == 5000


@pytest.mark.parametrize("sample, spec", [(sample_uniform, UniformSpec()),
                                          (sample_biased_z, BiasedZSpec())])
def test_normal_strain_samplers_retain_every_sample(table, sample, spec):
    # the samplers' strain range equals the table's, and the range mask
    # they share with defect-field keeps every sample
    ens = sample(spec, 5000, seed=4, table=table)
    prov = ens.provenance
    assert (prov.n_retained, prov.n_range_rejections) == (5000, 0)
    assert len(ens) == 5000


def test_uniform_shifts_match_table(table):
    ens = sample_uniform(UniformSpec(), 300, seed=12, table=table)
    recomputed = shift_for_strain(table, ens.strains)
    assert np.array_equal(ens.shifts_mev, recomputed)


def test_uniform_reproducible_and_seed_sensitive(table):
    a = sample_uniform(UniformSpec(), 9000, seed=5, table=table)
    b = sample_uniform(UniformSpec(), 9000, seed=5, table=table)
    c = sample_uniform(UniformSpec(), 9000, seed=6, table=table)
    assert np.array_equal(a.strains, b.strains)
    assert not np.array_equal(a.strains, c.strains)


def test_uniform_prefix_stability(table):
    # growing a run re-yields the shorter run as an exact prefix,
    # a consequence of per-chunk streams
    small = sample_uniform(UniformSpec(), 3000, seed=8, table=table)
    big = sample_uniform(UniformSpec(), 12000, seed=8, table=table)
    assert np.array_equal(big.strains[:3000], small.strains)


def test_sampler_range_checked_against_table(table):
    with pytest.raises(ValidationError, match="exceeds table range"):
        sample_uniform(UniformSpec(-0.02, 0.02), 10, seed=1, table=table)


def test_uniform_rejects_bad_sizes(table):
    with pytest.raises(ValidationError, match="n_samples"):
        sample_uniform(UniformSpec(), 0, seed=1, table=table)
    with pytest.raises(ValidationError, match="strain_low must be below"):
        UniformSpec(0.01, -0.01)


def _six_column_reference(spec, n_samples, seed, table):
    """A normal-strain ensemble built chunk by chunk from 6-column zero
    blocks, with biased-z's keep rule as max(|e_xx|, |e_yy|) <= t:
    (strains, shifts, raw draws, range rejections)."""
    biased = isinstance(spec, BiasedZSpec)
    mode = ensemble._MODE_IDS["biased-z" if biased else "uniform"]
    parts, n_rows, n_raw, j = [], 0, 0, 0
    while n_rows < n_samples:
        gen = ensemble.make_stream(seed, mode, j)
        block = np.zeros((CHUNK, 6))
        block[:, :3] = gen.uniform(spec.strain_low, spec.strain_high,
                                   size=(CHUNK, 3))
        if biased:
            coins = gen.random(CHUNK)
            block = block[(np.max(np.abs(block[:, :2]), axis=1)
                           <= spec.xy_threshold)
                          | (coins < spec.keep_fraction)]
        parts.append(block)
        n_rows += len(block)
        n_raw += CHUNK
        j += 1
    strains = np.concatenate(parts)[:n_samples]
    if not biased:
        n_raw = n_samples
    low, high = component_ranges(table)
    in_range = np.all((strains >= low) & (strains <= high), axis=1)
    return (strains[in_range], shift_for_strain(table, strains[in_range]),
            n_raw, int((~in_range).sum()))


@pytest.mark.parametrize("n_samples", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                       3 * CHUNK + 5])
@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("sample, spec", [
    (sample_uniform, UniformSpec(-0.004, 0.007)),
    (sample_biased_z, BiasedZSpec(strain_low=-0.006, strain_high=0.008,
                                  xy_threshold=0.002, keep_fraction=0.2))],
    ids=["uniform", "biased-z"])
def test_normal_strain_samplers_match_six_column_reference(
        table, sample, spec, seed, n_samples):
    # the random stream, the keep rule and the collected rows are those of
    # the 6-column blocks the samplers drew before
    ens = sample(spec, n_samples, seed=seed, table=table)
    strains, shifts_mev, n_raw, rejections = _six_column_reference(
        spec, n_samples, seed, table)
    assert np.array_equal(ens.strains, strains)
    assert np.array_equal(ens.shifts_mev, shifts_mev)
    assert ens.provenance.n_raw_draws == n_raw
    assert ens.provenance.n_range_rejections == rejections


def test_collector_fills_the_components_a_block_leaves_out(table):
    # 3-wide blocks carry the normal components only: the shears come
    # back zero, and an e_zz beyond a narrowed z curve is a range rejection
    grid, shifts = table.curves["z"]
    keep = np.abs(grid) <= 0.003
    narrow = ResponseTable({**table.curves, "z": (grid[keep], shifts[keep])})
    rng = np.random.default_rng(0)
    rows = rng.uniform(-0.01, 0.01, size=(300, 3))
    blocks = [(200, rows[:200]), (100, rows[200:])]
    ens = ensemble._ensemble(iter(blocks), 300, narrow)
    in_range = np.abs(rows[:, 2]) <= 0.003
    assert 0 < in_range.sum() < 300
    assert ens.provenance.n_range_rejections == int((~in_range).sum())
    assert ens.provenance.n_raw_draws == 300
    assert ens.strains.shape == (int(in_range.sum()), 6)
    assert np.array_equal(ens.strains[:, :3], rows[in_range])
    assert np.all(ens.strains[:, 3:] == 0.0)


# ---------------------------------------------------------------------------
# biased-z sampler
# ---------------------------------------------------------------------------

def test_biased_z_retention_matches_analytic(table):
    # P(keep) = P(small xy) + P(large xy) * keep_fraction
    # with threshold 0.001 on +-0.01: 0.1^2 + (1 - 0.1^2) * 0.1 = 0.109
    frac = biased_z_retention(BiasedZSpec(), 1_000_000, seed=42)
    assert frac == pytest.approx(0.109, abs=0.005)


def test_biased_z_enriches_small_xy(table):
    spec = BiasedZSpec()
    ens = sample_biased_z(spec, 20000, seed=9, table=table)
    assert len(ens) == 20000
    small = np.max(np.abs(ens.strains[:, :2]), axis=1) <= spec.xy_threshold
    # post-selection fraction of in-plane-quiet draws: 0.01/0.109 = 0.0917,
    # versus 0.01 unbiased
    assert small.mean() == pytest.approx(0.01 / 0.109, abs=0.01)
    assert ens.provenance.n_raw_draws > len(ens)


def test_biased_z_keep_fraction_one_is_uniform_marginal(table):
    spec = BiasedZSpec(keep_fraction=1.0)
    ens = sample_biased_z(spec, 4096, seed=4, table=table)
    uni = sample_uniform(UniformSpec(), 4096, seed=4, table=table)
    # same normal-strain marginals when nothing is rejected; the biased
    # stream id differs, so compare distributions loosely
    assert abs(ens.strains[:, 2].mean() - uni.strains[:, 2].mean()) < 5e-4
    # raw draws are consumed in whole chunks
    assert ens.provenance.n_raw_draws >= 4096
    assert ens.provenance.n_raw_draws % 4096 == 0


def test_biased_z_reproducible(table):
    a = sample_biased_z(BiasedZSpec(), 3000, seed=77, table=table)
    b = sample_biased_z(BiasedZSpec(), 3000, seed=77, table=table)
    assert np.array_equal(a.strains, b.strains)


def test_biased_z_prefix_stability(table):
    small = sample_biased_z(BiasedZSpec(), 3000, seed=31, table=table)
    big = sample_biased_z(BiasedZSpec(), 9000, seed=31, table=table)
    assert np.array_equal(big.strains[:3000], small.strains)


@pytest.mark.parametrize("keep_fraction, n_samples", [
    (0.1, 1), (0.1, 446), (0.1, 3000), (0.1, 20000), (1.0, 4096),
    (1.0, 4097)])
def test_biased_z_draws_fewest_whole_chunks(table, keep_fraction,
                                            n_samples):
    # chunks 0..j-1 hold at least n_samples survivors, chunks 0..j-2 do not
    spec = BiasedZSpec(keep_fraction=keep_fraction)
    ens = sample_biased_z(spec, n_samples, seed=13, table=table)
    survivors = np.cumsum([int(_biased_chunk(spec, 13, j)[1].sum())
                           for j in range(n_samples // 400 + 2)])
    j = int(np.searchsorted(survivors, n_samples)) + 1
    assert survivors[j - 1] >= n_samples
    assert j == 1 or survivors[j - 2] < n_samples
    assert ens.provenance.n_raw_draws == CHUNK * j


@pytest.mark.parametrize("rule", [
    {"keep_fraction": 0.0, "xy_threshold": 0.0},
    {"keep_fraction": 0.0, "xy_threshold": 1e-12},
    # no raw draw can fall inside the threshold
    {"keep_fraction": 0.0, "strain_low": 0.002},
    # retains 1e-10 of the draws
    {"keep_fraction": 1e-10, "xy_threshold": 0.0}])
def test_biased_z_refuses_near_zero_retention(table, rule):
    with pytest.raises(ValidationError,
                       match="keep_fraction .* xy_threshold"):
        sample_biased_z(BiasedZSpec(**rule), 10, seed=1, table=table)


def test_biased_z_low_retention_within_limit_runs(table):
    # keep only the draws inside the threshold: (0.001 / 0.01)^2 = 1e-2,
    # so 20 samples take about 2000 raw draws
    spec = BiasedZSpec(keep_fraction=0.0)
    ens = sample_biased_z(spec, 20, seed=1, table=table)
    assert len(ens) == 20
    assert np.all(np.abs(ens.strains[:, :2]) <= spec.xy_threshold)


class _Drawn(Exception):
    """Raised in place of the first random stream a sampler asks for."""


def _no_draw(*key):
    raise _Drawn


@pytest.mark.parametrize("sampler, spec", [
    (sample_uniform, UniformSpec()), (sample_biased_z, BiasedZSpec()),
    (sample_defect_field, SingleDefectSpec()),
    (sample_defect_field, DefectDensitySpec(vacancy_density_cm3=1e19))],
    ids=["uniform", "biased-z", "single-defect", "density"])
def test_sampler_refuses_too_many_samples_before_any_draw(
        table, monkeypatch, sampler, spec):
    monkeypatch.setattr(ensemble, "make_stream", _no_draw)
    # the cap itself passes the check and reaches the first draw
    with pytest.raises(_Drawn):
        sampler(spec, MAX_SAMPLES, seed=1, table=table)
    for n in (0, MAX_SAMPLES + 1):
        with pytest.raises(ValidationError, match="n_samples"):
            sampler(spec, n, seed=1, table=table)


def _traced_peak(call):
    """The result of ``call()`` and the tracemalloc peak it reached."""
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("sampler, spec", [
    (sample_uniform, UniformSpec()), (sample_biased_z, BiasedZSpec())],
    ids=["uniform", "biased-z"])
def test_sampler_peak_memory_is_one_copy(table, sampler, spec):
    # the samples are collected into the array the ensemble returns, and
    # their shifts are evaluated CHUNK rows at a time into another; a list
    # of chunks, its stacked copy and an in-range copy would be 2.7 times
    # the returned bytes, and shifts evaluated in one call 1.3 times
    sampler(spec, 100, seed=2, table=table)
    ens, peak = _traced_peak(lambda: sampler(spec, 200_000, seed=2,
                                             table=table))
    assert len(ens) == 200_000
    assert peak < 1.1 * (ens.strains.nbytes + ens.shifts_mev.nbytes)


def test_density_chunk_peak_memory_per_defect(table):
    # one 4096-sample chunk at the densest point of a density series;
    # holding every defect's six strain components at once costs 184
    # bytes per defect
    spec = DefectDensitySpec(vacancy_density_cm3=1e21,
                             interstitial_density_cm3=1e21 / 3)
    sample_defect_field(spec, 100, seed=2, table=table)
    _, peak = _traced_peak(lambda: sample_defect_field(spec, CHUNK, seed=2,
                                                       table=table))
    owner, _, _ = ensemble._density_draws(spec, ensemble.make_stream(
        2, ensemble._MODE_IDS["defect-field"], 0), CHUNK)
    assert len(owner) > 40_000
    assert peak / len(owner) < 150


def test_density_chunk_keeps_three_values_per_defect(table):
    # the same chunk: each defect keeps its owner, volume and radius (24
    # bytes), and directions and strains are taken CHUNK defects at a time.
    # Drawing and summing every defect of the chunk at once peaks at about
    # 120 bytes per defect
    spec = DefectDensitySpec(vacancy_density_cm3=1e21,
                             interstitial_density_cm3=1e21 / 3)
    sample_defect_field(spec, 100, seed=2, table=table)
    _, peak = _traced_peak(lambda: sample_defect_field(spec, CHUNK, seed=2,
                                                       table=table))
    owner, _, _ = ensemble._density_draws(spec, ensemble.make_stream(
        2, ensemble._MODE_IDS["defect-field"], 0), CHUNK)
    assert len(owner) > 40_000
    assert peak / len(owner) < 64


# ---------------------------------------------------------------------------
# defect-field sampler
# ---------------------------------------------------------------------------

def test_single_vacancy_both_signs(table):
    spec = SingleDefectSpec("vacancy", 0.9)
    ens = sample_defect_field(spec, 10000, seed=11, table=table)
    assert len(ens) == 10000
    red = (ens.shifts_mev < 0).mean()
    blue = (ens.shifts_mev > 0).mean()
    assert red >= 0.10
    assert blue >= 0.10


def test_single_interstitial_mostly_red(table):
    spec = SingleDefectSpec("interstitial", 0.9)
    ens = sample_defect_field(spec, 10000, seed=11, table=table)
    assert (ens.shifts_mev < 0).mean() >= 0.95


def test_single_defect_strain_magnitude(table):
    # a vacancy at 0.9 nm produces |amp|/r^3 strains of order 5e-4:
    # check the dominant principal component analytically
    spec = SingleDefectSpec("vacancy", 0.9)
    ens = sample_defect_field(spec, 500, seed=2, table=table)
    amp = -0.25 * 0.0200 / (4 * np.pi) / 0.9**3
    # e_ii along the defect direction equals -2*amp; off-axis +amp
    eigmax = np.abs(ens.strains[:, :3]).max(axis=1)
    assert np.all(eigmax <= 2 * abs(amp) * (1 + 1e-9))
    assert eigmax.max() == pytest.approx(2 * abs(amp), rel=0.05)


def test_single_defect_below_core_cutoff(table):
    with pytest.raises(ValidationError, match="inside the core cutoff"):
        sample_defect_field(SingleDefectSpec("vacancy", 0.2), 10,
                            seed=1, table=table)


def test_density_mode_counts_and_kinds(table):
    spec = DefectDensitySpec(vacancy_density_cm3=3e20,
                             interstitial_density_cm3=1e20)
    ens = sample_defect_field(spec, 2000, seed=5, table=table)
    assert len(ens) == 2000
    # both kinds are drawn: a sample is defect-free with the Poisson
    # probability of the summed density over the 0.9-1.4 nm shell
    shell_cm3 = 4 / 3 * np.pi * (1.4**3 - 0.9**3) * 1e-21
    frac_none = np.mean(np.all(ens.strains == 0.0, axis=1))
    assert frac_none == pytest.approx(np.exp(-4e20 * shell_cm3), abs=0.01)


def test_density_zero_gives_zero_shifts(table):
    spec = DefectDensitySpec()
    ens = sample_defect_field(spec, 100, seed=1, table=table)
    assert np.all(ens.shifts_mev == 0.0)
    assert np.all(ens.strains == 0.0)


def test_density_mean_defect_count(table):
    # Poisson mean = density * shell volume; with 3e20 cm^-3 over the
    # 0.9-1.4 nm shell (8.437 nm^3) the expectation is 2.531 per sample
    spec = DefectDensitySpec(vacancy_density_cm3=3e20)
    shell_nm3 = 4 / 3 * np.pi * (1.4**3 - 0.9**3)
    expect = 3e20 * 1e-21 * shell_nm3
    ens = sample_defect_field(spec, 4000, seed=19, table=table)
    frac_none = np.mean(np.all(ens.strains == 0.0, axis=1))
    assert frac_none == pytest.approx(np.exp(-expect), abs=0.02)


def test_density_r_min_below_core_cutoff(table):
    with pytest.raises(ValidationError, match="inside the core cutoff"):
        sample_defect_field(DefectDensitySpec(vacancy_density_cm3=1e20,
                                              r_min_nm=0.2), 10,
                            seed=1, table=table)


def test_defect_field_range_rejections_counted(table):
    # crank the density until some strains overflow the table window;
    # those samples are dropped and counted, not extrapolated
    spec = DefectDensitySpec(interstitial_density_cm3=2e22, r_min_nm=0.9,
                             r_max_nm=1.0)
    ens = sample_defect_field(spec, 2000, seed=3, table=table)
    rej = ens.provenance.n_range_rejections
    assert rej > 0
    assert len(ens) == 2000 - rej
    assert np.max(np.abs(ens.strains)) <= 0.01


def test_defect_field_range_checked_per_axis(table):
    # the xz curve (which e_yz follows) stops at +-0.003 while x spans
    # +-0.01: shear strains beyond 0.003 are range rejections, not errors
    grid, shifts = table.curves["xz"]
    keep = np.abs(grid) <= 0.003
    narrow = ResponseTable({**table.curves, "xz": (grid[keep], shifts[keep])})
    low, high = component_ranges(narrow)
    assert np.array_equal(high, [0.01, 0.01, 0.01, 0.01, 0.003, 0.003])
    assert np.array_equal(low, -high)
    for spec in (SingleDefectSpec("interstitial", 0.6),
                 DefectDensitySpec(vacancy_density_cm3=1e21,
                                   interstitial_density_cm3=1e21)):
        ens = sample_defect_field(spec, 4000, seed=3, table=narrow)
        rej = ens.provenance.n_range_rejections
        assert 0 < rej < 4000
        assert len(ens) == 4000 - rej
        assert np.all((ens.strains >= low) & (ens.strains <= high))


def _vstack_then_mask(spec, n_samples, seed, table):
    """The defect-field ensemble as a list of whole chunks, each summed
    from the (k, 6) strains of all its defects, whose (k, 3) directions are
    drawn in one call, stacked and then masked: (strains, shifts, range
    rejections)."""
    draws = (ensemble._single_defect_draws
             if isinstance(spec, SingleDefectSpec) else ensemble._density_draws)
    elastic = ElasticParams()
    parts = []
    for j in range(-(-n_samples // CHUNK)):
        size = min(CHUNK, n_samples - j * CHUNK)
        gen = ensemble.make_stream(seed, ensemble._MODE_IDS["defect-field"], j)
        owner, volume, radii = draws(spec, gen, size)
        normals = gen.normal(size=(len(owner), 3))
        positions = normals / np.linalg.norm(normals, axis=1, keepdims=True)
        per_defect = dipole_strain(elastic.amplitude_nm3(volume),
                                   positions * radii[:, None])
        parts.append(np.stack([
            np.bincount(owner, per_defect[:, c], minlength=size)
            for c in range(6)], axis=1))
    strains = np.concatenate(parts)
    low, high = component_ranges(table)
    in_range = np.all((strains >= low) & (strains <= high), axis=1)
    return (strains[in_range], shift_for_strain(table, strains[in_range]),
            int((~in_range).sum()))


@pytest.mark.parametrize("spec", [
    SingleDefectSpec("interstitial", 0.6),
    DefectDensitySpec(vacancy_density_cm3=1e21, interstitial_density_cm3=1e21)],
    ids=["single-defect", "density"])
def test_defect_field_collector_matches_vstack_then_mask(table, spec):
    # a narrowed xz curve forces range rejections, and 9000 samples end in
    # a partial chunk
    grid, shifts = table.curves["xz"]
    keep = np.abs(grid) <= 0.003
    narrow = ResponseTable({**table.curves, "xz": (grid[keep], shifts[keep])})
    ens = sample_defect_field(spec, 9000, seed=5, table=narrow)
    strains, shifts_mev, rejections = _vstack_then_mask(spec, 9000, 5, narrow)
    assert 0 < rejections < 9000
    assert np.array_equal(ens.strains, strains)
    assert np.array_equal(ens.shifts_mev, shifts_mev)
    prov = ens.provenance
    assert (prov.n_range_rejections, prov.n_raw_draws,
            prov.n_retained) == (rejections, 9000, 9000 - rejections)


_defect = st.tuples(
    st.integers(0, 4), st.booleans(), st.floats(0.9, 1.4),
    st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)))


@settings(max_examples=60, deadline=None)
@given(st.lists(_defect, max_size=20))
def test_defect_field_chunk_matches_superpose(defects):
    size = 5
    directions = np.array([d[3] for d in defects]).reshape(-1, 3)
    norms = np.linalg.norm(directions, axis=1)
    assume(np.all(norms > 1e-3))
    owner = np.array([d[0] for d in defects], dtype=int)
    is_vacancy = np.array([d[1] for d in defects], dtype=bool)
    kinds = np.where(is_vacancy, "vacancy", "interstitial")
    radii = np.array([d[2] for d in defects])
    positions = directions / norms[:, None] * radii[:, None]
    volume = np.where(is_vacancy, -0.25, 0.60)
    amplitude = volume * 0.0200 / (4 * np.pi)

    strains = np.zeros((6, size))
    _defect_field_chunk(strains, owner, amplitude, positions.T)
    strains = strains.T

    for i in range(size):
        mine = np.flatnonzero(owner == i)
        want = superpose([PointDefect(str(kinds[k]), tuple(positions[k]))
                          for k in mine], [0.0, 0.0, 0.0])
        scale = np.abs(amplitude[mine]).max() / 0.9 ** 3 if len(mine) else 0
        np.testing.assert_allclose(strains[i], want, rtol=1e-12,
                                   atol=1e-12 * scale)


# ---------------------------------------------------------------------------
# spectrum synthesis
# ---------------------------------------------------------------------------

def test_single_line_width_and_position():
    emitter = EmitterParams()
    grid, intensity = synthesize_spectrum(np.array([0.0]), emitter)
    assert intensity.max() == pytest.approx(1.0)
    assert grid[np.argmax(intensity)] == pytest.approx(1278.3, abs=1e-3)
    assert numerical_fwhm(grid, intensity) == pytest.approx(0.073, abs=1e-3)


def test_shifted_line_lands_at_converted_wavelength():
    emitter = EmitterParams()
    grid, intensity = synthesize_spectrum(np.array([-2.0]), emitter)
    # -2 meV -> +2.636 nm
    peak = grid[np.argmax(intensity)]
    assert peak == pytest.approx(1278.3 + 2.635902, abs=2e-3)


def _longdouble_sum(grid, centers, half):
    """One term at a time in long double: sum of 1/((x - c)^2 + half^2)."""
    half_sq = np.longdouble(half) ** 2
    x = np.asarray(grid, dtype=np.longdouble)
    total = np.zeros_like(x)
    for c in centers:
        total += 1 / ((x - c) ** 2 + half_sq)
    return total


def _direct_lorentzian_sum(grid, shifts_mev, emitter):
    """The long-double sum over the lines of ``shifts_mev``, peak-normalized,
    so that its own rounding stays far below the tests' tolerance."""
    lam0 = emitter.zpl_wavelength_nm
    total = _longdouble_sum(grid, lam0 + delta_lambda_from_delta_e(
        shifts_mev, lam0), emitter.homogeneous_fwhm_nm / 2.0)
    return (total / total.max()).astype(float)


@pytest.mark.parametrize("n", [1, SYNTH_BLOCK - 1, SYNTH_BLOCK,
                               SYNTH_BLOCK + 1, 3 * SYNTH_BLOCK + 7])
def test_spectrum_matches_direct_sum(n):
    emitter = EmitterParams()
    shifts = np.random.default_rng(n).uniform(-3.0, 3.0, n)
    grid, intensity = synthesize_spectrum(shifts, emitter)
    np.testing.assert_allclose(
        intensity, _direct_lorentzian_sum(grid, shifts, emitter), rtol=1e-12)


def _even_grid(n_points, emitter=EmitterParams()):
    """``n_points`` grid points an eighth of the FWHM apart, centred on the
    reference line."""
    step = emitter.homogeneous_fwhm_nm / 8
    return emitter.zpl_wavelength_nm + step * (np.arange(n_points)
                                               - n_points // 2)


def _treecode_case(name):
    """(shifts, grid or None)."""
    emitter = EmitterParams()
    rng = np.random.default_rng(12)
    n = 2200
    if name == "70% zero shifts":
        shifts = np.where(rng.random(n) < 0.7, 0.0, rng.uniform(-7, 7, n))
        return shifts, None
    if name == "centers at both edges":
        # the default grid ends ten widths (plus under a step) beyond the
        # extreme shifts; a third of the centers sit on each of them
        shifts = np.r_[np.full(n // 3, -7.0), np.full(n // 3, 7.0),
                       rng.uniform(-7, 7, n - 2 * (n // 3))]
        return shifts, None
    if name == "non-uniform grid":
        steps = rng.uniform(0.2, 1.0, 2400) * emitter.homogeneous_fwhm_nm / 5
        grid = emitter.zpl_wavelength_nm + np.cumsum(steps) - steps.sum() / 2
        shifts = rng.uniform(-5, 5, 2400)
        return shifts, grid
    # "mixed": 2000 centers within 24 grid points plus 20 scattered ones
    grid = _even_grid(2048)
    lam = rng.uniform(grid[1028], grid[1052], 2000)
    shifts = np.r_[delta_e_from_delta_lambda(lam - emitter.zpl_wavelength_nm,
                                             emitter.zpl_wavelength_nm),
                   rng.uniform(-5, 5, 20)]
    return shifts, grid


@pytest.mark.parametrize("name", [
    "70% zero shifts", "centers at both edges", "non-uniform grid", "mixed"])
def test_treecode_matches_direct_sum(name):
    emitter = EmitterParams()
    shifts, grid = _treecode_case(name)
    grid, intensity = synthesize_spectrum(shifts, emitter, grid)
    np.testing.assert_allclose(
        intensity, _direct_lorentzian_sum(grid, shifts, emitter), rtol=1e-12)


HALF = EmitterParams().homogeneous_fwhm_nm / 2.0
# 64 leaves of 2**-4 nm (1.71 half-widths) from a grid start and a step that
# are exact in binary, so that every leaf edge is a double and a grid point
DYADIC_GRID = 1276.296875 + 2.0 ** -7 * np.arange(513)


def _leaf_position(grid, x, half=HALF):
    """Leaf count of the tree over ``grid``, and the position of each ``x``
    in leaf widths from grid[0]: the leaves are the fewest equal ones, at
    least 4 and a power of two, no wider than 3 half-widths."""
    span = grid[-1] - grid[0]
    n = 4
    while span / n > 3.0 * half:
        n *= 2
    return n, (np.asarray(x) - grid[0]) / (span / n)


def _fmm_case(name):
    """(centers, grid, half) of one tree structure."""
    rng = np.random.default_rng(5)
    edges = DYADIC_GRID[::8]
    if name == "reference line on a leaf edge":
        # a low-density ensemble: 70% of its centers on the reference line,
        # which halves the symmetric default grid
        emitter = EmitterParams()
        shifts = np.where(rng.random(3000) < 0.7, 0.0,
                          rng.normal(0.0, 0.2, 3000))
        grid = default_wavelength_grid(shifts, emitter)
        n, t = _leaf_position(grid, emitter.zpl_wavelength_nm)
        assert t == pytest.approx(n // 2, abs=1e-9)
        lam0 = emitter.zpl_wavelength_nm
        return lam0 + delta_lambda_from_delta_e(shifts, lam0), grid, HALF
    if name == "centers on leaf edges":
        # every edge, grid ends included, 30 times, and 600 spread centers
        centers = np.r_[np.repeat(edges, 30),
                        rng.uniform(edges[0], edges[-1], 600)]
        n, t = _leaf_position(DYADIC_GRID, edges)
        assert n == 64 and np.array_equal(t, np.arange(65))
        return centers, DYADIC_GRID, HALF
    if name == "sources two and three leaves from a target":
        # the first and last double of leaf 30; grid points on the edges of
        # leaves 32 and 33 are two and three leaves away
        centers = np.r_[np.full(700, edges[30]),
                        np.full(700, np.nextafter(edges[31], 0.0))]
        _, t = _leaf_position(DYADIC_GRID, centers)
        assert set(np.floor(t)) == {30.0}
        return centers, DYADIC_GRID, HALF
    if name == "all centers in one leaf":
        centers = np.r_[rng.uniform(edges[12], edges[13], 1500),
                        np.full(500, edges[12] + 0.01)]
        return centers, DYADIC_GRID, HALF
    # "shallowest tree": four leaves, so that only the end leaves are far
    grid = 1278.3 + HALF / 4 * np.arange(41)
    assert _leaf_position(grid, grid)[0] == 4
    return rng.uniform(grid[0], grid[-1], 1200), grid, HALF


@pytest.mark.parametrize("name", [
    "reference line on a leaf edge", "centers on leaf edges",
    "sources two and three leaves from a target", "all centers in one leaf",
    "shallowest tree"])
def test_fmm_matches_direct_sum(name):
    centers, grid, half = _fmm_case(name)
    intensity = _fmm_sum(grid, centers, half)
    direct = _longdouble_sum(grid, centers, half)
    np.testing.assert_allclose(intensity / intensity.max(),
                               (direct / direct.max()).astype(float),
                               rtol=1e-12)


def test_fmm_error_is_within_the_bound():
    # a narrow and a wide group of lines on their default grid: at most
    # 9.4e-15 relative at every point
    emitter = EmitterParams()
    rng = np.random.default_rng(9)
    shifts = np.r_[rng.normal(0.0, 0.3, 2000), rng.uniform(-5.0, 5.0, 1000)]
    grid = default_wavelength_grid(shifts, emitter)
    lam0 = emitter.zpl_wavelength_nm
    centers = lam0 + delta_lambda_from_delta_e(shifts, lam0)
    direct = _longdouble_sum(grid, centers, HALF)
    error = np.abs(_fmm_sum(grid, centers, HALF) - direct) / direct
    assert float(error.max()) <= 9.4e-15


def test_fmm_sum_memory_on_a_large_grid():
    # 2000 spread centers on 2e5 points a quarter half-width apart: no
    # centers-by-grid buffer, which would take 410 MB for 256 centers
    grid = 1278.3 + 2.5e-4 * np.arange(-100_000, 100_000)
    centers = np.random.default_rng(4).uniform(grid[0], grid[-1], 2000)
    tracemalloc.start()
    try:
        intensity = _fmm_sum(grid, centers, 1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(intensity > 0)
    assert peak < 100e6


@pytest.mark.parametrize("case", ["sparse", "spread", "identical",
                                  "one box"])
def test_spectrum_memory_is_one_block(case):
    emitter = EmitterParams()
    shifts, grid = {
        # 1200 shifts over 223 of 256 leaves of 8 grid points, at most 6
        # centers per leaf
        "sparse": (np.linspace(-6.0, 6.0, 1200), _even_grid(2000)),
        # 20k shifts over 106 of 128 leaves, at most 192 centers per leaf
        "spread": (np.linspace(-2.5, 2.5, 20000), None),
        # 20k shifts in one leaf of a 4000-point grid, or spread over 4
        # leaves (5408 centers in the fullest); the near field of a leaf,
        # the leaves within two of it, holds 39 grid points
        "identical": (np.full(20000, 0.4), _even_grid(4000)),
        "one box": (np.linspace(-0.1, 0.1, 20000), _even_grid(4000)),
    }[case]
    tracemalloc.start()
    try:
        grid, _ = synthesize_spectrum(shifts, emitter, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) == {"sparse": 2000, "spread": 885}.get(case, 4000)
    # the near field goes through one buffer of at most SYNTH_BLOCK x 40
    # points (82 KB); all 20k centers of the fullest leaf times its near
    # field would be 6.2 MB, and every center times the whole grid 19 MB
    # ("sparse") to 640 MB
    assert peak < 8e6


def test_spectrum_memory_per_line():
    # the lines and their sorted copy take 16 bytes per sample, and the
    # tree's expansions about 0.4 MB on this 841-point grid; each further
    # full-length temporary would add 8
    emitter = EmitterParams()
    shifts = np.random.default_rng(9).normal(0.0, 0.5, 200_000)
    synthesize_spectrum(shifts[:100], emitter)
    (grid, _), peak = _traced_peak(lambda: synthesize_spectrum(shifts,
                                                               emitter))
    assert len(grid) == 841
    assert peak < 20 * len(shifts)


@pytest.mark.parametrize("zpl, fwhm", [(1278.3, 1e300), (1e-300, 1e-300)])
def test_spectrum_of_a_width_at_the_ends_of_the_float_range(zpl, fwhm):
    # the sum is taken in units of the binade of the half-width, so no
    # term over- or underflows: 200 lines within a small fraction of a
    # width of each other give one Lorentzian of that width
    emitter = EmitterParams(zpl_wavelength_nm=zpl, homogeneous_fwhm_nm=fwhm)
    with np.errstate(all="raise", under="ignore"):
        grid, intensity = synthesize_spectrum(np.linspace(-1.0, 1.0, 200),
                                              emitter)
        expected = 1.0 / (1.0 + ((grid - zpl) / (fwhm / 2.0)) ** 2)
    assert len(grid) == 161
    np.testing.assert_allclose(intensity, expected, rtol=1e-12, atol=0)


def test_spectrum_grid_resolution_guard():
    emitter = EmitterParams()
    coarse = np.linspace(1276.0, 1281.0, 50)   # step 0.1 > fwhm/5
    with pytest.raises(ValidationError, match="step"):
        synthesize_spectrum(np.array([0.0]), emitter, wavelength_grid=coarse)


def test_spectrum_grid_coverage_guard():
    emitter = EmitterParams()
    narrow = np.arange(1278.0, 1278.6, 0.01)
    with pytest.raises(ValidationError, match="cover"):
        synthesize_spectrum(np.array([0.0]), emitter, wavelength_grid=narrow)


def test_default_grid_properties():
    emitter = EmitterParams()
    shifts = np.array([-4.0, 1.0])
    grid = default_wavelength_grid(shifts, emitter)
    step = np.diff(grid)
    assert np.allclose(step, step[0])
    assert step[0] <= 0.073 / 5
    margin = abs(-4.0) * 1278.3**2 * 1e-3 / 1239.842 + 10 * 0.073
    assert grid[0] <= 1278.3 - margin + step[0]
    assert grid[-1] >= 1278.3 + margin - step[0]


def test_default_grid_point_cap():
    # a 10 meV shift at 1.5e-4 nm width needs 1.41e6 points
    with pytest.raises(ValidationError, match="homogeneous_fwhm_nm"):
        synthesize_spectrum([10.0], EmitterParams(homogeneous_fwhm_nm=1.5e-4))


def test_empty_ensemble_errors():
    emitter = EmitterParams()
    with pytest.raises(ValidationError, match="no samples"):
        synthesize_spectrum(np.array([]), emitter)
    with pytest.raises(ValidationError, match="no samples"):
        histogram_shifts(np.array([]), 0.25)


# ---------------------------------------------------------------------------
# histogram
# ---------------------------------------------------------------------------

def test_histogram_counts_and_alignment():
    shifts = np.array([-1.9, -0.3, -0.2, 0.0, 0.4, 2.2])
    edges, counts = histogram_shifts(shifts, 0.5)
    assert counts.sum() == len(shifts)
    # edges land on multiples of the bin width
    assert np.allclose(edges / 0.5, np.round(edges / 0.5))
    assert edges[0] <= shifts.min() and edges[-1] >= shifts.max()


def test_histogram_rejects_bad_width():
    with pytest.raises(ValidationError, match="bin_width_mev must be positive"):
        histogram_shifts(np.array([0.0]), 0.0)
