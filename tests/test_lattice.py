import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from defect_spectra.core import ValidationError
from defect_spectra.lattice import (
    SupercellSpec,
    build_supercell,
    enumerate_candidates,
    min_image_distance_nm,
    min_image_frac,
    place_gcenter,
    tetrahedral_voids,
    xyz_table,
)
from defect_spectra.output import write_csv


def brute_force_voids(repeats):
    """Independent oracle: quarter-odd grid points that are not atoms.

    In a diamond-cubic cell both the atoms of the displaced sublattice
    and the open tetrahedral holes sit on the grid of points whose
    conventional-cell coordinates are all 1/4 or 3/4. The holes are the
    grid points with no atom on them.
    """
    geom = build_supercell(SupercellSpec(repeats=repeats))
    atoms = geom.positions_frac
    step = 1.0 / (4 * repeats)
    coords = [(2 * k + 1) * step for k in range(2 * repeats)]
    voids = []
    for p in itertools.product(coords, coords, coords):
        d = atoms - np.asarray(p)
        d -= np.round(d)
        if np.min(np.linalg.norm(d, axis=1)) > 1e-9:
            voids.append(p)
    return np.array(sorted(voids))


def test_supercell_atom_count_and_bounds():
    geom = build_supercell(SupercellSpec(repeats=3))
    assert len(geom.positions_frac) == 216
    assert np.all(geom.positions_frac >= 0)
    assert np.all(geom.positions_frac < 1)
    assert geom.gcenter is None
    assert xyz_table(geom)[1][0].tolist() == ["Si"] * 216
    # lattice constant 0.5431 nm per conventional cell
    assert geom.spec.box_length_nm == pytest.approx(3 * 0.5431)


def test_supercell_neighbor_distance():
    # every atom has 4 nearest neighbors at sqrt(3)/4 * a
    geom = build_supercell(SupercellSpec(repeats=2))
    a_nm = geom.spec.box_length_nm / 2
    expected = np.sqrt(3) / 4 * a_nm
    pos = geom.positions_frac
    d = min_image_distance_nm(pos[None, :, :], pos[:, None, :], geom.spec)
    np.fill_diagonal(d, np.inf)
    nearest = np.sort(d, axis=1)[:, :4]
    assert np.allclose(nearest, expected, rtol=1e-12)


def test_void_count_matches_brute_force():
    voids = tetrahedral_voids(SupercellSpec(repeats=3))
    oracle = brute_force_voids(3)
    assert len(voids) == 108
    assert len(oracle) == 108
    assert np.allclose(np.array(sorted(map(tuple, voids))), oracle)


def test_void_count_other_sizes():
    for repeats in (1, 2):
        voids = tetrahedral_voids(SupercellSpec(repeats=repeats))
        assert len(voids) == 4 * repeats**3
        assert np.allclose(np.array(sorted(map(tuple, voids))),
                           brute_force_voids(repeats))


def tiled_by_separate_formulas(repeats):
    """Independent oracle: the atoms and the voids each tiled by its own
    formula, the atoms divided then wrapped, the voids wrapped then
    divided."""
    n = repeats
    cells = np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    fcc = np.array([[0.0, 0.0, 0.0], [0.0, 0.5, 0.5],
                    [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]])
    basis = np.vstack([fcc, fcc + 0.25])
    atoms = np.mod((cells[:, None, :] + basis[None, :, :]).reshape(-1, 3)
                   / n, 1.0)
    atoms = atoms[np.lexsort((atoms[:, 2], atoms[:, 1], atoms[:, 0]))]
    holes = (cells[:, None, :] + (fcc + 0.75)[None, :, :]).reshape(-1, 3)
    holes = np.mod(holes, 1.0 * n) / n
    holes = holes[np.lexsort((holes[:, 2], holes[:, 1], holes[:, 0]))]
    return atoms, holes


@pytest.mark.parametrize("repeats", [1, 2, 3, 4])
def test_one_tiler_matches_separate_formulas_bit_for_bit(repeats):
    spec = SupercellSpec(repeats=repeats)
    atoms, holes = tiled_by_separate_formulas(repeats)
    got_atoms = build_supercell(spec).positions_frac
    got_holes = tetrahedral_voids(spec)
    assert got_atoms.shape == atoms.shape
    assert got_holes.shape == holes.shape
    assert np.array_equal(got_atoms.view(np.uint64), atoms.view(np.uint64))
    assert np.array_equal(got_holes.view(np.uint64), holes.view(np.uint64))


def test_gcenter_is_three_rows_of_the_atom_table():
    pristine = build_supercell(SupercellSpec(repeats=3))
    geom = place_gcenter(pristine)
    carbon_a, carbon_b, interstitial = geom.gcenter
    elements = xyz_table(geom)[1][0]
    assert elements[carbon_a] == "C"
    assert elements[carbon_b] == "C"
    # the interstitial is the appended last row, a silicon
    assert interstitial == len(pristine.positions_frac)
    assert interstitial == len(geom.positions_frac) - 1
    assert elements[interstitial] == "Si"
    # the carbons are a nearest-neighbor pair
    bond = min_image_distance_nm(geom.positions_frac[carbon_a],
                                 geom.positions_frac[carbon_b], geom.spec)
    assert bond == pytest.approx(np.sqrt(3) / 4 * 0.5431, rel=1e-12)
    # the centroid is the minimum-image midpoint of the two carbons
    a = geom.positions_frac[carbon_a]
    b = geom.positions_frac[carbon_b]
    mid = geom.centroid_frac()
    assert np.allclose(min_image_frac(mid, a), min_image_frac(b, mid),
                       atol=1e-15)
    assert np.allclose(2 * min_image_frac(mid, a), min_image_frac(b, a),
                       atol=1e-15)
    assert np.array_equal(pristine.centroid_frac(), np.zeros(3))


def test_gcenter_placement():
    geom = place_gcenter(build_supercell(SupercellSpec(repeats=3)))
    assert len(geom.positions_frac) == 217
    elements = xyz_table(geom)[1][0].tolist()
    assert elements.count("C") == 2
    assert elements.count("Si") == 215
    assert geom.gcenter is not None
    # the interstitial occupies a former void
    voids = tetrahedral_voids(geom.spec)
    inter = geom.positions_frac[geom.gcenter[2]]
    d = np.linalg.norm(voids - inter, axis=1)
    assert d.min() < 1e-12


def test_gcenter_cannot_be_placed_twice():
    geom = place_gcenter(build_supercell(SupercellSpec(repeats=3)))
    with pytest.raises(ValidationError, match="already contains a G-center"):
        place_gcenter(geom)


def test_vacancy_candidates_count():
    geom = place_gcenter(build_supercell(SupercellSpec(repeats=3)))
    cands = enumerate_candidates(geom, "vacancy")
    # 216 original sites - 2 carbon substitutions + 1 added interstitial
    assert len(cands.positions_frac) == 215
    assert np.all(cands.separation_nm > 0)


def test_pristine_vacancy_candidates_are_all_sites():
    geom = build_supercell(SupercellSpec(repeats=3))
    cands = enumerate_candidates(geom, "vacancy")
    assert len(cands.positions_frac) == 216


def test_void_candidates_after_embedding():
    geom = place_gcenter(build_supercell(SupercellSpec(repeats=3)))
    cands = enumerate_candidates(geom, "interstitial-void")
    assert len(cands.positions_frac) == 106


def test_candidate_separations_cover_expected_range():
    geom = place_gcenter(build_supercell(SupercellSpec(repeats=3)))
    cands = enumerate_candidates(geom, "vacancy")
    # the periodic box caps the distance from the center at the
    # half-diagonal, 1.411015 nm for this cell
    half_diag = geom.spec.box_length_nm * np.sqrt(3) / 2
    assert half_diag == pytest.approx(1.411015, abs=1e-5)
    assert cands.separation_nm.max() <= half_diag
    assert cands.separation_nm.max() == pytest.approx(1.220088, abs=1e-5)


def test_supercell_atom_cap():
    # repeats 50 is 10^6 atoms; one more repeat is refused before anything
    # is allocated
    assert SupercellSpec(repeats=50).n_atoms == 10**6
    for repeats in (51, 1000):
        with pytest.raises(ValidationError, match="atoms"):
            SupercellSpec(repeats=repeats)


def test_unknown_candidate_kind():
    with pytest.raises(ValidationError, match="unknown candidate kind 'foo'"):
        enumerate_candidates(build_supercell(SupercellSpec(repeats=2)), "foo")


@given(st.lists(st.floats(-3, 3), min_size=3, max_size=3),
       st.lists(st.floats(-3, 3), min_size=3, max_size=3))
def test_min_image_is_shortest_over_neighbor_cells(a, b):
    spec = SupercellSpec(repeats=3)
    d = min_image_distance_nm(np.asarray(a) % 1.0, np.asarray(b) % 1.0, spec)
    best = min(
        np.linalg.norm(((np.asarray(a) % 1.0) - (np.asarray(b) % 1.0) + off)
                       * spec.box_length_nm)
        for off in itertools.product((-1, 0, 1), repeat=3))
    assert d == pytest.approx(best, abs=1e-9)


def test_min_image_frac_antisymmetric():
    a = np.array([0.9, 0.1, 0.5])
    b = np.array([0.1, 0.9, 0.5])
    assert np.allclose(min_image_frac(a, b), -min_image_frac(b, a))
    assert np.all(np.abs(min_image_frac(a, b)) <= 0.5)


def test_write_xyz_format(tmp_path):
    geom = place_gcenter(build_supercell(SupercellSpec(repeats=2)))
    head, columns = xyz_table(geom)
    path = tmp_path / "supercell.xyz"
    write_csv(str(path), head, columns)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == str(len(geom.positions_frac))
    assert len(lines) == len(geom.positions_frac) + 2
    assert lines[1] == f"silicon supercell, box {2 * 5.431:.4f} A"
    sym, x, y, z = lines[2].split()
    assert sym in ("Si", "C")
    # coordinates are in Angstrom: all inside the box
    assert 0 <= float(x) < geom.spec.box_length_nm * 10
    rows = [line.split() for line in lines[2:]]
    # the carbons are the G-center's rows, and every other atom is silicon
    assert [i for i, row in enumerate(rows) if row[0] == "C"] == \
        sorted(geom.gcenter[:2])
    assert {row[0] for row in rows} == {"C", "Si"}
    xyz = np.array([row[1:] for row in rows], dtype=float)
    assert np.all((xyz >= 0) & (xyz < geom.spec.box_length_nm * 10))
