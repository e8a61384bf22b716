"""Diamond-cubic supercell geometry and defect-site enumeration.

Positions are stored fractionally in units of the full supercell box, so
minimum-image arithmetic is a single round(). The conventional diamond cell
carries 8 atoms; its 8 tetrahedral holes sit at the quarter-odd points, of
which the 4 not occupied by the second sublattice are the interstitial
voids enumerated here.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SI_LATTICE_CONSTANT_NM, ValidationError

# diamond basis in conventional-cell units
_FCC = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
])
_BASIS_SHIFT = np.array([0.25, 0.25, 0.25])
_VOID_SHIFT = np.array([0.75, 0.75, 0.75])  # unoccupied tetrahedral holes
# Most atoms a supercell may hold (repeats 50): more is refused up front
# instead of exhausting memory.
MAX_ATOMS = 10**6
# Voids excluded around an embedded G-center (see enumerate_candidates).
EXCLUSION_RADIUS_NM = 0.20


@dataclass(frozen=True)
class SupercellSpec:
    """n x n x n repetition of the conventional silicon cell."""

    repeats: int = 3

    def __post_init__(self):
        if not (self.repeats >= 1 and self.n_atoms <= MAX_ATOMS):
            raise ValidationError(
                f"repeats must be >= 1 and give at most {MAX_ATOMS} atoms, "
                f"got {self.repeats}")

    @property
    def box_length_nm(self) -> float:
        return self.repeats * SI_LATTICE_CONSTANT_NM

    @property
    def n_atoms(self) -> int:
        return 8 * self.repeats ** 3


@dataclass
class Geometry:
    """Atom table for one supercell, optionally with an embedded G-center.

    ``gcenter`` is the type-B center as three rows of the table:
    (carbon_a, carbon_b, interstitial). The carbons substitute a
    nearest-neighbor pair; the Si interstitial is the row appended at a
    tetrahedral void adjacent to the pair. Every other atom is silicon.
    """

    spec: SupercellSpec
    positions_frac: np.ndarray          # (N, 3) in box units, half-open [0, 1)
    gcenter: tuple | None = None

    def centroid_frac(self) -> np.ndarray:
        """Reference point for separations: G-center midpoint, else origin."""
        if self.gcenter is None:
            return np.zeros(3)
        a, b = self.positions_frac[list(self.gcenter[:2])]
        return a + 0.5 * min_image_frac(b, a)


@dataclass
class Candidates:
    """Enumerated defect sites with separations from the center."""

    positions_frac: np.ndarray   # (K, 3)
    separation_nm: np.ndarray    # (K,)


def min_image_frac(frac_a, frac_b) -> np.ndarray:
    """Shortest displacement a - b in box units under periodic wrap."""
    d = np.asarray(frac_a, dtype=float) - np.asarray(frac_b, dtype=float)
    return d - np.round(d)


def min_image_distance_nm(frac_a, frac_b, spec: SupercellSpec):
    """Minimum-image distance in nm; broadcasts over leading axes."""
    d = min_image_frac(frac_a, frac_b) * spec.box_length_nm
    return np.linalg.norm(d, axis=-1)


def _tile(spec: SupercellSpec, basis: np.ndarray) -> np.ndarray:
    """``basis`` (conventional-cell units) repeated over every cell of the
    supercell, wrapped into the box, in box units, sorted lexicographically."""
    n = spec.repeats
    cells = np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    # wrap before dividing: void sites leave the cell (0.75 + 0.5), while
    # every atom sum stays below n, where the wrap changes no bit
    frac = np.mod((cells[:, None, :] + basis).reshape(-1, 3), n) / n
    return frac[np.lexsort(frac.T[::-1])]


def build_supercell(spec: SupercellSpec) -> Geometry:
    """Pristine silicon supercell with 8 * repeats^3 atoms."""
    frac = _tile(spec, np.vstack([_FCC, _FCC + _BASIS_SHIFT]))
    return Geometry(spec=spec, positions_frac=frac)


def tetrahedral_voids(spec: SupercellSpec) -> np.ndarray:
    """Fractional positions of the ideal lattice's unoccupied tetrahedral
    holes, 4 per conventional cell, sorted lexicographically."""
    return _tile(spec, _FCC + _VOID_SHIFT)


def place_gcenter(geom: Geometry) -> Geometry:
    """Embed a type-B center: substitute a nearest-neighbor pair with carbon
    and add one silicon interstitial at the void closest to the pair midpoint.

    Ties among equidistant voids are broken lexicographically, which fixes
    one representative of the symmetry-equivalent placements.
    """
    if geom.gcenter is not None:
        raise ValidationError("geometry already contains a G-center")
    frac = geom.positions_frac
    d = min_image_distance_nm(frac, frac[0], geom.spec)
    d[0] = np.inf
    ia, ib = 0, int(np.argmin(d))

    midpoint = frac[ia] + 0.5 * min_image_frac(frac[ib], frac[ia])
    voids = tetrahedral_voids(geom.spec)
    dist = min_image_distance_nm(voids, midpoint, geom.spec)
    best = dist <= dist.min() + 1e-12
    # voids are sorted, so the first flagged row is the lexicographic choice
    v = voids[np.flatnonzero(best)[0]]
    return Geometry(spec=geom.spec, positions_frac=np.vstack([frac, v]),
                    gcenter=(ia, ib, len(frac)))


def enumerate_candidates(geom: Geometry, kind: str) -> Candidates:
    """List candidate defect sites of one kind.

    kind = "vacancy": every silicon atom (substitutional carbons are not
    removable as silicon vacancies, the added interstitial is).

    kind = "interstitial-void": the ideal tetrahedral holes, minus any hole
    within EXCLUSION_RADIUS_NM of a G-center atom (this always covers the
    hole the interstitial itself occupies), minus the one hole nearest the
    interstitial after that, the lexicographically first among equally
    near holes. A plain radius cannot isolate the occupied hole plus
    exactly one neighbor, because the remaining holes come in symmetry
    multiplets of three or four; the one-neighbor rule reproduces the
    two-site exclusion that a relaxed interstitial footprint suggests.
    Pristine cells see no exclusion.
    """
    if kind == "vacancy":
        pos = geom.positions_frac
        if geom.gcenter is not None:
            pos = np.delete(pos, geom.gcenter[:2], axis=0)
    elif kind == "interstitial-void":
        pos = tetrahedral_voids(geom.spec)
        if geom.gcenter is not None:
            anchors = geom.positions_frac[list(geom.gcenter)]
            d_anchor = np.stack([
                min_image_distance_nm(pos, a, geom.spec) for a in anchors
            ]).min(axis=0)
            pos = pos[d_anchor > EXCLUSION_RADIUS_NM]
            d_int = min_image_distance_nm(pos, anchors[2], geom.spec)
            # pos is sorted, so the first nearest row is the lexicographic one
            pos = np.delete(pos, np.argmin(d_int), axis=0)
    else:
        raise ValidationError(
            f"unknown candidate kind {kind!r}; expected 'vacancy' or "
            "'interstitial-void'")

    sep = min_image_distance_nm(pos, geom.centroid_frac(), geom.spec)
    return Candidates(positions_frac=pos, separation_nm=np.atleast_1d(sep))


def xyz_table(geom: Geometry):
    """The head (atom count and comment lines) and the columns (element,
    then x, y, z in Angstrom) of the atom table as an XYZ file."""
    pos = geom.positions_frac * geom.spec.box_length_nm * 10.0
    elements = np.full(len(pos), "Si")
    if geom.gcenter is not None:
        elements[list(geom.gcenter[:2])] = "C"
    return (f"{len(pos)}\nsilicon supercell, box "
            f"{geom.spec.box_length_nm * 10.0:.4f} A\n", [elements, *pos.T])
