"""Diamond-cubic supercell geometry and defect-site enumeration.

Positions are stored fractionally in units of the full supercell box, so
minimum-image arithmetic is a single round(). The conventional diamond cell
carries 8 atoms; its 8 tetrahedral holes sit at the quarter-odd points, of
which the 4 not occupied by the second sublattice are the interstitial
voids enumerated here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    SI_LATTICE_CONSTANT_NM,
    InvalidArgumentError,
    check_fields,
)

# diamond basis in conventional-cell units
_FCC = np.array([
    [0.0, 0.0, 0.0],
    [0.0, 0.5, 0.5],
    [0.5, 0.0, 0.5],
    [0.5, 0.5, 0.0],
])
_BASIS_SHIFT = np.array([0.25, 0.25, 0.25])
_VOID_SHIFT = np.array([0.75, 0.75, 0.75])  # unoccupied tetrahedral holes


@dataclass(frozen=True)
class SupercellSpec:
    """n x n x n repetition of the conventional silicon cell."""

    repeats: int = 3
    lattice_constant_nm: float = SI_LATTICE_CONSTANT_NM

    def __post_init__(self):
        if not self.repeats >= 1:
            raise InvalidArgumentError("repeats must be >= 1")
        check_fields(self, positive=("lattice_constant_nm",))

    @property
    def box_length_nm(self) -> float:
        return self.repeats * self.lattice_constant_nm

    @property
    def n_atoms(self) -> int:
        return 8 * self.repeats ** 3


@dataclass(frozen=True)
class GCenterPlacement:
    """Type-B center: two substitutional carbons plus one Si interstitial.

    ``carbon_site_a/b`` index into the geometry's atom table; the
    interstitial sits at a tetrahedral void adjacent to the pair. The
    orientation label is the normal of the mirror plane spanned by the
    carbon bond and the interstitial, always a <110>-type direction.
    """

    carbon_site_a: int
    carbon_site_b: int
    interstitial_frac: tuple
    orientation: str


@dataclass
class Geometry:
    """Atom table for one supercell, optionally with an embedded G-center."""

    spec: SupercellSpec
    positions_frac: np.ndarray          # (N, 3) in box units, half-open [0, 1)
    elements: list = field(default_factory=list)  # N chemical symbols
    gcenter: GCenterPlacement | None = None

    @property
    def positions_nm(self) -> np.ndarray:
        return self.positions_frac * self.spec.box_length_nm

    def centroid_frac(self) -> np.ndarray:
        """Reference point for separations: G-center midpoint, else origin."""
        if self.gcenter is None:
            return np.zeros(3)
        a = self.positions_frac[self.gcenter.carbon_site_a]
        b = self.positions_frac[self.gcenter.carbon_site_b]
        return a + 0.5 * min_image_frac(b, a)


@dataclass
class Candidates:
    """Enumerated defect sites of one kind with separations from the center."""

    kind: str
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


def build_supercell(spec: SupercellSpec) -> Geometry:
    """Pristine silicon supercell with 8 * repeats^3 atoms."""
    n = spec.repeats
    cells = np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    basis = np.vstack([_FCC, _FCC + _BASIS_SHIFT])
    frac = (cells[:, None, :] + basis[None, :, :]).reshape(-1, 3) / n
    frac = np.mod(frac, 1.0)
    order = np.lexsort((frac[:, 2], frac[:, 1], frac[:, 0]))
    frac = frac[order]
    return Geometry(spec=spec, positions_frac=frac,
                    elements=["Si"] * len(frac))


def tetrahedral_voids(spec: SupercellSpec) -> np.ndarray:
    """Fractional positions of the ideal lattice's unoccupied tetrahedral
    holes, 4 per conventional cell, sorted lexicographically."""
    n = spec.repeats
    cells = np.stack(np.meshgrid(*(np.arange(n),) * 3, indexing="ij"),
                     axis=-1).reshape(-1, 3)
    holes = (cells[:, None, :] + (_FCC + _VOID_SHIFT)[None, :, :]).reshape(-1, 3)
    holes = np.mod(holes, 1.0 * n) / n
    order = np.lexsort((holes[:, 2], holes[:, 1], holes[:, 0]))
    return holes[order]


def _nearest_neighbor_pair(geom: Geometry) -> tuple:
    """Indices of the first atom and its first nearest neighbor."""
    d = min_image_distance_nm(geom.positions_frac, geom.positions_frac[0],
                              geom.spec)
    d[0] = np.inf
    j = int(np.argmin(d))
    return 0, j


def place_gcenter(geom: Geometry) -> Geometry:
    """Embed a type-B center: substitute a nearest-neighbor pair with carbon
    and add one silicon interstitial at the void closest to the pair midpoint.

    Ties among equidistant voids are broken lexicographically, which fixes
    one representative of the symmetry-equivalent placements.
    """
    if geom.gcenter is not None:
        raise InvalidArgumentError("geometry already contains a G-center")
    ia, ib = _nearest_neighbor_pair(geom)
    frac = geom.positions_frac.copy()
    elements = list(geom.elements)
    elements[ia] = "C"
    elements[ib] = "C"

    midpoint = frac[ia] + 0.5 * min_image_frac(frac[ib], frac[ia])
    voids = tetrahedral_voids(geom.spec)
    dist = min_image_distance_nm(voids, midpoint, geom.spec)
    best = dist <= dist.min() + 1e-12
    # voids are sorted, so the first flagged row is the lexicographic choice
    v = voids[np.flatnonzero(best)[0]]

    bond = min_image_frac(frac[ib], frac[ia])
    arm = min_image_frac(v, midpoint)
    normal = np.cross(bond, arm)
    normal = normal / np.max(np.abs(normal))
    digits = "".join("%d" % round(x) if x >= 0 else "-%d" % round(-x)
                     for x in normal)
    placement = GCenterPlacement(
        carbon_site_a=ia, carbon_site_b=ib,
        interstitial_frac=tuple(v), orientation=f"[{digits}]")

    frac = np.vstack([frac, v[None, :]])
    elements.append("Si")
    return Geometry(spec=geom.spec, positions_frac=frac, elements=elements,
                    gcenter=placement)


def enumerate_candidates(geom: Geometry, kind: str,
                         exclusion_radius_nm: float = 0.20,
                         blocked_neighbor_count: int = 1) -> Candidates:
    """List candidate defect sites of one kind.

    kind = "vacancy": every silicon atom (substitutional carbons are not
    removable as silicon vacancies, the added interstitial is).

    kind = "interstitial-void": the ideal tetrahedral holes, minus any hole
    within ``exclusion_radius_nm`` of a G-center atom (this always covers
    the hole the interstitial itself occupies), minus the
    ``blocked_neighbor_count`` holes nearest the interstitial after that.
    A plain radius cannot isolate the occupied hole plus exactly one
    neighbor, because the remaining holes come in symmetry multiplets of
    three or four; the neighbor-count knob reproduces the two-site
    exclusion that a relaxed interstitial footprint suggests. Both knobs
    are configurable, and pristine cells see no exclusion at all.
    """
    if kind == "vacancy":
        mask = np.array([e == "Si" for e in geom.elements])
        pos = geom.positions_frac[mask]
    elif kind == "interstitial-void":
        pos = tetrahedral_voids(geom.spec)
        if geom.gcenter is not None:
            g = geom.gcenter
            anchors = np.vstack([
                geom.positions_frac[g.carbon_site_a],
                geom.positions_frac[g.carbon_site_b],
                np.asarray(g.interstitial_frac),
            ])
            d_anchor = np.stack([
                min_image_distance_nm(pos, a, geom.spec) for a in anchors
            ]).min(axis=0)
            keep = d_anchor > exclusion_radius_nm
            pos = pos[keep]
            if blocked_neighbor_count > 0:
                d_int = min_image_distance_nm(
                    pos, np.asarray(g.interstitial_frac), geom.spec)
                order = np.lexsort((pos[:, 2], pos[:, 1], pos[:, 0], d_int))
                pos = np.delete(pos, order[:blocked_neighbor_count], axis=0)
    else:
        raise InvalidArgumentError(
            f"unknown candidate kind {kind!r}; expected 'vacancy' or "
            "'interstitial-void'")

    sep = min_image_distance_nm(pos, geom.centroid_frac(), geom.spec)
    return Candidates(kind=kind, positions_frac=pos,
                      separation_nm=np.atleast_1d(sep))


def write_xyz(geom: Geometry, path_or_file):
    """Write the atom table as an XYZ file (coordinates in Angstrom)."""
    pos = geom.positions_nm * 10.0
    lines = [f"{len(pos)}",
             f"silicon supercell, box {geom.spec.box_length_nm * 10.0:.4f} A"]
    for el, (x, y, z) in zip(geom.elements, pos):
        lines.append(f"{el} {x:.6f} {y:.6f} {z:.6f}")
    text = "\n".join(lines) + "\n"
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w") as fh:
            fh.write(text)
