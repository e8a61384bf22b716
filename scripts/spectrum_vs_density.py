"""Inhomogeneous line shape versus surrounding defect density.

Samples emitter ensembles embedded in Poisson-distributed vacancy (or
interstitial) environments of increasing density, synthesizes the
broadened spectrum for each on a shared wavelength grid, and tabulates
the numerical FWHM. Writes a stacked-spectra CSV, an FWHM table, and an
FWHM-versus-density SVG.
"""

import argparse
import os

import numpy as np

from defect_spectra.core import EmitterParams
from defect_spectra.ensemble import (
    DefectDensitySpec,
    default_wavelength_grid,
    sample_defect_field,
    synthesize_spectrum,
)
from defect_spectra.fitting import numerical_fwhm
from defect_spectra.output import svg_line_plot, write_atomic, write_csv
from defect_spectra.zplmap import default_table

DENSITIES_CM3 = (3e19, 1e20, 3e20, 1e21)


def run(kind, densities_cm3, n_samples, seed, out_dir):
    emitter = EmitterParams()
    table = default_table()
    os.makedirs(out_dir, exist_ok=True)

    ensembles = []
    for dens in densities_cm3:
        key = ("vacancy_density_cm3" if kind == "vacancy"
               else "interstitial_density_cm3")
        spec = DefectDensitySpec(**{key: dens})
        ens = sample_defect_field(spec, n_samples, seed, table)
        ensembles.append(ens)
        prov = ens.provenance
        print(f"density {dens:.1e} cm^-3: retained {len(ens)}/{n_samples} "
              f"(range rej {prov.n_range_rejections})")

    # one grid wide enough for the broadest ensemble, shared by all
    all_shifts = np.concatenate([e.shifts_mev for e in ensembles])
    grid = default_wavelength_grid(all_shifts, emitter)

    # the pristine line first, then one spectrum per density
    intensities = [synthesize_spectrum(shifts, emitter, grid)[1]
                   for shifts in [[0.0], *(e.shifts_mev for e in ensembles)]]
    header = ["wavelength_nm", "intensity_pristine",
              *(f"intensity_{dens:.1e}" for dens in densities_cm3)]
    write_csv(os.path.join(out_dir, "spectra_vs_density.csv"), header,
              [grid, *intensities])

    densities = [0.0, *densities_cm3]
    widths = [numerical_fwhm(grid, intensity) for intensity in intensities]
    print()
    print(f"{'density_cm3':>12}  {'fwhm_nm':>8}")
    for dens, width in zip(densities, widths):
        print(f"{dens:12.3e}  {width:8.4f}")
    write_csv(os.path.join(out_dir, "fwhm_vs_density.csv"),
              ["density_cm3", "fwhm_nm"], [densities, widths])

    svg = svg_line_plot(np.log10(densities_cm3), widths[1:],
                        f"log10 {kind} density (cm^-3)", "FWHM (nm)")
    write_atomic(os.path.join(out_dir, "fwhm_vs_density.svg"), svg)
    print(f"\nwrote spectra_vs_density.csv, fwhm_vs_density.csv, "
          f"fwhm_vs_density.svg to {out_dir}")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=("vacancy", "interstitial"),
                    default="vacancy")
    ap.add_argument("--samples", type=int, default=20000)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default="out/spectrum_vs_density")
    args = ap.parse_args()
    run(args.kind, DENSITIES_CM3, args.samples, args.seed, args.out)


if __name__ == "__main__":
    main()
