"""Intensity scaling with fluence: pulsed versus continuous delivery.

Integrates the damage model over a log-spaced fluence grid twice, once
with a nanosecond pulse train (gaps let filled traps anneal) and once
with continuous exposure at the same total fluence, then fits the
power-law exponent of integrated intensity against fluence for each.
Pulse parameters follow the high-instantaneous-flux regime where
destruction is suppressed, so the pulsed exponent comes out well above
the cw one.
"""

import argparse
import os

import numpy as np

from defect_spectra.fitting import fit_power_law
from defect_spectra.kinetics import (
    DamageParams,
    cw_schedule,
    integrate_damage,
    pulsed_schedule,
)
from defect_spectra.output import svg_line_plot, write_atomic, write_csv

FLUENCES_CM2 = np.logspace(11, 14, 9)
PULSE_FLUX = 7.9e18         # cm^-2 s^-1 during the pulse
PULSE_DURATION_S = 1e-8
PULSE_PERIOD_S = 45.0
CW_FLUX = 8e11


def endpoint(schedule, params):
    hist = integrate_damage(schedule, params)
    return hist.n_g_cm2[-1], hist.tau_eff_ns[-1], hist.intensity[-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/fluence_exponent_scan")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    params = DamageParams()
    # n_G, tau_eff and intensity over FLUENCES_CM2, one array each
    pulsed = np.array([
        endpoint(pulsed_schedule(fluence, PULSE_FLUX, PULSE_DURATION_S,
                                 PULSE_PERIOD_S), params)
        for fluence in FLUENCES_CM2]).T
    cw = np.array([endpoint(cw_schedule(fluence, CW_FLUX), params)
                   for fluence in FLUENCES_CM2]).T

    write_csv(os.path.join(args.out, "fluence_scan.csv"),
              ["fluence_cm2", "n_G_pulsed", "tau_eff_pulsed_ns",
               "intensity_pulsed", "n_G_cw", "tau_eff_cw_ns",
               "intensity_cw"], [FLUENCES_CM2, *pulsed, *cw])

    fit_p = fit_power_law(FLUENCES_CM2, pulsed[2])
    fit_c = fit_power_law(FLUENCES_CM2, cw[2])
    print(f"pulsed: exponent {fit_p.parameters['exponent']:.3f} "
          f"+- {fit_p.stderr['exponent']:.3f}")
    print(f"cw:     exponent {fit_c.parameters['exponent']:.3f} "
          f"+- {fit_c.stderr['exponent']:.3f}")
    print(f"cw tau_eff over the sweep: {cw[1, 0]:.2f} -> {cw[1, -1]:.2f} ns")

    for label, ends in (("pulsed", pulsed), ("cw", cw)):
        svg = svg_line_plot(np.log10(FLUENCES_CM2), np.log10(ends[2]),
                            "log10 fluence (cm^-2)", "log10 intensity (arb)")
        write_atomic(os.path.join(args.out, f"scaling_{label}.svg"), svg)
    print(f"wrote fluence_scan.csv, scaling_pulsed.svg, scaling_cw.svg "
          f"to {args.out}")


if __name__ == "__main__":
    main()
