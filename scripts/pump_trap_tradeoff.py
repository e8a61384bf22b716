"""Tail lifetime across pump power and trap density.

Runs the capture/emission decay model on a grid of pump powers and trap
densities, tail-fits each trace with a single exponential, and prints
the lifetime matrix. Trap capture shortens the tail; raising the pump
fills traps early in the transient and buys some of it back.
"""

import argparse
import os

import numpy as np

from defect_spectra.fitting import fit_single_exponential
from defect_spectra.kinetics import (
    DecayModelParams,
    LifetimeSet,
    simulate_decay,
)
from defect_spectra.output import write_csv

PUMPS_MW = (0.03, 0.1, 0.3, 1.0, 3.0)
TRAPS_CM3 = (0.0, 1e16, 1e17, 3e17, 1e18)

# the rates every cell shares, which the grid-step bound has to respect
DEFAULTS = DecayModelParams()


def points_for(trap_density_cm3):
    """Time grid points fine enough for the fastest capture rate in the
    cell."""
    fastest_rate = max(1.0 / DEFAULTS.tau_r_ns,
                       DEFAULTS.capture_coefficient_g_cm3_ns
                       * DEFAULTS.g_center_density_cm3,
                       DEFAULTS.capture_coefficient_trap_cm3_ns
                       * trap_density_cm3)
    step_ns = min(0.025, 1.0 / (12.0 * fastest_rate))
    return int(np.ceil(DEFAULTS.t_max_ns / step_ns)) + 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/pump_trap_tradeoff")
    args = ap.parse_args(argv)
    os.makedirs(args.out, exist_ok=True)

    taus = {}
    for n_trap in TRAPS_CM3:
        n_points = points_for(n_trap)
        for pump in PUMPS_MW:
            params = DecayModelParams(trap_density_cm3=n_trap,
                                      pump_power_mw=pump, n_points=n_points)
            trace = simulate_decay(params)
            fit = fit_single_exponential(trace.time_ns, trace.intensity)
            taus[(n_trap, pump)] = fit.parameters["tau_ns"]
    # tail fits can land a hair above tau_r on trap-free traces; clamp
    # before decomposing so qe stays <= 1
    tau_r = DEFAULTS.tau_r_ns
    qe = [LifetimeSet(tau_r_ns=tau_r, tau_eff_ns=min(tau, tau_r)).qe
          for tau in taus.values()]
    traps, pumps = np.array(list(taus)).T

    write_csv(os.path.join(args.out, "pump_trap_tradeoff.csv"),
              ["pump_mw", "trap_density_cm3", "tau_ns", "qe"],
              [pumps, traps, list(taus.values()), qe])

    header = "trap cm^-3 \\ pump mW"
    print(f"{header:>22}" + "".join(f"{p:>9}" for p in PUMPS_MW))
    for n_trap in TRAPS_CM3:
        cells = "".join(f"{taus[(n_trap, p)]:9.2f}" for p in PUMPS_MW)
        print(f"{n_trap:22.1e}{cells}")
    print(f"\nwrote pump_trap_tradeoff.csv to {args.out}")


if __name__ == "__main__":
    main()
