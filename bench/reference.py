"""Reference computations the benchmark checks the program's outputs against.

Everything here is written from the documented model and file formats
(FORMATS.md, the docstrings of the rate equations), not from the package:
this module imports numpy and scipy only. Each check either recomputes a
quantity from the benchmark's own inputs or tests a property the method must
have, so none of them depends on the order in which the program draws its
random numbers.
"""

from __future__ import annotations

import csv
import math

import numpy as np

# h*c in eV nm, the value the package states for its first-order
# energy/wavelength conversion.
HC_EV_NM = 1239.842
# Boltzmann constant in eV/K, as used by the damage model's Arrhenius factor.
KB_EV_K = 8.617333e-5
# Five standard deviations: a correct sampler fails a binomial check with
# probability below 1e-6.
BINOMIAL_Z = 5.0


# ---------------------------------------------------------------------------
# CSV precision
# ---------------------------------------------------------------------------

def g10_half_ulp(values) -> np.ndarray:
    """Largest rounding error of ``%.10g`` for each value (0 for exact 0)."""
    v = np.abs(np.asarray(values, dtype=float))
    out = np.zeros_like(v)
    nz = v > 0
    out[nz] = 0.5 * 10.0 ** (np.floor(np.log10(v[nz])) - 9)
    return out


def read_numeric_csv(path) -> np.ndarray:
    """Rows of a numeric CSV with one header row."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_report(path) -> dict:
    """``{parameter: value}`` of a ``parameter,value,stderr`` fit report."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return {name: float(value) for name, value, _ in rows}


# ---------------------------------------------------------------------------
# strain response table and line shifts
# ---------------------------------------------------------------------------

# Voigt component -> table axis; y reuses x and yz reuses xz (FORMATS.md).
COMPONENT_AXES = ("x", "x", "z", "xy", "xz", "xz")


def read_response_table(path) -> dict:
    """``{axis: (strain_grid, shift_mev)}`` from an ``axis,strain,shift_mev``
    table, skipping ``#`` comment lines."""
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh
                            if not line.lstrip().startswith("#"))
        next(reader)
        for axis, strain, shift in reader:
            rows.setdefault(axis.strip(), []).append((float(strain),
                                                      float(shift)))
    return {axis: tuple(np.array(c) for c in zip(*sorted(pts)))
            for axis, pts in rows.items()}


def table_shift(table, strains) -> np.ndarray:
    """Additive piecewise-linear shift (meV) of strain 6-vectors."""
    strains = np.atleast_2d(strains)
    total = np.zeros(len(strains))
    for j, axis in enumerate(COMPONENT_AXES):
        grid, shift = table[axis]
        total += np.interp(strains[:, j], grid, shift)
    return total


def table_shift_tolerance(table, strains, shifts) -> np.ndarray:
    """Per-sample bound on |dumped shift - table_shift(dumped strains)|.

    The dumped strains and shifts carry ``%.10g`` rounding; each strain
    error moves the shift by at most the steepest slope of its axis curve.
    The factor two covers the first-order bound; the floor covers
    summation order.
    """
    strains = np.atleast_2d(strains)
    bound = g10_half_ulp(shifts)
    for j, axis in enumerate(COMPONENT_AXES):
        grid, shift = table[axis]
        slope = float(np.max(np.abs(np.diff(shift) / np.diff(grid))))
        bound = bound + slope * g10_half_ulp(strains[:, j])
    return 2.0 * bound + 1e-12


def delta_lambda_nm(shift_mev, lambda0_nm):
    """First-order wavelength shift of an energy shift (blueshift < 0 nm)."""
    return -(lambda0_nm ** 2) * np.asarray(shift_mev) * 1e-3 / HC_EV_NM


# ---------------------------------------------------------------------------
# Lorentzian spectra
# ---------------------------------------------------------------------------

def lorentzian_sums(x, centers, fwhm, center_error=None, chunk=8192):
    """Sum of unit-area Lorentzians at points ``x``.

    Returns (value, |d value/dx|, propagated center error), the last being
    sum_k |dL/dc_k| * center_error_k (zeros when no error is given).
    Samples are summed in chunks so memory stays small.
    """
    x = np.asarray(x, dtype=float)[:, None]
    half = fwhm / 2.0
    pref = fwhm / (2.0 * np.pi)
    value = np.zeros(x.shape[0])
    slope = np.zeros(x.shape[0])
    cerr = np.zeros(x.shape[0])
    for start in range(0, len(centers), chunk):
        c = centers[None, start:start + chunk]
        d = x - c
        denom = d * d + half * half
        value += np.sum(pref / denom, axis=1)
        deriv = 2.0 * pref * d / (denom * denom)
        slope += np.sum(deriv, axis=1)
        if center_error is not None:
            cerr += np.abs(deriv) @ center_error[start:start + chunk]
    return value, np.abs(slope), cerr


def check_spectrum(grid, intensity, shifts_mev, lambda0_nm, fwhm_nm,
                   n_points=256):
    """Compare a peak-normalized spectrum CSV with a direct Lorentzian sum.

    Evaluates the sum over the dumped shifts at ``n_points`` evenly spaced
    grid points and at the CSV's maximum, normalizes by the latter, and
    returns the worst ratio of |difference| to the tolerance that the
    ``%.10g`` rounding of wavelengths, shifts and intensities allows
    (a value <= 1 passes).
    """
    m = int(np.argmax(intensity))
    idx = np.unique(np.r_[np.linspace(0, len(grid) - 1, n_points).astype(int),
                          m])
    centers = lambda0_nm + delta_lambda_nm(shifts_mev, lambda0_nm)
    center_err = np.abs(delta_lambda_nm(g10_half_ulp(shifts_mev), lambda0_nm))
    value, slope, cerr = lorentzian_sums(grid[idx], centers, fwhm_nm,
                                         center_err)
    k = int(np.flatnonzero(idx == m)[0])
    peak = value[k]
    predicted = value / peak
    grid_err = slope * g10_half_ulp(grid[idx]) + cerr
    rel_peak_err = grid_err[k] / peak
    tol = (2.0 * (grid_err / peak + predicted * rel_peak_err
                  + g10_half_ulp(intensity[idx]))
           + 1e-12 * predicted + 1e-15)
    return float(np.max(np.abs(intensity[idx] - predicted) / tol))


def half_max_width(x, y) -> float:
    """FWHM above a median-of-wings baseline.

    The baseline is the median of the outer five percent of points at each
    end; the half-maximum crossings are interpolated linearly between the
    first points below half maximum, walking outward from the maximum.
    """
    n_edge = max(1, int(0.05 * len(x)))
    base = float(np.median(np.r_[y[:n_edge], y[-n_edge:]]))
    i = int(np.argmax(y))
    half = base + (y[i] - base) / 2.0

    def crossing(step):
        j = i
        while y[j + step] >= half:
            j += step
        k = j + step
        return x[j] + (half - y[j]) / (y[k] - y[j]) * (x[k] - x[j])

    return float(crossing(+1) - crossing(-1))


# ---------------------------------------------------------------------------
# sampler statistics
# ---------------------------------------------------------------------------

def shell_volume_cm3(r_min_nm, r_max_nm) -> float:
    return 4.0 / 3.0 * math.pi * (r_max_nm ** 3 - r_min_nm ** 3) * 1e-21


def poisson_zero_share(total_density_cm3, r_min_nm, r_max_nm) -> float:
    """Probability that a Poisson shell holds no defect at all."""
    return math.exp(-total_density_cm3 * shell_volume_cm3(r_min_nm, r_max_nm))


def biased_small_share(threshold, low, high, keep_fraction) -> float:
    """Share of retained biased-z draws with max(|e_xx|, |e_yy|) <= threshold.

    A raw draw is small with probability p = (2 threshold / (high - low))^2
    and always kept; a large one is kept with probability keep_fraction.
    """
    p = (2.0 * threshold / (high - low)) ** 2
    return p / (p + (1.0 - p) * keep_fraction)


def binomial_ok(k, n, p) -> bool:
    """``k`` successes in ``n`` trials is within BINOMIAL_Z sigma of n*p."""
    return abs(k - n * p) <= BINOMIAL_Z * math.sqrt(n * p * (1.0 - p)) + 1.0


# ---------------------------------------------------------------------------
# damage kinetics
# ---------------------------------------------------------------------------

def damage_rates(flux, p) -> tuple:
    """(emitter loss rate, emitter source, trap source) at constant flux.

    ``p`` maps the [damage] keys the benchmark writes to their values. The
    formulas follow the model as documented: enhanced formation
    f*flux*(1 + (flux/flux_e)^q), Arrhenius destruction damped by
    (1 + flux/flux_s), trap production turning super-linear above the
    clustering threshold.
    """
    form = (p["formation_coefficient_cm2"] * flux
            * (1.0 + (flux / p["formation_enhancement_flux"])
               ** p["formation_enhancement_exponent"]))
    destr = (p["destruction_coefficient_cm2"] * flux
             * math.exp(-p["destruction_activation_energy_ev"]
                        / (KB_EV_K * p["temperature_k"]))
             / (1.0 + flux / p["destruction_suppression_flux"]))
    over = max(0.0, flux / p["clustering_threshold_flux"] - 1.0)
    trap = (p["trap_formation_per_proton"] * flux
            * (1.0 + over ** p["trap_clustering_exponent"]))
    return form + destr, form * p["carbon_areal_density_cm2"], trap


def pulse_train_final(n, flux, pulse_s, period_s, p) -> tuple:
    """(n_G, n_trap) right after the last of ``n`` identical pulses.

    n_G relaxes only during pulses: n_G = -(s/k) expm1(-k n tau). Traps
    gain c = -(s_t/a) expm1(-a tau) per pulse and decay by q = exp(-a T)
    per period, so n_trap = c (1 - q^n)/(1 - q), written in expm1 form to
    keep full precision when a*T is tiny.
    """
    k_g, s_g, s_t = damage_rates(flux, p)
    a = p["dynamic_annealing_rate_s"]
    n_g = -(s_g / k_g) * math.expm1(-k_g * n * pulse_s)
    if a == 0.0:
        return n_g, s_t * n * pulse_s
    c = -(s_t / a) * math.expm1(-a * pulse_s)
    return n_g, c * math.expm1(-a * n * period_s) / math.expm1(-a * period_s)


def cw_final(fluence, flux, p) -> tuple:
    """(n_G, n_trap) after one continuous segment delivering ``fluence``."""
    return pulse_train_final(1, flux, fluence / flux, fluence / flux, p)


def ols_exponent(x, y) -> float:
    """Slope of log(y) against log(x) by ordinary least squares."""
    lx, ly = np.log(x), np.log(y)
    design = np.column_stack([lx, np.ones_like(lx)])
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    return float(coef[0])


# ---------------------------------------------------------------------------
# pump decay
# ---------------------------------------------------------------------------

def unsaturated_decay_rate(t_ns, k) -> np.ndarray:
    """Photon rate n_x/tau_r of the decay model with non-saturating traps.

    Carriers leave at b = k_g + k_t and excited emitters at
    c = 1/tau_r + k_t, so n_x = n0 k_g (e^{-bt} - e^{-ct}) / (c - b).
    ``k`` maps the [kinetics] keys the benchmark writes to their values.
    """
    n0 = k["pump_power_mw"] * k["carrier_density_per_mw_cm3"]
    k_g = k["capture_coefficient_g_cm3_ns"] * k["g_center_density_cm3"]
    k_t = k["capture_coefficient_trap_cm3_ns"] * k["trap_density_cm3"]
    b = k_g + k_t
    c = 1.0 / k["tau_r_ns"] + k_t
    t = np.asarray(t_ns, dtype=float)
    n_x = n0 * k_g * (np.exp(-b * t) - np.exp(-c * t)) / (c - b)
    return n_x / k["tau_r_ns"]


def curve_fit_tau(t, y, window) -> float:
    """tau of A exp(-t/tau) + B fitted by scipy.optimize.curve_fit."""
    from scipy.optimize import curve_fit

    sel = (t >= window[0]) & (t <= window[1])
    tw, yw = t[sel], y[sel]
    slope = np.polyfit(tw, np.log(yw - yw.min() + 1e-3 * np.ptp(yw)), 1)[0]
    tau0 = -1.0 / slope
    a0 = (yw[0] - yw.min()) * math.exp(tw[0] / tau0)

    def model(tt, a, tau, base):
        return a * np.exp(-tt / tau) + base

    popt, _ = curve_fit(model, tw, yw, p0=[a0, tau0, yw.min()],
                        x_scale=[abs(a0), tau0, max(np.ptp(yw), 1.0)],
                        method="trf", xtol=1e-15, ftol=1e-15, gtol=1e-15)
    return float(popt[1])


# ---------------------------------------------------------------------------
# import-time profile
# ---------------------------------------------------------------------------

def importtime_totals(stderr_text, package) -> tuple:
    """(seconds importing scipy, seconds importing ``package``) from the
    ``python -X importtime`` report.

    scipy's share sums the cumulative time of every scipy module not nested
    inside another scipy module, so it counts whatever scipy pulls in; the
    package's share is the cumulative time of its own top-level entry.
    """
    entries = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        parts = line[len("import time:"):].split("|")
        if not parts[1].strip().isdigit():
            continue                                  # the header line
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        entries.append((depth, name, int(parts[1]) * 1e-6))
    scipy_s = package_s = 0.0
    stack = []
    # children precede their parent in the report; walk it backwards so
    # each entry's enclosing imports are on the stack
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside_scipy = any(n.split(".")[0] == "scipy" for _, n in stack)
        if name.split(".")[0] == "scipy" and not inside_scipy:
            scipy_s += cumulative
        if name == package:
            package_s = max(package_s, cumulative)
        stack.append((depth, name))
    return scipy_s, package_s
