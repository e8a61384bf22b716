"""Deterministic least-squares fits and line-shape metrics.

All fits run damped Gauss-Newton with analytic Jacobians; starting points
come from closed-form estimates (log-linear regression for decays,
residual peak-picking for spectra), so results are reproducible without
any stochastic search.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .core import (
    FitError,
    InvalidArgumentError,
    NoDecayError,
    RangeError,
    UnboundedLineError,
    ValidationError,
    increasing_grid,
)


@dataclass
class FitResult:
    parameters: dict
    stderr: dict
    residual_norm: float
    n_iterations: int


@dataclass
class Peak:
    center_nm: float
    fwhm_nm: float
    amplitude: float


@dataclass
class PeakModel:
    peaks: list
    baseline: float
    residual_norm: float = 0.0
    stderr: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Gauss-Newton core
# ---------------------------------------------------------------------------

def _gauss_newton(residual_fn, jacobian_fn, p0, accept_fn=None,
                  max_iter=200, cost_tol=1e-14, step_tol=1e-12):
    """Minimize ||residual(p)||² by damped Gauss-Newton.

    ``accept_fn(p)`` can veto parameter vectors (e.g. negative widths);
    vetoed trial points are treated as infinitely bad and the step is
    halved. Returns (p, cost, n_iter, converged, J_at_solution).
    """
    p = np.asarray(p0, dtype=float).copy()
    r = residual_fn(p)
    cost = float(r @ r)
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jac = jacobian_fn(p)
        # equilibrate columns so lstsq's rank cutoff cannot drop a
        # parameter whose natural scale is many decades below the others
        norms = np.linalg.norm(jac, axis=0)
        norms[norms == 0] = 1.0
        scaled_step, *_ = np.linalg.lstsq(jac / norms, -r, rcond=None)
        step = scaled_step / norms
        lam = 1.0
        improved = False
        while lam >= 2.0 ** -20:
            p_try = p + lam * step
            if accept_fn is None or accept_fn(p_try):
                r_try = residual_fn(p_try)
                cost_try = float(r_try @ r_try)
                if np.isfinite(cost_try) and cost_try <= cost:
                    rel_drop = (cost - cost_try) / max(cost, 1e-300)
                    scale = np.maximum(np.abs(p), 1e-300)
                    # a parameter at zero gives rel_step = inf, which
                    # correctly blocks early convergence
                    with np.errstate(over="ignore", divide="ignore"):
                        rel_step = float(np.max(np.abs(lam * step) / scale))
                    p, r, cost = p_try, r_try, cost_try
                    improved = True
                    if rel_step < step_tol or (lam == 1.0
                                               and rel_drop < cost_tol):
                        converged = True
                    break
            lam *= 0.5
        if not improved:
            # no downhill direction left at the smallest damping: stationary
            converged = True
            break
        if converged:
            break
    return p, cost, it, converged, jacobian_fn(p)


def _stderr_from_jacobian(jac, cost, n_params):
    m = jac.shape[0]
    dof = m - n_params
    if dof <= 0:
        return np.zeros(n_params)
    s2 = cost / dof
    try:
        cov = s2 * np.linalg.pinv(jac.T @ jac)
        return np.sqrt(np.clip(np.diag(cov), 0.0, None))
    except np.linalg.LinAlgError:
        return np.full(n_params, np.nan)


# ---------------------------------------------------------------------------
# exponential decay
# ---------------------------------------------------------------------------

def _log_linear_tau(t, y):
    """Slope-based decay-time estimate on baseline-subtracted counts."""
    floor = y.min()
    span = y.max() - floor
    if span <= 0:
        raise NoDecayError("trace is flat, nothing to fit")
    pos = y - floor + 1e-3 * span
    coef = np.polyfit(t, np.log(pos), 1)
    slope = coef[0]
    if slope >= 0:
        raise NoDecayError("trace does not decay within the fit window")
    return -1.0 / slope


def fit_single_exponential(time_ns, counts, window_ns=None,
                           max_iter=200) -> FitResult:
    """Fit A*exp(-t/tau) + B to a decay trace.

    ``window_ns`` is a (start, stop) pair; when omitted it defaults to
    [t_peak, t_peak + 5*tau_guess] with tau_guess from a log-linear
    regression. Needs at least 10 points inside the window.
    """
    t = increasing_grid(time_ns, "time grid", y=counts)
    y = np.asarray(counts, dtype=float)
    if y.max() == y.min():
        raise NoDecayError("trace is flat, nothing to fit")

    i_peak = int(np.argmax(y))
    if window_ns is None:
        tail = slice(i_peak, len(t))
        tau_guess = _log_linear_tau(t[tail], y[tail])
        window_ns = (t[i_peak], t[i_peak] + 5.0 * tau_guess)
    lo, hi = float(window_ns[0]), float(window_ns[1])
    sel = (t >= lo) & (t <= hi)
    if sel.sum() < 10:
        raise ValidationError(
            f"fit window [{lo:g}, {hi:g}] ns holds {int(sel.sum())} points, "
            "need at least 10")
    tw, yw = t[sel], y[sel]
    if yw.max() == yw.min():
        raise NoDecayError("trace is flat inside the fit window")

    tau0 = _log_linear_tau(tw, yw)
    b0 = yw.min()
    a0 = (yw.max() - b0) * np.exp(tw[np.argmax(yw)] / tau0)

    def residual(p):
        a, tau, b = p
        return a * np.exp(-tw / tau) + b - yw

    def jacobian(p):
        a, tau, b = p
        e = np.exp(-tw / tau)
        return np.column_stack([e, a * e * tw / tau ** 2, np.ones_like(tw)])

    p, cost, n_iter, ok, jac = _gauss_newton(
        residual, jacobian, [a0, tau0, b0],
        accept_fn=lambda q: q[1] > 0, max_iter=max_iter)
    if not ok:
        raise FitError(
            f"exponential fit did not converge in {max_iter} iterations, "
            f"residual norm {np.sqrt(cost):.4g}")
    err = _stderr_from_jacobian(jac, cost, 3)
    return FitResult(
        parameters={"amplitude": p[0], "tau_ns": p[1], "baseline": p[2]},
        stderr={"amplitude": err[0], "tau_ns": err[1], "baseline": err[2]},
        residual_norm=float(np.sqrt(cost)), n_iterations=n_iter)


# ---------------------------------------------------------------------------
# Lorentzian peaks
# ---------------------------------------------------------------------------

def _pick_initial_peaks(x, resid, n_peaks, fwhm_guess, step):
    peaks = []
    resid = resid.copy()
    for k in range(n_peaks):
        i = int(np.argmax(resid))
        amp = float(resid[i])
        if amp <= 0:
            warnings.warn(
                f"only {k} of {n_peaks} requested peaks stand above the "
                "baseline; remaining starts are degenerate")
            amp = max(abs(amp), 1e-12)
        width = fwhm_guess
        if width is None:
            # walk outward to the half-amplitude crossings of the residual
            j = i
            while j + 1 < len(x) and resid[j + 1] > amp / 2:
                j += 1
            right = x[min(j + 1, len(x) - 1)]
            j = i
            while j - 1 >= 0 and resid[j - 1] > amp / 2:
                j -= 1
            left = x[max(j - 1, 0)]
            width = max(right - left, 2 * step)
        half = width / 2.0
        peaks.append([x[i], width, amp])
        resid = resid - amp * half ** 2 / ((x - x[i]) ** 2 + half ** 2)
    return peaks


def fit_peaks(wavelength_nm, intensity, n_peaks: int,
              fwhm_guess_nm=None, max_iter=300) -> PeakModel:
    """Least-squares multi-Lorentzian fit with a constant baseline.

    Starting peaks are picked iteratively from the highest residual
    maximum. Peak amplitudes are heights above baseline; peaks in the
    returned model are sorted by center.
    """
    x = increasing_grid(wavelength_nm, "wavelength grid", min_points=5,
                        y=intensity)
    y = np.asarray(intensity, dtype=float)
    if n_peaks < 1:
        raise InvalidArgumentError("n_peaks must be >= 1")
    if y.max() == y.min():
        raise FitError("spectrum is flat, no peak to fit")

    n_edge = max(1, int(0.05 * len(x)))
    base0 = float(np.median(np.concatenate([y[:n_edge], y[-n_edge:]])))
    step = float(np.median(np.diff(x)))
    starts = _pick_initial_peaks(x, y - base0, n_peaks, fwhm_guess_nm, step)

    p0 = []
    for c, w, a in starts:
        p0.extend([c, w, a])
    p0.append(base0)
    p0 = np.array(p0)

    def unpack(p):
        return p[:-1].reshape(n_peaks, 3), p[-1]

    def model(p):
        trip, b = unpack(p)
        out = np.full_like(x, b)
        for c, w, a in trip:
            h = w / 2.0
            out += a * h ** 2 / ((x - c) ** 2 + h ** 2)
        return out

    def residual(p):
        return model(p) - y

    def jacobian(p):
        trip, _ = unpack(p)
        cols = []
        for c, w, a in trip:
            h = w / 2.0
            d2 = (x - c) ** 2
            denom = d2 + h ** 2
            lor = h ** 2 / denom
            d_c = a * h ** 2 * 2 * (x - c) / denom ** 2
            d_w = a * h * d2 / denom ** 2
            cols.extend([d_c, d_w, lor])
        cols.append(np.ones_like(x))
        return np.column_stack(cols)

    def accept(p):
        trip, _ = unpack(p)
        return bool(np.all(trip[:, 1] > 0) and np.all(trip[:, 2] >= 0))

    p, cost, n_iter, ok, jac = _gauss_newton(
        residual, jacobian, p0, accept_fn=accept, max_iter=max_iter)
    if not ok:
        raise FitError(
            f"peak fit did not converge in {max_iter} iterations, "
            f"residual norm {np.sqrt(cost):.4g}")

    trip, b = unpack(p)
    err = _stderr_from_jacobian(jac, cost, len(p))
    order = np.argsort(trip[:, 0])
    peaks = [Peak(center_nm=float(trip[i, 0]), fwhm_nm=float(trip[i, 1]),
                  amplitude=float(trip[i, 2])) for i in order]
    stderr = {}
    for rank, i in enumerate(order):
        stderr[f"center_{rank}"] = float(err[3 * i])
        stderr[f"fwhm_{rank}"] = float(err[3 * i + 1])
        stderr[f"amplitude_{rank}"] = float(err[3 * i + 2])
    stderr["baseline"] = float(err[-1])
    return PeakModel(peaks=peaks, baseline=float(b),
                     residual_norm=float(np.sqrt(cost)), stderr=stderr)


def numerical_fwhm(wavelength_nm, intensity) -> float:
    """Full width at half maximum above a median-of-wings baseline.

    The baseline is the median of the outer ten percent of the grid (five
    percent from each end); crossings are located by linear interpolation
    walking outward from the global maximum.
    """
    x = increasing_grid(wavelength_nm, "wavelength grid", min_points=10,
                        y=intensity)
    y = np.asarray(intensity, dtype=float)
    y_max = y.max()
    peaks_at = np.flatnonzero(y == y_max)
    if len(peaks_at) != 1:
        raise ValidationError("spectrum needs a unique global maximum")
    i_max = int(peaks_at[0])
    n_edge = max(1, int(0.05 * len(x)))
    baseline = float(np.median(np.concatenate([y[:n_edge], y[-n_edge:]])))
    half = baseline + (y_max - baseline) / 2.0
    if y_max <= baseline:
        raise UnboundedLineError("maximum does not rise above the baseline")

    def cross(direction):
        j = i_max
        while 0 <= j + direction < len(x):
            k = j + direction
            if y[k] < half:
                frac = (half - y[j]) / (y[k] - y[j])
                return x[j] + frac * (x[k] - x[j])
            j = k
        side = "long-wavelength" if direction > 0 else "short-wavelength"
        raise UnboundedLineError(
            f"half maximum never crossed on the {side} side")

    return float(cross(+1) - cross(-1))


# ---------------------------------------------------------------------------
# power law and transients
# ---------------------------------------------------------------------------

def fit_power_law(fluence_cm2, intensity) -> FitResult:
    """Ordinary least squares on (log fluence, log intensity).

    Returns exponent (slope) and prefactor with regression standard
    errors; inputs must be positive.
    """
    x = np.asarray(fluence_cm2, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise InvalidArgumentError("need >= 2 matching fluence/intensity points")
    if np.any(x <= 0) or np.any(y <= 0):
        raise InvalidArgumentError("power-law fit needs positive values")
    lx, ly = np.log(x), np.log(y)
    n = len(lx)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ssr = float(resid @ resid)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if n > 2 and sxx > 0:
        s2 = ssr / (n - 2)
        slope_err = np.sqrt(s2 / sxx)
        inter_err = np.sqrt(s2 * (1.0 / n + lx.mean() ** 2 / sxx))
    else:
        slope_err = inter_err = 0.0
    prefactor = float(np.exp(intercept))
    return FitResult(
        parameters={"exponent": float(slope), "prefactor": prefactor},
        stderr={"exponent": float(slope_err),
                "prefactor": prefactor * float(inter_err)},
        residual_norm=float(np.sqrt(ssr)), n_iterations=1)


def transient_initial_intensity(time_ns, counts, window_ns=0.1,
                                resolution_ns=0.1) -> float:
    """Mean counts over [t_peak, t_peak + window]."""
    t = increasing_grid(time_ns, "time grid", y=counts)
    y = np.asarray(counts, dtype=float)
    if window_ns < resolution_ns:
        raise ValidationError(
            f"window {window_ns} ns is below the {resolution_ns} ns resolution")
    t_peak = t[int(np.argmax(y))]
    t_end = t_peak + window_ns
    if t_end > t[-1]:
        raise RangeError(
            f"window [{t_peak:g}, {t_end:g}] ns runs past the trace end {t[-1]:g}")
    sel = (t >= t_peak) & (t <= t_end)
    return float(y[sel].mean())
