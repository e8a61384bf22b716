"""Deterministic least-squares fits and line-shape metrics.

Every fit returns a FitResult. The exponential and peak fits run one
variable-projection solver: amplitudes and baseline are solved exactly,
and Gauss-Newton iterates on the decay time or the peak centers and
widths. Starting points come from closed-form estimates (log-linear
regression for decays, residual peak-picking for spectra), so results are
reproducible without any stochastic search. The power-law fit is ordinary
least squares in log-log space.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    NumericalError,
    ValidationError,
    increasing_grid,
)


@dataclass
class FitResult:
    """Best-fit parameters and their standard errors, under the same keys and
    in report order, with the residual norm and Gauss-Newton step count."""

    parameters: dict
    stderr: dict
    residual_norm: float
    n_iterations: int


# ---------------------------------------------------------------------------
# variable-projection core
# ---------------------------------------------------------------------------

def _column_norms(a):
    """Euclidean norm of each column of ``a``, with 1 for a zero column."""
    norms = np.sqrt(np.einsum("ij,ij->j", a, a))
    norms[norms == 0] = 1.0
    return norms


def _equilibrated_lstsq(a, b):
    """lstsq(a, b) on unit-norm columns, so the rank cutoff cannot drop a
    column whose natural scale is many decades below the others."""
    norms = _column_norms(a)
    x, *_ = np.linalg.lstsq(a / norms, b, rcond=None)
    return (x.T / norms).T


def _binade(a):
    """e with 2**e the binade of max|a|: max|a| lies in [2**(e-1), 2**e)."""
    return int(np.frexp(np.max(np.abs(a)))[1])


def _projected_fit(what, y, theta0, basis, accept_fn, max_iter, x_exp):
    """Minimize ||Φ(θ)·c - y||² by variable projection.

    ``basis(θ)`` returns the (n, m) basis Φ, the (n, len θ) derivatives
    of Φ and, for each θ_j, the index of the one column of Φ it enters.
    The linear coefficients c = lstsq(Φ, y) are solved exactly for every
    θ, and damped Gauss-Newton runs on θ alone with Kaufman's Jacobian
    P⊥·(∂Φ/∂θ_j)·c (Golub and Pereyra 1973; Kaufman 1975).

    ``accept_fn(θ)`` vetoes θ before Φ is built and ``accept_fn(θ, c)``
    vetoes the projected coefficients; a vetoed trial point is treated as
    infinitely bad and the step is halved, and a vetoed start raises
    NumericalError. Returns (p, stderr, residual_norm, n_iter) with
    p = [θ, c] and standard errors from the column-equilibrated full
    Jacobian [(∂Φ/∂θ)·c, Φ] at the solution; raises NumericalError naming
    ``what`` when ``max_iter`` iterations do not converge.

    The fit runs on y·2⁻ᵉ, with 2ᵉ the binade of max|y|, and c, its
    stderrs and the residual norm are scaled back by 2ᵉ: a power of two
    scales exactly, so the result does not depend on the scale of y, and
    the cost r·r can neither underflow nor overflow. Likewise θ is in
    units of 2^``x_exp``, the units of the grid that ``basis`` is built
    on, and θ and its stderrs are scaled back by it. A result that is not
    finite once scaled back raises NumericalError.
    """
    e = _binade(y)
    y = np.ldexp(y, -e)

    def evaluate(theta):
        if not accept_fn(theta):
            return None
        phi, dphi, cols = basis(theta)
        coef = _equilibrated_lstsq(phi, np.column_stack([y, dphi]))
        c = coef[:, 0]
        if not accept_fn(theta, c):
            return None
        r = phi @ c
        r -= y
        # P⊥·(∂Φ/∂θ_j)·c, with P⊥ = 1 - Φ·lstsq(Φ, ·)
        kaufman = phi @ coef[:, 1:]
        np.subtract(dphi, kaufman, out=kaufman)
        kaufman *= c[cols]
        return kaufman, c, r, float(r @ r)

    theta = np.array(theta0, dtype=float)
    point = evaluate(theta)
    if point is None or not np.isfinite(point[-1]):
        raise NumericalError(f"{what} fit start point is vetoed")
    for it in range(1, max_iter + 1):
        cost = point[-1]
        step = _equilibrated_lstsq(point[0], -point[2])
        scale = np.maximum(np.abs(theta), 1e-300)
        lam = 1.0
        while True:
            # a parameter at zero gives rel_step = inf, which correctly
            # blocks early convergence
            with np.errstate(over="ignore", divide="ignore"):
                rel_step = float(np.max(np.abs(lam * step) / scale))
            theta_try = theta + lam * step
            trial = evaluate(theta_try)
            # a NaN or infinite trial cost fails the comparison
            if trial is not None and trial[-1] <= cost:
                rel_drop = (cost - trial[-1]) / max(cost, 1e-300)
                converged = rel_step < 1e-12 or (lam == 1.0
                                                 and rel_drop < 1e-14)
                theta, point = theta_try, trial
                break
            if rel_step < 1e-12 or lam <= 2.0 ** -20:
                # no downhill step left above rounding: stationary
                converged = True
                break
            lam *= 0.5
        if converged:
            break
    else:
        raise NumericalError(
            f"{what} fit did not converge in {max_iter} iterations, "
            f"residual norm {np.sqrt(point[-1]):.4g}")

    c, cost = point[1], point[-1]
    del point, trial    # the last Jacobians and residuals
    phi, dphi, cols = basis(theta)
    jac = np.column_stack([dphi * c[cols], phi])
    dof = jac.shape[0] - jac.shape[1]
    norms = _column_norms(jac)
    if dof <= 0:
        err = np.zeros(len(norms))
    else:
        jac /= norms
        try:
            # not jac.T @ jac: numpy takes an array times its own
            # transpose through syrk, whose sums round unlike gemm's
            cov = cost / dof * np.linalg.pinv(jac.T @ jac.copy())
            err = np.sqrt(np.clip(np.diag(cov), 0.0, None)) / norms
        except np.linalg.LinAlgError:
            err = np.full(len(norms), np.nan)
    with np.errstate(over="ignore"):
        p = np.concatenate([np.ldexp(theta, x_exp), np.ldexp(c, e)])
        err[:len(theta)] = np.ldexp(err[:len(theta)], x_exp)
        err[len(theta):] = np.ldexp(err[len(theta):], e)
        norm = float(np.ldexp(np.sqrt(cost), e))
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(err))
            and np.isfinite(norm)):
        raise NumericalError(f"{what} fit gives a non-finite parameter, "
                             "standard error or residual norm")
    return p, err, norm, it


# ---------------------------------------------------------------------------
# exponential decay
# ---------------------------------------------------------------------------

def _log_linear_tau(t, y):
    """Slope-based decay-time estimate on baseline-subtracted counts, taken
    in units of their span so that it does not depend on their scale."""
    floor = y.min()
    span = y.max() - floor
    if span <= 0:
        raise NumericalError("trace is flat, nothing to fit")
    # in units of 2**e, the binade of the span, where 1e-3 * span cannot
    # underflow to 0 as it can for subnormal counts; a power of two scales
    # exactly, so normal counts give the same start
    e = _binade(span)
    span = np.ldexp(span, -e)
    pos = np.ldexp(y - floor, -e)
    pos += 1e-3 * span
    coef = np.polyfit(t, np.log(pos / span), 1)
    slope = coef[0]
    if slope >= 0:
        raise NumericalError("trace does not decay within the fit window")
    return -1.0 / slope


def fit_single_exponential(time_ns, counts, window_ns=None) -> FitResult:
    """Fit A*exp(-t/tau) + B to a decay trace.

    ``window_ns`` is a (start, stop) pair; when omitted it defaults to
    [t_peak, t_peak + 5*tau_guess] with tau_guess from a log-linear
    regression. Needs at least 10 points inside the window.

    Times are taken in units of the binade of max|t|, and tau is
    scaled back: a power of two scales exactly, so tau does not depend on
    the units of t, and tau**2 can neither underflow nor overflow.
    """
    t = increasing_grid(time_ns, "time grid", y=counts)
    y = np.asarray(counts, dtype=float)
    if y.max() == y.min():
        raise NumericalError("trace is flat, nothing to fit")
    x_exp = _binade(t)

    i_peak = int(np.argmax(y))
    if window_ns is None:
        tail = slice(i_peak, len(t))
        tau_guess = _log_linear_tau(np.ldexp(t[tail], -x_exp), y[tail])
        # a window end past the largest double is inf
        with np.errstate(over="ignore"):
            window_ns = (t[i_peak],
                         t[i_peak] + 5.0 * np.ldexp(tau_guess, x_exp))
    lo, hi = float(window_ns[0]), float(window_ns[1])
    # t increases, so the points with lo <= t <= hi are one slice of it
    start = int(np.searchsorted(t, lo))
    stop = int(np.searchsorted(t, hi, side="right"))
    held = stop - start if lo <= hi else 0
    if held < 10:
        raise ValidationError(
            f"fit window [{lo:g}, {hi:g}] ns holds {held} points, "
            "need at least 10")
    tw, yw = np.ldexp(t[start:stop], -x_exp), y[start:stop]
    if yw.max() == yw.min():
        raise NumericalError("trace is flat inside the fit window")

    def basis(theta):
        tau = theta[0]
        phi = np.empty((len(tw), 2))
        e = phi[:, 0]
        np.negative(tw, out=e)
        e /= tau
        np.exp(e, out=e)
        phi[:, 1] = 1.0
        d = e * tw
        d /= tau ** 2
        return phi, d[:, None], [0]

    p, err, norm, n_iter = _projected_fit(
        "exponential", yw, [_log_linear_tau(tw, yw)], basis,
        accept_fn=lambda theta, c=None: theta[0] > 0, max_iter=200,
        x_exp=x_exp)
    return FitResult(
        parameters={"amplitude": p[1], "tau_ns": p[0], "baseline": p[2]},
        stderr={"amplitude": err[1], "tau_ns": err[0], "baseline": err[2]},
        residual_norm=norm, n_iterations=n_iter)


# ---------------------------------------------------------------------------
# Lorentzian peaks
# ---------------------------------------------------------------------------

def _median(a):
    """``np.median`` of a 1-D array, without the ``numpy.ma`` import that
    ``np.median`` pays on its first call: NaN if any element is NaN."""
    a = np.sort(a)
    mid = len(a) // 2
    if np.isnan(a[-1]):
        return a[-1]
    # np.median sums from +0.0, so a zero median is +0.0
    if len(a) % 2:
        return 0.0 + a[mid]
    return (0.0 + a[mid - 1] + a[mid]) / 2


def _wing_baseline(y):
    """Median of the outer five percent of the samples at each end."""
    n_edge = max(1, int(0.05 * len(y)))
    return float(_median(np.concatenate([y[:n_edge], y[-n_edge:]])))


def _pick_initial_peaks(x, y, n_peaks):
    """Starting [center_0, fwhm_0, center_1, ...] from the maxima of the
    residual above the wing baseline. A peak must rise above the baseline,
    and at least as far as the spectrum falls below it: the amplitudes are
    nonnegative, so a dip is no peak. Fewer peaks than requested raise
    NumericalError."""
    peaks = []
    resid = y - _wing_baseline(y)
    depth = -float(resid.min())
    step = float(_median(np.diff(x)))
    for k in range(n_peaks):
        i = int(np.argmax(resid))
        amp = float(resid[i])
        if amp <= 0 or amp < depth:
            raise NumericalError(
                f"only {k} of {n_peaks} requested peaks stand above the "
                "wing baseline")
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
        peaks.extend([x[i], width])
        resid = resid - amp * half ** 2 / ((x - x[i]) ** 2 + half ** 2)
    return peaks


def fit_peaks(wavelength_nm, intensity, n_peaks: int) -> FitResult:
    """Least-squares multi-Lorentzian fit with a constant baseline.

    Starting peaks are picked iteratively from the highest residual
    maximum; no width may fall below the finest step of the grid. Peaks
    are numbered k = 0, 1, ... by ascending center, and the parameters
    are ``center_k_nm``, ``fwhm_k_nm`` and ``amplitude_k`` (height above
    baseline) for each peak in turn, then ``baseline``. Wavelengths are
    taken in units of the binade of their largest magnitude, as times are
    in :func:`fit_single_exponential`.
    """
    x = increasing_grid(wavelength_nm, "wavelength grid", min_points=5,
                        y=intensity)
    y = np.asarray(intensity, dtype=float)
    if n_peaks < 1:
        raise ValidationError("n_peaks must be >= 1")
    if y.max() == y.min():
        raise NumericalError("spectrum is flat, no peak to fit")
    x_exp = _binade(x)
    x = np.ldexp(x, -x_exp)

    theta0 = _pick_initial_peaks(x, y, n_peaks)
    cols = np.repeat(np.arange(n_peaks), 2)

    def basis(theta):
        d = x[:, None] - theta[0::2]
        h = theta[1::2] / 2.0
        denom = d ** 2 + h ** 2
        d_c = 2 * h ** 2 * d / denom ** 2
        d_w = h * d ** 2 / denom ** 2
        return (np.column_stack([h ** 2 / denom, np.ones_like(x)]),
                np.stack([d_c, d_w], axis=2).reshape(len(x), -1), cols)

    # a peak narrower than the finest grid step is one sample, not a line
    min_width = float(np.min(np.diff(x)))

    def accept(theta, c=None):
        return bool(np.all(theta[1::2] >= min_width)
                    and (c is None or np.all(c[:-1] >= 0)))

    p, err, norm, n_iter = _projected_fit(
        "peak", y, theta0, basis, accept_fn=accept, max_iter=300,
        x_exp=x_exp)

    index = {}
    for rank, k in enumerate(np.argsort(p[0:2 * n_peaks:2])):
        index.update({f"center_{rank}_nm": 2 * k, f"fwhm_{rank}_nm": 2 * k + 1,
                      f"amplitude_{rank}": 2 * n_peaks + k})
    index["baseline"] = len(p) - 1
    return FitResult(parameters={n: float(p[i]) for n, i in index.items()},
                     stderr={n: float(err[i]) for n, i in index.items()},
                     residual_norm=norm, n_iterations=n_iter)


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
    baseline = _wing_baseline(y)
    half = baseline + (y_max - baseline) / 2.0
    if y_max <= baseline:
        raise ValidationError("maximum does not rise above the baseline")

    def cross(direction):
        j = i_max
        while 0 <= j + direction < len(x):
            k = j + direction
            if y[k] < half:
                frac = (half - y[j]) / (y[k] - y[j])
                return x[j] + frac * (x[k] - x[j])
            j = k
        side = "long-wavelength" if direction > 0 else "short-wavelength"
        raise ValidationError(
            f"half maximum never crossed on the {side} side")

    return float(cross(+1) - cross(-1))


# ---------------------------------------------------------------------------
# power law and transients
# ---------------------------------------------------------------------------

def fit_power_law(fluence_cm2, intensity) -> FitResult:
    """Ordinary least squares on (log fluence, log intensity).

    Returns exponent (slope) and prefactor with regression standard
    errors; inputs must be positive and finite.
    """
    x = np.asarray(fluence_cm2, dtype=float)
    y = np.asarray(intensity, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or len(x) < 2:
        raise ValidationError("need >= 2 matching fluence/intensity points")
    if not np.all((x > 0) & (x < np.inf) & (y > 0) & (y < np.inf)):
        raise ValidationError("power-law fit needs positive values, no inf")
    lx, ly = np.log(x), np.log(y)
    if lx.min() == lx.max():
        raise ValidationError(
            "power-law fit needs at least 2 distinct fluences")
    n = len(lx)
    slope, intercept = np.polyfit(lx, ly, 1)
    resid = ly - (slope * lx + intercept)
    ssr = float(resid @ resid)
    sxx = float(np.sum((lx - lx.mean()) ** 2))
    if n > 2:
        s2 = ssr / (n - 2)
        slope_err = np.sqrt(s2 / sxx)
        inter_err = np.sqrt(s2 * (1.0 / n + lx.mean() ** 2 / sxx))
    else:
        slope_err = inter_err = 0.0
    with np.errstate(over="ignore"):
        prefactor = float(np.exp(intercept))
    prefactor_err = prefactor * float(inter_err)
    # an overflowing prefactor is inf, and inf times a zero stderr NaN
    if not prefactor_err < np.inf:
        raise NumericalError(
            f"power-law prefactor exp({intercept:.6g}) or its standard "
            "error overflows")
    return FitResult(
        parameters={"exponent": float(slope), "prefactor": prefactor},
        stderr={"exponent": float(slope_err), "prefactor": prefactor_err},
        residual_norm=float(np.sqrt(ssr)), n_iterations=1)
