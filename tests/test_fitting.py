import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defect_spectra.core import NumericalError, ValidationError
from defect_spectra.fitting import (
    _median,
    fit_peaks,
    fit_power_law,
    fit_single_exponential,
    numerical_fwhm,
)


def lorentzian(x, center, fwhm, amplitude):
    h = fwhm / 2.0
    return amplitude * h**2 / ((x - center) ** 2 + h**2)


# ---------------------------------------------------------------------------
# single exponential
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("tau", [6.0, 8.1, 9.3, 13.0])
def test_exponential_noiseless_recovery(tau):
    t = np.linspace(0.0, 100.0, 2001)
    counts = 5e4 * np.exp(-t / tau) + 120.0
    fit = fit_single_exponential(t, counts)
    assert fit.n_iterations < 200
    assert fit.parameters["tau_ns"] == pytest.approx(tau, rel=5e-3)
    assert fit.parameters["amplitude"] == pytest.approx(5e4, rel=5e-3)
    assert fit.parameters["baseline"] == pytest.approx(120.0, rel=5e-2)


@pytest.mark.parametrize("tau", [6.0, 9.3, 13.0])
def test_exponential_poisson_recovery(tau):
    rng = np.random.default_rng(21)
    t = np.linspace(0.0, 100.0, 2001)
    model = 1e4 * np.exp(-t / tau) + 40.0
    counts = rng.poisson(model).astype(float)
    fit = fit_single_exponential(t, counts)
    assert fit.parameters["tau_ns"] == pytest.approx(tau, rel=0.05)


def test_exponential_huge_amplitude_scale():
    # parameters spanning 16 decades must not break the linear algebra:
    # column equilibration keeps small-norm directions alive
    t = np.linspace(0.0, 100.0, 4001)
    counts = 2.3e13 * np.exp(-t / 45.0) + 2.0e9
    fit = fit_single_exponential(t, counts, window_ns=(0.0, 100.0))
    assert fit.parameters["tau_ns"] == pytest.approx(45.0, rel=1e-4)
    assert fit.parameters["amplitude"] == pytest.approx(2.3e13, rel=1e-4)


def test_exponential_window_selects_tail():
    # decay contaminated by a fast transient: restrict the window to
    # recover the slow component
    t = np.linspace(0.0, 120.0, 4001)
    counts = 1e4 * np.exp(-t / 9.0) + 8e4 * np.exp(-t / 0.5)
    tail = fit_single_exponential(t, counts, window_ns=(10.0, 110.0))
    assert tail.parameters["tau_ns"] == pytest.approx(9.0, rel=1e-3)


def test_exponential_stderr_scales_with_noise():
    rng = np.random.default_rng(3)
    t = np.linspace(0.0, 80.0, 1501)
    model = 1e4 * np.exp(-t / 9.3)
    quiet = model + rng.normal(0.0, 1.0, t.size)
    loud = model + rng.normal(0.0, 100.0, t.size)
    fq = fit_single_exponential(t, quiet, window_ns=(0.0, 80.0))
    fl = fit_single_exponential(t, loud, window_ns=(0.0, 80.0))
    assert fl.stderr["tau_ns"] > 10 * fq.stderr["tau_ns"]


def test_exponential_rejects_flat_or_rising():
    t = np.linspace(0.0, 50.0, 400)
    with pytest.raises(NumericalError, match="trace is flat"):
        fit_single_exponential(t, np.full_like(t, 7.0))
    with pytest.raises(NumericalError, match="trace is flat"):
        fit_single_exponential(t, 10.0 + t)


def test_exponential_window_needs_points():
    t = np.linspace(0.0, 50.0, 400)
    counts = 1e3 * np.exp(-t / 5.0)
    with pytest.raises(ValidationError):
        fit_single_exponential(t, counts, window_ns=(10.0, 10.5))


_WINDOW_T = np.linspace(0.0, 50.0, 201)      # a point every 0.25 ns


@pytest.mark.parametrize("window", [
    (10.0, 30.0), (10.1, 29.9), (0.0, 50.0), (47.75, 50.0), (48.0, 50.0),
    (30.0, 10.0), (20.0, 20.0), (-20.0, 80.0), (-np.inf, np.inf),
    (-20.0, 8.0), (25.1, 80.0), (-20.0, -5.0), (60.0, 70.0),
], ids=["on-points", "between-points", "whole-grid", "ten-points",
        "nine-points", "reversed", "one-point", "beyond-both-ends",
        "infinite-ends", "below-start", "past-stop", "below-grid",
        "above-grid"])
def test_fit_window_is_the_points_between_its_ends(window):
    # the window is the points with lo <= t <= hi, as a mask takes them
    rng = np.random.default_rng(8)
    y = 1e3 * np.exp(-_WINDOW_T / 6.0) + 5.0 + rng.normal(0.0, 0.2, 201)
    lo, hi = window
    mask = (_WINDOW_T >= lo) & (_WINDOW_T <= hi)
    held = np.count_nonzero(mask)
    if held < 10:
        with pytest.raises(ValidationError, match=f" holds {held} points,"):
            fit_single_exponential(_WINDOW_T, y, window_ns=window)
        return
    fit = fit_single_exponential(_WINDOW_T, y, window_ns=window)
    assert fit == fit_single_exponential(_WINDOW_T[mask], y[mask],
                                         window_ns=window)


def test_exponential_fit_memory_stays_near_the_window():
    # 28,001 of 40,001 points in the window, 224 kB a column: a copied
    # window, a second Jacobian or an extra (n, 3) temporary each cost
    # hundreds of kilobytes
    t = np.linspace(0.0, 100.0, 40001)
    y = (2e13 * np.exp(-t / 7.7) + 1e9
         + np.random.default_rng(9).normal(0.0, 1e9, t.size))
    fit_single_exponential(t, y, window_ns=(20.0, 90.0))
    tracemalloc.start()
    try:
        fit_single_exponential(t, y, window_ns=(20.0, 90.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.0e6


@settings(max_examples=25, deadline=None)
@given(st.floats(2.0, 50.0), st.floats(3.0, 14.0))
def test_exponential_recovery_property(tau, log_amp):
    t = np.linspace(0.0, 120.0, 1201)
    counts = 10.0**log_amp * np.exp(-t / tau)
    fit = fit_single_exponential(t, counts, window_ns=(0.0, 120.0))
    assert fit.parameters["tau_ns"] == pytest.approx(tau, rel=1e-3)


# ---------------------------------------------------------------------------
# Lorentzian peaks
# ---------------------------------------------------------------------------

def test_single_peak_recovery():
    x = np.arange(1277.0, 1279.6, 0.002)
    y = lorentzian(x, 1278.3, 0.073, 1.0) + 0.01
    fit = fit_peaks(x, y, 1).parameters
    assert fit["center_0_nm"] == pytest.approx(1278.3, abs=1e-5)
    assert fit["fwhm_0_nm"] == pytest.approx(0.073, rel=1e-4)
    assert fit["amplitude_0"] == pytest.approx(1.0, rel=1e-4)
    assert fit["baseline"] == pytest.approx(0.01, abs=1e-4)


def test_two_peak_recovery():
    x = np.arange(1277.5, 1279.1, 0.001)
    y = (lorentzian(x, 1278.25, 0.073, 1.0)
         + lorentzian(x, 1278.35, 0.073, 0.8))
    fit = fit_peaks(x, y, 2).parameters
    centers = [fit[f"center_{k}_nm"] for k in range(2)]
    assert centers == sorted(centers)
    assert centers[0] == pytest.approx(1278.25, abs=5e-4)
    assert centers[1] == pytest.approx(1278.35, abs=5e-4)
    amps = [fit[f"amplitude_{k}"] for k in range(2)]
    assert amps[0] / amps[1] == pytest.approx(1.0 / 0.8, rel=1e-2)


def test_three_peak_recovery_with_noise():
    rng = np.random.default_rng(8)
    x = np.arange(1277.3, 1279.3, 0.002)
    clean = (lorentzian(x, 1278.32, 0.073, 1e4)
             + lorentzian(x, 1278.18, 0.073, 2.5e3)
             + lorentzian(x, 1278.05, 0.073, 8e2))
    y = rng.poisson(clean + 10.0).astype(float)
    fit = fit_peaks(x, y, 3).parameters
    centers = sorted(fit[f"center_{k}_nm"] for k in range(3))
    assert centers[0] == pytest.approx(1278.05, abs=0.005)
    assert centers[1] == pytest.approx(1278.18, abs=0.005)
    assert centers[2] == pytest.approx(1278.32, abs=0.005)
    widths = [fit[f"fwhm_{k}_nm"] for k in range(3)]
    assert all(w == pytest.approx(0.073, rel=0.05) for w in widths)


def test_peak_fit_stderr_keys():
    # the taller peak is listed second in the data, first-picked by the
    # fit, and still numbered by ascending center
    x = np.arange(1277.8, 1278.8, 0.002)
    y = lorentzian(x, 1278.2, 0.073, 1.0) + lorentzian(x, 1278.4, 0.073, 2.0)
    fit = fit_peaks(x, y, 2)
    assert list(fit.parameters) == list(fit.stderr) == [
        "center_0_nm", "fwhm_0_nm", "amplitude_0",
        "center_1_nm", "fwhm_1_nm", "amplitude_1", "baseline"]
    assert fit.parameters["center_0_nm"] < fit.parameters["center_1_nm"]
    assert fit.parameters["amplitude_1"] == pytest.approx(2.0, rel=1e-4)
    assert fit.n_iterations < 300


def test_peak_fit_rejects_flat():
    x = np.arange(1277.0, 1279.0, 0.01)
    with pytest.raises(NumericalError, match="spectrum is flat"):
        fit_peaks(x, np.ones_like(x), 1)


def test_peak_count_validation():
    x = np.arange(1277.0, 1279.0, 0.01)
    y = lorentzian(x, 1278.3, 0.073, 1.0)
    with pytest.raises(ValidationError, match="n_peaks must be >= 1"):
        fit_peaks(x, y, 0)


def test_extra_peaks_keep_the_veto():
    # three peaks on a one-peak spectrum: every returned point has widths
    # no finer than the grid step and amplitudes from 0 to about the
    # spectrum's range, so no single noise sample becomes a peak, or the
    # fit refuses; no NaN or overflow from a degenerate trial escapes as a
    # RuntimeWarning. The range gets a 10% margin: the window cuts off the
    # line's tails, so the noise-free line of height 1 spans only 0.998.
    x = np.arange(1277.5, 1279.1, 0.002)
    rng = np.random.default_rng(4)
    for noise in (0.0, 0.01):
        y = lorentzian(x, 1278.3, 0.073, 1.0) + 0.01
        y = y + rng.normal(0.0, noise, x.size)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            warnings.simplefilter("ignore", UserWarning)
            try:
                fit = fit_peaks(x, y, 3).parameters
            except NumericalError:
                continue
        assert all(fit[f"fwhm_{k}_nm"] >= np.min(np.diff(x))
                   for k in range(3))
        assert all(0 <= fit[f"amplitude_{k}"] <= 1.1 * (y.max() - y.min())
                   for k in range(3))


def test_negative_tau_trials_never_reach_exp():
    # a faint, noisy tail draws Gauss-Newton steps to tau <= 0; checked
    # after the basis, a trial near -0 would overflow exp(-t/tau)
    t = np.linspace(0.0, 100.0, 2001)
    y = (1e3 * np.exp(-t / 4.0) + 100.0
         + np.random.default_rng(4).normal(0.0, 300.0, t.size))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fit = fit_single_exponential(t, y, window_ns=(12.0, 30.0))
    assert fit.parameters["tau_ns"] > 0


def _noisy_decay():
    rng = np.random.default_rng(11)
    t = np.linspace(0.0, 80.0, 8001)
    y = rng.poisson(1e13 * np.exp(-t / 8.0) + 1e8).astype(float)
    window = (5.0, 70.0)
    sel = (t >= window[0]) & (t <= window[1])

    def model(tt, a, tau, b):
        return a * np.exp(-tt / tau) + b

    fit = fit_single_exponential(t, y, window_ns=window)
    return fit, model, t[sel], y[sel]


def _noisy_two_peaks():
    rng = np.random.default_rng(12)
    x = np.arange(1277.8, 1278.8, 0.0005)
    y = (lorentzian(x, 1278.2, 0.073, 1.0) + lorentzian(x, 1278.4, 0.073, 2.0)
         + 0.05 + rng.normal(0.0, 0.01, x.size))

    def model(xx, c0, w0, a0, c1, w1, a1, b):
        return lorentzian(xx, c0, w0, a0) + lorentzian(xx, c1, w1, a1) + b

    return fit_peaks(x, y, 2), model, x, y


@pytest.mark.parametrize("case", [_noisy_decay, _noisy_two_peaks],
                         ids=["decay", "two-peaks"])
def test_stderr_matches_curve_fit(case):
    # scipy's Levenberg-Marquardt covariance at the program's optimum is
    # the oracle; the decay spans 13 decades between tau and amplitude
    from scipy.optimize import curve_fit

    fit, model, x, y = case()
    names = list(fit.parameters)
    popt, pcov = curve_fit(model, x, y, p0=[fit.parameters[k] for k in names])
    oracle = np.sqrt(np.diag(pcov))
    for name, value, err in zip(names, popt, oracle):
        assert fit.stderr[name] == pytest.approx(err, rel=1e-3), name
        if name == "tau_ns":
            assert fit.parameters[name] == pytest.approx(value, rel=1e-7)


def _scaled_fits(k, unit=0):
    # a 200-point noisy decay (default window) and a noisy single line,
    # each scaled by 2**k, on times and wavelengths scaled by 2**unit; at
    # this seed a log-linear start taken on the unscaled counts would move
    # the decay time's last bits with k
    rng = np.random.default_rng(17)
    t = np.linspace(0.0, 40.0, 200)
    decay = np.exp(-t / 8.0) * (1.0 + 0.01 * rng.standard_normal(t.size))
    x = np.arange(1278.0, 1279.0, 0.002)
    line = (lorentzian(x, 1278.5, 0.02, 1.0) + 0.01
            + 0.01 * rng.standard_normal(x.size))
    return (fit_single_exponential(np.ldexp(t, unit), np.ldexp(decay, k)),
            fit_peaks(np.ldexp(x, unit), np.ldexp(line, k), 1))


@pytest.mark.parametrize("k", [-600, -540, -200, 0, 37, 540, 600])
def test_fits_are_scale_free(k):
    # scaling the data by a power of two scales the linear coefficients,
    # their stderrs and the residual norm by it, bit for bit, and changes
    # no decay time, center or width
    for fit, ref in zip(_scaled_fits(k), _scaled_fits(0)):
        scaled = [name for name in ref.parameters
                  if name.startswith(("amplitude", "baseline"))]
        for name in ref.parameters:
            times = 2.0 ** k if name in scaled else 1.0
            assert fit.parameters[name] == ref.parameters[name] * times, name
            assert fit.stderr[name] == ref.stderr[name] * times, name
        assert fit.residual_norm == ref.residual_norm * 2.0 ** k
        assert fit.n_iterations == ref.n_iterations


@pytest.mark.parametrize("k", [-1000, -600, -37, 0, 37, 600, 1000])
def test_fits_are_free_of_the_units_of_x(k):
    # scaling times or wavelengths by a power of two that keeps every cell
    # a normal double scales decay times, centers, widths and their
    # stderrs by it, bit for bit, and changes nothing else; at |k| = 600
    # tau**2 or a squared width would underflow or overflow unscaled
    for fit, ref in zip(_scaled_fits(0, unit=k), _scaled_fits(0)):
        for name in ref.parameters:
            times = (2.0 ** k if name.startswith(("tau", "center", "fwhm"))
                     else 1.0)
            assert fit.parameters[name] == ref.parameters[name] * times, name
            assert fit.stderr[name] == ref.stderr[name] * times, name
        assert fit.residual_norm == ref.residual_norm
        assert fit.n_iterations == ref.n_iterations


def test_non_finite_fit_result_is_refused():
    # a steep rise fitted as one line on counts near the largest double:
    # the baseline's stderr, scaled back, overflows
    x = np.arange(1.0, 11.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="peak fit gives a non-finite"):
            fit_peaks(x, 1e300 * np.sqrt(x), 1)


# ---------------------------------------------------------------------------
# numerical FWHM
# ---------------------------------------------------------------------------

def test_fwhm_of_analytic_lorentzian():
    x = np.arange(1276.0, 1280.6, 0.0005)
    y = lorentzian(x, 1278.3, 0.073, 1.0)
    assert numerical_fwhm(x, y) == pytest.approx(0.073, rel=1e-3)


def test_fwhm_with_baseline():
    x = np.arange(1276.0, 1280.6, 0.0005)
    y = lorentzian(x, 1278.3, 0.2, 1.0) + 0.3
    assert numerical_fwhm(x, y) == pytest.approx(0.2, rel=1e-2)


def test_fwhm_unbounded_line():
    # grid truncated before the long-wavelength half-max crossing
    x = np.arange(1277.0, 1278.35, 0.0005)
    y = lorentzian(x, 1278.3, 0.2, 1.0)
    with pytest.raises(ValidationError, match="long-wavelength"):
        numerical_fwhm(x, y)
    with pytest.raises(ValidationError, match="short-wavelength"):
        numerical_fwhm(x, y[::-1].copy())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 10, 101, 200, 399])
def test_median_matches_numpy(n):
    # odd and even lengths, ties, signed zeros, infinities and NaN
    gen = np.random.default_rng(n)
    cases = [gen.normal(size=n), gen.integers(-3, 3, size=n).astype(float),
             np.where(gen.random(n) < 0.5, -0.0, 0.0),
             np.append(gen.normal(size=n - 1), np.inf)]
    if n > 1:
        cases.append(np.r_[gen.normal(size=n - 2), np.inf, -np.inf])
        cases.append(np.insert(gen.normal(size=n - 1), n // 2, np.nan))
    for a in cases:
        with np.errstate(invalid="ignore"):   # inf + -inf
            want, got = np.median(a), _median(a)
        assert np.array_equal(got, want, equal_nan=True), a
        assert np.signbit(got) == np.signbit(want)


def test_fwhm_leaves_numpy_ma_unimported():
    # np.median imports numpy.ma on its first call: 2 MB and 15-20 ms
    code = ("import sys\nimport numpy as np\n"
            "from defect_spectra.fitting import numerical_fwhm\n"
            "x = np.linspace(0.0, 1.0, 101)\n"
            "numerical_fwhm(x, 1.0 / (1.0 + ((x - 0.5) / 0.05) ** 2))\n"
            "print('numpy.ma' in sys.modules)")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"


def test_fwhm_needs_unique_maximum():
    x = np.linspace(0.0, 1.0, 100)
    with pytest.raises(ValidationError, match="unique global maximum"):
        numerical_fwhm(x, np.ones_like(x))
    with pytest.raises(ValidationError, match="at least 10 points"):
        numerical_fwhm(x[:5], np.sin(x[:5]))


# ---------------------------------------------------------------------------
# power law
# ---------------------------------------------------------------------------

def test_power_law_two_points_exact():
    fit = fit_power_law([1e11, 1e12], [5.0, 50.0])
    assert fit.parameters["exponent"] == pytest.approx(1.0)
    assert fit.stderr["exponent"] == 0.0


@pytest.mark.parametrize("exponent", [0.17, 0.65])
def test_power_law_recovery(exponent):
    fluence = np.logspace(11, 14, 7)
    intensity = 3.2e-3 * fluence**exponent
    fit = fit_power_law(fluence, intensity)
    assert fit.parameters["exponent"] == pytest.approx(exponent, rel=1e-6)
    assert fit.parameters["prefactor"] == pytest.approx(3.2e-3, rel=1e-6)


def test_power_law_noise_stderr():
    rng = np.random.default_rng(5)
    fluence = np.logspace(11, 14, 10)
    intensity = 2.0 * fluence**0.65 * rng.lognormal(0.0, 0.1, 10)
    fit = fit_power_law(fluence, intensity)
    assert fit.parameters["exponent"] == pytest.approx(0.65, abs=0.1)
    assert fit.stderr["exponent"] > 0.0


def test_power_law_constant_series():
    fit = fit_power_law([1e11, 1e12, 1e13], [7.0, 7.0, 7.0])
    assert fit.parameters["exponent"] == pytest.approx(0.0)


@pytest.mark.parametrize("x, y", [
    ([1e11, 1e12], [np.nan, 1.0]),
    ([1e11, 1e12], [1.0, np.inf]),
    ([np.nan, 1e12], [1.0, 2.0]),
], ids=["y-nan", "y-inf", "x-nan"])
def test_power_law_refuses_non_finite_values(x, y):
    with pytest.raises(ValidationError, match="needs positive values, no inf"):
        fit_power_law(x, y)


@pytest.mark.parametrize("x, y", [
    ([5e-324, 1e-323, 1.5e-323], [5e298, 1e299, 1e300]),
    ([1e300, 2e300, 3e300], [1.0, 0.5, 0.25]),
], ids=["prefactor", "prefactor-stderr"])
def test_power_law_prefactor_overflow_is_refused(x, y):
    # exp(intercept), or the prefactor times its relative stderr, is past
    # the largest double; no inf reaches the report and nothing warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="prefactor"):
            fit_power_law(x, y)


def test_power_law_validation():
    with pytest.raises(ValidationError, match="need >= 2 matching"):
        fit_power_law([1e11], [1.0])
    with pytest.raises(ValidationError, match="needs positive values"):
        fit_power_law([1e11, 1e12], [1.0, 0.0])
    with pytest.raises(ValidationError, match="needs positive values"):
        fit_power_law([1e11, -1e12], [1.0, 2.0])
    with pytest.raises(ValidationError, match="2 distinct fluences"):
        fit_power_law([1e12, 1e12], [5.0, 7.0])
