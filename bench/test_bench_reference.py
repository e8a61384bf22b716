"""Tests of the benchmark's reference computations (bench/reference.py).

They check each closed form or statistic against an independent route, so
that a benchmark check failing points at the program, not at the check.
"""

import json
import math
import os

import numpy as np
import pytest

import reference as ref
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
DAMAGE = workloads.DAMAGE


def pulse_train_stepped(n, flux, pulse_s, period_s, p):
    """The pulse train advanced pulse by pulse with expm1 updates."""
    k_g, s_g, s_t = ref.damage_rates(flux, p)
    a = p["dynamic_annealing_rate_s"]
    n_g = n_trap = 0.0
    for i in range(n):
        n_g += (s_g / k_g - n_g) * -math.expm1(-k_g * pulse_s)
        n_trap += (s_t / a - n_trap) * -math.expm1(-a * pulse_s)
        if i < n - 1:
            n_trap += n_trap * math.expm1(-a * (period_s - pulse_s))
    return n_g, n_trap


@pytest.mark.parametrize("n, period_s", [(1, 1e-3), (2, 1e-3), (7, 1e-3),
                                         (40, 1e-3), (5, 250.0)])
def test_pulse_train_closed_form_matches_expm1_stepping(n, period_s):
    closed = ref.pulse_train_final(n, 1e17, 1e-9, period_s, DAMAGE)
    stepped = pulse_train_stepped(n, 1e17, 1e-9, period_s, DAMAGE)
    assert closed == pytest.approx(stepped, rel=1e-13)


def test_pulse_train_without_annealing_accumulates_linearly():
    params = {**DAMAGE, "dynamic_annealing_rate_s": 0.0}
    _, n_trap = ref.pulse_train_final(30, 1e17, 1e-9, 1e-3, params)
    _, _, source = ref.damage_rates(1e17, params)
    assert n_trap == pytest.approx(source * 30 * 1e-9, rel=1e-15)


def test_cw_closed_form_relaxes_to_equilibrium():
    # a long exposure reaches source/loss on both channels
    flux = 1e12
    loss, source, trap = ref.damage_rates(flux, DAMAGE)
    n_g, n_trap = ref.cw_final(flux * 1e4, flux, DAMAGE)
    assert n_g == pytest.approx(source / loss, rel=1e-12)
    a = DAMAGE["dynamic_annealing_rate_s"]
    assert n_trap == pytest.approx(trap / a * (1 - math.exp(-a * 1e4)),
                                   rel=1e-12)


def test_unsaturated_decay_solves_the_rate_equations():
    from scipy.integrate import solve_ivp

    k = {**workloads.KINETICS, "pump_power_mw": 1.5}
    n0 = k["pump_power_mw"] * k["carrier_density_per_mw_cm3"]
    k_g = k["capture_coefficient_g_cm3_ns"] * k["g_center_density_cm3"]
    k_t = k["capture_coefficient_trap_cm3_ns"] * k["trap_density_cm3"]

    def rhs(_t, y):
        return [-(k_g + k_t) * y[0],
                k_g * y[0] - (1 / k["tau_r_ns"] + k_t) * y[1]]

    t = np.linspace(0.0, 60.0, 301)
    sol = solve_ivp(rhs, (0.0, 60.0), [n0, 0.0], t_eval=t, rtol=1e-11,
                    atol=1e-6)
    exact = ref.unsaturated_decay_rate(t, k)
    assert np.max(np.abs(sol.y[1] / k["tau_r_ns"] - exact)) \
        <= 1e-8 * exact.max()


def test_curve_fit_tau_recovers_a_known_exponential():
    t = np.linspace(0.0, 100.0, 2001)
    y = 3e12 * np.exp(-t / 7.25) + 4e5
    assert ref.curve_fit_tau(t, y, (10.0, 80.0)) == pytest.approx(7.25,
                                                                  rel=1e-9)


def _rounded(values):
    return np.array([float(f"{v:.10g}") for v in values])


def test_check_spectrum_accepts_rounded_exact_sum_and_rejects_wrong_width():
    rng = np.random.default_rng(3)
    shifts = _rounded(rng.normal(-1.0, 0.4, 3000))
    lam0, fwhm = 1278.3, 0.073
    grid = lam0 + fwhm / 8 * np.arange(-900, 901)
    centers = lam0 + ref.delta_lambda_nm(shifts, lam0)
    exact = ref.lorentzian_sums(grid, centers, fwhm)[0]
    spectrum = _rounded(exact / exact.max())
    assert ref.check_spectrum(_rounded(grid), spectrum, shifts, lam0,
                              fwhm) <= 1.0
    wide = ref.lorentzian_sums(grid, centers, 2 * fwhm)[0]
    assert ref.check_spectrum(_rounded(grid), _rounded(wide / wide.max()),
                              shifts, lam0, fwhm) > 1e3


def test_half_max_width_of_a_single_lorentzian():
    x = 1278.3 + 0.073 / 64 * np.arange(-4000, 4001)
    y = ref.lorentzian_sums(x, np.array([1278.3]), 0.073)[0]
    # the median-of-wings baseline sits slightly above zero
    assert ref.half_max_width(x, y) == pytest.approx(0.073, rel=2e-3)


def test_table_shift_reuses_x_for_yy_and_xz_for_yz():
    table = ref.read_response_table(os.path.join(
        HERE, os.pardir, workloads.TABLE_CSV))
    strain = np.zeros((2, 6))
    strain[0, 1] = 0.0042          # e_yy
    strain[1, 5] = -0.0031         # e_yz
    shifts = ref.table_shift(table, strain)
    assert shifts[0] == pytest.approx(np.interp(0.0042, *table["x"]))
    assert shifts[1] == pytest.approx(np.interp(-0.0031, *table["xz"]))


def test_biased_small_share_matches_rejection_by_simulation():
    rng = np.random.default_rng(5)
    raw = rng.uniform(-0.01, 0.01, size=(400000, 2))
    small = np.abs(raw).max(axis=1) <= 0.001
    kept = small | (rng.random(len(raw)) < 0.1)
    share = ref.biased_small_share(0.001, -0.01, 0.01, 0.1)
    assert ref.binomial_ok(int(small[kept].sum()), int(kept.sum()), share)
    assert not ref.binomial_ok(int(small[kept].sum()), int(kept.sum()),
                               share * 1.2)


def test_poisson_zero_share_matches_simulation():
    rng = np.random.default_rng(9)
    density = 2e20
    lam = density * ref.shell_volume_cm3(0.9, 1.4)
    counts = rng.poisson(lam, 200000)
    assert ref.binomial_ok(int((counts == 0).sum()), len(counts),
                           ref.poisson_zero_share(density, 0.9, 1.4))


def test_importtime_totals_sums_outermost_scipy_imports():
    report = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy",
        "import time:       200 |        200 |       scipy._lib",
        "import time:        50 |         50 |       inspect",
        "import time:       300 |        550 |     scipy.integrate",
        "import time:        10 |        610 |   defect_spectra.kinetics",
        "import time:        40 |        800 | defect_spectra.cli",
        "import time:       120 |        120 | scipy.optimize",
    ])
    scipy_s, package_s = ref.importtime_totals(report, "defect_spectra.cli")
    assert scipy_s == pytest.approx(670e-6)
    assert package_s == pytest.approx(800e-6)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(workloads.WORKLOADS)
