import math
import tracemalloc
import warnings
from math import factorial

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import solve_ivp

from defect_spectra.core import NumericalError, ValidationError
from defect_spectra.fitting import fit_single_exponential
from defect_spectra.kinetics import (
    DamageParams,
    DecayModelParams,
    IrradiationSchedule,
    LifetimeSet,
    ScheduleSegment,
    _decay_rhs,
    _dormand_prince,
    MAX_DECAY_POINTS,
    cw_schedule,
    integrate_damage,
    pulsed_schedule,
    rise_time,
    simulate_decay,
)


# ---------------------------------------------------------------------------
# lifetime arithmetic
# ---------------------------------------------------------------------------

def test_decompose_reference_points():
    slow = LifetimeSet(tau_r_ns=45.0, tau_eff_ns=13.0)
    assert slow.tau_nr_ns == pytest.approx(18.28125, abs=1e-9)
    assert slow.qe == pytest.approx(13.0 / 45.0)
    fast = LifetimeSet(tau_r_ns=45.0, tau_eff_ns=6.0)
    assert fast.tau_nr_ns == pytest.approx(6.9230769, abs=1e-6)
    assert fast.qe == pytest.approx(6.0 / 45.0)


def test_decompose_edge_cases():
    pure = LifetimeSet(tau_r_ns=45.0, tau_eff_ns=45.0)
    assert pure.tau_nr_ns == np.inf
    assert pure.qe == 1.0
    with pytest.raises(ValidationError):
        LifetimeSet(tau_r_ns=45.0, tau_eff_ns=46.0)
    with pytest.raises(ValidationError, match="lifetimes must be positive"):
        LifetimeSet(tau_r_ns=45.0, tau_eff_ns=-1.0)


@settings(max_examples=200, deadline=None)
@given(st.floats(1e-3, 1e4), st.floats(1e-6, 1.0))
@example(1781.75, 1.0)  # 1/(1/tau_r) rounds above tau_r
def test_lifetime_set_derives_identity(tau_r, share):
    tau_eff = tau_r * share
    ls = LifetimeSet(tau_r_ns=tau_r, tau_eff_ns=tau_eff)
    assert ls.qe == tau_eff / tau_r
    assert 1.0 / ls.tau_eff_ns == pytest.approx(
        1.0 / ls.tau_r_ns + 1.0 / ls.tau_nr_ns, rel=1e-12, abs=0.0)
    with pytest.raises(ValidationError):
        LifetimeSet(tau_r_ns=tau_r, tau_eff_ns=tau_r * 1.001)
    with pytest.raises(ValidationError, match="lifetimes must be positive"):
        LifetimeSet(tau_r_ns=tau_r, tau_eff_ns=-tau_eff)


# ---------------------------------------------------------------------------
# decay model
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def linear_params():
    # disable trap saturation so the system is exactly linear
    return DecayModelParams(trap_saturation_density_cm3=float("inf"))


@pytest.fixture(scope="module")
def linear_trace(linear_params):
    return simulate_decay(linear_params)


def test_decay_matches_closed_form(linear_params, linear_trace):
    """Linear two-pool oracle.

    Carriers vanish at a = k_g + k_t, the excited pool fills at k_g and
    drains at b = 1/tau_r + k_t, giving
    n_x(t) = k_g n0 (e^{-bt} - e^{-at}) / (a - b).
    """
    p = linear_params
    k_g = p.capture_coefficient_g_cm3_ns * p.g_center_density_cm3
    k_t = p.capture_coefficient_trap_cm3_ns * p.trap_density_cm3
    a = k_g + k_t
    b = 1.0 / p.tau_r_ns + k_t
    n0 = p.pump_power_mw * p.carrier_density_per_mw_cm3
    t = linear_trace.time_ns
    expected = k_g * n0 * (np.exp(-b * t) - np.exp(-a * t)) / (a - b)
    err = np.max(np.abs(linear_trace.excited - expected)) / expected.max()
    assert err < 1e-7
    assert np.allclose(linear_trace.carriers, n0 * np.exp(-a * t),
                       rtol=1e-6, atol=1e-9 * n0)


def test_decay_tail_lifetime(linear_params, linear_trace):
    # past the rise transient the intensity is a clean single exponential
    # with rate 1/tau_r + k_t
    p = linear_params
    k_t = p.capture_coefficient_trap_cm3_ns * p.trap_density_cm3
    fit = fit_single_exponential(linear_trace.time_ns,
                                 linear_trace.intensity,
                                 window_ns=(20.0, 95.0))
    assert fit.parameters["tau_ns"] == \
        pytest.approx(1.0 / (1.0 / p.tau_r_ns + k_t), rel=1e-6)


def test_decay_conservation(linear_trace, linear_params):
    p = linear_params
    n0 = p.pump_power_mw * p.carrier_density_per_mw_cm3
    total = (linear_trace.carriers + linear_trace.excited
             + linear_trace.filled_traps + linear_trace.emitted)
    assert np.max(np.abs(total - n0)) / n0 < 1e-6


def test_rise_time_analytic(linear_params, linear_trace):
    p = linear_params
    k_g = p.capture_coefficient_g_cm3_ns * p.g_center_density_cm3
    k_t = p.capture_coefficient_trap_cm3_ns * p.trap_density_cm3
    a, b = k_g + k_t, 1.0 / p.tau_r_ns + k_t
    t_star = np.log(a / b) / (a - b)
    grid_step = linear_trace.time_ns[1] - linear_trace.time_ns[0]
    assert rise_time(linear_trace.time_ns, linear_trace.intensity) == \
        pytest.approx(t_star, abs=grid_step)


def test_rise_time_shrinks_with_faster_capture():
    # doubling both capture channels roughly halves the rise time
    base = DecayModelParams(trap_saturation_density_cm3=float("inf"))
    fast = DecayModelParams(
        capture_coefficient_g_cm3_ns=2 * base.capture_coefficient_g_cm3_ns,
        capture_coefficient_trap_cm3_ns=(
            2 * base.capture_coefficient_trap_cm3_ns),
        trap_saturation_density_cm3=float("inf"),
        n_points=8001)
    r0, r1 = (rise_time(trace.time_ns, trace.intensity)
              for trace in (simulate_decay(base), simulate_decay(fast)))
    assert r1 < r0
    # exact oracle for the doubled system
    k_g = 2 * base.capture_coefficient_g_cm3_ns * base.g_center_density_cm3
    k_t = (2 * base.capture_coefficient_trap_cm3_ns
           * base.trap_density_cm3)
    a, b = k_g + k_t, 1.0 / base.tau_r_ns + k_t
    assert r1 == pytest.approx(np.log(a / b) / (a - b), abs=0.025)


def test_rise_time_rejects_flat_and_rising():
    t = np.linspace(0, 10, 100)
    with pytest.raises(ValidationError, match="constant"):
        rise_time(t, np.ones_like(t))
    with pytest.raises(ValidationError, match="rising"):
        rise_time(t, t**2)


def test_zero_pump_gives_zero_trace():
    trace = simulate_decay(DecayModelParams(pump_power_mw=0.0))
    assert np.all(trace.intensity == 0.0)
    assert np.all(trace.excited == 0.0)
    assert (trace.nfev, trace.steps_accepted, trace.steps_rejected) == (0, 0, 0)


@pytest.mark.parametrize("k", [-100, 0, 100, 970])
def test_decay_trace_scales_with_the_pump(k):
    # without trap saturation the equations are linear in the populations,
    # so a pump 2**k times larger scales every population by 2**k, bit for
    # bit, up to initial densities near the largest float (1e307 at k=970)
    traces = [simulate_decay(DecayModelParams(
        pump_power_mw=0.3 * 2.0 ** j, trap_saturation_density_cm3=np.inf))
        for j in (0, k)]
    for name in ("intensity", "carriers", "excited", "filled_traps",
                 "emitted"):
        ref, scaled = (getattr(trace, name) for trace in traces)
        assert np.array_equal(scaled, ref * 2.0 ** k), name
    assert traces[1].nfev == traces[0].nfev


@pytest.mark.parametrize("params", [
    DecayModelParams(),
    DecayModelParams(pump_power_mw=0.3, n_points=40001),
    DecayModelParams(pump_power_mw=2.0, n_points=40001,
                     trap_saturation_density_cm3=float("inf")),
    DecayModelParams(trap_density_cm3=1e17, pump_power_mw=5.0),
], ids=["default", "saturated-40001", "unsaturated-40001", "dense-traps"])
def test_dormand_prince_matches_solve_ivp(params):
    # the in-package integrator repeats scipy's RK45 operation for
    # operation, so the oracle agrees bit for bit, evaluation count included
    n0 = params.pump_power_mw * params.carrier_density_per_mw_cm3
    grid, rhs, y0 = params.time_grid_ns, _decay_rhs(params), [n0, 0, 0, 0]
    ref = solve_ivp(rhs, (grid[0], grid[-1]), y0, method="RK45", rtol=1e-8,
                    atol=1e-12 * n0, t_eval=grid)
    y, nfev, accepted, rejected = _dormand_prince(rhs, grid, y0, rtol=1e-8,
                                                  atol=1e-12 * n0)
    assert np.array_equal(y, ref.y)
    assert nfev == ref.nfev == 2 + 6 * (accepted + rejected)
    trace = simulate_decay(params)
    assert (trace.nfev, trace.steps_accepted, trace.steps_rejected) == \
        (nfev, accepted, rejected)


@pytest.mark.parametrize("onset_ns", [0.0, 3.0])
def test_dormand_prince_nan_rhs_raises(onset_ns):
    # NaN from the first evaluation makes the step NaN, and NaN later
    # rejects steps until they fall below the minimum; neither may loop
    def rhs(t, y):
        return [np.nan if t >= onset_ns else -y[0], 0.0]

    with pytest.raises(NumericalError, match="NaN or below the minimum"):
        _dormand_prince(rhs, np.linspace(0.0, 10.0, 101), [1.0, 0.0],
                        rtol=1e-8, atol=1e-12)


def test_trap_saturation_lengthens_tail():
    sat = simulate_decay(DecayModelParams())          # saturable traps
    lin = simulate_decay(
        DecayModelParams(trap_saturation_density_cm3=float("inf")))
    tau_sat = fit_single_exponential(sat.time_ns, sat.intensity).parameters
    tau_lin = fit_single_exponential(lin.time_ns, lin.intensity).parameters
    assert tau_sat["tau_ns"] > tau_lin["tau_ns"]


def test_tau_eff_increases_with_pump():
    taus = []
    for pump in (0.1, 0.3, 1.0, 3.0):
        trace = simulate_decay(DecayModelParams(pump_power_mw=pump))
        fit = fit_single_exponential(trace.time_ns, trace.intensity)
        taus.append(fit.parameters["tau_ns"])
    assert all(t1 > t0 for t0, t1 in zip(taus, taus[1:]))


def test_tau_eff_decreases_with_trap_density():
    taus = []
    for n_t in (0.0, 5e15, 1e16, 5e16):
        trace = simulate_decay(DecayModelParams(trap_density_cm3=n_t))
        fit = fit_single_exponential(trace.time_ns, trace.intensity)
        taus.append(fit.parameters["tau_ns"])
    assert all(t1 < t0 for t0, t1 in zip(taus, taus[1:]))


def test_grid_step_guard():
    with pytest.raises(ValidationError, match="grid step"):
        DecayModelParams(n_points=11)


@pytest.mark.parametrize("kwargs", [
    {"n_points": 1}, {"n_points": MAX_DECAY_POINTS + 1},
    {"t_max_ns": 0.0}, {"t_max_ns": -1.0},
], ids=["one-point", "above-cap", "zero-span", "negative-span"])
def test_grid_bounds(kwargs):
    # the grid is 0 to t_max_ns in n_points even steps, so only its span
    # and size can be wrong; both are refused before any allocation
    with pytest.raises(ValidationError, match=next(iter(kwargs))):
        DecayModelParams(**kwargs)


def test_params_at_the_point_cap_build_no_grid():
    # the step check is closed-form; the grid at the cap is 80 MB
    tracemalloc.start()
    try:
        DecayModelParams(n_points=MAX_DECAY_POINTS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_decay_memory_is_the_trace_it_returns():
    # 320 kB a population at 40,001 points: the scaling back, clipping and
    # conservation check work in place on the integrator's output, and the
    # photon rate takes the buffer of the conservation check
    params = DecayModelParams(n_points=40001)
    simulate_decay(params)
    tracemalloc.start()
    try:
        trace = simulate_decay(params)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held > trace.time_ns.nbytes * 5
    assert peak - held < 0.2e6


def test_grid_is_evenly_spaced():
    params = DecayModelParams(t_max_ns=0.05, n_points=2)
    assert np.array_equal(params.time_grid_ns, [0.0, 0.05])
    assert np.array_equal(DecayModelParams().time_grid_ns,
                          np.linspace(0.0, 100.0, 4001))


def test_decay_params_validation():
    with pytest.raises(ValidationError):
        DecayModelParams(tau_r_ns=-1.0)
    with pytest.raises(ValidationError):
        DecayModelParams(trap_density_cm3=-1e15)


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------

def test_pulsed_schedule_fluence_accounting():
    sched = pulsed_schedule(1e12, 7.9e18, 1e-8, 45.0)
    delivered = sum(s.fluence_cm2 for s in sched.segments)
    assert delivered == pytest.approx(1e12, rel=1e-12)
    per_pulse = 7.9e18 * 1e-8
    n_full = int(1e12 // per_pulse)
    # full pulses, then the fractional tail pulse
    assert [run.repeat for run in sched.segments] == [n_full, 1]
    assert sched.segments[0].gap_s == pytest.approx(45.0 - 1e-8)
    assert sched.segments[-1].gap_s == 0.0
    assert sched.segments[-1].duration_s < 1e-8


def test_pulsed_schedule_exact_multiple():
    per_pulse = 7.9e18 * 1e-8
    sched = pulsed_schedule(10 * per_pulse, 7.9e18, 1e-8, 45.0)
    assert [run.repeat for run in sched.segments] == [9, 1]
    delivered = sum(s.fluence_cm2 for s in sched.segments)
    assert delivered == pytest.approx(10 * per_pulse)
    # no dangling gap after the last pulse
    assert sched.segments[-1].gap_s == 0.0


def test_pulsed_schedule_1e8_pulses_is_two_runs():
    """1e8 pulses as two runs, against the closed form of n pulses:
    n_G = -(s/k) expm1(-k t_on) with t_on the total beam-on time. Traps
    gain c = -(S/a) expm1(-a tau) per pulse and decay by q = exp(-a T)
    per period, so after n - 1 pulses and their gaps they hold
    c (1 - q^(n-1))/(1 - q) exp(-a gap); the tail pulse then adds its
    own linear update."""
    flux, tau, period = 1e17, 1e-9, 1e-3
    sched = pulsed_schedule(1e16, flux, tau, period)
    assert len(sched.segments) == 2
    params = DamageParams()
    hist = integrate_damage(sched, params)
    n = sum(run.repeat for run in sched.segments)
    assert n == pytest.approx(1e8, abs=1)
    tail = sched.segments[-1].duration_s
    assert tail == pytest.approx(tau, rel=1e-6)

    form = params.formation_rate_s(flux)
    k = form + params.destruction_rate_s(flux)
    s_g = form * params.carbon_areal_density_cm2
    n_g = -(s_g / k) * math.expm1(-k * ((n - 1) * tau + tail))
    a, s_t = params.dynamic_annealing_rate_s, params.trap_source_cm2_s(flux)
    c = -(s_t / a) * math.expm1(-a * tau)
    before_tail = (c * math.expm1(-a * (n - 1) * period)
                   / math.expm1(-a * period) * math.exp(-a * (period - tau)))
    n_trap = before_tail * math.exp(-a * tail) - s_t / a * math.expm1(-a * tail)
    assert hist.n_g_cm2[-1] == pytest.approx(n_g, rel=1e-12, abs=0)
    assert hist.n_trap_cm2[-1] == pytest.approx(n_trap, rel=1e-12, abs=0)
    assert hist.fluence_cm2[-1] == pytest.approx(1e16, rel=1e-12, abs=0)
    assert len(hist.time_s) == 4


def test_cw_schedule():
    sched = cw_schedule(1e13, 8e11)
    assert len(sched.segments) == 1
    assert sched.segments[0].duration_s == pytest.approx(1e13 / 8e11)
    delivered = sum(s.fluence_cm2 for s in sched.segments)
    assert delivered == pytest.approx(1e13)


def test_schedule_validation():
    with pytest.raises(ValidationError):
        ScheduleSegment(-1.0, 1.0, 0.0)
    with pytest.raises(ValidationError):
        ScheduleSegment(1.0, -1.0, 0.0)
    for repeat in (0, -3):
        with pytest.raises(ValidationError):
            ScheduleSegment(1.0, 1.0, 0.0, repeat)
    with pytest.raises(ValidationError, match="must be positive and finite"):
        pulsed_schedule(1e12, 0.0, 1e-8, 45.0)
    with pytest.raises(ValidationError, match="must be positive and finite"):
        cw_schedule(-1e12, 8e11)


# ---------------------------------------------------------------------------
# damage accumulation
# ---------------------------------------------------------------------------

def test_damage_params_reference_values():
    params = DamageParams()
    # the shipped nonradiative background pins tau_eff(no traps) at 13 ns
    assert params.tau_eff_ns(0.0) == pytest.approx(13.0)
    # flux enhancement doubles the formation rate at the knee flux
    base = params.formation_coefficient_cm2 * 3e12
    assert params.formation_rate_s(3e12) == pytest.approx(2 * base)
    # trap source is continuous across the clustering threshold
    thr = params.clustering_threshold_flux
    below = params.trap_source_cm2_s(thr * (1 - 1e-9))
    above = params.trap_source_cm2_s(thr * (1 + 1e-9))
    assert above == pytest.approx(below, rel=1e-6)


def test_destruction_rate_thermally_activated():
    cold = DamageParams(temperature_k=150.0)
    warm = DamageParams(temperature_k=600.0)
    assert warm.destruction_rate_s(1e12) > cold.destruction_rate_s(1e12)


def test_tau_eff_of_an_overflowing_trap_rate_is_zero():
    # the trap term overflows to inf, so the lifetime is the 0 it
    # underflows to, without a warning
    params = DamageParams(trap_lifetime_coupling_cm2_ns=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert params.tau_eff_ns(np.array([1e10])).tolist() == [0.0]


def test_damage_against_step_integration():
    """Cross-check the closed-form per-segment updates with explicit
    Euler integration of the same rate equations."""
    params = DamageParams()
    flux = 8e11
    duration = 50.0
    sched = IrradiationSchedule((ScheduleSegment(flux, duration, 10.0),))
    hist = integrate_damage(sched, params)

    n_g = n_trap = 0.0
    dt = duration / 200000
    form = params.formation_rate_s(flux)
    destr = params.destruction_rate_s(flux)
    source = params.trap_source_cm2_s(flux)
    for _ in range(200000):
        n_g += dt * (form * (params.carbon_areal_density_cm2 - n_g)
                     - destr * n_g)
        n_trap += dt * (source - params.dynamic_annealing_rate_s * n_trap)
    n_trap *= np.exp(-params.dynamic_annealing_rate_s * 10.0)

    assert hist.n_g_cm2[-1] == pytest.approx(n_g, rel=1e-4)
    assert hist.n_trap_cm2[-1] == pytest.approx(n_trap, rel=1e-4)


def test_damage_single_short_pulse_keeps_precision():
    """One 1 ns pulse from a pristine sample against the exact solution
    y = S*dt*(1 - e^-x)/x, x = k*dt, summed as its Taylor series in x.

    With k*dt ~ 3e-12 on the trap channel, a form that subtracts
    exp(-k*dt) from one loses about five digits."""
    def relaxed(source, rate, dt):
        x = rate * dt
        return source * dt * sum((-x) ** m / factorial(m + 1)
                                 for m in range(8))

    params = DamageParams()
    flux, dt = 1e17, 1e-9
    hist = integrate_damage(
        IrradiationSchedule((ScheduleSegment(flux, dt, 0.0),)), params)
    form = params.formation_rate_s(flux)
    n_g = relaxed(form * params.carbon_areal_density_cm2,
                  form + params.destruction_rate_s(flux), dt)
    n_trap = relaxed(params.trap_source_cm2_s(flux),
                     params.dynamic_annealing_rate_s, dt)
    assert hist.n_g_cm2[-1] == pytest.approx(n_g, rel=1e-12, abs=0)
    assert hist.n_trap_cm2[-1] == pytest.approx(n_trap, rel=1e-12, abs=0)


def test_damage_history_bookkeeping():
    sched = IrradiationSchedule((ScheduleSegment(1e12, 10.0, 5.0),
                                 ScheduleSegment(2e12, 10.0, 0.0)))
    hist = integrate_damage(sched, DamageParams())
    assert hist.time_s[0] == 0.0 and hist.fluence_cm2[0] == 0.0
    assert hist.time_s[-1] == pytest.approx(25.0)
    assert hist.fluence_cm2[-1] == pytest.approx(3e13)
    # gap row carries annealed traps
    assert hist.n_trap_cm2[2] < hist.n_trap_cm2[1]
    # emitters are untouched during gaps
    assert hist.n_g_cm2[2] == hist.n_g_cm2[1]
    assert np.all(np.diff(hist.fluence_cm2) >= 0)


def test_gaps_anneal_traps_between_pulses():
    pulsed = pulsed_schedule(1e12, 7.9e18, 1e-8, 45.0)
    squeezed = pulsed_schedule(1e12, 7.9e18, 1e-8, 2e-8)
    params = DamageParams()
    with_gaps = integrate_damage(pulsed, params).n_trap_cm2[-1]
    without = integrate_damage(squeezed, params).n_trap_cm2[-1]
    assert with_gaps < without


_run = st.builds(
    ScheduleSegment,
    flux_cm2_s=st.one_of(st.just(0.0), st.floats(1e10, 1e19)),
    duration_s=st.one_of(st.just(0.0), st.floats(1e-9, 10.0)),
    gap_s=st.one_of(st.just(0.0), st.floats(1e-6, 10.0)),
    repeat=st.integers(1, 40))


@settings(max_examples=100, deadline=None)
@given(st.lists(_run, min_size=1, max_size=4),
       st.one_of(st.just(0.0), st.floats(1e-4, 0.1)))
def test_runs_match_expanded_copies(runs, anneal):
    """A run of n copies ends where n single copies stepped in turn end,
    and its rows are those of its last copy."""
    params = DamageParams(dynamic_annealing_rate_s=anneal)
    expanded = [ScheduleSegment(run.flux_cm2_s, run.duration_s, run.gap_s)
                for run in runs for _ in range(run.repeat)]

    def table(hist):
        return np.column_stack([hist.time_s, hist.fluence_cm2,
                                hist.n_g_cm2, hist.n_trap_cm2])

    got = table(integrate_damage(IrradiationSchedule(runs), params))
    want = table(integrate_damage(IrradiationSchedule(expanded), params))
    np.testing.assert_allclose(got[-1], want[-1], rtol=1e-12, atol=0)
    i = j = 1
    for run in runs:
        rows = (run.duration_s > 0) + (run.gap_s > 0)
        i += rows
        j += rows * run.repeat
        np.testing.assert_allclose(got[i - rows:i], want[j - rows:j],
                                   rtol=1e-12, atol=0)
    assert (len(got), len(want)) == (i, j)


def test_tau_eff_monotone_in_accumulated_traps():
    params = DamageParams()
    hist = integrate_damage(cw_schedule(1e13, 8e11), params)
    # traps only grow during the single segment, so tau_eff only drops
    assert np.all(np.diff(hist.tau_eff_ns) <= 1e-12)
    assert hist.tau_eff_ns[0] == pytest.approx(13.0)
    assert hist.qe[0] == pytest.approx(13.0 / 45.0)
    # the emission every sweep reports is the bitwise product n_G * qe
    assert np.array_equal(hist.intensity, hist.n_g_cm2 * hist.qe)


def test_cw_lifetime_drop_over_sweep():
    # shipped defaults take the fitted lifetime from 13 ns toward 6 ns
    # across a 1e11..1e14 continuous sweep
    params = DamageParams()
    taus = [integrate_damage(cw_schedule(f, 8e11), params).tau_eff_ns[-1]
            for f in (1e11, 1e12, 1e13, 1e14)]
    assert all(t1 < t0 for t0, t1 in zip(taus, taus[1:]))
    assert taus[0] == pytest.approx(13.0, abs=0.5)
    assert taus[-1] == pytest.approx(6.0, abs=1.0)

