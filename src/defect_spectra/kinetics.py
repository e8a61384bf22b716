"""Rate-equation models for emission decay and irradiation damage.

Two model families live here. ``simulate_decay`` integrates carrier
capture into emitters and saturable traps after a pump pulse, producing
photon-rate traces. ``integrate_damage`` evolves emitter and trap areal
densities over an irradiation schedule; within each constant-flux
segment the equations are linear, so segments advance by closed-form
exponential updates instead of a stepped solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    KB_EV_K,
    RADIATIVE_LIFETIME_NS,
    NumericalError,
    ValidationError,
    check_fields,
    increasing_grid,
)


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LifetimeSet:
    """Measured radiative and effective lifetimes; the nonradiative
    lifetime and the quantum efficiency follow from the identity
    1/tau_eff = 1/tau_r + 1/tau_nr and qe = tau_eff/tau_r."""

    tau_r_ns: float
    tau_eff_ns: float

    def __post_init__(self):
        if self.tau_eff_ns <= 0 or self.tau_r_ns <= 0:
            raise ValidationError("lifetimes must be positive")
        if self.tau_eff_ns > self.tau_r_ns:
            raise ValidationError(
                f"tau_eff = {self.tau_eff_ns} ns exceeds tau_r = "
                f"{self.tau_r_ns} ns, which would need a negative "
                "nonradiative rate")

    @property
    def tau_nr_ns(self) -> float:
        rate_nr = 1.0 / self.tau_eff_ns - 1.0 / self.tau_r_ns
        return np.inf if rate_nr == 0 else 1.0 / rate_nr

    @property
    def qe(self) -> float:
        return self.tau_eff_ns / self.tau_r_ns


# ---------------------------------------------------------------------------
# pump-decay model
# ---------------------------------------------------------------------------

# Most points a decay time grid may have: 80 MB per grid-length array.
MAX_DECAY_POINTS = 10**7


@dataclass
class DecayModelParams:
    """Carrier capture and emission after an excitation pulse.

    Free carriers are captured by emitters (rate ``capture_coefficient_g
    * g_center_density``) and by traps; the trap channel acts on both
    free carriers and the excited-emitter population and shuts off as
    filled traps approach ``trap_saturation_density`` (None means equal
    to the trap density, inf disables saturation). Pump power converts
    to an initial carrier density through a single linear calibration.
    The equations are integrated from 0 to ``t_max_ns`` and reported on
    ``n_points`` evenly spaced times (``time_grid_ns``).
    """

    tau_r_ns: float = RADIATIVE_LIFETIME_NS
    g_center_density_cm3: float = 2.0e16
    capture_coefficient_g_cm3_ns: float = 1.0e-16
    trap_density_cm3: float = 1.0e16
    capture_coefficient_trap_cm3_ns: float = 1.1e-17
    trap_saturation_density_cm3: float | None = None
    pump_power_mw: float = 0.3
    carrier_density_per_mw_cm3: float = 3.5e15
    t_max_ns: float = 100.0
    n_points: int = 4001

    def __post_init__(self):
        check_fields(self, positive=("tau_r_ns",), nonnegative=(
            "g_center_density_cm3", "capture_coefficient_g_cm3_ns",
            "trap_density_cm3", "capture_coefficient_trap_cm3_ns",
            "pump_power_mw", "carrier_density_per_mw_cm3"))
        # None and inf (no saturation) are documented values
        if (self.trap_saturation_density_cm3 is not None
                and not self.trap_saturation_density_cm3 > 0):
            raise ValidationError("trap_saturation_density_cm3 must be positive")
        if not np.isfinite(self.pump_power_mw
                           * self.carrier_density_per_mw_cm3):
            raise ValidationError(
                f"the initial carrier density, pump_power_mw "
                f"{self.pump_power_mw:g} times carrier_density_per_mw_cm3 "
                f"{self.carrier_density_per_mw_cm3:g}, overflows a float")
        if not 0 < self.t_max_ns < np.inf:
            raise ValidationError(f"t_max_ns must be positive and finite, "
                                  f"got {self.t_max_ns}")
        if not 2 <= self.n_points <= MAX_DECAY_POINTS:
            raise ValidationError(f"n_points must be within [2, "
                                  f"{MAX_DECAY_POINTS}], got {self.n_points}")
        rates = [1.0 / self.tau_r_ns,
                 self.capture_coefficient_g_cm3_ns * self.g_center_density_cm3,
                 self.capture_coefficient_trap_cm3_ns * self.trap_density_cm3]
        fastest = 1.0 / max(r for r in rates if r > 0)
        if self.t_max_ns / (self.n_points - 1) > fastest / 10.0:
            raise ValidationError(
                f"time grid step exceeds a tenth of the fastest timescale "
                f"({fastest:.3g} ns); refine the grid")

    @property
    def time_grid_ns(self) -> np.ndarray:
        return np.linspace(0.0, self.t_max_ns, self.n_points)


@dataclass
class DecayTrace:
    """Photon rate and populations on the simulation grid, with the
    integrator's right-hand-side evaluations and accepted and rejected
    steps (all 0 when nothing was pumped)."""

    time_ns: np.ndarray
    intensity: np.ndarray          # emitted-photon rate, n_excited / tau_r
    carriers: np.ndarray
    excited: np.ndarray
    filled_traps: np.ndarray
    emitted: np.ndarray
    nfev: int = 0
    steps_accepted: int = 0
    steps_rejected: int = 0

    def total_excitations(self):
        return self.carriers + self.excited + self.filled_traps + self.emitted


# Dormand-Prince 5(4) pair (J. R. Dormand and P. J. Prince, J. Comput.
# Appl. Math. 6, 19, 1980): nodes, stages, 5th-order weights and the
# difference to the embedded 4th-order solution, then Shampine's quartic
# dense output for the optimal c6 (L. W. Shampine, Math. Comp. 46, 135,
# 1986), applied in the same operation order as the RK45 solve_ivp that
# the tests use as an oracle, so that the two agree bit for bit.
_DP_C = np.array([0, 1/5, 3/10, 4/5, 8/9, 1])
_DP_A = np.array([
    [0, 0, 0, 0, 0],
    [1/5, 0, 0, 0, 0],
    [3/40, 9/40, 0, 0, 0],
    [44/45, -56/15, 32/9, 0, 0],
    [19372/6561, -25360/2187, 64448/6561, -212/729, 0],
    [9017/3168, -355/33, 46732/5247, 49/176, -5103/18656]])
_DP_B = np.array([35/384, 0, 500/1113, 125/192, -2187/6784, 11/84])
_DP_E = np.array([-71/57600, 0, 71/16695, -71/1920, 17253/339200, -22/525,
                  1/40])
_DP_P = np.array([
    [1, -8048581381/2820520608, 8663915743/2820520608,
     -12715105075/11282082432],
    [0, 0, 0, 0],
    [0, 131558114200/32700410799, -68118460800/10900136933,
     87487479700/32700410799],
    [0, -1754552775/470086768, 14199869525/1410260304,
     -10690763975/1880347072],
    [0, 127303824393/49829197408, -318862633887/49829197408,
     701980252875/199316789632],
    [0, -282668133/205662961, 2019193451/616988883, -1453857185/822651844],
    [0, 40617522/29380423, -110615467/29380423, 69997945/29380423]])
# (node, row of _DP_A) of stages 1 to 5
_DP_STAGES = [(_DP_C[s], _DP_A[s, :s]) for s in range(1, 6)]


def _rms(x):
    # what np.linalg.norm(x) computes for a real vector, without its checks
    return math.sqrt(x @ x) / x.size ** 0.5


def _dormand_prince(rhs, grid, y0, rtol, atol):
    """Integrate y' = rhs(t, y) from grid[0] to grid[-1] with adaptive
    Dormand-Prince 5(4) steps; return y on the grid (one column per
    point) and the counts of rhs evaluations, accepted and rejected steps.

    The step control is that of Hairer, Norsett and Wanner (Solving
    Ordinary Differential Equations I, Sec. II.4): their initial step,
    an RMS error norm scaled by atol + rtol*|y|, safety factor 0.9 and
    step factors clamped to [0.2, 10], no growth right after a rejection.
    A step that must shrink below ten ulps of t, or that is NaN because
    rhs returned NaN, raises NumericalError.
    """
    nfev = accepted = rejected = 0

    def fun(t, y):
        nonlocal nfev
        nfev += 1
        return np.asarray(rhs(t, y), dtype=float)

    t, t_end = float(grid[0]), float(grid[-1])
    y = np.asarray(y0, dtype=float)
    f = fun(t, y)
    scale = atol + np.abs(y) * rtol
    d0, d1 = _rms(y / scale), _rms(f / scale)
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d2 = _rms((fun(t + h0, y + h0 * f) - f) / scale) / h0
    h1 = (max(1e-6, h0 * 1e-3) if d1 <= 1e-15 and d2 <= 1e-15
          else (0.01 / max(d1, d2)) ** (1 / 5))
    h_abs = min(100 * h0, h1, t_end - t)

    K = np.empty((7, y.size))
    out = np.empty((y.size, grid.size))
    i = 0
    while t < t_end:
        min_step = 10 * abs(math.nextafter(t, math.inf) - t)
        h_abs = max(h_abs, min_step)
        was_rejected = False
        while True:
            if not h_abs >= min_step:
                raise NumericalError(
                    f"decay integration failed at t = {t:.6g} ns: step "
                    f"{h_abs:.3g} ns is NaN or below the minimum "
                    f"{min_step:.3g} ns")
            t_new = min(t + h_abs, t_end)
            h = t_new - t
            h_abs = abs(h)
            K[0] = f
            for s, (c, a) in enumerate(_DP_STAGES, 1):
                dy = np.dot(K[:s].T, a) * h
                K[s] = fun(t + c * h, y + dy)
            y_new = y + h * np.dot(K[:-1].T, _DP_B)
            K[-1] = f_new = fun(t + h, y_new)
            scale = atol + np.maximum(np.abs(y), np.abs(y_new)) * rtol
            error = _rms(np.dot(K.T, _DP_E) * h / scale)
            if error < 1:
                factor = 10 if error == 0 else min(10, 0.9 * error ** -0.2)
                h_abs *= min(1, factor) if was_rejected else factor
                break
            h_abs *= max(0.2, 0.9 * error ** -0.2)
            was_rejected = True
            rejected += 1
        accepted += 1
        j = int(np.searchsorted(grid, t_new, side="right"))
        if j > i:
            x = (grid[i:j] - t) / h
            p = np.cumprod(np.broadcast_to(x, (4, x.size)), axis=0,
                           out=np.empty((4, x.size)))
            out[:, i:j] = h * np.dot(K.T.dot(_DP_P), p) + y[:, None]
            i = j
        t, y, f = t_new, y_new, f_new
    return out, nfev, accepted, rejected


def _decay_rhs(params: DecayModelParams, exponent=0):
    """Time derivative of (carriers, excited emitters, filled traps,
    emitted photons), each in units of 2**exponent cm^-3, for the
    capture/emission equations."""
    k_g = params.capture_coefficient_g_cm3_ns * params.g_center_density_cm3
    k_t0 = params.capture_coefficient_trap_cm3_ns * params.trap_density_cm3
    n_sat = params.trap_saturation_density_cm3
    if n_sat is None:
        n_sat = params.trap_density_cm3
    # a saturation density above the float range in these units is never
    # approached: inf, so the traps do not saturate
    with np.errstate(over="ignore"):
        n_sat = float(np.ldexp(n_sat, -exponent))
    saturable = k_t0 > 0 and n_sat < np.inf
    tau_r = params.tau_r_ns

    def rhs(_t, y):
        n_c, n_x, filled, _ = y.tolist()
        k_t = k_t0
        if saturable:
            # 0 once the traps are full; a saturation density that
            # underflowed to 0 in these units is full from the start and
            # keeps filled at 0, so it never divides
            k_t = k_t0 * (1.0 - filled / n_sat) if filled < n_sat else 0.0
        return [
            -(k_g + k_t) * n_c,
            k_g * n_c - n_x / tau_r - k_t * n_x,
            k_t * (n_c + n_x),
            n_x / tau_r,
        ]
    return rhs


def simulate_decay(params: DecayModelParams) -> DecayTrace:
    """Integrate the capture/emission equations over the time grid.

    Conservation (carriers + excited + filled traps + emitted photons =
    initial carriers) is checked to integrator tolerance.
    """
    n0 = params.pump_power_mw * params.carrier_density_per_mw_cm3
    grid = params.time_grid_ns
    if n0 == 0.0:
        zero = np.zeros_like(grid)
        return DecayTrace(grid, zero, zero.copy(), zero.copy(),
                          zero.copy(), zero.copy())

    # integrated in units of 2**e, the binade of n0: the right-hand side
    # scales with the populations and the saturation density together, and
    # a power of two scales exactly, so the trace is that of the unscaled
    # equations, but no step overflows near the largest float; atol is
    # taken in these units, as 1e-12 * n0 underflows for a subnormal n0
    e = int(np.frexp(n0)[1])
    y0 = float(np.ldexp(n0, -e))
    y, nfev, accepted, rejected = _dormand_prince(
        _decay_rhs(params, e), grid, [y0, 0.0, 0.0, 0.0],
        rtol=1e-8, atol=1e-12 * y0)
    np.ldexp(y, e, out=y)
    lowest = y.min()
    if lowest < -1e-6 * n0:
        raise NumericalError(
            f"negative densities in decay solution (min {lowest:.3g})")
    np.clip(y, 0.0, None, out=y)
    total = y.sum(axis=0)
    total -= n0
    drift = float(np.max(np.abs(total, out=total))) / n0
    if drift > 1e-6:
        raise NumericalError(
            f"excitation conservation violated by {drift:.2e} relative")
    # the photon rate reuses the row-sum buffer
    intensity = np.divide(y[1], params.tau_r_ns, out=total)
    return DecayTrace(time_ns=grid, intensity=intensity,
                      carriers=y[0], excited=y[1], filled_traps=y[2],
                      emitted=y[3], nfev=nfev, steps_accepted=accepted,
                      steps_rejected=rejected)


def rise_time(time_ns, intensity) -> float:
    """Time from excitation to the trace maximum.

    A trace that never turns over (still rising at the end, or constant)
    has no defined rise time.
    """
    t = increasing_grid(time_ns, "time grid", y=intensity)
    y = np.asarray(intensity, dtype=float)
    if y.max() == y.min():
        raise ValidationError("trace is constant")
    i = int(np.argmax(y))
    if i == len(y) - 1:
        raise ValidationError("trace is still rising at the last sample")
    return float(t[i])


# ---------------------------------------------------------------------------
# irradiation schedules and damage accumulation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScheduleSegment:
    """``repeat`` back-to-back copies of (exposure at flux, gap)."""

    flux_cm2_s: float
    duration_s: float
    gap_s: float = 0.0
    repeat: int = 1

    def __post_init__(self):
        check_fields(self, nonnegative=("flux_cm2_s", "duration_s", "gap_s"))
        if self.repeat < 1:
            raise ValidationError(f"repeat must be >= 1, got {self.repeat}")

    @property
    def fluence_cm2(self) -> float:
        return self.flux_cm2_s * self.duration_s * self.repeat


@dataclass(frozen=True)
class IrradiationSchedule:
    segments: tuple

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValidationError("schedule needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))


def pulsed_schedule(fluence_cm2: float, flux_cm2_s: float,
                    pulse_duration_s: float,
                    repetition_period_s: float) -> IrradiationSchedule:
    """Pulse train reaching the requested fluence as at most two runs:
    the full pulses, then a last pulse with no gap, shortened if the
    fluence is not an integer number of pulses."""
    if not (0 < fluence_cm2 < np.inf and 0 < flux_cm2_s < np.inf
            and 0 < pulse_duration_s <= repetition_period_s < np.inf):
        raise ValidationError(
            "fluence, flux, pulse and period must be positive and finite, "
            "the period no shorter than the pulse")
    per_pulse = flux_cm2_s * pulse_duration_s
    n_full = int(fluence_cm2 / per_pulse)
    remainder = fluence_cm2 - n_full * per_pulse
    tail_s = remainder / flux_cm2_s
    if remainder <= 1e-9 * fluence_cm2:     # the last full pulse is the tail
        n_full, tail_s = n_full - 1, pulse_duration_s
    tail = ScheduleSegment(flux_cm2_s, tail_s, 0.0)
    if n_full == 0:
        return IrradiationSchedule((tail,))
    gap = repetition_period_s - pulse_duration_s
    return IrradiationSchedule(
        (ScheduleSegment(flux_cm2_s, pulse_duration_s, gap, n_full), tail))


def cw_schedule(fluence_cm2: float, flux_cm2_s: float) -> IrradiationSchedule:
    if not (0 < fluence_cm2 < np.inf and 0 < flux_cm2_s < np.inf):
        raise ValidationError("fluence and flux must be positive and finite")
    return IrradiationSchedule(
        (ScheduleSegment(flux_cm2_s, fluence_cm2 / flux_cm2_s, 0.0),))


@dataclass
class DamageParams:
    """Formation/destruction of emitters and trap accumulation.

    ``formation`` converts available carbon at a rate proportional to an
    enhanced flux g = flux * (1 + (flux/enhancement)^p). Destruction by
    later protons carries an Arrhenius factor exp(-Ea/kT) and is damped
    at high instantaneous flux (transient annealing outruns it), divided
    by (1 + flux/destruction_suppression_flux). Trap production turns
    super-linear above ``clustering_threshold_flux``; filled traps anneal
    between pulses at ``dynamic_annealing_rate``. Trap density feeds the
    effective lifetime as 1/tau_eff = 1/tau_r + 1/tau_nr_background +
    coupling * n_trap.
    """

    damage_rate_per_proton_nm: float = 2.0e-4
    active_depth_nm: float = 1000.0
    carbon_areal_density_cm2: float = 2.0e14
    formation_coefficient_cm2: float = 2.0e-16
    formation_enhancement_flux: float = 3.0e12
    formation_enhancement_exponent: float = 0.39
    destruction_coefficient_cm2: float = 4.6e-10
    destruction_activation_energy_ev: float = 0.15
    destruction_suppression_flux: float = 1.0e17
    temperature_k: float = 300.0
    trap_formation_per_proton: float | None = None
    dynamic_annealing_rate_s: float = 3.2e-3
    clustering_threshold_flux: float = 1.0e17
    trap_clustering_exponent: float = 1.0
    trap_lifetime_coupling_cm2_ns: float = 5.4e-15
    background_tau_nr_ns: float = 18.28125
    tau_r_ns: float = RADIATIVE_LIFETIME_NS

    def __post_init__(self):
        if self.trap_formation_per_proton is None:
            self.trap_formation_per_proton = (
                self.damage_rate_per_proton_nm * self.active_depth_nm)
        # the fluxes and the temperature divide, so zero is refused too
        check_fields(self, positive=(
            "formation_enhancement_flux", "destruction_activation_energy_ev",
            "destruction_suppression_flux", "temperature_k",
            "clustering_threshold_flux", "background_tau_nr_ns", "tau_r_ns"),
            nonnegative=(
                "damage_rate_per_proton_nm", "active_depth_nm",
                "carbon_areal_density_cm2", "formation_coefficient_cm2",
                "formation_enhancement_exponent", "destruction_coefficient_cm2",
                "trap_formation_per_proton", "dynamic_annealing_rate_s",
                "trap_clustering_exponent", "trap_lifetime_coupling_cm2_ns"))
        if not KB_EV_K * self.temperature_k > 0:
            raise ValidationError(f"temperature_k = {self.temperature_k:g} "
                                  "underflows k_B*T to zero")

    def formation_rate_s(self, flux: float) -> float:
        enh = 1.0 + (flux / self.formation_enhancement_flux) \
            ** self.formation_enhancement_exponent
        return self.formation_coefficient_cm2 * flux * enh

    def destruction_rate_s(self, flux: float) -> float:
        # a Python float: an overflowing product is inf, and inf * 0 NaN,
        # without a warning; the caller refuses both
        arrhenius = float(np.exp(-self.destruction_activation_energy_ev
                                 / (KB_EV_K * self.temperature_k)))
        suppression = 1.0 + flux / self.destruction_suppression_flux
        return self.destruction_coefficient_cm2 * flux * arrhenius / suppression

    def trap_source_cm2_s(self, flux: float) -> float:
        over = max(0.0, flux / self.clustering_threshold_flux - 1.0)
        excess = 1.0 + over ** self.trap_clustering_exponent
        return self.trap_formation_per_proton * flux * excess

    def tau_eff_ns(self, n_trap_cm2) -> np.ndarray:
        # a rate that overflows gives 0, the underflow of the true lifetime
        with np.errstate(over="ignore"):
            rate = (1.0 / self.tau_r_ns + 1.0 / self.background_tau_nr_ns
                    + self.trap_lifetime_coupling_cm2_ns
                    * np.asarray(n_trap_cm2))
        return 1.0 / rate


@dataclass
class DamageHistory:
    """Densities after the exposure and the gap of each run's last copy."""

    time_s: np.ndarray
    fluence_cm2: np.ndarray
    n_g_cm2: np.ndarray
    n_trap_cm2: np.ndarray
    tau_eff_ns: np.ndarray
    qe: np.ndarray

    @property
    def intensity(self) -> np.ndarray:
        """Integrated emission per row, n_G * qe: photons per excitation
        summed over the emitters."""
        return self.n_g_cm2 * self.qe


# A loss over a step below one rounding unit changes no density by more
# than its last bit, so such a step is integrated as lossless.
_LOSSLESS = 2.0 ** -53


def _linear_update(value, source, loss_rate, dt):
    """Advance dy/dt = source - loss_rate*y exactly over dt.

    A sum of two nonnegative terms, with expm1 for the relaxed part, so
    both a tiny loss_rate*dt (a ns pulse) and a decay over many loss
    times (a long train) keep full double precision. Below ``_LOSSLESS``
    the step is value + source*dt, so source/loss_rate cannot overflow
    at a tiny loss rate.
    """
    x = loss_rate * dt
    if x >= _LOSSLESS:
        return value * np.exp(-x) - source / loss_rate * np.expm1(-x)
    return value + source * dt


def integrate_damage(schedule: IrradiationSchedule,
                     params: DamageParams) -> DamageHistory:
    """Evolve emitter and trap densities over an irradiation schedule.

    Each constant-flux stretch advances by the closed-form solution of
    the linear rate equations, so pulse (ns) and gap (tens of s) scales
    coexist without step-size trouble. All periods T of a run but the
    last advance at once: traps map y -> q*y + c per period, and n such
    maps are one linear update over n*T with the source scaled by
    r = expm1(-a*tau)*exp(-a*gap)/expm1(-a*T), or tau/T when a*T is below
    ``_LOSSLESS``.
    """
    rows = [(0.0, 0.0, 0.0, 0.0)]
    t = fluence = n_g = n_trap = 0.0
    c0 = params.carbon_areal_density_cm2
    anneal = params.dynamic_annealing_rate_s
    for seg in schedule.segments:
        try:
            form = params.formation_rate_s(seg.flux_cm2_s)
            destr = params.destruction_rate_s(seg.flux_cm2_s)
            source = params.trap_source_cm2_s(seg.flux_cm2_s)
        except OverflowError:   # a float ** that overflows raises
            form = destr = source = np.inf
        if not form * c0 + destr + source < np.inf:
            raise NumericalError(f"damage rates overflow at a flux of "
                                 f"{seg.flux_cm2_s:g} cm^-2 s^-1")
        copies, period = seg.repeat - 1, seg.duration_s + seg.gap_s
        if copies and period > 0:
            x = anneal * period
            r = (np.expm1(-anneal * seg.duration_s) / np.expm1(-x)
                 * np.exp(-anneal * seg.gap_s) if x >= _LOSSLESS
                 else seg.duration_s / period)
            n_trap = _linear_update(n_trap, source * r, anneal, copies * period)
            t += copies * period
        if seg.duration_s > 0:
            # emitters change only under the beam
            n_g = _linear_update(n_g, form * c0, form + destr,
                                 seg.repeat * seg.duration_s)
            n_trap = _linear_update(n_trap, source, anneal, seg.duration_s)
            t += seg.duration_s
            fluence += seg.fluence_cm2
            rows.append((t, fluence, n_g, n_trap))
        if seg.gap_s > 0:
            n_trap = _linear_update(n_trap, 0.0, anneal, seg.gap_s)
            t += seg.gap_s
            rows.append((t, fluence, n_g, n_trap))
    arr = np.array(rows, dtype=float)
    if not np.all((arr[:, 2:] >= 0) & (arr[:, 2:] < np.inf)):
        raise NumericalError("damage integration produced negative or "
                             "non-finite densities")
    tau_eff = params.tau_eff_ns(arr[:, 3])
    return DamageHistory(time_s=arr[:, 0], fluence_cm2=arr[:, 1],
                         n_g_cm2=arr[:, 2], n_trap_cm2=arr[:, 3],
                         tau_eff_ns=tau_eff,
                         qe=tau_eff / params.tau_r_ns)
