"""Rate-equation models for emission decay and irradiation damage.

Two model families live here. ``simulate_decay`` integrates carrier
capture into emitters and saturable traps after a pump pulse, producing
photon-rate traces. ``integrate_damage`` evolves emitter and trap areal
densities over an irradiation schedule; within each constant-flux
segment the equations are linear, so segments advance by closed-form
exponential updates instead of a stepped solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    KB_EV_K,
    RADIATIVE_LIFETIME_NS,
    IntegrationError,
    InvalidArgumentError,
    NoRiseError,
    ValidationError,
    check_fields,
    increasing_grid,
)


# ---------------------------------------------------------------------------
# lifetimes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LifetimeSet:
    """Radiative, nonradiative, and effective lifetimes with the identity
    1/tau_eff = 1/tau_r + 1/tau_nr and qe = tau_eff/tau_r."""

    tau_r_ns: float
    tau_nr_ns: float
    tau_eff_ns: float
    qe: float

    def __post_init__(self):
        if self.tau_r_ns <= 0 or self.tau_eff_ns <= 0 or self.tau_nr_ns <= 0:
            raise ValidationError("lifetimes must be positive")
        if not 0 < self.qe <= 1:
            raise ValidationError(f"quantum efficiency {self.qe} outside (0, 1]")
        lhs = 1.0 / self.tau_eff_ns
        rhs = 1.0 / self.tau_r_ns + (0.0 if np.isinf(self.tau_nr_ns)
                                     else 1.0 / self.tau_nr_ns)
        if abs(lhs - rhs) > 1e-9 * lhs:
            raise ValidationError("lifetime identity violated")


def decompose_lifetimes(tau_eff_ns: float,
                        tau_r_ns: float = RADIATIVE_LIFETIME_NS) -> LifetimeSet:
    """Split an effective lifetime into radiative and nonradiative parts."""
    if tau_eff_ns <= 0 or tau_r_ns <= 0:
        raise InvalidArgumentError("lifetimes must be positive")
    if tau_eff_ns > tau_r_ns:
        raise ValidationError(
            f"tau_eff = {tau_eff_ns} ns exceeds tau_r = {tau_r_ns} ns, "
            "which would need a negative nonradiative rate")
    rate_nr = 1.0 / tau_eff_ns - 1.0 / tau_r_ns
    tau_nr = np.inf if rate_nr == 0 else 1.0 / rate_nr
    return LifetimeSet(tau_r_ns=tau_r_ns, tau_nr_ns=tau_nr,
                       tau_eff_ns=tau_eff_ns, qe=tau_eff_ns / tau_r_ns)


def compose_lifetimes(tau_r_ns: float, tau_nr_ns: float) -> LifetimeSet:
    if tau_r_ns <= 0 or tau_nr_ns <= 0:
        raise InvalidArgumentError("lifetimes must be positive")
    rate = 1.0 / tau_r_ns + (0.0 if np.isinf(tau_nr_ns) else 1.0 / tau_nr_ns)
    tau_eff = 1.0 / rate
    return LifetimeSet(tau_r_ns=tau_r_ns, tau_nr_ns=tau_nr_ns,
                       tau_eff_ns=tau_eff, qe=tau_eff / tau_r_ns)


# ---------------------------------------------------------------------------
# pump-decay model
# ---------------------------------------------------------------------------

DECAY_T_MAX_NS = 100.0
DECAY_GRID_POINTS = 4001


def _default_grid():
    return np.linspace(0.0, DECAY_T_MAX_NS, DECAY_GRID_POINTS)


@dataclass
class DecayModelParams:
    """Carrier capture and emission after an excitation pulse.

    Free carriers are captured by emitters (rate ``capture_coefficient_g
    * g_center_density``) and by traps; the trap channel acts on both
    free carriers and the excited-emitter population and shuts off as
    filled traps approach ``trap_saturation_density`` (None means equal
    to the trap density, inf disables saturation). Pump power converts
    to an initial carrier density through a single linear calibration.
    """

    tau_r_ns: float = RADIATIVE_LIFETIME_NS
    g_center_density_cm3: float = 2.0e16
    capture_coefficient_g_cm3_ns: float = 1.0e-16
    trap_density_cm3: float = 1.0e16
    capture_coefficient_trap_cm3_ns: float = 1.1e-17
    trap_saturation_density_cm3: float | None = None
    pump_power_mw: float = 0.3
    carrier_density_per_mw_cm3: float = 3.5e15
    time_grid_ns: np.ndarray = field(default_factory=_default_grid)

    def __post_init__(self):
        check_fields(self, positive=("tau_r_ns",), nonnegative=(
            "g_center_density_cm3", "capture_coefficient_g_cm3_ns",
            "trap_density_cm3", "capture_coefficient_trap_cm3_ns",
            "pump_power_mw", "carrier_density_per_mw_cm3"),
            error=ValidationError)
        # None and inf (no saturation) are documented values
        if (self.trap_saturation_density_cm3 is not None
                and not self.trap_saturation_density_cm3 > 0):
            raise ValidationError("trap_saturation_density_cm3 must be positive")
        grid = increasing_grid(self.time_grid_ns, "time grid", ValidationError)
        if grid[0] < 0:
            raise ValidationError("time grid must start at t >= 0")
        self.time_grid_ns = grid
        rates = [1.0 / self.tau_r_ns,
                 self.capture_coefficient_g_cm3_ns * self.g_center_density_cm3,
                 self.capture_coefficient_trap_cm3_ns * self.trap_density_cm3]
        fastest = 1.0 / max(r for r in rates if r > 0)
        if float(np.max(np.diff(grid))) > fastest / 10.0:
            raise ValidationError(
                f"time grid step exceeds a tenth of the fastest timescale "
                f"({fastest:.3g} ns); refine the grid")


@dataclass
class DecayTrace:
    """Photon rate and populations on the simulation grid."""

    time_ns: np.ndarray
    intensity: np.ndarray          # emitted-photon rate, n_excited / tau_r
    carriers: np.ndarray
    excited: np.ndarray
    filled_traps: np.ndarray
    emitted: np.ndarray

    def total_excitations(self):
        return self.carriers + self.excited + self.filled_traps + self.emitted


def simulate_decay(params: DecayModelParams) -> DecayTrace:
    """Integrate the capture/emission equations over the time grid.

    Conservation (carriers + excited + filled traps + emitted photons =
    initial carriers) is checked to integrator tolerance.
    """
    from scipy.integrate import solve_ivp   # slow import, needed only here
    n0 = params.pump_power_mw * params.carrier_density_per_mw_cm3
    grid = params.time_grid_ns
    k_g = params.capture_coefficient_g_cm3_ns * params.g_center_density_cm3
    k_t0 = params.capture_coefficient_trap_cm3_ns * params.trap_density_cm3
    n_sat = params.trap_saturation_density_cm3
    if n_sat is None:
        n_sat = params.trap_density_cm3
    tau_r = params.tau_r_ns

    if n0 == 0.0:
        zero = np.zeros_like(grid)
        return DecayTrace(grid, zero, zero.copy(), zero.copy(),
                          zero.copy(), zero.copy())

    def rhs(_t, y):
        n_c, n_x, filled, _ = y
        if k_t0 > 0 and np.isfinite(n_sat):
            k_t = k_t0 * max(0.0, 1.0 - filled / n_sat)
        else:
            k_t = k_t0
        return [
            -(k_g + k_t) * n_c,
            k_g * n_c - n_x / tau_r - k_t * n_x,
            k_t * (n_c + n_x),
            n_x / tau_r,
        ]

    sol = solve_ivp(rhs, (grid[0], grid[-1]), [n0, 0.0, 0.0, 0.0],
                    method="RK45", rtol=1e-8, atol=1e-12 * n0, t_eval=grid)
    if not sol.success:
        raise IntegrationError(f"decay integration failed: {sol.message}")
    y = sol.y
    if np.any(y < -1e-6 * n0):
        raise IntegrationError(
            f"negative densities in decay solution (min {y.min():.3g})")
    y = np.clip(y, 0.0, None)
    total = y.sum(axis=0)
    drift = float(np.max(np.abs(total - n0))) / n0
    if drift > 1e-6:
        raise IntegrationError(
            f"excitation conservation violated by {drift:.2e} relative")
    return DecayTrace(time_ns=grid, intensity=y[1] / tau_r, carriers=y[0],
                      excited=y[1], filled_traps=y[2], emitted=y[3])


def rise_time(trace, intensity=None) -> float:
    """Time from excitation to the trace maximum.

    Accepts a DecayTrace or a (time, intensity) array pair. A trace that
    never turns over (still rising at the end, or constant) has no
    defined rise time.
    """
    t, y = ((trace.time_ns, trace.intensity) if intensity is None
            else (trace, intensity))
    t = increasing_grid(t, "time grid", y=y)
    y = np.asarray(y, dtype=float)
    if y.max() == y.min():
        raise NoRiseError("trace is constant")
    i = int(np.argmax(y))
    if i == len(y) - 1:
        raise NoRiseError("trace is still rising at the last sample")
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
        check_fields(self, nonnegative=("flux_cm2_s", "duration_s", "gap_s"),
                     error=ValidationError)
        if self.repeat < 1:
            raise ValidationError(f"repeat must be >= 1, got {self.repeat}")


@dataclass(frozen=True)
class IrradiationSchedule:
    segments: tuple

    def __post_init__(self):
        if len(self.segments) == 0:
            raise ValidationError("schedule needs at least one segment")
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def total_fluence_cm2(self) -> float:
        return sum(s.flux_cm2_s * s.duration_s * s.repeat
                   for s in self.segments)


def pulsed_schedule(fluence_cm2: float, flux_cm2_s: float,
                    pulse_duration_s: float,
                    repetition_period_s: float) -> IrradiationSchedule:
    """Pulse train reaching the requested fluence as at most two runs:
    the full pulses, then a last pulse with no gap, shortened if the
    fluence is not an integer number of pulses."""
    if not (0 < fluence_cm2 < np.inf and 0 < flux_cm2_s < np.inf
            and 0 < pulse_duration_s <= repetition_period_s < np.inf):
        raise InvalidArgumentError(
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
        raise InvalidArgumentError("fluence and flux must be positive and finite")
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
        check_fields(self, error=ValidationError, positive=(
            "formation_enhancement_flux", "destruction_activation_energy_ev",
            "destruction_suppression_flux", "temperature_k",
            "clustering_threshold_flux", "background_tau_nr_ns", "tau_r_ns"),
            nonnegative=(
                "damage_rate_per_proton_nm", "active_depth_nm",
                "carbon_areal_density_cm2", "formation_coefficient_cm2",
                "formation_enhancement_exponent", "destruction_coefficient_cm2",
                "trap_formation_per_proton", "dynamic_annealing_rate_s",
                "trap_clustering_exponent", "trap_lifetime_coupling_cm2_ns"))

    def formation_rate_s(self, flux: float) -> float:
        if flux <= 0:
            return 0.0
        enh = 1.0 + (flux / self.formation_enhancement_flux) \
            ** self.formation_enhancement_exponent
        return self.formation_coefficient_cm2 * flux * enh

    def destruction_rate_s(self, flux: float) -> float:
        if flux <= 0:
            return 0.0
        arrhenius = np.exp(-self.destruction_activation_energy_ev
                           / (KB_EV_K * self.temperature_k))
        suppression = 1.0 + flux / self.destruction_suppression_flux
        return self.destruction_coefficient_cm2 * flux * arrhenius / suppression

    def trap_source_cm2_s(self, flux: float) -> float:
        if flux <= 0:
            return 0.0
        over = max(0.0, flux / self.clustering_threshold_flux - 1.0)
        excess = 1.0 + over ** self.trap_clustering_exponent
        return self.trap_formation_per_proton * flux * excess

    def tau_eff_ns(self, n_trap_cm2) -> np.ndarray:
        rate = (1.0 / self.tau_r_ns + 1.0 / self.background_tau_nr_ns
                + self.trap_lifetime_coupling_cm2_ns * np.asarray(n_trap_cm2))
        return 1.0 / rate


@dataclass
class DamageHistory:
    """Densities after the exposure and the gap of each run's last copy,
    with the flux that produced each row (zero for gap rows)."""

    time_s: np.ndarray
    fluence_cm2: np.ndarray
    flux_cm2_s: np.ndarray
    n_g_cm2: np.ndarray
    n_trap_cm2: np.ndarray
    tau_eff_ns: np.ndarray
    qe: np.ndarray


def _linear_update(value, source, loss_rate, dt):
    """Advance dy/dt = source - loss_rate*y exactly over dt.

    A sum of two nonnegative terms, with expm1 for the relaxed part, so
    both a tiny loss_rate*dt (a ns pulse) and a decay over many loss
    times (a long train) keep full double precision.
    """
    if loss_rate > 0:
        return (value * np.exp(-loss_rate * dt)
                - source / loss_rate * np.expm1(-loss_rate * dt))
    return value + source * dt


def integrate_damage(schedule: IrradiationSchedule,
                     params: DamageParams) -> DamageHistory:
    """Evolve emitter and trap densities over an irradiation schedule.

    Each constant-flux stretch advances by the closed-form solution of
    the linear rate equations, so pulse (ns) and gap (tens of s) scales
    coexist without step-size trouble. All periods T of a run but the
    last advance at once: traps map y -> q*y + c per period, and n such
    maps are one linear update over n*T with the source scaled by
    r = expm1(-a*tau)*exp(-a*gap)/expm1(-a*T), or tau/T when a*T = 0.
    """
    rows = [(0.0, 0.0, 0.0, 0.0, 0.0)]
    t = fluence = n_g = n_trap = 0.0
    c0 = params.carbon_areal_density_cm2
    anneal = params.dynamic_annealing_rate_s
    for seg in schedule.segments:
        form = params.formation_rate_s(seg.flux_cm2_s)
        destr = params.destruction_rate_s(seg.flux_cm2_s)
        source = params.trap_source_cm2_s(seg.flux_cm2_s)
        copies, period = seg.repeat - 1, seg.duration_s + seg.gap_s
        if copies and period > 0:
            x = anneal * period
            r = (np.expm1(-anneal * seg.duration_s) / np.expm1(-x)
                 * np.exp(-anneal * seg.gap_s) if x > 0
                 else seg.duration_s / period)
            n_trap = _linear_update(n_trap, source * r, anneal, copies * period)
            t += copies * period
        if seg.duration_s > 0:
            # emitters change only under the beam
            n_g = _linear_update(n_g, form * c0, form + destr,
                                 seg.repeat * seg.duration_s)
            n_trap = _linear_update(n_trap, source, anneal, seg.duration_s)
            t += seg.duration_s
            fluence += seg.repeat * seg.flux_cm2_s * seg.duration_s
            rows.append((t, fluence, seg.flux_cm2_s, n_g, n_trap))
        if seg.gap_s > 0:
            n_trap = _linear_update(n_trap, 0.0, anneal, seg.gap_s)
            t += seg.gap_s
            rows.append((t, fluence, 0.0, n_g, n_trap))
    arr = np.array(rows, dtype=float)
    if np.any(arr[:, 3] < 0) or np.any(arr[:, 4] < 0):
        raise IntegrationError("damage integration produced negative densities")
    tau_eff = params.tau_eff_ns(arr[:, 4])
    return DamageHistory(time_s=arr[:, 0], fluence_cm2=arr[:, 1],
                         flux_cm2_s=arr[:, 2], n_g_cm2=arr[:, 3],
                         n_trap_cm2=arr[:, 4], tau_eff_ns=tau_eff,
                         qe=tau_eff / params.tau_r_ns)


def pl_proxy(n_g_cm2, lifetimes: LifetimeSet) -> dict:
    """Emission proxies for a given emitter density.

    transient_initial_intensity scales as n_G/tau_r (radiative rate at
    zero delay); integrated_intensity as n_G*qe (photons per excitation).
    """
    n_g = np.asarray(n_g_cm2, dtype=float)
    if np.any(n_g < 0):
        raise InvalidArgumentError("emitter density must be nonnegative")
    transient = n_g / lifetimes.tau_r_ns
    integrated = n_g * lifetimes.qe
    if np.ndim(n_g_cm2) == 0:
        return {"transient_initial_intensity": float(transient),
                "integrated_intensity": float(integrated)}
    return {"transient_initial_intensity": transient,
            "integrated_intensity": integrated}
