"""The benchmark's workloads: inputs made from a seed, the CLI calls of one
pass, tiny warm-up calls for the set-up measurement, and output checks.

Every input value the checks rely on is written into the config files by
this module, so the reference computations never read the package's
defaults. Program seeds are drawn from the benchmark seed; the pulsed
schedule of ``kinetics`` is the one input that does not depend on it.
The checks import ``reference`` when they run, so the set-up probe, which
imports this module, pays only for the package and the inputs.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, field

import numpy as np

TABLE_CSV = os.path.join("src", "defect_spectra", "data",
                         "default_response_table.csv")

EMITTER = {"zpl_wavelength_nm": 1278.3, "homogeneous_fwhm_nm": 0.073,
           "radiative_lifetime_ns": 45.0}

# The damage model's documented parameter values, written out in full so
# that the closed forms use exactly what the program was given.
DAMAGE = {
    "damage_rate_per_proton_nm": 2.0e-4,
    "active_depth_nm": 1000.0,
    "carbon_areal_density_cm2": 2.0e14,
    "formation_coefficient_cm2": 2.0e-16,
    "formation_enhancement_flux": 3.0e12,
    "formation_enhancement_exponent": 0.39,
    "destruction_coefficient_cm2": 4.6e-10,
    "destruction_activation_energy_ev": 0.15,
    "destruction_suppression_flux": 1.0e17,
    "temperature_k": 300.0,
    "trap_formation_per_proton": 0.2,
    "dynamic_annealing_rate_s": 3.2e-3,
    "clustering_threshold_flux": 1.0e17,
    "trap_clustering_exponent": 1.0,
    "trap_lifetime_coupling_cm2_ns": 5.4e-15,
    "background_tau_nr_ns": 18.28125,
}

KINETICS = {
    "tau_r_ns": 45.0,
    "g_center_density_cm3": 2.0e16,
    "capture_coefficient_g_cm3_ns": 1.0e-16,
    "trap_density_cm3": 1.0e16,
    "capture_coefficient_trap_cm3_ns": 1.1e-17,
    "carrier_density_per_mw_cm3": 3.5e15,
}

_SPECTRUM_LINE = re.compile(
    r"^(\S+): (\d+) samples \((\d+) raw draws, (\d+) out of table range\)",
    re.M)


@dataclass
class Call:
    """One CLI invocation of a pass; ``ops`` names the operations it counts
    for and ``after`` is a library step run on its outputs in the pass."""

    argv: list
    out: str
    ops: list
    after: object = None


@dataclass
class Record:
    """What the checked pass saw of one call."""

    rc: int
    stdout: str
    after: object
    spans: list


@dataclass
class Verdict:
    """Problems found with one operation; ``known`` marks the problem that
    the pulse-train precision fault of the program explains."""

    op: str
    problems: list = field(default_factory=list)
    known: list = field(default_factory=list)

    def expect(self, ok, message):
        if not ok:
            self.problems.append(message)

    def known_fault(self, message):
        self.known.append(message)


def write_ini(path, sections):
    with open(path, "w") as fh:
        for section, values in sections.items():
            fh.write(f"[{section}]\n")
            for key, value in values.items():
                fh.write(f"{key} = {value!r}\n" if isinstance(value, float)
                         else f"{key} = {value}\n")
            fh.write("\n")


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _program_seed(rng):
    return int(rng.integers(0, 2 ** 31 - 1))


def _spectrum_line(stdout):
    match = _SPECTRUM_LINE.search(stdout)
    if match is None:
        return None
    mode, retained, raw, rejected = match.groups()
    return mode, int(retained), int(raw), int(rejected)


# ---------------------------------------------------------------------------
# spectrum workloads
# ---------------------------------------------------------------------------

class _SpectrumWorkload:
    """Shared checks of simulate-spectrum outputs (see the README)."""

    def __init__(self, root, seed):
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.rng = _rng(seed, 1)

    def _check_common(self, v, record, out, requested, mode):
        from reference import (check_spectrum, read_numeric_csv,
                               read_response_table, table_shift,
                               table_shift_tolerance)

        v.expect(record.rc == 0, f"exit code {record.rc}")
        if record.rc != 0:
            return None
        line = _spectrum_line(record.stdout)
        v.expect(line is not None and line[0] == mode,
                 f"no '{mode}: N samples' summary line")
        if line is None:
            return None
        _, retained, raw, rejected = line
        if mode == "defect-field":
            v.expect(retained + rejected == requested,
                     f"retained {retained} + rejected {rejected} != "
                     f"requested {requested}")
        else:
            v.expect(retained == requested and raw >= retained,
                     f"retained {retained}, raw {raw}, requested {requested}")
        samples = read_numeric_csv(os.path.join(out, "samples.csv"))
        strains, shifts = samples[:, 1:7], samples[:, 7]
        v.expect(len(samples) == retained,
                 f"samples.csv has {len(samples)} rows, {retained} retained")
        hist = read_numeric_csv(os.path.join(out, "histogram.csv"))
        v.expect(int(hist[:, 1].sum()) == retained,
                 f"histogram counts sum to {int(hist[:, 1].sum())}, "
                 f"{retained} retained")

        table = read_response_table(TABLE_CSV)
        excess = (np.abs(shifts - table_shift(table, strains))
                  / table_shift_tolerance(table, strains, shifts))
        v.expect(excess.max(initial=0.0) <= 1.0,
                 f"dumped shifts differ from the table interpolation by "
                 f"{excess.max():.3g}x the rounding bound")

        spectrum = read_numeric_csv(os.path.join(out, "spectrum.csv"))
        v.expect(spectrum[:, 1].max() == 1.0, "spectrum is not peak-normalized")
        worst = check_spectrum(spectrum[:, 0], spectrum[:, 1], shifts,
                               EMITTER["zpl_wavelength_nm"],
                               EMITTER["homogeneous_fwhm_nm"])
        v.expect(worst <= 1.0,
                 f"spectrum differs from the direct Lorentzian sum by "
                 f"{worst:.3g}x the rounding bound")
        return strains, spectrum


class DensitySeries(_SpectrumWorkload):
    """Defect-field spectra over a Poisson density series, one call per
    density, each followed by the line width of its spectrum."""

    name = "density-series"
    VACANCY_CM3 = (3e19, 1e20, 3e20, 1e21)
    INTERSTITIAL_SHARE = 1.0 / 3.0
    SAMPLES = 6000
    SHELL_NM = (0.9, 1.4)

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.points = []
        for i, vac in enumerate(self.VACANCY_CM3):
            cfg = os.path.join(root, f"density-{i}.ini")
            write_ini(cfg, self._config(vac))
            self.points.append((vac, vac * self.INTERSTITIAL_SHARE, cfg,
                                _program_seed(self.rng)))

    def _config(self, vac):
        return {
            "emitter": EMITTER,
            "sampler": {"vacancy_density_cm3": vac,
                        "interstitial_density_cm3":
                            vac * self.INTERSTITIAL_SHARE,
                        "r_min_nm": self.SHELL_NM[0],
                        "r_max_nm": self.SHELL_NM[1],
                        "bin_width_mev": 0.25},
            "elastic": {"atomic_volume_nm3": 0.02, "core_cutoff_nm": 0.25},
        }

    def _call(self, cfg, samples, seed, out):
        return Call(["simulate-spectrum", "--config", cfg, "--mode",
                     "defect-field", "--samples", str(samples), "--seed",
                     str(seed), "--out", out, "--dump-samples"],
                    out, [f"density={os.path.basename(out)}"], linewidth)

    def calls(self):
        return [self._call(cfg, self.SAMPLES, seed,
                           os.path.join(self.root, f"{vac:.0e}"))
                for vac, _, cfg, seed in self.points]

    def warmup_calls(self):
        _, _, cfg, seed = self.points[-1]
        return [self._call(cfg, 200, seed, os.path.join(self.root, "warmup"))]

    def check(self, records):
        from reference import binomial_ok, half_max_width, poisson_zero_share

        verdicts, widths = [], []
        for call, record, (vac, inter, _, _) in zip(self.calls(), records,
                                                     self.points):
            v = Verdict(call.ops[0])
            verdicts.append(v)
            got = self._check_common(v, record, call.out, self.SAMPLES,
                                     "defect-field")
            if got is None:
                continue
            strains, spectrum = got
            trace = strains[:, :3].sum(axis=1)
            scale = np.abs(strains).max(axis=1)
            v.expect(np.all(np.abs(trace) <= 4e-9 * scale + 1e-15),
                     f"strain trace up to {np.abs(trace).max():.3g}")
            zeros = int(np.all(strains == 0.0, axis=1).sum())
            p0 = poisson_zero_share(vac + inter, *self.SHELL_NM)
            v.expect(binomial_ok(zeros, self.SAMPLES, p0),
                     f"{zeros} defect-free samples of {self.SAMPLES}, "
                     f"Poisson expects {self.SAMPLES * p0:.1f}")
            width = half_max_width(spectrum[:, 0], spectrum[:, 1])
            widths.append(width)
            v.expect(abs(record.after - width) <= 1e-9,
                     f"numerical_fwhm {record.after!r} nm, reference "
                     f"{width!r} nm")
        if len(widths) == len(self.points):
            verdicts[-1].expect(widths[-1] > widths[0],
                                f"line width {widths[-1]:.4g} nm at the "
                                f"highest density is not above "
                                f"{widths[0]:.4g} nm at the lowest")
        return verdicts


def linewidth(fitting, out):
    """The spectrum's FWHM by the package's numerical_fwhm."""
    data = np.loadtxt(os.path.join(out, "spectrum.csv"), delimiter=",",
                      skiprows=1)
    return fitting.numerical_fwhm(data[:, 0], data[:, 1])


class WideSpectrum(_SpectrumWorkload):
    """One biased-z ensemble with many samples on a wide grid."""

    name = "wide-spectrum"
    SAMPLES = 50000
    SAMPLER = {"strain_low": -0.01, "strain_high": 0.01,
               "xy_threshold": 0.001, "keep_fraction": 0.1}

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.cfg = os.path.join(root, "wide.ini")
        write_ini(self.cfg, {"emitter": EMITTER,
                             "sampler": {**self.SAMPLER,
                                         "bin_width_mev": 0.25}})
        self.seed = _program_seed(self.rng)

    def _call(self, samples, out):
        return Call(["simulate-spectrum", "--config", self.cfg, "--mode",
                     "biased-z", "--samples", str(samples), "--seed",
                     str(self.seed), "--out", out, "--dump-samples"],
                    out, ["biased-z"])

    def calls(self):
        return [self._call(self.SAMPLES, os.path.join(self.root, "wide"))]

    def warmup_calls(self):
        return [self._call(200, os.path.join(self.root, "warmup"))]

    def check(self, records):
        from reference import binomial_ok, biased_small_share

        call, record = self.calls()[0], records[0]
        v = Verdict(call.ops[0])
        got = self._check_common(v, record, call.out, self.SAMPLES,
                                 "biased-z")
        if got is not None:
            strains = got[0]
            s = self.SAMPLER
            small = int((np.abs(strains[:, :2]).max(axis=1)
                         <= s["xy_threshold"]).sum())
            q = biased_small_share(s["xy_threshold"], s["strain_low"],
                                   s["strain_high"], s["keep_fraction"])
            v.expect(binomial_ok(small, len(strains), q),
                     f"{small} of {len(strains)} retained samples inside "
                     f"the in-plane threshold, expected "
                     f"{len(strains) * q:.1f}")
        return [v]


# ---------------------------------------------------------------------------
# kinetics
# ---------------------------------------------------------------------------

class Kinetics:
    """Pulsed and continuous fluence sweeps, then two decay runs."""

    name = "kinetics"
    PULSE = {"flux": 1e17, "duration_s": 1e-9, "gap_s": 0.000999999}
    PULSED_FLUENCES = (1e11, 1e12, 1e13)        # 1e3, 1e4, 1e5 pulses
    CW_FLUENCES = (1e11, 1e12, 1e13)
    DECAY_GRID = {"t_max_ns": 100.0, "n_points": 40001,
                  "fit_window_start_ns": 20.0, "fit_window_stop_ns": 90.0}
    # Largest relative n_trap error the cancellation in the program's
    # exponential update produces on this pulse train (1.2e-5 measured);
    # a larger error is a different fault.
    KNOWN_FAULT_LIMIT = 1e-4
    # Twice the %.10g rounding of sweep.csv.
    CLOSED_FORM_RTOL = 1e-9

    def __init__(self, root, seed):
        self.root = root
        os.makedirs(root, exist_ok=True)
        rng = _rng(seed, 2)
        self.cw_flux = float(10.0 ** rng.uniform(11.5, 12.5))
        self.cw_fluences = [float(f * 10.0 ** rng.uniform(0.0, 0.3))
                            for f in self.CW_FLUENCES]
        self.pumps = (float(rng.uniform(0.2, 0.5)), float(rng.uniform(1.0, 3.0)))
        self.decay_seeds = (_program_seed(rng), _program_seed(rng))

        self.damage_cfg = os.path.join(root, "damage.ini")
        write_ini(self.damage_cfg, {"damage": DAMAGE})
        self.pulsed_csv = os.path.join(root, "pulsed.csv")
        with open(self.pulsed_csv, "w") as fh:
            p = self.PULSE
            fh.write("flux_cm2_s,duration_s,gap_s,repeat\n"
                     f"{p['flux']!r},{p['duration_s']!r},{p['gap_s']!r},"
                     "{pulses}\n")
        self.cw_csv = os.path.join(root, "cw.csv")
        with open(self.cw_csv, "w") as fh:
            fh.write("flux_cm2_s,duration_s,gap_s\n"
                     f"{self.cw_flux!r},{{duration}},0\n")
        self.decay = []
        for i, (pump, saturation) in enumerate(zip(self.pumps,
                                                   ("none", "inf"))):
            values = {**KINETICS, "pump_power_mw": pump,
                      "trap_saturation_density_cm3": saturation,
                      **self.DECAY_GRID}
            cfg = os.path.join(root, f"decay-{i}.ini")
            write_ini(cfg, {"kinetics": values})
            self.decay.append((cfg, values))
        self.warm_decay = os.path.join(root, "decay-warmup.ini")
        write_ini(self.warm_decay, {"kinetics": {
            **KINETICS, "pump_power_mw": 0.3, "t_max_ns": 20.0,
            "n_points": 801, "fit_window_start_ns": 5.0,
            "fit_window_stop_ns": 18.0}})

    def _sweep(self, template, fluences, out, label):
        ops = [f"{label} fluence={f:.3e}" for f in fluences]
        return Call(["sweep-fluence", "--config", self.damage_cfg,
                     "--template", template, "--fluences",
                     ",".join(repr(f) for f in fluences), "--out", out],
                    out, ops + [f"{label} power-law fit"])

    def calls(self):
        calls = [self._sweep(self.pulsed_csv, self.PULSED_FLUENCES,
                             os.path.join(self.root, "pulsed"), "pulsed"),
                 self._sweep(self.cw_csv, self.cw_fluences,
                             os.path.join(self.root, "cw"), "cw")]
        for i, ((cfg, _), seed) in enumerate(zip(self.decay,
                                                 self.decay_seeds)):
            out = os.path.join(self.root, f"decay-{i}")
            calls.append(Call(["simulate-decay", "--config", cfg, "--seed",
                               str(seed), "--out", out], out,
                              [f"decay pump={self.pumps[i]:.3f}mW"]))
        return calls

    def warmup_calls(self):
        out = os.path.join(self.root, "warmup")
        return [self._sweep(self.pulsed_csv, (1e9, 1e10), out, "pulsed"),
                self._sweep(self.cw_csv, (1e9, 1e10), out, "cw"),
                Call(["simulate-decay", "--config", self.warm_decay,
                      "--seed", "0", "--out", out], out, ["decay"])]

    def check(self, records):
        calls = self.calls()
        verdicts = []
        pulse = self.PULSE
        period = pulse["duration_s"] + pulse["gap_s"]
        for call, record, fluences, pulsed in (
                (calls[0], records[0], self.PULSED_FLUENCES, True),
                (calls[1], records[1], self.cw_fluences, False)):
            verdicts += self._check_sweep(call, record, fluences, pulsed,
                                          period)
        for call, record, (_, values) in zip(calls[2:], records[2:],
                                             self.decay):
            verdicts.append(self._check_decay(call, record, values))
        return verdicts

    def _check_sweep(self, call, record, fluences, pulsed, period):
        from reference import (cw_final, g10_half_ulp, ols_exponent,
                               pulse_train_final, read_numeric_csv,
                               read_report)

        verdicts = [Verdict(op) for op in call.ops]
        if record.rc != 0:
            for v in verdicts:
                v.expect(False, f"exit code {record.rc}")
            return verdicts
        rows = read_numeric_csv(os.path.join(call.out, "sweep.csv"))
        histories = [s for s in record.spans
                     if s["name"] == "kinetics.integrate_damage"]
        for v, fluence, row, hist in zip(verdicts, fluences, rows,
                                         histories):
            v.expect(abs(hist["fluence_delivered"] - fluence)
                     <= 1e-9 * fluence,
                     f"delivered fluence {hist['fluence_delivered']!r}, "
                     f"target {fluence!r}")
            if pulsed:
                per_pulse = self.PULSE["flux"] * self.PULSE["duration_s"]
                n = round(fluence / per_pulse)
                n_g, n_trap = pulse_train_final(
                    n, self.PULSE["flux"], fluence / (n * self.PULSE["flux"]),
                    period, DAMAGE)
            else:
                n_g, n_trap = cw_final(fluence, self.cw_flux, DAMAGE)
            err_g = row[1] / n_g - 1.0
            err_t = row[2] / n_trap - 1.0
            v.expect(abs(err_g) <= self.CLOSED_FORM_RTOL,
                     f"n_G {row[1]:.10g} vs closed form {n_g:.10g} "
                     f"(relative {err_g:.3g})")
            if abs(err_t) <= self.CLOSED_FORM_RTOL:
                continue
            message = (f"n_trap {row[2]:.10g} vs closed form {n_trap:.10g} "
                       f"(relative {err_t:.3g})")
            if pulsed and abs(err_t) <= self.KNOWN_FAULT_LIMIT:
                v.known_fault(message + ": precision loss in "
                              "kinetics._linear_update")
            else:
                v.expect(False, message)
        verdicts[0].expect(len(rows) == len(fluences) == len(histories),
                           f"{len(rows)} sweep rows, {len(histories)} "
                           f"integrations for {len(fluences)} fluences")

        fit = verdicts[-1]
        exponent = read_report(os.path.join(call.out,
                                            "scaling_fit.csv"))["exponent"]
        reference = ols_exponent(rows[:, 0], rows[:, 4])
        lx = np.log(rows[:, 0])
        weights = np.abs(lx - lx.mean()) / np.sum((lx - lx.mean()) ** 2)
        rel_err = (g10_half_ulp(rows[:, 4]) / rows[:, 4]
                   + g10_half_ulp(rows[:, 0]) / rows[:, 0])
        tol = 2.0 * (weights @ rel_err + g10_half_ulp(exponent)) + 1e-12
        fit.expect(abs(exponent - reference) <= tol,
                   f"power-law exponent {exponent!r}, OLS of sweep.csv "
                   f"{reference!r}")
        return verdicts

    def _check_decay(self, call, record, values):
        from reference import (curve_fit_tau, read_numeric_csv, read_report,
                               unsaturated_decay_rate)

        v = Verdict(call.ops[0])
        v.expect(record.rc == 0, f"exit code {record.rc}")
        if record.rc != 0:
            return v
        n0 = values["pump_power_mw"] * values["carrier_density_per_mw_cm3"]
        span = next(s for s in record.spans
                    if s["name"] == "kinetics.simulate_decay")
        drift = max(abs(span["total_max"] - n0), abs(span["total_min"] - n0))
        v.expect(drift <= 1e-6 * n0 and span["population_min"] >= 0.0,
                 f"excitations drift by {drift / n0:.3g} of n0, smallest "
                 f"population {span['population_min']:.3g}")

        trace = read_numeric_csv(os.path.join(call.out, "trace.csv"))
        t, counts = trace[:, 0], trace[:, 1]
        if values["trap_saturation_density_cm3"] == "inf":
            exact = unsaturated_decay_rate(t, values)
            worst = float(np.max(np.abs(counts - exact))) / exact.max()
            v.expect(worst <= 1e-7,
                     f"unsaturated trace differs from the closed form by "
                     f"{worst:.3g} of its peak")
        window = (values["fit_window_start_ns"], values["fit_window_stop_ns"])
        tau = read_report(os.path.join(call.out, "fit_report.csv"))["tau_ns"]
        reference = curve_fit_tau(t, counts, window)
        v.expect(abs(tau / reference - 1.0) <= 1e-7,
                 f"fitted tau {tau!r} ns, curve_fit {reference!r} ns")
        return v


WORKLOADS = {w.name: w for w in (DensitySeries, WideSpectrum, Kinetics)}


def make(name, root, seed):
    return WORKLOADS[name](root, seed)
