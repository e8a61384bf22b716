"""Command-line interface: config-driven simulation, fitting, and export.

Configs are INI files ([section] key = value). [emitter], [elastic],
[damage] and most of [kinetics] take their keys and defaults from the
fields of EmitterParams, ElasticParams, DamageParams and
DecayModelParams; [sampler] keys fill the ensemble spec of the chosen
mode, whose class holds their defaults. Unknown sections or keys and
unparsable values are hard errors, so a typo cannot silently fall back
to a default. Every file goes through defect_spectra.output (atomic
writes, fixed number formatting), so a command repeated with the same
seed produces byte-identical files. A run rejected for a bad input
(exit 2) writes nothing.

Exit codes: 0 success, 2 validation or config error, 3 numerical
failure (fit or integration).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import io
import os
import sys

import numpy as np

from . import __version__
from .core import (
    HC_EV_NM,
    ZPL_WAVELENGTH_NM,
    DefectSpectraError,
    EmitterParams,
    FitError,
    IntegrationError,
    InvalidArgumentError,
    ValidationError,
    delta_e_from_delta_lambda,
    delta_lambda_from_delta_e,
    number,
)
from .ensemble import (
    BiasedZSpec,
    DefectDensitySpec,
    SingleDefectSpec,
    UniformSpec,
    histogram_shifts,
    sample_biased_z,
    sample_defect_field,
    sample_uniform,
    synthesize_spectrum,
)
from .fitting import (
    fit_peaks,
    fit_power_law,
    fit_single_exponential,
)
from .kinetics import (
    DECAY_GRID_POINTS,
    DECAY_T_MAX_NS,
    DamageParams,
    DecayModelParams,
    IrradiationSchedule,
    ScheduleSegment,
    decompose_lifetimes,
    integrate_damage,
    pl_proxy,
    pulsed_schedule,
    rise_time,
    simulate_decay,
)
from .lattice import (
    Geometry,
    SupercellSpec,
    build_supercell,
    enumerate_candidates,
    place_gcenter,
    write_xyz,
)
from .output import read_csv, svg_line_plot, write_atomic, write_csv
from .strainfield import ElasticParams
from .zplmap import default_table, load_response_table

# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

def _float_or_none(text):
    if text.strip().lower() in ("none", ""):
        return None
    return float(text)


# Config casts of the scalar dataclass field types; other fields, such as
# DecayModelParams.time_grid_ns, are not config keys.
_FIELD_CASTS = {"float": float, "float | None": _float_or_none}


def _field_keys(cls, exclude=()):
    """Config keys and casts of the scalar fields of a params dataclass."""
    return {f.name: _FIELD_CASTS[f.type] for f in dataclasses.fields(cls)
            if f.type in _FIELD_CASTS and f.name not in exclude}


_SCHEMA = {
    "emitter": _field_keys(EmitterParams),
    "sampler": {
        "mode": str,
        "samples": int,
        "strain_low": float,
        "strain_high": float,
        "xy_threshold": float,
        "keep_fraction": float,
        "defect_kind": str,
        "separation_nm": float,
        "vacancy_density_cm3": float,
        "interstitial_density_cm3": float,
        "r_min_nm": float,
        "r_max_nm": float,
        "bin_width_mev": float,
    },
    "elastic": _field_keys(ElasticParams),
    "response": {
        "table": str,
    },
    "kinetics": {
        **_field_keys(DecayModelParams),
        "t_max_ns": float,
        "n_points": int,
        "fit_window_start_ns": float,
        "fit_window_stop_ns": float,
    },
    # DamageParams.tau_r_ns has never been a [damage] key (the radiative
    # lifetime already has keys under [emitter] and [kinetics]), so
    # sweep-fluence always uses its default.
    "damage": _field_keys(DamageParams, exclude=("tau_r_ns",)),
    "schedule": {
        "template": str,
        "fluences": str,
    },
    "output": {
        "directory": str,
    },
}


class RunConfig:
    """Validated config: the typed values the file sets, and no defaults."""

    def __init__(self, values, base_dir="."):
        self.values = values
        self.base_dir = base_dir

    def get(self, section, key, fallback=None):
        return self.values.get(section, {}).get(key, fallback)

    def path(self, section, key):
        """Resolve a configured path relative to the config file."""
        raw = self.get(section, key)
        if raw is None:
            return None
        return raw if os.path.isabs(raw) else os.path.join(self.base_dir, raw)


def load_config(path=None) -> RunConfig:
    """Parse and validate an INI config; None means all defaults."""
    if path is None:
        return RunConfig({})
    if not os.path.exists(path):
        raise ValidationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ValidationError(f"config parse error in {path}: {exc}")
    values = {}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValidationError(
                f"unknown config section [{section}] in {path}; known "
                f"sections: {', '.join(sorted(_SCHEMA))}")
        values[section] = {}
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ValidationError(
                    f"unknown config key [{section}] {key} in {path}; known "
                    f"keys: {', '.join(sorted(_SCHEMA[section]))}")
            values[section][key] = number(f"config key [{section}] {key}",
                                          raw, _SCHEMA[section][key])
    cfg = RunConfig(values, base_dir=os.path.dirname(os.path.abspath(path)))
    for section, key in (("response", "table"), ("schedule", "template")):
        ref = cfg.path(section, key)
        if ref is not None and not os.path.exists(ref):
            raise ValidationError(
                f"config key [{section}] {key} points to a missing file: {ref}")
    return cfg


def config_help_text() -> str:
    lines = ["config file keys (INI sections):"]
    for section, keys in _SCHEMA.items():
        lines.append(f"  [{section}]")
        for key in keys:
            lines.append(f"    {key}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# builders from config
# ---------------------------------------------------------------------------

def _build(cls, cfg: RunConfig, section, renames=None, **given):
    """A params dataclass from the [section] keys named like its fields (or
    mapped to one by ``renames``); left-out keys keep the class default."""
    names = {f.name for f in dataclasses.fields(cls)}
    for key, value in cfg.values.get(section, {}).items():
        name = (renames or {}).get(key, key)
        if name in names:
            given[name] = value
    return cls(**given)


def _table_from(cfg: RunConfig):
    path = cfg.path("response", "table")
    if path is None:
        return default_table()
    return load_response_table(path)


def _decay_params_from(cfg: RunConfig) -> DecayModelParams:
    t_max = cfg.get("kinetics", "t_max_ns", DECAY_T_MAX_NS)
    if not 0 < t_max < np.inf:
        raise ValidationError(f"config key [kinetics] t_max_ns must be "
                              f"positive and finite, got {t_max}")
    grid = np.linspace(0.0, t_max,
                       cfg.get("kinetics", "n_points", DECAY_GRID_POINTS))
    return _build(DecayModelParams, cfg, "kinetics", time_grid_ns=grid)


def schedule_from_template(path, target_fluence_cm2: float) -> IrradiationSchedule:
    """Instantiate a schedule template at a target fluence.

    Placeholder cells: {duration} (duration = fluence share / flux),
    {flux} (flux = share / duration), or {pulses} in the repeat column
    (the row becomes a pulse train delivering the share). The target
    fluence minus any fixed rows is split equally across placeholder
    rows. A {duration} row with zero flux gets duration zero: it cannot
    deliver fluence.
    """
    header, rows = read_csv(path)
    if header[:3] != ["flux_cm2_s", "duration_s", "gap_s"] or \
            header[3:] not in ([], ["repeat"]):
        raise ValidationError(
            f"schedule file {path} must start with header "
            "flux_cm2_s,duration_s,gap_s with optional repeat column, "
            f"got {','.join(header)}")
    has_repeat = len(header) == 4

    def cell(cells, column, cast=float):
        return number(f"{header[column]} cell of schedule {path}",
                      cells[column], cast)

    parsed = []
    for row in rows:
        cells = row + [""] * (4 - len(row))
        if "{duration}" in cells or "{flux}" in cells or "{pulses}" in cells:
            parsed.append(cells)
        else:
            repeat = cell(cells, 3, int) if has_repeat and cells[3] else 1
            parsed.append(ScheduleSegment(cell(cells, 0), cell(cells, 1),
                                          cell(cells, 2), repeat))
    fixed = [run for run in parsed if isinstance(run, ScheduleSegment)]
    if len(fixed) == len(parsed):
        raise ValidationError(
            f"schedule template {path} has no {{flux}}, {{duration}}, or "
            "{pulses} placeholder to absorb the target fluence")
    fixed_fluence = sum(run.flux_cm2_s * run.duration_s * run.repeat
                        for run in fixed)
    share = (target_fluence_cm2 - fixed_fluence) / (len(parsed) - len(fixed))
    if share < 0:
        raise ValidationError(
            f"fixed rows of {path} already exceed the target fluence "
            f"{target_fluence_cm2:g} cm^-2")
    segments = []
    for cells in parsed:
        if isinstance(cells, ScheduleSegment):
            segments.append(cells)
            continue
        gap = cell(cells, 2)
        if cells[3] == "{pulses}":
            flux, duration = cell(cells, 0), cell(cells, 1)
            if share > 0:
                train = pulsed_schedule(share, flux, duration, duration + gap)
                segments.extend(train.segments)
            continue
        if "{duration}" in cells:
            flux = cell(cells, 0)
            duration = share / flux if flux > 0 else 0.0
        else:
            duration = cell(cells, 1)
            flux = share / duration if duration > 0 else 0.0
        segments.append(ScheduleSegment(flux, duration, gap))
    return IrradiationSchedule(tuple(segments))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

_REPORT_HEADER = ["parameter", "value", "stderr"]


def _report_columns(fit, **extra):
    """Fit report columns: the fit's parameters with their stderrs, then
    the derived ``extra`` values with stderr 0."""
    return [[*fit.parameters, *extra],
            [*fit.parameters.values(), *extra.values()],
            [*(fit.stderr[k] for k in fit.parameters), *[0.0] * len(extra)]]


def cmd_simulate_spectrum(args) -> int:
    cfg = load_config(args.config)
    emitter = _build(EmitterParams, cfg, "emitter")
    table = _table_from(cfg)
    mode = args.mode or cfg.get("sampler", "mode", "uniform")
    n = (args.samples if args.samples is not None
         else cfg.get("sampler", "samples", 10000))

    if mode == "uniform":
        spec = _build(UniformSpec, cfg, "sampler")
        ens = sample_uniform(spec, n, args.seed, table)
    elif mode == "biased-z":
        spec = _build(BiasedZSpec, cfg, "sampler")
        ens = sample_biased_z(spec, n, args.seed, table)
    elif mode == "defect-field":
        if "elastic" not in cfg.values:
            raise ValidationError(
                "sampler mode defect-field needs an [elastic] config "
                "section (atomic_volume_nm3, core_cutoff_nm)")
        elastic = _build(ElasticParams, cfg, "elastic")
        sampler = cfg.values.get("sampler", {})
        if ("vacancy_density_cm3" in sampler
                or "interstitial_density_cm3" in sampler):
            spec = _build(DefectDensitySpec, cfg, "sampler")
        else:
            spec = _build(SingleDefectSpec, cfg, "sampler",
                          renames={"defect_kind": "kind"})
        ens = sample_defect_field(spec, n, args.seed, table, elastic)
    else:
        raise ValidationError(
            f"sampler mode {mode!r} is not one of uniform, biased-z, "
            "defect-field")

    out = args.out or cfg.get("output", "directory", "out")
    edges, counts = histogram_shifts(
        ens.shifts_mev, cfg.get("sampler", "bin_width_mev", 0.25))
    grid, intensity = synthesize_spectrum(ens.shifts_mev, emitter)
    write_csv(os.path.join(out, "spectrum.csv"),
              ["wavelength_nm", "intensity"], [grid, intensity])
    write_csv(os.path.join(out, "histogram.csv"), ["shift_mev", "count"],
              [0.5 * (edges[:-1] + edges[1:]), counts])
    write_atomic(os.path.join(out, "spectrum.svg"),
                 svg_line_plot(grid, intensity, "wavelength (nm)",
                               "intensity (peak-normalized)"))
    if args.dump_samples:
        header = ["sample_id", "e_xx", "e_yy", "e_zz", "e_xy", "e_xz",
                  "e_yz", "shift_mev"]
        write_csv(os.path.join(out, "samples.csv"), header,
                  [np.arange(len(ens)), *ens.strains.T, ens.shifts_mev])
    prov = ens.provenance
    print(f"{mode}: {prov.n_retained} samples "
          f"({prov.n_raw_draws} raw draws, "
          f"{prov.n_range_rejections} out of table range), "
          f"spectrum/histogram/svg written to {out}")
    return 0


def cmd_simulate_decay(args) -> int:
    cfg = load_config(args.config)
    start = cfg.get("kinetics", "fit_window_start_ns")
    stop = cfg.get("kinetics", "fit_window_stop_ns")
    if (start is None) != (stop is None):
        missing = "start" if start is None else "stop"
        raise ValidationError(
            f"config key [kinetics] fit_window_{missing}_ns is missing; a "
            "fit window needs both ends")
    params = _decay_params_from(cfg)
    trace = simulate_decay(params)
    window = None if start is None else (start, stop)
    fit = fit_single_exponential(trace.time_ns, trace.intensity,
                                 window_ns=window)
    tau_fit = fit.parameters["tau_ns"]
    lifetimes = decompose_lifetimes(min(tau_fit, params.tau_r_ns),
                                    params.tau_r_ns)
    report = _report_columns(fit, tau_eff_ns=lifetimes.tau_eff_ns,
                             tau_nr_ns=lifetimes.tau_nr_ns, qe=lifetimes.qe,
                             rise_time_ns=rise_time(trace))
    out = args.out or cfg.get("output", "directory", "out")
    write_csv(os.path.join(out, "trace.csv"), ["time_ns", "counts"],
              [trace.time_ns, trace.intensity])
    write_atomic(os.path.join(out, "trace.svg"),
                 svg_line_plot(trace.time_ns, trace.intensity, "time (ns)",
                               "photon rate"))
    write_csv(os.path.join(out, "fit_report.csv"), _REPORT_HEADER, report)
    print(f"decay: tau_eff {lifetimes.tau_eff_ns:.3f} ns, "
          f"qe {lifetimes.qe:.3f}, outputs in {out}")
    return 0


def cmd_sweep_fluence(args) -> int:
    cfg = load_config(args.config)
    template = args.template or cfg.path("schedule", "template")
    if template is None:
        raise ValidationError(
            "sweep-fluence needs a schedule template "
            "(--template or [schedule] template)")
    if args.fluences:
        field, raw = "--fluences", args.fluences
    else:
        field = "config key [schedule] fluences"
        raw = cfg.get("schedule", "fluences",
                      "1e11,3.16e11,1e12,3.16e12,1e13,3.16e13,1e14")
    fluences = [number(field, tok) for tok in raw.split(",") if tok]
    if len(fluences) < 2 or not all(0 < f < np.inf for f in fluences):
        raise ValidationError(
            f"{field} needs at least 2 positive finite fluences, got {raw!r}")
    params = _build(DamageParams, cfg, "damage")

    n_g, n_trap, tau_eff, intensity = np.empty((4, len(fluences)))
    for i, fluence in enumerate(fluences):
        history = integrate_damage(schedule_from_template(template, fluence),
                                   params)
        n_g[i] = history.n_g_cm2[-1]
        n_trap[i] = history.n_trap_cm2[-1]
        tau_eff[i] = history.tau_eff_ns[-1]
        lifetimes = decompose_lifetimes(tau_eff[i], params.tau_r_ns)
        intensity[i] = pl_proxy(n_g[i], lifetimes)["integrated_intensity"]

    out = args.out or cfg.get("output", "directory", "out")
    write_csv(os.path.join(out, "sweep.csv"),
              ["fluence_cm2", "n_G", "n_trap", "tau_eff_ns", "intensity"],
              [fluences, n_g, n_trap, tau_eff, intensity])
    try:
        fit = fit_power_law(fluences, intensity)
    except InvalidArgumentError as exc:
        # data-driven failure of the scaling fit is a numerical error,
        # not a config problem
        raise FitError(f"power-law fit of the sweep failed: {exc}")
    write_csv(os.path.join(out, "scaling_fit.csv"), _REPORT_HEADER,
              _report_columns(fit))
    write_atomic(os.path.join(out, "sweep.svg"),
                 svg_line_plot(np.log10(fluences),
                               np.log10(np.maximum(intensity, 1e-300)),
                               "log10 fluence (cm^-2)", "log10 intensity"))
    print(f"sweep: {len(fluences)} fluences, exponent "
          f"{fit.parameters['exponent']:.3f} "
          f"+- {fit.stderr['exponent']:.3f}, outputs in {out}")
    return 0


_FIT_HEADERS = {
    ("time_ns", "counts"): "exponential",
    ("wavelength_nm", "intensity"): "peaks",
    ("fluence_cm2", "intensity"): "power-law",
}


def cmd_fit(args) -> int:
    header, rows = read_csv(args.input)
    if tuple(header) not in _FIT_HEADERS:
        known = " | ".join(",".join(h) for h in _FIT_HEADERS)
        raise ValidationError(
            f"unrecognized CSV header {','.join(header)!r}; expected one "
            f"of: {known}")
    model = args.model or _FIT_HEADERS[tuple(header)]
    data = np.array([[number(f"{name} cell of {args.input}", cell)
                      for name, cell in zip(header, row)] for row in rows])
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{args.input} holds a non-finite value")
    x, y = data.T

    if model == "exponential":
        window = None
        if args.window:
            lo, _, hi = args.window.partition(":")
            window = (number("--window start", lo), number("--window stop", hi))
        fit = fit_single_exponential(x, y, window_ns=window)
        report = _report_columns(fit)
        summary = f"tau = {fit.parameters['tau_ns']:.4g} ns"
    elif model == "peaks":
        peaks = fit_peaks(x, y, args.peaks)
        names, values = [], []
        for i, peak in enumerate(peaks.peaks):
            names += [f"center_{i}_nm", f"fwhm_{i}_nm", f"amplitude_{i}"]
            values += [peak.center_nm, peak.fwhm_nm, peak.amplitude]
        # peaks.stderr is keyed and ordered like these rows, baseline last
        report = [names + ["baseline"], values + [peaks.baseline],
                  list(peaks.stderr.values())]
        summary = ", ".join(f"{p.center_nm:.4f} nm" for p in peaks.peaks)
    else:
        fit = fit_power_law(x, y)
        report = _report_columns(fit)
        summary = f"exponent = {fit.parameters['exponent']:.4g}"

    path = args.report or "fit_report.csv"
    write_csv(path, _REPORT_HEADER, report)
    print(f"fit ({model}): {summary}; report written to {path}")
    return 0


def cmd_enumerate_sites(args) -> int:
    spec = SupercellSpec(repeats=args.repeats)
    geom = build_supercell(spec)
    geom = place_gcenter(geom)
    kinds = (["vacancy", "interstitial-void"] if args.kind == "both"
             else [args.kind])
    cands = [enumerate_candidates(geom, kind) for kind in kinds]
    counts = [len(c.separation_nm) for c in cands]
    out = args.out or "out"
    write_csv(os.path.join(out, "sites.csv"),
              ["kind", "frac_x", "frac_y", "frac_z", "separation_nm"],
              [np.repeat(kinds, counts),
               *np.concatenate([c.positions_frac for c in cands]).T,
               np.concatenate([c.separation_nm for c in cands])])
    if args.xyz:
        buf = io.StringIO()
        write_xyz(geom, buf)
        write_atomic(os.path.join(out, "supercell.xyz"), buf.getvalue())
    print("sites: " + ", ".join(f"{n} {k}" for k, n in zip(kinds, counts))
          + f", written to {out}")
    return 0


def cmd_convert(args) -> int:
    given = [name for name in ("wavelength_nm", "energy_ev", "shift_mev",
                               "shift_nm") if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValidationError(
            "convert needs exactly one of --wavelength-nm, --energy-ev, "
            "--shift-mev, --shift-nm")
    ref = args.reference_nm
    for name in (given[0], "reference_nm"):
        value = getattr(args, name)
        if not np.isfinite(value):
            raise InvalidArgumentError(
                f"--{name.replace('_', '-')} must be finite, got {value}")
    if args.wavelength_nm is not None:
        if args.wavelength_nm <= 0:
            raise InvalidArgumentError("wavelength must be positive")
        print(f"energy_ev = {HC_EV_NM / args.wavelength_nm:.10g}")
    elif args.energy_ev is not None:
        if args.energy_ev <= 0:
            raise InvalidArgumentError("energy must be positive")
        print(f"wavelength_nm = {HC_EV_NM / args.energy_ev:.10g}")
    elif args.shift_mev is not None:
        dl = delta_lambda_from_delta_e(args.shift_mev, ref)
        print(f"shift_nm = {dl:.10g}")
    else:
        de = delta_e_from_delta_lambda(args.shift_nm, ref)
        print(f"shift_mev = {de:.10g}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defect-spectra",
        description="Strain-broadened emission spectra, decay kinetics, "
                    "and fits for point-defect emitters.",
        epilog=config_help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate-spectrum",
                         help="sample a strain ensemble and synthesize the "
                              "inhomogeneous spectrum")
    sim.add_argument("--config", help="INI config file")
    sim.add_argument("--mode", choices=["uniform", "biased-z", "defect-field"])
    sim.add_argument("--samples", type=int)
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", help="output directory")
    sim.add_argument("--dump-samples", action="store_true",
                     help="also write per-sample strains and shifts")
    sim.set_defaults(func=cmd_simulate_spectrum)

    dec = sub.add_parser("simulate-decay",
                         help="integrate the pump-decay model and fit the "
                              "effective lifetime")
    dec.add_argument("--config", help="INI config file")
    dec.add_argument("--seed", type=int, required=True,
                     help="unused until runs write a manifest; the decay "
                          "model itself is deterministic")
    dec.add_argument("--out", help="output directory")
    dec.set_defaults(func=cmd_simulate_decay)

    swp = sub.add_parser("sweep-fluence",
                         help="run the damage model over a fluence sweep "
                              "and fit the intensity power law")
    swp.add_argument("--config", help="INI config file")
    swp.add_argument("--template", help="schedule template CSV")
    swp.add_argument("--fluences", help="comma-separated fluences (cm^-2)")
    swp.add_argument("--out", help="output directory")
    swp.set_defaults(func=cmd_sweep_fluence)

    fit = sub.add_parser("fit", help="fit a CSV data file")
    fit.add_argument("--input", required=True, help="input CSV")
    fit.add_argument("--model", choices=["exponential", "peaks", "power-law"],
                     help="fit model; inferred from the CSV header if omitted")
    fit.add_argument("--peaks", type=int, default=1,
                     help="number of Lorentzian peaks (peaks model)")
    fit.add_argument("--window", help="fit window start:stop in ns "
                                      "(exponential model)")
    fit.add_argument("--report", help="output report path")
    fit.set_defaults(func=cmd_fit)

    enum = sub.add_parser("enumerate-sites",
                          help="dump defect candidate sites around the "
                               "embedded emitter")
    enum.add_argument("--kind",
                      choices=["vacancy", "interstitial-void", "both"],
                      default="both")
    enum.add_argument("--repeats", type=int, default=3)
    enum.add_argument("--out", help="output directory")
    enum.add_argument("--xyz", action="store_true",
                      help="also write the supercell as XYZ")
    enum.set_defaults(func=cmd_enumerate_sites)

    conv = sub.add_parser("convert", help="energy/wavelength conversions")
    conv.add_argument("--wavelength-nm", type=float, dest="wavelength_nm")
    conv.add_argument("--energy-ev", type=float, dest="energy_ev")
    conv.add_argument("--shift-mev", type=float, dest="shift_mev")
    conv.add_argument("--shift-nm", type=float, dest="shift_nm")
    conv.add_argument("--reference-nm", type=float, dest="reference_nm",
                      default=ZPL_WAVELENGTH_NM,
                      help="reference line for shift conversions")
    conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FitError, IntegrationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (DefectSpectraError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
