"""Command-line interface: config-driven simulation, fitting, and export.

Flags say what to run, how many samples and where to write; --help
prints their defaults. An INI config ([section] key = value) holds the
model parameters: [emitter], [elastic], [damage] and most of [kinetics]
take their keys and defaults from the fields of EmitterParams,
ElasticParams, DamageParams and DecayModelParams, and [sampler] keys
fill the ensemble spec of the --mode, whose class holds their defaults.
A run asks for its keys through RunConfig.get and, once its inputs are
built, refuses any section or key it did not ask for, so a typo or a
key the run would drop cannot silently fall back to a default; an
unparsable value is refused as the file is loaded. Each subcommand
returns its files, their directory and a summary line to ``main``, which
writes the files in order through defect_spectra.output (atomic writes,
number formats by file extension), so a rerun with the same seed gives
byte-identical files, and then prints the summary. A run refused for its
input (exit 2) or whose fit or integration failed (exit 3) writes
nothing; a failed write exits 2 and leaves only the complete files
written before it, with no temp file and no summary line.

Exit codes: 0 success, 2 a bad input (ValidationError, or a file that
cannot be read or written), 3 a fit or integration that failed on valid
input (NumericalError).
"""

from __future__ import annotations

import argparse
import configparser
import dataclasses
import os
import sys

import numpy as np

from . import __version__
from .core import (
    HC_EV_NM,
    STRAIN_COMPONENTS,
    ZPL_WAVELENGTH_NM,
    EmitterParams,
    NumericalError,
    ValidationError,
    delta_e_from_delta_lambda,
    delta_lambda_from_delta_e,
    number,
)
from .ensemble import (
    MAX_SAMPLES,
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
    DamageParams,
    DecayModelParams,
    IrradiationSchedule,
    LifetimeSet,
    ScheduleSegment,
    integrate_damage,
    pulsed_schedule,
    rise_time,
    simulate_decay,
)
from .lattice import (
    SupercellSpec,
    build_supercell,
    enumerate_candidates,
    place_gcenter,
    xyz_table,
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


# Config casts of the scalar dataclass field types.
_FIELD_CASTS = {"float": float, "float | None": _float_or_none, "int": int,
                "str": str}


def _field_keys(cls, exclude=()):
    """Config keys and casts of the scalar fields of a params dataclass."""
    return {f.name: _FIELD_CASTS[f.type] for f in dataclasses.fields(cls)
            if f.type in _FIELD_CASTS and f.name not in exclude}


_SCHEMA = {
    "emitter": _field_keys(EmitterParams),
    # BiasedZSpec holds UniformSpec's fields
    "sampler": {**_field_keys(BiasedZSpec),
                **_field_keys(SingleDefectSpec),
                **_field_keys(DefectDensitySpec), "bin_width_mev": float},
    "elastic": _field_keys(ElasticParams),
    "response": {
        "table": str,
    },
    # simulate-decay reads the fit window itself
    "kinetics": {**_field_keys(DecayModelParams),
                 "fit_window_start_ns": float, "fit_window_stop_ns": float},
    # the radiative lifetime is [emitter] radiative_lifetime_ns
    "damage": _field_keys(DamageParams, exclude=("tau_r_ns",)),
}


class RunConfig:
    """The typed values a config file sets, and no defaults; ``read``
    holds every (section, key) a run has asked for, in the order asked."""

    def __init__(self, values, base_dir="."):
        self.values = values
        self.base_dir = base_dir
        self.read = {}

    def get(self, section, key, fallback=None):
        self.read[section, key] = None
        return self.values.get(section, {}).get(key, fallback)

    def refuse_unread(self, run):
        """Refuse the first key the run has not asked for, so a config
        key is never dropped; ``run`` names the run in the message."""
        for section, keys in self.values.items():
            for key, value in keys.items():
                if (section, key) not in self.read:
                    reads = [k for s, k in self.read if s == section]
                    raise ValidationError(
                        f"config key [{section}] {key} = {value} is not read "
                        f"by {run}, which reads "
                        + (", ".join(reads) or f"no [{section}] key"))


def load_config(path=None) -> RunConfig:
    """Parse an INI config and cast each value by the schema (keys it does
    not list stay text); None means all defaults."""
    if path is None:
        return RunConfig({})
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ValidationError(
            f"cannot read config file {path}: {exc.strerror}") from None
    except (UnicodeDecodeError, configparser.Error) as exc:
        raise ValidationError(f"config parse error in {path}: {exc}")
    values = {}
    for section in parser.sections():
        casts = _SCHEMA.get(section, {})
        values[section] = {
            key: number(f"config key [{section}] {key}", raw,
                        casts.get(key, str))
            for key, raw in parser.items(section)}
    return RunConfig(values, base_dir=os.path.dirname(os.path.abspath(path)))


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

def _build(cls, cfg: RunConfig, section, **given):
    """A params dataclass from the [section] keys named like its fields,
    over ``given``; left-out keys keep the class default. An invalid value
    raises with the section named."""
    for field in dataclasses.fields(cls):
        if field.name in _SCHEMA[section]:
            value = cfg.get(section, field.name)
            if value is not None:
                given[field.name] = value
    try:
        return cls(**given)
    except ValidationError as exc:
        raise ValidationError(f"[{section}] {exc}") from None


def _table_from(cfg: RunConfig):
    """The [response] table, its path relative to the config file."""
    path = cfg.get("response", "table")
    if path is None:
        return default_table()
    return load_response_table(os.path.join(cfg.base_dir, path))


def _radiative_lifetime(cfg: RunConfig) -> dict:
    """``{"tau_r_ns": value}`` for the radiative lifetime a config sets, or
    ``{}``. ``[emitter] radiative_lifetime_ns`` names it; ``[kinetics]
    tau_r_ns`` still loads as its older name, and the two may not differ.
    Each is checked under its own name."""
    given = {f"[{section}] {key}": cfg.get(section, key)
             for section, key in (("emitter", "radiative_lifetime_ns"),
                                  ("kinetics", "tau_r_ns"))
             if cfg.get(section, key) is not None}
    for name, value in given.items():
        if not 0 < value < np.inf:
            raise ValidationError(
                f"{name} must be positive and finite, got {value}")
    if len(set(given.values())) > 1:
        raise ValidationError(
            "config keys " + " and ".join(f"{k} = {v}" for k, v in
                                          given.items())
            + " set two different radiative lifetimes; set one of them")
    return {"tau_r_ns": value for value in given.values()}


def schedule_from_template(path, target_fluence_cm2: float) -> IrradiationSchedule:
    """Instantiate a schedule template at a target fluence.

    Placeholder cells, each only in its own column: {flux} in flux_cm2_s
    (flux = fluence share / (duration * repeat)), {duration} in duration_s
    (duration = share / (flux * repeat)), or {pulses} in repeat (the row
    becomes a pulse train delivering the share); in another column a
    placeholder is an invalid number. An empty or absent repeat cell is 1.
    The target fluence minus any fixed rows is split equally across
    placeholder rows. A {flux} row with zero duration, or a {duration} row
    with zero flux, cannot deliver its share and is refused.
    """
    header, rows = read_csv(path)
    if header[:3] != ["flux_cm2_s", "duration_s", "gap_s"] or \
            header[3:] not in ([], ["repeat"]):
        raise ValidationError(
            f"schedule file {path} must start with header "
            "flux_cm2_s,duration_s,gap_s with optional repeat column, "
            f"got {','.join(header)}")

    def cell(cells, column, cast=float):
        return number(f"{header[column]} cell of schedule {path}",
                      cells[column], cast)

    def repeat_of(cells):
        repeat = cell(cells, 3, int) if cells[3] else 1
        if repeat < 1:
            raise ValidationError(
                f"schedule template {path}: repeat must be >= 1, got {repeat}")
        return repeat

    def divisor(cells, column):
        # the flux of a {duration} row or the duration of a {flux} row
        value = cell(cells, column)
        if value == 0:
            raise ValidationError(
                f"schedule template {path}: the {header[column]} cell of a "
                f"{cells[1 - column]} row is {cells[column]}, so the row "
                "cannot deliver fluence")
        return value

    def build(make, *args):
        try:
            return make(*args)
        except ValidationError as exc:
            raise ValidationError(f"schedule template {path}: {exc}") from None

    parsed = []
    for row in rows:
        cells = row + [""] * (4 - len(row))
        if (cells[0] == "{flux}" or cells[1] == "{duration}"
                or cells[3] == "{pulses}"):
            parsed.append(cells)
        else:
            repeat = repeat_of(cells)
            parsed.append(build(ScheduleSegment, cell(cells, 0),
                                cell(cells, 1), cell(cells, 2), repeat))
    fixed = [run for run in parsed if isinstance(run, ScheduleSegment)]
    if len(fixed) == len(parsed):
        raise ValidationError(
            f"schedule template {path} has no {{flux}}, {{duration}}, or "
            "{pulses} placeholder to absorb the target fluence")
    fixed_fluence = sum(run.fluence_cm2 for run in fixed)
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
                segments.extend(build(pulsed_schedule, share, flux, duration,
                                      duration + gap).segments)
            continue
        repeat = repeat_of(cells)
        if cells[1] == "{duration}":
            flux = divisor(cells, 0)
            duration = share / (flux * repeat)
        else:
            duration = divisor(cells, 1)
            flux = share / (duration * repeat)
        segments.append(build(ScheduleSegment, flux, duration, gap, repeat))
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


def cmd_simulate_spectrum(args):
    cfg = load_config(args.config)
    emitter = _build(EmitterParams, cfg, "emitter")
    table = _table_from(cfg)
    mode, n = args.mode, args.samples
    if not 1 <= n <= MAX_SAMPLES:
        raise ValidationError(f"--samples: n_samples must be >= 1 and <= "
                              f"{MAX_SAMPLES}, got {n}")

    if mode == "defect-field":
        # a density key picks Poisson densities over one defect
        density = any(cfg.get("sampler", key) is not None for key in
                      ("vacancy_density_cm3", "interstitial_density_cm3"))
        spec = _build(DefectDensitySpec if density else SingleDefectSpec,
                      cfg, "sampler")
        elastic = _build(ElasticParams, cfg, "elastic")
    else:
        spec = _build(UniformSpec if mode == "uniform" else BiasedZSpec, cfg,
                      "sampler")
    bin_width = cfg.get("sampler", "bin_width_mev", 0.25)
    cfg.refuse_unread(f"sampler mode {mode} ({type(spec).__name__})")

    if mode == "uniform":
        ens = sample_uniform(spec, n, args.seed, table)
    elif mode == "biased-z":
        ens = sample_biased_z(spec, n, args.seed, table)
    else:
        ens = sample_defect_field(spec, n, args.seed, table, elastic)
    prov = ens.provenance
    if not len(ens):
        raise ValidationError(
            f"no samples retained: {prov.n_range_rejections} of "
            f"{prov.n_raw_draws} raw draws were out of table range")

    edges, counts = histogram_shifts(ens.shifts_mev, bin_width)
    grid, intensity = synthesize_spectrum(ens.shifts_mev, emitter)
    files = [("spectrum.csv", ["wavelength_nm", "intensity"],
              [grid, intensity]),
             ("histogram.csv", ["shift_mev", "count"],
              [0.5 * (edges[:-1] + edges[1:]), counts]),
             ("spectrum.svg", svg_line_plot(grid, intensity, "wavelength (nm)",
                                            "intensity (peak-normalized)"))]
    if args.dump_samples:
        files.append(("samples.csv",
                      ["sample_id", *STRAIN_COMPONENTS, "shift_mev"],
                      [np.arange(len(ens)), *ens.strains.T, ens.shifts_mev]))
    return args.out, files, (
        f"{mode}: {prov.n_retained} samples "
        f"({prov.n_raw_draws} raw draws, "
        f"{prov.n_range_rejections} out of table range), "
        f"spectrum/histogram/svg written to {args.out}")


def cmd_simulate_decay(args):
    cfg = load_config(args.config)
    start = cfg.get("kinetics", "fit_window_start_ns")
    stop = cfg.get("kinetics", "fit_window_stop_ns")
    if (start is None) != (stop is None):
        missing = "start" if start is None else "stop"
        raise ValidationError(
            f"config key [kinetics] fit_window_{missing}_ns is missing; a "
            "fit window needs both ends")
    params = _build(DecayModelParams, cfg, "kinetics",
                    **_radiative_lifetime(cfg))
    cfg.refuse_unread("simulate-decay")
    trace = simulate_decay(params)
    window = None if start is None else (start, stop)
    fit = fit_single_exponential(trace.time_ns, trace.intensity,
                                 window_ns=window)
    tau_fit = fit.parameters["tau_ns"]
    lifetimes = LifetimeSet(tau_r_ns=params.tau_r_ns,
                            tau_eff_ns=min(tau_fit, params.tau_r_ns))
    report = _report_columns(fit, tau_eff_ns=lifetimes.tau_eff_ns,
                             tau_nr_ns=lifetimes.tau_nr_ns, qe=lifetimes.qe,
                             rise_time_ns=rise_time(trace.time_ns,
                                                    trace.intensity))
    return args.out, [
        ("trace.csv", ["time_ns", "counts"], [trace.time_ns, trace.intensity]),
        ("trace.svg", svg_line_plot(trace.time_ns, trace.intensity,
                                    "time (ns)", "photon rate")),
        ("fit_report.csv", _REPORT_HEADER, report),
    ], (f"decay: tau_eff {lifetimes.tau_eff_ns:.3f} ns, "
        f"qe {lifetimes.qe:.3f}, outputs in {args.out}")


def cmd_sweep_fluence(args):
    cfg = load_config(args.config)
    fluences = [number("--fluences", tok)
                for tok in args.fluences.split(",") if tok]
    # distinct as fit_power_law counts them: by their logs
    if not all(0 < f < np.inf for f in fluences) or \
            len(set(np.log(fluences))) < 2:
        raise ValidationError(f"--fluences needs at least 2 distinct positive "
                              f"finite fluences, got {args.fluences!r}")
    params = _build(DamageParams, cfg, "damage", **_radiative_lifetime(cfg))
    cfg.refuse_unread("sweep-fluence")

    n_g, n_trap, tau_eff, intensity = np.empty((4, len(fluences)))
    for i, fluence in enumerate(fluences):
        history = integrate_damage(
            schedule_from_template(args.template, fluence), params)
        n_g[i] = history.n_g_cm2[-1]
        n_trap[i] = history.n_trap_cm2[-1]
        tau_eff[i] = history.tau_eff_ns[-1]
        intensity[i] = history.intensity[-1]

    try:
        fit = fit_power_law(fluences, intensity)
    except ValidationError as exc:
        # data-driven failure of the scaling fit is a numerical error,
        # not a config problem
        raise NumericalError(f"power-law fit of the sweep failed: {exc}")
    return args.out, [
        ("sweep.csv",
         ["fluence_cm2", "n_G", "n_trap", "tau_eff_ns", "intensity"],
         [fluences, n_g, n_trap, tau_eff, intensity]),
        ("scaling_fit.csv", _REPORT_HEADER, _report_columns(fit)),
        ("sweep.svg", svg_line_plot(
            np.log10(fluences), np.log10(np.maximum(intensity, 1e-300)),
            "log10 fluence (cm^-2)", "log10 intensity")),
    ], (f"sweep: {len(fluences)} fluences, exponent "
        f"{fit.parameters['exponent']:.3f} "
        f"+- {fit.stderr['exponent']:.3f}, outputs in {args.out}")


_FIT_HEADERS = {
    ("time_ns", "counts"): "exponential",
    ("wavelength_nm", "intensity"): "peaks",
    ("fluence_cm2", "intensity"): "power-law",
}


def cmd_fit(args):
    header, rows = read_csv(args.input)
    if tuple(header) not in _FIT_HEADERS:
        known = " | ".join(",".join(h) for h in _FIT_HEADERS)
        raise ValidationError(
            f"unrecognized CSV header {','.join(header)!r}; expected one "
            f"of: {known}")
    model = args.model or _FIT_HEADERS[tuple(header)]
    for flag, value, owner in (("--peaks", args.peaks, "peaks"),
                               ("--window", args.window, "exponential")):
        if value is not None and model != owner:
            raise ValidationError(
                f"{flag} applies to the {owner} model only, not to the "
                f"{model} model")
    data = np.array([[number(f"{name} cell of {args.input}", cell)
                      for name, cell in zip(header, row)] for row in rows])
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"{args.input} holds a non-finite value")
    x, y = data.T

    if model == "exponential":
        window = None
        if args.window is not None:
            lo, _, hi = args.window.partition(":")
            window = (number("--window start", lo), number("--window stop", hi))
        fit = fit_single_exponential(x, y, window_ns=window)
        summary = f"tau = {fit.parameters['tau_ns']:.4g} ns"
    elif model == "peaks":
        n_peaks = 1 if args.peaks is None else args.peaks
        if n_peaks < 1:
            raise ValidationError(
                f"--peaks: n_peaks must be >= 1, got {n_peaks}")
        fit = fit_peaks(x, y, n_peaks)
        summary = ", ".join(f"{fit.parameters[f'center_{k}_nm']:.4f} nm"
                            for k in range(n_peaks))
    else:
        fit = fit_power_law(x, y)
        summary = f"exponent = {fit.parameters['exponent']:.4g}"

    directory, name = os.path.split(args.report)
    return directory, [(name, _REPORT_HEADER, _report_columns(fit))], (
        f"fit ({model}): {summary}; report written to {args.report}")


def cmd_enumerate_sites(args):
    geom = place_gcenter(build_supercell(SupercellSpec(repeats=args.repeats)))
    kinds = (["vacancy", "interstitial-void"] if args.kind == "both"
             else [args.kind])
    cands = {kind: enumerate_candidates(geom, kind) for kind in kinds}
    # one table per kind, whose kind column is a broadcast view
    files = [("sites.csv",
              ["kind", "frac_x", "frac_y", "frac_z", "separation_nm"],
              *([np.broadcast_to(kind, len(c.separation_nm)),
                 *c.positions_frac.T, c.separation_nm]
                for kind, c in cands.items()))]
    if args.xyz:
        files.append(("supercell.xyz", *xyz_table(geom)))
    return args.out, files, (
        "sites: " + ", ".join(f"{len(c.separation_nm)} {kind}"
                              for kind, c in cands.items())
        + f", written to {args.out}")


def cmd_convert(args):
    given = [name for name in ("wavelength_nm", "energy_ev", "shift_mev",
                               "shift_nm") if getattr(args, name) is not None]
    if len(given) != 1:
        raise ValidationError(
            "convert needs exactly one of --wavelength-nm, --energy-ev, "
            "--shift-mev, --shift-nm")
    value, ref = getattr(args, given[0]), args.reference_nm
    flag = "--" + given[0].replace("_", "-")
    absolute = not given[0].startswith("shift")
    if ref is not None and absolute:
        raise ValidationError(f"--reference-nm applies to --shift-mev and "
                              f"--shift-nm only, not to {flag}")
    for name, x in ((flag, value), ("--reference-nm", ref)):
        if x is not None and not np.isfinite(x):
            raise ValidationError(f"{name} must be finite, got {x}")
    if ref is not None and ref <= 0:
        raise ValidationError(f"--reference-nm must be positive, got {ref}")
    if absolute and value <= 0:
        raise ValidationError(f"{given[0].partition('_')[0]} must be positive")
    name = {"wavelength_nm": "energy_ev", "energy_ev": "wavelength_nm",
            "shift_mev": "shift_nm", "shift_nm": "shift_mev"}[given[0]]
    shift = (delta_lambda_from_delta_e if given[0] == "shift_mev"
             else delta_e_from_delta_lambda)
    # a numpy scalar overflows to inf where a Python float raises
    with np.errstate(over="ignore"):
        result = (HC_EV_NM / value if absolute
                  else shift(value, np.float64(ref or ZPL_WAVELENGTH_NM)))
    if not np.isfinite(result):
        at = "" if ref is None else f" at --reference-nm {ref}"
        raise ValidationError(f"{flag} {value}{at} gives a non-finite {name}")
    return None, [], f"{name} = {result:.10g}"


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _write(directory, files):
    """Write each (name, text) document and (name, header, *tables) text
    table of a run into ``directory``, in order."""
    for name, *content in files:
        path = os.path.join(directory, name)
        if len(content) == 1:
            write_atomic(path, content[0])
        else:
            write_csv(path, *content)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="defect-spectra",
        description="Strain-broadened emission spectra, decay kinetics, "
                    "and fits for point-defect emitters.",
        epilog=config_help_text(),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    out_help = "output directory (default: %(default)s)"

    sim = sub.add_parser("simulate-spectrum",
                         help="sample a strain ensemble and synthesize the "
                              "inhomogeneous spectrum")
    sim.add_argument("--config", help="INI config file")
    sim.add_argument("--mode", choices=["uniform", "biased-z", "defect-field"],
                     default="uniform", help="sampler (default: %(default)s)")
    sim.add_argument("--samples", type=int, default=10000,
                     help=f"ensemble size, at most {MAX_SAMPLES} "
                          "(default: %(default)s)")
    sim.add_argument("--seed", type=int, required=True)
    sim.add_argument("--out", default="out", help=out_help)
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
    dec.add_argument("--out", default="out", help=out_help)
    dec.set_defaults(func=cmd_simulate_decay)

    swp = sub.add_parser("sweep-fluence",
                         help="run the damage model over a fluence sweep "
                              "and fit the intensity power law")
    swp.add_argument("--config", help="INI config file")
    swp.add_argument("--template", required=True, help="schedule template CSV")
    swp.add_argument("--fluences", help="comma-separated fluences in cm^-2 "
                     "(default: %(default)s)",
                     default="1e11,3.16e11,1e12,3.16e12,1e13,3.16e13,1e14")
    swp.add_argument("--out", default="out", help=out_help)
    swp.set_defaults(func=cmd_sweep_fluence)

    fit = sub.add_parser("fit", help="fit a CSV data file")
    fit.add_argument("--input", required=True, help="input CSV")
    fit.add_argument("--model", choices=["exponential", "peaks", "power-law"],
                     help="fit model; inferred from the CSV header if omitted")
    fit.add_argument("--peaks", type=int,
                     help="number of Lorentzian peaks (peaks model; "
                          "default 1)")
    fit.add_argument("--window", help="fit window start:stop in ns "
                                      "(exponential model)")
    fit.add_argument("--report", default="fit_report.csv",
                     help="output report path (default: %(default)s)")
    fit.set_defaults(func=cmd_fit)

    enum = sub.add_parser("enumerate-sites",
                          help="dump defect candidate sites around the "
                               "embedded emitter")
    enum.add_argument("--kind",
                      choices=["vacancy", "interstitial-void", "both"],
                      default="both",
                      help="candidate kind (default: %(default)s)")
    enum.add_argument("--repeats", type=int, default=3,
                      help="supercell repeats per axis (default: %(default)s)")
    enum.add_argument("--out", default="out", help=out_help)
    enum.add_argument("--xyz", action="store_true",
                      help="also write the supercell as XYZ")
    enum.set_defaults(func=cmd_enumerate_sites)

    conv = sub.add_parser("convert", help="energy/wavelength conversions")
    conv.add_argument("--wavelength-nm", type=float, dest="wavelength_nm")
    conv.add_argument("--energy-ev", type=float, dest="energy_ev")
    conv.add_argument("--shift-mev", type=float, dest="shift_mev")
    conv.add_argument("--shift-nm", type=float, dest="shift_nm")
    conv.add_argument("--reference-nm", type=float, dest="reference_nm",
                      help="reference line in nm for --shift-mev and "
                           f"--shift-nm (default: {ZPL_WAVELENGTH_NM})")
    conv.set_defaults(func=cmd_convert)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        directory, files, summary = args.func(args)
        _write(directory, files)
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
