"""Spans around calls into the package's public functions.

The package is not changed: a ``Tracer`` rebinds each traced function, in
every ``defect_spectra`` module that refers to it, to a wrapper that records
a span (name, start, end, parent span and a few counts taken from the
arguments or the result), and restores the originals on exit. Spans stay in
memory; ``layer_metrics`` turns those of the traced passes into per-pass
figures.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time

import numpy as np


def _sample_counts(args, kwargs, result):
    prov = result.provenance
    return {"raw_draws": prov.n_raw_draws, "retained": prov.n_retained,
            "range_rejections": prov.n_range_rejections}


def _synthesis_counts(args, kwargs, result):
    grid = result[0]
    return {"grid_points": len(grid),
            "lorentzian_evals": np.atleast_1d(args[0]).size * len(grid)}


def _write_csv_counts(args, kwargs, result):
    with open(args[0], "rb") as fh:
        data = fh.read()
    return {"rows": data.count(b"\n") - 1, "bytes": len(data)}


def _decay_counts(args, kwargs, result):
    total = result.total_excitations()
    populations = (result.carriers, result.excited, result.filled_traps,
                   result.emitted)
    return {"grid_points": len(result.time_ns),
            "total_min": float(total.min()), "total_max": float(total.max()),
            "population_min": float(min(p.min() for p in populations))}


# (module, function) -> (span name, counts from (args, kwargs, result))
TRACED = {
    ("cli", "main"): ("cli.main", lambda a, k, r: {"command": a[0][0]}),
    ("cli", "load_config"): ("cli.load_config", None),
    ("cli", "write_csv"): ("cli.write_csv", _write_csv_counts),
    ("cli", "svg_line_plot"): ("cli.svg", None),
    ("cli", "schedule_from_template"): (
        "kinetics.schedule", lambda a, k, r: {"segments": len(r.segments)}),
    ("ensemble", "sample_uniform"): ("ensemble.sample", _sample_counts),
    ("ensemble", "sample_biased_z"): ("ensemble.sample", _sample_counts),
    ("ensemble", "sample_defect_field"): ("ensemble.sample", _sample_counts),
    ("ensemble", "synthesize_spectrum"): ("ensemble.synthesize",
                                          _synthesis_counts),
    ("ensemble", "histogram_shifts"): ("ensemble.histogram", None),
    ("zplmap", "shift_for_strain"): (
        "zplmap.shift_for_strain",
        lambda a, k, r: {"strains": np.atleast_2d(a[1]).shape[0]}),
    ("zplmap", "default_table"): ("zplmap.default_table", None),
    ("kinetics", "integrate_damage"): (
        "kinetics.integrate_damage",
        lambda a, k, r: {"rows": len(r.time_s),
                         "fluence_delivered": float(r.fluence_cm2[-1])}),
    ("kinetics", "simulate_decay"): ("kinetics.simulate_decay",
                                     _decay_counts),
    ("fitting", "fit_single_exponential"): (
        "fitting.fit_exponential",
        lambda a, k, r: {"iterations": r.n_iterations}),
    ("fitting", "fit_power_law"): ("fitting.fit_power_law", None),
    ("fitting", "numerical_fwhm"): ("fitting.numerical_fwhm", None),
    ("strainfield", "dilatation_strain"): ("strainfield", None),
    ("strainfield", "superpose"): ("strainfield", None),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, counts):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result))
            return result
        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Rebind every traced function in the loaded package modules."""
        wrappers = {}
        for (module, fn_name), (name, counts) in TRACED.items():
            fn = getattr(sys.modules[f"defect_spectra.{module}"], fn_name)
            wrappers[id(fn)] = self._wrap(name, fn, counts)
        bindings = []
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "defect_spectra":
                continue
            for attr, value in list(vars(mod).items()):
                if callable(value) and id(value) in wrappers:
                    bindings.append((mod, attr, value))
        for mod, attr, value in bindings:
            setattr(mod, attr, wrappers[id(value)])
        try:
            yield self
        finally:
            for mod, attr, value in bindings:
                setattr(mod, attr, value)


def _duration(span):
    return span["t1"] - span["t0"]


COMMANDS = ("simulate-spectrum", "sweep-fluence", "simulate-decay")


def layer_metrics(spans, n_passes) -> dict:
    """Per-pass time and counts of each layer from the spans of
    ``n_passes`` traced passes. Layer times include traced calls nested in
    them; ``cli.main_s.<command>`` is self time."""
    child = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child[span["parent"]] += _duration(span)

    def total(name, key=None):
        return sum(s[key] if key else _duration(s)
                   for s in spans if s["name"] == name)

    m = {}
    for name in ("ensemble.sample", "ensemble.synthesize",
                 "ensemble.histogram", "zplmap.shift_for_strain",
                 "zplmap.default_table", "kinetics.schedule",
                 "kinetics.integrate_damage", "kinetics.simulate_decay",
                 "fitting.fit_exponential", "fitting.fit_power_law",
                 "fitting.numerical_fwhm", "cli.load_config",
                 "cli.write_csv", "cli.svg"):
        m[f"{name}_s"] = total(name)
    for command in COMMANDS:
        m[f"cli.main_s.{command}"] = sum(
            _duration(s) - child[i] for i, s in enumerate(spans)
            if s["name"] == "cli.main" and s["command"] == command)
    m["ensemble.raw_draws"] = total("ensemble.sample", "raw_draws")
    m["ensemble.samples_retained"] = total("ensemble.sample", "retained")
    m["ensemble.range_rejections"] = total("ensemble.sample",
                                           "range_rejections")
    m["ensemble.grid_points"] = total("ensemble.synthesize", "grid_points")
    m["ensemble.lorentzian_evals"] = total("ensemble.synthesize",
                                           "lorentzian_evals")
    m["zplmap.strains_evaluated"] = total("zplmap.shift_for_strain",
                                          "strains")
    m["kinetics.segments_built"] = total("kinetics.schedule", "segments")
    m["kinetics.history_rows"] = total("kinetics.integrate_damage", "rows")
    m["kinetics.decay_grid_points"] = total("kinetics.simulate_decay",
                                            "grid_points")
    m["fitting.fit_exponential_iterations"] = total("fitting.fit_exponential",
                                                    "iterations")
    m["cli.csv_rows"] = total("cli.write_csv", "rows")
    m["cli.csv_bytes"] = total("cli.write_csv", "bytes")
    m["strainfield.calls"] = sum(1 for s in spans if s["name"] == "strainfield")
    m["strainfield.s"] = sum(
        _duration(s) for s in spans if s["name"] == "strainfield"
        and (s["parent"] is None or spans[s["parent"]]["name"] != "strainfield"))
    m = {k: v / n_passes for k, v in m.items()}
    m["ensemble.retained_per_draw"] = (
        m["ensemble.samples_retained"] / m["ensemble.raw_draws"]
        if m["ensemble.raw_draws"] else 0.0)
    m["ensemble.lorentzian_evals_per_s"] = (
        m["ensemble.lorentzian_evals"] / m["ensemble.synthesize_s"]
        if m["ensemble.synthesize_s"] else 0.0)
    return m
