import importlib
import importlib.util
import os

from defect_spectra import cli

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def _spans_module():
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_functions_exist():
    # the benchmark's checked pass rebinds each of these names, so a
    # function that is renamed or deleted would break it
    spans = _spans_module()
    missing = [f"{module}.{name}" for module, name in spans.TRACED
               if not hasattr(importlib.import_module(
                   f"defect_spectra.{module}"), name)]
    assert not missing


def test_tracer_sees_each_layer(tmp_path):
    # the tracer rebinds module attributes, so a traced function that the
    # CLI reaches through a reference taken at import (a dispatch table,
    # say) would run without its span
    template = tmp_path / "cw.csv"
    template.write_text("flux_cm2_s,duration_s,gap_s\n1e12,{duration},0\n")
    # each run and the number of spans it makes of each named layer
    runs = [
        *((["simulate-spectrum", "--mode", mode, "--samples", "200",
            "--seed", "1", "--out", str(tmp_path / mode)],
           {"ensemble.sample": 1, "ensemble.synthesize": 1,
            "cli.write_csv": 2, "cli.svg": 1})
          for mode in ("uniform", "biased-z", "defect-field")),
        (["sweep-fluence", "--template", str(template),
          "--fluences", "1e11,1e12", "--out", str(tmp_path / "sweep")],
         {"kinetics.schedule": 2, "kinetics.integrate_damage": 2,
          "cli.write_csv": 2, "cli.svg": 1}),
        (["simulate-decay", "--seed", "1", "--out", str(tmp_path / "decay")],
         {"kinetics.simulate_decay": 1, "cli.write_csv": 2, "cli.svg": 1}),
        (["fit", "--input", str(tmp_path / "decay" / "trace.csv"),
          "--report", str(tmp_path / "fit.csv")],
         {"fitting.fit_exponential": 1, "cli.write_csv": 1}),
        (["enumerate-sites", "--repeats", "1", "--xyz",
          "--out", str(tmp_path / "sites")], {"cli.write_csv": 2}),
    ]
    with _spans_module().Tracer().installed() as tracer:
        for argv, layers in runs:
            start = len(tracer.spans)
            assert cli.main(argv) == 0
            names = [s["name"] for s in tracer.spans[start:]]
            assert {layer: names.count(layer) for layer in layers} == layers, \
                argv[0]
