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
    with _spans_module().Tracer().installed() as tracer:
        for mode in ("uniform", "biased-z", "defect-field"):
            start = len(tracer.spans)
            assert cli.main(["simulate-spectrum", "--mode", mode,
                             "--samples", "200", "--seed", "1",
                             "--out", str(tmp_path / mode)]) == 0
            names = [s["name"] for s in tracer.spans[start:]]
            for layer in ("ensemble.sample", "ensemble.synthesize",
                          "cli.write_csv"):
                assert layer in names, (mode, layer)
        start = len(tracer.spans)
        assert cli.main(["sweep-fluence", "--template", str(template),
                         "--fluences", "1e11,1e12",
                         "--out", str(tmp_path / "sweep")]) == 0
        names = [s["name"] for s in tracer.spans[start:]]
    assert names.count("kinetics.schedule") == 2
    assert names.count("kinetics.integrate_damage") == 2
    assert "cli.write_csv" in names
