import importlib
import importlib.util
import os

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                     "bench")


def test_traced_functions_exist():
    # the benchmark's checked pass rebinds each of these names, so a
    # function that is renamed or deleted would break it
    spec = importlib.util.spec_from_file_location(
        "spans", os.path.join(BENCH, "spans.py"))
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{module}.{name}" for module, name in spans.TRACED
               if not hasattr(importlib.import_module(
                   f"defect_spectra.{module}"), name)]
    assert not missing
