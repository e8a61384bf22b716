import csv
import importlib.util
import os

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                       "scripts")


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(SCRIPTS, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_spectrum_vs_density_smoke(tmp_path, capsys):
    script = load_script("spectrum_vs_density")
    script.run("vacancy", (3e20,), 500, 7, str(tmp_path))
    assert "retained 500/500 (range rej 0)" in capsys.readouterr().out
    for name in ("spectra_vs_density.csv", "fwhm_vs_density.csv",
                 "fwhm_vs_density.svg"):
        assert (tmp_path / name).exists()
    with open(tmp_path / "fwhm_vs_density.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["density_cm3", "fwhm_nm"]
    (_, pristine), (dens, broadened) = [(float(a), float(b))
                                        for a, b in rows[1:]]
    assert pristine == pytest.approx(0.073, abs=1e-3)
    assert dens == 3e20
    assert float(broadened) > 2 * pristine


def test_fluence_exponent_scan_smoke(tmp_path, capsys):
    load_script("fluence_exponent_scan").main(["--out", str(tmp_path)])
    exponents = {}
    for line in capsys.readouterr().out.splitlines():
        label, _, rest = line.partition(":")
        if rest.split()[:1] == ["exponent"]:
            exponents[label] = float(rest.split()[1])
    assert exponents["pulsed"] > exponents["cw"]
    with open(tmp_path / "fluence_scan.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["fluence_cm2", "n_G_pulsed"]
    assert len(rows) == 1 + 9


def test_pump_trap_tradeoff_smoke(tmp_path, monkeypatch):
    script = load_script("pump_trap_tradeoff")
    monkeypatch.setattr(script, "PUMPS_MW", (0.1, 1.0))
    monkeypatch.setattr(script, "TRAPS_CM3", (0.0, 1e17))
    script.main(["--out", str(tmp_path)])
    with open(tmp_path / "pump_trap_tradeoff.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["pump_mw", "trap_density_cm3", "tau_ns", "qe"]
    assert len(rows) == 1 + 2 * 2
    tau = {(float(r[1]), float(r[0])): float(r[2]) for r in rows[1:]}
    for pump in (0.1, 1.0):
        assert tau[(1e17, pump)] < tau[(0.0, pump)]
