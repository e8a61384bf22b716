import csv
import dataclasses
import os
import subprocess
import sys

import numpy as np
import pytest

from defect_spectra import cli
from defect_spectra.cli import load_config, main, schedule_from_template
from defect_spectra.core import EmitterParams, ValidationError
from defect_spectra.ensemble import (
    BiasedZSpec,
    DefectDensitySpec,
    SingleDefectSpec,
    UniformSpec,
)
from defect_spectra.kinetics import DamageParams, DecayModelParams
from defect_spectra.strainfield import ElasticParams

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, cwd=None, env_extra=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    env.pop("DEFECT_SPECTRA_THREADS", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "defect_spectra", *args],
        capture_output=True, text=True, cwd=cwd, env=env)


def read_report(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["parameter", "value", "stderr"]
    return {r[0]: (float(r[1]), float(r[2])) for r in rows[1:]}


# ---------------------------------------------------------------------------
# simulate-spectrum
# ---------------------------------------------------------------------------

def test_simulate_spectrum_outputs(tmp_path):
    out = tmp_path / "run"
    res = run_cli("simulate-spectrum", "--mode", "uniform", "--samples",
                  "2000", "--seed", "5", "--out", str(out))
    assert res.returncode == 0, res.stderr
    for name in ("spectrum.csv", "histogram.csv", "spectrum.svg"):
        assert (out / name).exists()
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["wavelength_nm", "intensity"]
    intensity = np.array([float(r[1]) for r in rows[1:]])
    assert intensity.max() == pytest.approx(1.0)
    with open(out / "histogram.csv", newline="") as fh:
        hrows = list(csv.reader(fh))
    assert hrows[0] == ["shift_mev", "count"]
    assert sum(int(r[1]) for r in hrows[1:]) == 2000
    svg = (out / "spectrum.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_simulate_spectrum_requires_seed(tmp_path):
    res = run_cli("simulate-spectrum", "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "--seed" in res.stderr


def test_simulate_spectrum_zero_samples_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x"
    code = main(["simulate-spectrum", "--samples", "0", "--seed", "1",
                 "--out", str(out)])
    assert code == 2
    assert "n_samples" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_spectrum_deterministic_across_threads(tmp_path):
    args = ("simulate-spectrum", "--mode", "biased-z", "--samples", "4000",
            "--seed", "9")
    res1 = run_cli(*args, "--out", str(tmp_path / "a"),
                   env_extra={"DEFECT_SPECTRA_THREADS": "1"})
    res2 = run_cli(*args, "--out", str(tmp_path / "b"),
                   env_extra={"DEFECT_SPECTRA_THREADS": "6"})
    assert res1.returncode == 0 and res2.returncode == 0
    for name in ("spectrum.csv", "histogram.csv", "spectrum.svg"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_simulate_spectrum_seed_changes_output(tmp_path):
    for seed, sub in ((3, "a"), (4, "b")):
        run_cli("simulate-spectrum", "--samples", "1000", "--seed",
                str(seed), "--out", str(tmp_path / sub))
    assert (tmp_path / "a" / "histogram.csv").read_bytes() != \
        (tmp_path / "b" / "histogram.csv").read_bytes()


def test_defect_field_requires_elastic_section(tmp_path):
    res = run_cli("simulate-spectrum", "--mode", "defect-field", "--samples",
                  "50", "--seed", "1", "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "elastic" in res.stderr


def test_defect_field_with_config(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[elastic]\natomic_volume_nm3 = 0.02\n\n"
                   "[sampler]\ndefect_kind = interstitial\n"
                   "separation_nm = 0.9\n")
    out = tmp_path / "run"
    res = run_cli("simulate-spectrum", "--config", str(cfg), "--mode",
                  "defect-field", "--samples", "500", "--seed", "2",
                  "--out", str(out), "--dump-samples")
    assert res.returncode == 0, res.stderr
    with open(out / "samples.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:2] == ["sample_id", "e_xx"]
    shifts = np.array([float(r[-1]) for r in rows[1:]])
    # interstitials redshift essentially every sample
    assert (shifts < 0).mean() >= 0.95


def test_unknown_config_key_is_fatal(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[sampler]\nsamplez = 10\n")
    res = run_cli("simulate-spectrum", "--config", str(cfg), "--seed", "1",
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "samplez" in res.stderr
    # no partial outputs on failure
    assert not (tmp_path / "x").exists()


def test_unknown_config_section_is_fatal(tmp_path):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[sampelr]\nmode = uniform\n")
    res = run_cli("simulate-spectrum", "--config", str(cfg), "--seed", "1",
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "sampelr" in res.stderr


CONFIG_KEYS = (
    ("emitter", "zpl_wavelength_nm"),
    ("emitter", "homogeneous_fwhm_nm"),
    ("emitter", "radiative_lifetime_ns"),
    ("sampler", "mode"),
    ("sampler", "samples"),
    ("sampler", "strain_low"),
    ("sampler", "strain_high"),
    ("sampler", "xy_threshold"),
    ("sampler", "keep_fraction"),
    ("sampler", "defect_kind"),
    ("sampler", "separation_nm"),
    ("sampler", "vacancy_density_cm3"),
    ("sampler", "interstitial_density_cm3"),
    ("sampler", "r_min_nm"),
    ("sampler", "r_max_nm"),
    ("sampler", "bin_width_mev"),
    ("elastic", "atomic_volume_nm3"),
    ("elastic", "core_cutoff_nm"),
    ("response", "table"),
    ("kinetics", "tau_r_ns"),
    ("kinetics", "g_center_density_cm3"),
    ("kinetics", "capture_coefficient_g_cm3_ns"),
    ("kinetics", "trap_density_cm3"),
    ("kinetics", "capture_coefficient_trap_cm3_ns"),
    ("kinetics", "trap_saturation_density_cm3"),
    ("kinetics", "pump_power_mw"),
    ("kinetics", "carrier_density_per_mw_cm3"),
    ("kinetics", "t_max_ns"),
    ("kinetics", "n_points"),
    ("kinetics", "fit_window_start_ns"),
    ("kinetics", "fit_window_stop_ns"),
    ("damage", "damage_rate_per_proton_nm"),
    ("damage", "active_depth_nm"),
    ("damage", "carbon_areal_density_cm2"),
    ("damage", "formation_coefficient_cm2"),
    ("damage", "formation_enhancement_flux"),
    ("damage", "formation_enhancement_exponent"),
    ("damage", "destruction_coefficient_cm2"),
    ("damage", "destruction_activation_energy_ev"),
    ("damage", "destruction_suppression_flux"),
    ("damage", "temperature_k"),
    ("damage", "trap_formation_per_proton"),
    ("damage", "dynamic_annealing_rate_s"),
    ("damage", "clustering_threshold_flux"),
    ("damage", "trap_clustering_exponent"),
    ("damage", "trap_lifetime_coupling_cm2_ns"),
    ("damage", "background_tau_nr_ns"),
    ("schedule", "template"),
    ("schedule", "fluences"),
    ("output", "directory"),
)


def test_help_documents_config_keys():
    res = run_cli("--help")
    assert res.returncode == 0
    listed, section = [], None
    epilog = res.stdout.split("config file keys (INI sections):\n")[1]
    for line in epilog.splitlines():
        if line.startswith("  ["):
            section = line.strip()[1:-1]
        else:
            listed.append((section, line.strip()))
    assert listed == list(CONFIG_KEYS)


def test_empty_config_builds_dataclass_defaults():
    cfg = load_config(None)
    for cls, section in ((EmitterParams, "emitter"),
                         (ElasticParams, "elastic"),
                         (DamageParams, "damage"),
                         (UniformSpec, "sampler"),
                         (BiasedZSpec, "sampler"),
                         (DefectDensitySpec, "sampler"),
                         (SingleDefectSpec, "sampler")):
        assert cli._build(cls, cfg, section) == cls()
    built, default = cli._decay_params_from(cfg), DecayModelParams()
    for field in dataclasses.fields(DecayModelParams):
        np.testing.assert_array_equal(getattr(built, field.name),
                                      getattr(default, field.name))


def test_readme_config_block_loads(tmp_path):
    with open(os.path.join(PKG_ROOT, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.ini"
    config.write_text(block)
    assert load_config(str(config)).values


CW_TEMPLATE = "flux_cm2_s,duration_s,gap_s\n8e11,{duration},0\n"
DECAY = ["simulate-decay", "--config", "k.ini", "--seed", "1", "--out", "out"]
SPECTRUM = ["simulate-spectrum", "--config", "s.ini", "--seed", "1",
            "--samples", "200", "--out", "out"]
TRACE = "time_ns,counts\n0,1.0\n1,0.5\n2,0.25\n3,0.125\n"


@pytest.mark.parametrize("files, argv, field", [
    ({"t.csv": "flux_cm2_s,duration_s,gap_s,repeat\n"
               "1e12,2.0,1.0,abc\n8e11,{duration},0,\n"},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e13,1e14",
      "--out", "out"], "repeat cell"),
    ({"t.csv": "flux_cm2_s,duration_s,gap_s\nxyz,{duration},0\n"},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e13,1e14",
      "--out", "out"], "flux_cm2_s cell"),
    ({"t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "2e14,abc",
      "--out", "out"], "--fluences"),
    ({"d.csv": TRACE},
     ["fit", "--input", "d.csv", "--window", "0:abc", "--report", "r.csv"],
     "--window stop"),
    ({"d.csv": TRACE},
     ["fit", "--input", "d.csv", "--window", "5", "--report", "r.csv"],
     "--window stop"),
    ({"k.ini": "[kinetics]\nfit_window_start_ns = 20\n"},
     ["simulate-decay", "--config", "k.ini", "--seed", "1", "--out", "out"],
     "fit_window_stop_ns"),
    ({"k.ini": "[kinetics]\nfit_window_stop_ns = 90\n"},
     ["simulate-decay", "--config", "k.ini", "--seed", "1", "--out", "out"],
     "fit_window_start_ns"),
    ({"k.ini": "[kinetics]\nfit_window_start_ns = 50\n"
               "fit_window_stop_ns = 10\n"},
     ["simulate-decay", "--config", "k.ini", "--seed", "1", "--out", "out"],
     "fit window [50, 10] ns holds 0 points"),
    ({"s.ini": "[sampler]\nbin_width_mev = 0\n"},
     ["simulate-spectrum", "--config", "s.ini", "--seed", "1", "--samples",
      "200", "--out", "out"], "bin_width_mev"),
    ({"d.csv": "time_ns,counts\n0,1.0\n1,0.5,7\n2,0.25\n"},
     ["fit", "--input", "d.csv", "--report", "r.csv"],
     "must have exactly 2 columns"),
    ({"e.ini": "[emitter]\nhomogeneous_fwhm_nm = nan\n"},
     ["simulate-spectrum", "--config", "e.ini", "--seed", "1", "--samples",
      "200", "--out", "out"], "homogeneous_fwhm_nm"),
    ({"e.ini": "[emitter]\nhomogeneous_fwhm_nm = inf\n"},
     ["simulate-spectrum", "--config", "e.ini", "--seed", "1", "--samples",
      "200", "--out", "out"], "homogeneous_fwhm_nm"),
    ({"k.ini": "[kinetics]\nt_max_ns = nan\n"}, DECAY, "t_max_ns"),
    ({"k.ini": "[kinetics]\nt_max_ns = inf\n"}, DECAY, "t_max_ns"),
    ({"k.ini": "[kinetics]\npump_power_mw = nan\n"}, DECAY, "pump_power_mw"),
    ({"k.ini": "[kinetics]\npump_power_mw = inf\n"}, DECAY, "pump_power_mw"),
    ({"s.ini": "[elastic]\n[sampler]\nvacancy_density_cm3 = nan\n"},
     [*SPECTRUM, "--mode", "defect-field"], "vacancy_density_cm3"),
    ({"s.ini": "[sampler]\nbin_width_mev = nan\n"}, SPECTRUM,
     "bin_width_mev"),
    ({"s.ini": "[sampler]\nbin_width_mev = inf\n"}, SPECTRUM,
     "bin_width_mev"),
    ({"s.ini": "[elastic]\natomic_volume_nm3 = nan\n"
               "[sampler]\nvacancy_density_cm3 = 1e20\n"},
     [*SPECTRUM, "--mode", "defect-field"], "atomic_volume_nm3"),
    ({"s.ini": "[sampler]\nxy_threshold = nan\n"},
     [*SPECTRUM, "--mode", "biased-z"], "xy_threshold"),
    ({"d.ini": "[damage]\ntemperature_k = nan\n", "t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--config", "d.ini", "--template", "t.csv", "--out",
      "out"], "temperature_k"),
    ({"t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e12,nan",
      "--out", "out"], "--fluences"),
    ({"t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e12,inf",
      "--out", "out"], "--fluences"),
    ({"t.csv": "flux_cm2_s,duration_s,gap_s\nnan,{duration},0\n"},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e13,1e14",
      "--out", "out"], "flux_cm2_s cell of schedule t.csv"),
    ({"t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "0,1e13",
      "--out", "out"], "--fluences"),
    ({"t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--template", "t.csv", "--fluences=-1e12,1e13",
      "--out", "out"], "--fluences"),
    ({"t.csv": CW_TEMPLATE, "f.ini": "[schedule]\nfluences = -1e12,1e13\n"},
     ["sweep-fluence", "--config", "f.ini", "--template", "t.csv", "--out",
      "out"], "[schedule] fluences"),
    ({"s.ini": "[response]\ntable = r.csv\n",
      "r.csv": "axis,strain,shift_mev\nx,abc,0\n"},
     SPECTRUM, "r.csv"),
    ({"s.ini": "[response]\ntable = r.csv\n",
      "r.csv": "axis,strain,shift_mev\nx,0\n"},
     SPECTRUM, "r.csv"),
    ({"s.ini": "[response]\ntable = r.csv\n",
      "r.csv": "axis,strain,shift_mev\nx,nan,0\n"},
     SPECTRUM, "r.csv"),
    ({"d.csv": "time_ns,counts\n0,1.0\nnan,0.5\n2,0.25\n"},
     ["fit", "--input", "d.csv", "--report", "r.csv"], "d.csv"),
    ({"d.csv": "fluence_cm2,intensity\n1e12,1.0\n1e13,nan\n"},
     ["fit", "--input", "d.csv", "--model", "power-law", "--report",
      "r.csv"], "d.csv"),
], ids=["repeat", "placeholder-flux", "fluences", "window-stop",
        "window-one-end", "window-no-stop", "window-no-start",
        "window-reversed", "bin-width-zero", "fit-ragged-row", "fwhm-nan",
        "fwhm-inf", "t-max-nan", "t-max-inf", "pump-nan", "pump-inf",
        "vacancy-density-nan", "bin-width-nan", "bin-width-inf",
        "atomic-volume-nan", "xy-threshold-nan", "temperature-nan",
        "fluences-nan", "fluences-inf", "placeholder-flux-nan",
        "fluences-zero", "fluences-negative", "config-fluences-negative",
        "table-abc", "table-two-cells", "table-nan-strain", "fit-nan-time",
        "fit-power-law-nan"])
def test_bad_user_value_is_usage_error(tmp_path, monkeypatch, capsys, files,
                                       argv, field):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert field in capsys.readouterr().err
    # nothing was written
    assert sorted(os.listdir(tmp_path)) == sorted(files)


# ---------------------------------------------------------------------------
# simulate-decay
# ---------------------------------------------------------------------------

def test_simulate_decay_outputs_and_fit_consistency(tmp_path):
    out = tmp_path / "dec"
    res = run_cli("simulate-decay", "--seed", "1", "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = read_report(out / "fit_report.csv")
    for key in ("amplitude", "tau_ns", "baseline", "tau_eff_ns",
                "tau_nr_ns", "qe", "rise_time_ns"):
        assert key in report
    # decomposition identity: 1/tau_eff = 1/tau_r + 1/tau_nr
    tau_eff = report["tau_eff_ns"][0]
    tau_nr = report["tau_nr_ns"][0]
    assert 1.0 / tau_eff == pytest.approx(1.0 / 45.0 + 1.0 / tau_nr)
    assert report["qe"][0] == pytest.approx(tau_eff / 45.0)

    # refitting the written trace reproduces the embedded lifetime
    refit = run_cli("fit", "--input", str(out / "trace.csv"), "--report",
                    str(tmp_path / "refit.csv"))
    assert refit.returncode == 0, refit.stderr
    re_report = read_report(tmp_path / "refit.csv")
    assert re_report["tau_ns"][0] == pytest.approx(report["tau_ns"][0],
                                                   rel=1e-6)


def test_simulate_decay_no_traps_recovers_radiative(tmp_path):
    cfg = tmp_path / "notrap.ini"
    cfg.write_text("[kinetics]\ntrap_density_cm3 = 0\n"
                   "t_max_ns = 400\nn_points = 16001\n")
    out = tmp_path / "dec"
    res = run_cli("simulate-decay", "--config", str(cfg), "--seed", "1",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    report = read_report(out / "fit_report.csv")
    assert report["tau_ns"][0] == pytest.approx(45.0, rel=5e-3)


def test_simulate_decay_missing_schedule_file(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text("[schedule]\ntemplate = does_not_exist.csv\n")
    res = run_cli("simulate-decay", "--config", str(cfg), "--seed", "1",
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "does_not_exist.csv" in res.stderr


def test_simulate_decay_deterministic(tmp_path):
    run_cli("simulate-decay", "--seed", "7", "--out", str(tmp_path / "a"))
    run_cli("simulate-decay", "--seed", "7", "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "trace.csv").read_bytes() == \
        (tmp_path / "b" / "trace.csv").read_bytes()


# ---------------------------------------------------------------------------
# sweep-fluence
# ---------------------------------------------------------------------------

def write_templates(tmp_path):
    pulsed = tmp_path / "pulsed.csv"
    pulsed.write_text("flux_cm2_s,duration_s,gap_s,repeat\n"
                      "7.9e18,1e-8,44.99999999,{pulses}\n")
    cw = tmp_path / "cw.csv"
    cw.write_text("flux_cm2_s,duration_s,gap_s\n8e11,{duration},0\n")
    return pulsed, cw


def test_sweep_fluence_pulsed_vs_cw(tmp_path):
    pulsed, cw = write_templates(tmp_path)
    exponents = {}
    for name, template in (("pulsed", pulsed), ("cw", cw)):
        out = tmp_path / name
        res = run_cli("sweep-fluence", "--template", str(template),
                      "--fluences", "1e11,1e12,1e13,1e14",
                      "--out", str(out))
        assert res.returncode == 0, res.stderr
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["fluence_cm2", "n_G", "n_trap", "tau_eff_ns",
                           "intensity"]
        assert len(rows) == 5
        report = read_report(out / "scaling_fit.csv")
        exponents[name] = report["exponent"][0]
    assert exponents["pulsed"] > exponents["cw"]


def test_sweep_fluence_needs_two_points(tmp_path):
    _, cw = write_templates(tmp_path)
    res = run_cli("sweep-fluence", "--template", str(cw), "--fluences",
                  "1e12", "--out", str(tmp_path / "x"))
    assert res.returncode == 2


def test_sweep_zero_flux_template_fit_fails(tmp_path):
    template = tmp_path / "zero.csv"
    template.write_text("flux_cm2_s,duration_s,gap_s\n0,{duration},0\n")
    out = tmp_path / "x"
    res = run_cli("sweep-fluence", "--template", str(template),
                  "--fluences", "1e11,1e12", "--out", str(out))
    assert res.returncode == 3
    # the sweep itself was written before the fit failed
    assert (out / "sweep.csv").exists()
    assert not (out / "scaling_fit.csv").exists()
    with open(out / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert all(float(r[4]) == 0.0 for r in rows[1:])


def test_sweep_missing_template(tmp_path):
    res = run_cli("sweep-fluence", "--template",
                  str(tmp_path / "none.csv"), "--fluences", "1e11,1e12",
                  "--out", str(tmp_path / "x"))
    assert res.returncode == 2


def test_sweep_no_placeholder_template(tmp_path):
    template = tmp_path / "fixed.csv"
    template.write_text("flux_cm2_s,duration_s,gap_s\n8e11,10.0,0\n")
    res = run_cli("sweep-fluence", "--template", str(template),
                  "--fluences", "1e11,1e12", "--out", str(tmp_path / "x"))
    assert res.returncode == 2
    assert "placeholder" in res.stderr


def test_schedule_from_template_runs(tmp_path, capsys):
    template = tmp_path / "mixed.csv"
    template.write_text("flux_cm2_s,duration_s,gap_s,repeat\n"
                        "1e12,2.0,1.0,1000\n"
                        "7.9e18,1e-8,1.0,{pulses}\n")
    sched = schedule_from_template(str(template), 1e16)
    fixed, *train = sched.segments
    assert (fixed.flux_cm2_s, fixed.duration_s, fixed.gap_s,
            fixed.repeat) == (1e12, 2.0, 1.0, 1000)
    assert [run.repeat for run in train] == [int(8e15 / 7.9e10), 1]
    assert sched.total_fluence_cm2 == pytest.approx(1e16, rel=1e-12, abs=0)
    with pytest.raises(ValidationError, match="exceed"):
        schedule_from_template(str(template), 1e15)
    for repeat in ("0", "-3"):
        template.write_text("flux_cm2_s,duration_s,gap_s,repeat\n"
                            f"1e12,2.0,1.0,{repeat}\n"
                            "8e11,{duration},0,\n")
        with pytest.raises(ValidationError, match="repeat"):
            schedule_from_template(str(template), 1e16)
        assert main(["sweep-fluence", "--template", str(template),
                     "--fluences", "1e13,1e14",
                     "--out", str(tmp_path / "x")]) == 2
        assert "repeat must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_fit_peaks_three_centers(tmp_path):
    x = np.arange(1277.3, 1279.3, 0.002)

    def lor(c, a):
        return a * 0.0365**2 / ((x - c) ** 2 + 0.0365**2)

    y = lor(1278.32, 1.0) + lor(1278.18, 0.25) + lor(1278.05, 0.08)
    data = tmp_path / "spec.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_nm", "intensity"])
        writer.writerows(zip(x, y))
    report_path = tmp_path / "rep.csv"
    res = run_cli("fit", "--input", str(data), "--peaks", "3", "--report",
                  str(report_path))
    assert res.returncode == 0, res.stderr
    report = read_report(report_path)
    centers = sorted(v[0] for k, v in report.items()
                     if k.startswith("center_"))
    assert len(centers) == 3
    assert centers[0] == pytest.approx(1278.05, abs=0.002)
    assert centers[1] == pytest.approx(1278.18, abs=0.002)
    assert centers[2] == pytest.approx(1278.32, abs=0.002)


def test_fit_power_law_from_csv(tmp_path):
    data = tmp_path / "sweep.csv"
    fl = np.logspace(11, 14, 5)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fluence_cm2", "intensity"])
        writer.writerows(zip(fl, 2.0 * fl**0.65))
    res = run_cli("fit", "--input", str(data), cwd=tmp_path)
    assert res.returncode == 0
    assert "exponent = 0.65" in res.stdout
    # without --report the fit lands in ./fit_report.csv
    assert (tmp_path / "fit_report.csv").exists()


def test_fit_malformed_header(tmp_path):
    data = tmp_path / "junk.csv"
    data.write_text("foo,bar\n1,2\n3,4\n")
    res = run_cli("fit", "--input", str(data))
    assert res.returncode == 2
    assert "foo,bar" in res.stderr


def test_fit_missing_input(tmp_path):
    res = run_cli("fit", "--input", str(tmp_path / "none.csv"))
    assert res.returncode == 2


def test_fit_numeric_failure_exit_code(tmp_path):
    data = tmp_path / "flat.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["wavelength_nm", "intensity"])
        writer.writerows((x, 1.0) for x in np.linspace(1277, 1279, 60))
    res = run_cli("fit", "--input", str(data), "--model", "peaks")
    assert res.returncode == 3


# ---------------------------------------------------------------------------
# enumerate-sites and convert
# ---------------------------------------------------------------------------

def test_enumerate_sites_counts(tmp_path):
    out = tmp_path / "sites"
    res = run_cli("enumerate-sites", "--kind", "both", "--out", str(out),
                  "--xyz")
    assert res.returncode == 0, res.stderr
    with open(out / "sites.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["kind", "frac_x", "frac_y", "frac_z", "separation_nm"]
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("vacancy") == 215
    assert kinds.count("interstitial-void") == 106
    xyz = (out / "supercell.xyz").read_text().splitlines()
    assert int(xyz[0]) == 217


def test_convert_round_trip():
    res = run_cli("convert", "--shift-mev", "-1")
    assert res.returncode == 0
    shift_nm = float(res.stdout.split("=")[1])
    back = run_cli("convert", "--shift-nm", str(shift_nm))
    assert float(back.stdout.split("=")[1]) == pytest.approx(-1.0, rel=1e-6)


def test_convert_wavelength_energy():
    res = run_cli("convert", "--wavelength-nm", "1278.3")
    assert float(res.stdout.split("=")[1]) == pytest.approx(0.96991, abs=1e-4)
    res = run_cli("convert", "--energy-ev", "0.9699147305")
    assert float(res.stdout.split("=")[1]) == pytest.approx(1278.3, abs=1e-4)


@pytest.mark.parametrize("wavelength", ["0", "-3"])
def test_convert_non_positive_wavelength_is_usage_error(wavelength, capsys):
    assert main(["convert", "--wavelength-nm", wavelength]) == 2
    assert "wavelength must be positive" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["--wavelength-nm", "nan"], "--wavelength-nm must be finite"),
    (["--wavelength-nm", "inf"], "--wavelength-nm must be finite"),
    (["--energy-ev", "nan"], "--energy-ev must be finite"),
    (["--energy-ev", "inf"], "--energy-ev must be finite"),
    (["--energy-ev", "0"], "energy must be positive"),
    (["--energy-ev=-2"], "energy must be positive"),
    (["--shift-mev", "nan"], "--shift-mev must be finite"),
    (["--shift-nm=-inf"], "--shift-nm must be finite"),
    (["--shift-mev", "1", "--reference-nm", "inf"],
     "--reference-nm must be finite"),
], ids=["wavelength-nan", "wavelength-inf", "energy-nan", "energy-inf",
        "energy-zero", "energy-negative", "shift-mev-nan", "shift-nm-inf",
        "reference-inf"])
def test_convert_bad_quantity_is_usage_error(argv, message, capsys):
    assert main(["convert", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_convert_needs_exactly_one_quantity():
    res = run_cli("convert")
    assert res.returncode == 2
    res = run_cli("convert", "--shift-mev", "1", "--shift-nm", "1")
    assert res.returncode == 2
