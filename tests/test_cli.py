import argparse
import ast
import contextlib
import csv
import dataclasses
import hashlib
import inspect
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from defect_spectra import cli
from defect_spectra.cli import load_config, main, schedule_from_template
from defect_spectra.core import (
    STRAIN_COMPONENTS,
    EmitterParams,
    ValidationError,
)
from defect_spectra.ensemble import (
    BiasedZSpec,
    DefectDensitySpec,
    SingleDefectSpec,
    UniformSpec,
    sample_biased_z,
    sample_uniform,
)
from defect_spectra.kinetics import (
    DamageParams,
    DecayModelParams,
    integrate_damage,
)
from defect_spectra.strainfield import ElasticParams
from defect_spectra.zplmap import default_table

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(*args, cwd=None, timeout=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    return subprocess.run(
        [sys.executable, "-m", "defect_spectra", *args],
        capture_output=True, text=True, cwd=cwd, env=env, timeout=timeout)


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


@pytest.mark.parametrize("rule", [
    "keep_fraction = 0\nxy_threshold = 1e-12\n",
    "keep_fraction = 0\nstrain_low = 0.002\n"])
def test_biased_z_near_zero_retention_is_refused(tmp_path, rule):
    # these rules keep (almost) no raw draw: the run is refused up front
    # instead of drawing forever
    cfg = tmp_path / "c.ini"
    cfg.write_text("[sampler]\n" + rule)
    out = tmp_path / "out"
    res = run_cli("simulate-spectrum", "--config", str(cfg), "--mode",
                  "biased-z", "--samples", "10", "--seed", "1", "--out",
                  str(out), timeout=15)
    assert res.returncode == 2
    assert "keep_fraction" in res.stderr and "xy_threshold" in res.stderr
    assert not out.exists()


def test_simulate_spectrum_seed_changes_output(tmp_path):
    for seed, sub in ((3, "a"), (4, "b")):
        run_cli("simulate-spectrum", "--samples", "1000", "--seed",
                str(seed), "--out", str(tmp_path / sub))
    assert (tmp_path / "a" / "histogram.csv").read_bytes() != \
        (tmp_path / "b" / "histogram.csv").read_bytes()


@pytest.mark.parametrize("mode, sample, spec", [
    ("biased-z", sample_biased_z, BiasedZSpec()),
    ("uniform", sample_uniform, UniformSpec()),
])
def test_dump_samples_matches_per_cell_format(tmp_path, mode, sample, spec):
    # more rows than one CSV block, with all-zero shear columns
    n, seed, out = 5000, 3, tmp_path / "run"
    assert main(["simulate-spectrum", "--mode", mode, "--samples", str(n),
                 "--seed", str(seed), "--out", str(out),
                 "--dump-samples"]) == 0
    ens = sample(spec, n, seed, default_table())
    assert not ens.strains[:, 3:].any()
    expected = ",".join(["sample_id", *STRAIN_COMPONENTS, "shift_mev"]) + \
        "\n" + "".join("%d," % i + ",".join("%.10g" % v for v in
                                            (*strain, shift)) + "\n"
                       for i, (strain, shift) in enumerate(
                           zip(ens.strains.tolist(), ens.shifts_mev.tolist())))
    assert (out / "samples.csv").read_bytes() == expected.encode()


def test_defect_field_takes_elastic_defaults(tmp_path):
    # without an [elastic] section the ElasticParams defaults apply, as an
    # empty section gives them
    cfg = tmp_path / "empty.ini"
    cfg.write_text("[elastic]\n")
    outputs = []
    for name, extra in (("none", []), ("empty", ["--config", str(cfg)])):
        out = tmp_path / name
        assert main(["simulate-spectrum", "--mode", "defect-field",
                     "--samples", "300", "--seed", "1", "--out", str(out),
                     "--dump-samples", *extra]) == 0
        outputs.append({f.name: f.read_bytes() for f in out.iterdir()})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("sampler, mode, key", [
    # the README's old minimal config: a density without a mode
    ("vacancy_density_cm3 = 1e20\n\n[elastic]\ncore_cutoff_nm = 0.25\n",
     None, "vacancy_density_cm3"),
    ("keep_fraction = 0.5\n", "uniform", "keep_fraction"),
    ("vacancy_density_cm3 = 1e20\nseparation_nm = 0.9\n", "defect-field",
     "separation_nm"),
    ("r_min_nm = 0.9\n", "defect-field", "r_min_nm"),
], ids=["density-without-mode", "keep-fraction-uniform",
        "separation-beside-density", "shell-without-density"])
def test_sampler_key_the_mode_drops_is_refused(tmp_path, capsys, sampler,
                                               mode, key):
    cfg = tmp_path / "c.ini"
    cfg.write_text("[sampler]\n" + sampler)
    out = tmp_path / "out"
    argv = ["simulate-spectrum", "--config", str(cfg), "--samples", "20",
            "--seed", "1", "--out", str(out)]
    assert main(argv + (["--mode", mode] if mode else [])) == 2
    err = capsys.readouterr().err
    assert f"[sampler] {key}" in err
    assert f"sampler mode {mode or 'uniform'}" in err
    assert not out.exists()


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
                         (SingleDefectSpec, "sampler"),
                         (DecayModelParams, "kinetics")):
        assert cli._build(cls, cfg, section) == cls()


def test_decay_grid_point_cap():
    cfg = cli.RunConfig({"kinetics": {"n_points": 10**7 + 1}})
    with pytest.raises(ValidationError, match=r"\[kinetics\] n_points"):
        cli._build(DecayModelParams, cfg, "kinetics")


def test_readme_config_block_loads(tmp_path, capsys):
    # the README's minimal config is a defect-field run's config: a run
    # refuses any key it does not read, so running it checks every key
    with open(os.path.join(PKG_ROOT, "README.md")) as fh:
        readme = fh.read()
    block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
    config = tmp_path / "readme.ini"
    config.write_text(block)
    assert main(["simulate-spectrum", "--config", str(config), "--mode",
                 "defect-field", "--samples", "300", "--seed", "1", "--out",
                 str(tmp_path / "out")]) == 0, capsys.readouterr().err


def test_cli_import_leaves_scipy_unloaded(tmp_path):
    # the package depends on numpy only: importing the CLI and running the
    # two kinetics commands, whose decay integrator lives in the package,
    # must not import scipy (half a second of start-up); the samplers run
    # sequentially, so concurrent.futures (5 ms) stays unloaded as well
    code = ("import sys; from defect_spectra import cli\n"
            "assert cli.main(['simulate-decay', '--seed', '1', '--out', "
            "'decay']) == 0\n"
            "assert cli.main(['sweep-fluence', '--template', 'cw.csv', "
            "'--fluences', '1e11,1e12', '--out', 'sweep']) == 0\n"
            "assert cli.main(['simulate-spectrum', '--mode', 'biased-z', "
            "'--samples', '500', '--seed', '1', '--out', 'spec']) == 0\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'concurrent')))")
    (tmp_path / "cw.csv").write_text(CW_TEMPLATE)
    env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"))
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=tmp_path)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip().splitlines()[-1] == "[]"


CW_TEMPLATE ="flux_cm2_s,duration_s,gap_s\n8e11,{duration},0\n"
PULSED_TEMPLATE = ("flux_cm2_s,duration_s,gap_s,repeat\n"
                   "1e17,1e-9,0.000999999,{pulses}\n")
DECAY = ["simulate-decay", "--config", "k.ini", "--seed", "1", "--out", "out"]
SPECTRUM = ["simulate-spectrum", "--config", "s.ini", "--seed", "1",
            "--samples", "200", "--out", "out"]
SWEEP = ["sweep-fluence", "--config", "s.ini", "--template", "t.csv",
         "--out", "out"]
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
    # each key is finite, but their product, the initial density, is not
    ({"k.ini": "[kinetics]\npump_power_mw = 1e300\n"}, DECAY,
     "[kinetics] the initial carrier density, pump_power_mw 1e+300 times "
     "carrier_density_per_mw_cm3 3.5e+15, overflows a float"),
    ({"s.ini": "[elastic]\n[sampler]\nvacancy_density_cm3 = nan\n"},
     [*SPECTRUM, "--mode", "defect-field"], "vacancy_density_cm3"),
    ({"s.ini": "[sampler]\nbin_width_mev = nan\n"}, SPECTRUM,
     "bin_width_mev"),
    ({"s.ini": "[sampler]\nbin_width_mev = inf\n"}, SPECTRUM,
     "bin_width_mev"),
    ({"s.ini": "[sampler]\nbin_width_mev = 1e-10\n"}, SPECTRUM,
     "bin_width_mev"),
    ({"s.ini": "[elastic]\n[sampler]\nvacancy_density_cm3 = 1e30\n"},
     [*SPECTRUM, "--mode", "defect-field"], "vacancy_density_cm3"),
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
    ({"k.ini": "[kinetics]\nn_points = 1\n"}, DECAY, "[kinetics] n_points"),
    ({}, ["simulate-spectrum", "--samples", "-3", "--seed", "1", "--out",
          "out"], "--samples: n_samples must be >= 1"),
    # biased-z: were the count let through, the sampler's raw-draw limit
    # would refuse it before drawing, so the case never allocates
    ({}, ["simulate-spectrum", "--mode", "biased-z", "--samples",
          "2000000000", "--seed", "1", "--out", "out"],
     "--samples: n_samples must be >= 1 and <= 10000000"),
    ({"d.csv": TRACE},
     ["fit", "--input", "d.csv", "--model", "peaks", "--peaks", "0",
      "--report", "r.csv"], "--peaks: n_peaks must be >= 1"),
    ({"t.csv": "flux_cm2_s,duration_s,gap_s,repeat\n7.9e18,inf,45,{pulses}\n"},
     ["sweep-fluence", "--template", "t.csv", "--out", "out"],
     "schedule template t.csv"),
    ({"t.csv": "flux_cm2_s,duration_s,gap_s\ninf,{duration},0\n"},
     ["sweep-fluence", "--template", "t.csv", "--out", "out"],
     "schedule template t.csv"),
    ({"t.csv": "flux_cm2_s,duration_s,gap_s\n8e11,{duration},-1\n"},
     ["sweep-fluence", "--template", "t.csv", "--out", "out"],
     "schedule template t.csv"),
    # a placeholder counts only in its own column
    ({"t.csv": "flux_cm2_s,duration_s,gap_s\n{pulses},1e-8,45\n"},
     ["sweep-fluence", "--template", "t.csv", "--out", "out"],
     "flux_cm2_s cell of schedule t.csv has invalid value '{pulses}'"),
    ({"t.csv": "flux_cm2_s,duration_s,gap_s,repeat\n"
               "7.9e18,1e-8,45,{duration}\n"},
     ["sweep-fluence", "--template", "t.csv", "--out", "out"],
     "repeat cell of schedule t.csv has invalid value '{duration}'"),
    ({"t.csv": CW_TEMPLATE,
      "d.ini": "[emitter]\nradiative_lifetime_ns = -1\n"},
     ["sweep-fluence", "--config", "d.ini", "--template", "t.csv", "--out",
      "out"], "radiative_lifetime_ns must be positive"),
    ({"k.ini": "[emitter]\nradiative_lifetime_ns = inf\n"}, DECAY,
     "radiative_lifetime_ns must be positive"),
    ({}, ["simulate-decay", "--config", ".", "--seed", "1", "--out", "out"],
     "config file ."),
    ({"k.ini": b"\xff[kinetics]\n"}, DECAY, "config parse error in k.ini"),
    ({"s.ini": "[elastic]\n[sampler]\nvacancy_density_cm3 = 1e21\n"
               "r_max_nm = 100\n"},
     [*SPECTRUM, "--mode", "defect-field"], "r_max_nm 100"),
    ({"t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e12,1e12",
      "--out", "out"], "--fluences"),
    ({"t.csv": CW_TEMPLATE},
     ["sweep-fluence", "--template", "t.csv", "--fluences",
      "1e12,1000000000000.0001220703125", "--out", "out"], "--fluences"),
    ({"d.csv": "fluence_cm2,intensity\n1e12,5\n1e12,7\n1e12,6\n"},
     ["fit", "--input", "d.csv", "--report", "r.csv"], "2 distinct fluences"),
    ({"e.ini": "[emitter]\nhomogeneous_fwhm_nm = 1.5e-4\n"},
     ["simulate-spectrum", "--config", "e.ini", "--seed", "1", "--samples",
      "200", "--out", "out"], "homogeneous_fwhm_nm"),
    # a row that cannot deliver fluence would take a share of every target
    # fluence and deliver none
    ({"t.csv": "flux_cm2_s,duration_s,gap_s\n8e11,10,0\n{flux},0,0\n"},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e13,1e14",
      "--out", "out"],
     "schedule template t.csv: the duration_s cell of a {flux} row is 0"),
    ({"t.csv": "flux_cm2_s,duration_s,gap_s\n8e11,10,0\n0,{duration},0\n"},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e13,1e14",
      "--out", "out"],
     "schedule template t.csv: the flux_cm2_s cell of a {duration} row is 0"),
    # the repeat cell of a placeholder row is parsed as a fixed row's is
    ({"t.csv": "flux_cm2_s,duration_s,gap_s,repeat\n1e12,{duration},5,abc\n"},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e13,1e14",
      "--out", "out"], "repeat cell of schedule t.csv has invalid value 'abc'"),
    # undecodable bytes and an over-long cell are input faults, not crashes
    ({"d.csv": b"time_ns,counts\n0,1.0\n1,\xff0.5\n2,0.25\n"},
     ["fit", "--input", "d.csv", "--report", "r.csv"],
     "cannot read CSV file d.csv"),
    ({"d.csv": "time_ns,counts\n0,1.0\n1," + "5" * 131073 + "\n2,0.25\n"},
     ["fit", "--input", "d.csv", "--report", "r.csv"],
     "cannot read CSV file d.csv: field larger than field limit"),
    ({"t.csv": b"flux_cm2_s,duration_s,gap_s\n8e11,{duration},\xff0\n"},
     ["sweep-fluence", "--template", "t.csv", "--fluences", "1e13,1e14",
      "--out", "out"], "cannot read CSV file t.csv"),
    ({"s.ini": "[response]\ntable = r.csv\n",
      "r.csv": b"axis,strain,shift_mev\nx,\xff0,0\n"},
     SPECTRUM, "r.csv"),
    # a run whose every draw is out of table range has nothing to histogram
    ({"s.ini": "[sampler]\nseparation_nm = 0.26\n"},
     [*SPECTRUM, "--mode", "defect-field"],
     "no samples retained: 200 of 200 raw draws were out of table range"),
    # k_B*T underflows to 0, and the Arrhenius factor would divide by it
    ({"s.ini": "[damage]\ntemperature_k = 5e-324\n", "t.csv": CW_TEMPLATE},
     [*SWEEP, "--fluences", "1e11,1e13"], "temperature_k"),
    # the squared line position overflows, and so would the cube of a
    # defect distance in the strain kernel and the shell volume
    ({"s.ini": "[emitter]\nzpl_wavelength_nm = 1e300\n"}, SPECTRUM,
     "zpl_wavelength_nm 1e+300 with homogeneous_fwhm_nm 0.073 and largest "
     "shift"),
    ({"s.ini": "[sampler]\nseparation_nm = 1e300\n"},
     [*SPECTRUM, "--mode", "defect-field"],
     "separation_nm 1e+300 is too large: its cube overflows a float"),
    ({"s.ini": "[sampler]\nr_max_nm = 1e300\nvacancy_density_cm3 = 1\n"},
     [*SPECTRUM, "--mode", "defect-field"],
     "r_max_nm 1e+300 is too large: its cube overflows a float"),
], ids=["repeat", "placeholder-flux", "fluences", "window-stop",
        "window-one-end", "window-no-stop", "window-no-start",
        "window-reversed", "bin-width-zero", "fit-ragged-row", "fwhm-nan",
        "fwhm-inf", "t-max-nan", "t-max-inf", "pump-nan", "pump-inf",
        "pump-overflow",
        "vacancy-density-nan", "bin-width-nan", "bin-width-inf",
        "bin-width-tiny", "vacancy-density-above-sites",
        "atomic-volume-nan", "xy-threshold-nan", "temperature-nan",
        "fluences-nan", "fluences-inf", "placeholder-flux-nan",
        "fluences-zero", "fluences-negative",
        "table-abc", "table-two-cells", "table-nan-strain", "fit-nan-time",
        "fit-power-law-nan", "n-points-one",
        "samples-negative", "samples-above-cap", "peaks-zero",
        "pulses-duration-inf", "duration-flux-inf",
        "gap-negative", "pulses-in-flux", "duration-in-repeat",
        "sweep-lifetime-negative", "decay-lifetime-inf",
        "config-is-directory", "config-not-utf8", "shell-too-large",
        "fluences-repeated", "fluences-equal-logs",
        "fit-power-law-one-fluence", "grid-too-large",
        "flux-zero-duration", "duration-zero-flux", "repeat-abc-duration-row",
        "fit-not-utf8", "fit-cell-too-long", "template-not-utf8",
        "table-not-utf8", "separation-all-rejected",
        "temperature-underflows-kt", "zpl-squared-overflows",
        "separation-cubed-overflows", "shell-cubed-overflows"])
def test_bad_user_value_is_usage_error(tmp_path, monkeypatch, capsys, files,
                                       argv, field):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        data = text if isinstance(text, bytes) else text.encode()
        (tmp_path / name).write_bytes(data)
    assert main(argv) == 2
    assert field in capsys.readouterr().err
    # nothing was written
    assert sorted(os.listdir(tmp_path)) == sorted(files)


@pytest.mark.parametrize("files", [
    {"t.csv": "flux_cm2_s,duration_s,gap_s\n1e300,{duration},0\n",
     "s.ini": ""},
    {"t.csv": CW_TEMPLATE, "s.ini": "[damage]\ntrap_clustering_exponent = "
                                    "400\nclustering_threshold_flux = 1\n"},
    {"t.csv": CW_TEMPLATE, "s.ini": "[damage]\nformation_enhancement_"
                                    "exponent = 400\nformation_enhancement_"
                                    "flux = 1\n"},
    # an overflowing coefficient times an Arrhenius factor of 0, or over a
    # suppression of inf, and the formation rate times the carbon density
    {"t.csv": CW_TEMPLATE, "s.ini": "[damage]\ndestruction_coefficient_cm2 "
                                    "= 1e300\ndestruction_activation_"
                                    "energy_ev = 1e300\n"},
    {"t.csv": CW_TEMPLATE, "s.ini": "[damage]\ndestruction_coefficient_cm2 "
                                    "= 1e300\ndestruction_suppression_flux "
                                    "= 5e-324\n"},
    {"t.csv": CW_TEMPLATE, "s.ini": "[damage]\ncarbon_areal_density_cm2 = "
                                    "1e300\nformation_coefficient_cm2 = 1\n"},
], ids=["flux-1e300", "trap-clustering-400", "formation-enhancement-400",
        "destruction-inf-times-zero", "destruction-inf-over-inf",
        "formation-times-carbon"])
def test_overflowing_damage_rates_are_numerical_errors(tmp_path, monkeypatch,
                                                       capsys, files):
    # rates that overflow a float would leave nan and inf densities; they
    # are refused without a RuntimeWarning on the way
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*SWEEP, "--fluences", "1e11,1e14"]) == 3
    assert "damage rates overflow at a flux of" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == sorted(files)


@pytest.mark.parametrize("rate", ["1e-300", "5e-324"])
@pytest.mark.parametrize("template", [CW_TEMPLATE, PULSED_TEMPLATE],
                         ids=["cw", "pulsed"])
def test_tiny_annealing_rate_is_lossless(tmp_path, monkeypatch, template,
                                         rate):
    # a loss below one rounding unit per run changes no density, so the
    # sweep is the one without annealing, where source / rate overflowed
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text(template)
    sweeps = []
    for value in (rate, "0"):
        (tmp_path / "s.ini").write_text(
            f"[damage]\ndynamic_annealing_rate_s = {value}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*SWEEP, "--fluences", "1e11,1e13"]) == 0
        sweeps.append((tmp_path / "out" / "sweep.csv").read_bytes())
    assert sweeps[0] == sweeps[1]


@pytest.mark.parametrize("section, key, value, argv, named", [
    ("sampler", "mode", "biased-z", SPECTRUM, "[sampler] mode"),
    ("sampler", "samples", "300", SPECTRUM, "[sampler] samples"),
    ("schedule", "template", "t.csv", SWEEP, "[schedule]"),
    ("schedule", "fluences", "1e11,1e12", SWEEP, "[schedule]"),
    ("output", "directory", "elsewhere", SPECTRUM, "[output]"),
], ids=["mode", "samples", "template", "fluences", "directory"])
def test_config_spelling_of_a_flag_is_refused(tmp_path, monkeypatch, capsys,
                                              section, key, value, argv,
                                              named):
    # a run input that is a flag has no config spelling
    monkeypatch.chdir(tmp_path)
    files = {"t.csv": CW_TEMPLATE, "s.ini": f"[{section}]\n{key} = {value}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == sorted(files)


def _fields(*classes):
    return {f.name for cls in classes for f in dataclasses.fields(cls)}


# the config keys each run reads, by section: the fields of the params
# classes it builds and the keys it reads itself
_SPECTRUM_READS = {"emitter": _fields(EmitterParams), "response": {"table"}}
_LIFETIME_READS = {"emitter": {"radiative_lifetime_ns"}}
RUN_READS = {
    "uniform": {**_SPECTRUM_READS,
                "sampler": _fields(UniformSpec) | {"bin_width_mev"}},
    "biased-z": {**_SPECTRUM_READS,
                 "sampler": _fields(BiasedZSpec) | {"bin_width_mev"}},
    "defect-field": {**_SPECTRUM_READS, "elastic": _fields(ElasticParams),
                     "sampler": _fields(SingleDefectSpec, DefectDensitySpec)
                     | {"bin_width_mev"}},
    "simulate-decay": {**_LIFETIME_READS,
                       "kinetics": set(cli._SCHEMA["kinetics"])},
    "sweep-fluence": {**_LIFETIME_READS, "kinetics": {"tau_r_ns"},
                      "damage": _fields(DamageParams)},
}
# one key of every section, or of the keys of a section, a run does not read
UNREAD = [(run, section, unread[0])
          for run, reads in RUN_READS.items()
          for section, keys in cli._SCHEMA.items()
          if (unread := [k for k in keys if k not in reads.get(section, ())])]
RUN_ARGV = {
    **{mode: ["simulate-spectrum", "--mode", mode, "--samples", "200",
              "--seed", "1"] for mode in ("uniform", "biased-z",
                                          "defect-field")},
    "simulate-decay": ["simulate-decay", "--seed", "1"],
    "sweep-fluence": ["sweep-fluence", "--template", "t.csv"],
}
TABLE = os.path.join(PKG_ROOT, "src", "defect_spectra", "data",
                     "default_response_table.csv")


@pytest.mark.parametrize("run, section, key", UNREAD,
                         ids=[f"{run}-{key}" for run, _, key in UNREAD])
def test_key_the_run_does_not_read_is_refused(tmp_path, monkeypatch, capsys,
                                              run, section, key):
    # a key that parses but that the run would drop exits 2, naming it,
    # before anything is sampled, integrated or written
    monkeypatch.chdir(tmp_path)
    value = {"table": TABLE, "defect_kind": "vacancy"}.get(
        key, {float: "1.0", int: "11"}.get(cli._SCHEMA[section][key]))
    files = {"t.csv": CW_TEMPLATE, "s.ini": f"[{section}]\n{key} = {value}\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = RUN_ARGV[run]
    assert main([*argv, "--config", "s.ini", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert f"[{section}] {key} = " in err
    assert (run if argv[0] == run else f"sampler mode {run}") in err
    assert sorted(os.listdir(tmp_path)) == sorted(files)


def test_no_flag_shadows_a_config_key():
    # a run input has one spelling: a flag or a config key, never both
    keys = {key for section in cli._SCHEMA.values() for key in section}
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    shadowed = [(command, action.dest)
                for command, parser in sub.choices.items()
                for action in parser._actions if action.dest in keys]
    assert shadowed == []


def test_table_past_the_strain_cap_is_refused_before_sampling(
        tmp_path, monkeypatch, capsys):
    # an interstitial at 0.3 nm strains up to 0.0707; with table nodes at
    # +-0.1 such a sample is in range yet over the cap, so the table is
    # refused at load and the range mask stays the only rejection path
    monkeypatch.chdir(tmp_path)
    rows = [f"{axis},{s:g},{-abs(s):g}" for axis in ("x", "z", "xy", "xz")
            for s in (-0.1, 0.0, 0.1)]
    files = {"r.csv": "axis,strain,shift_mev\n" + "\n".join(rows) + "\n",
             "s.ini": "[response]\ntable = r.csv\n[sampler]\n"
                      "defect_kind = interstitial\nseparation_nm = 0.3\n"}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    assert main([*SPECTRUM, "--mode", "defect-field", "--out", "out"]) == 2
    assert "r.csv, axis 'x': strain nodes span -0.1 to 0.1, beyond the " \
        "physical cap" in capsys.readouterr().err
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
    cfg.write_text("[response]\ntable = does_not_exist.csv\n")
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


@pytest.mark.parametrize("config", [
    "[emitter]\nradiative_lifetime_ns = 30.0\n",
    "[kinetics]\ntau_r_ns = 30.0\n",
    "[emitter]\nradiative_lifetime_ns = 30.0\n[kinetics]\ntau_r_ns = 30.0\n"])
def test_sweep_fluence_follows_radiative_lifetime(tmp_path, capsys, config):
    _, cw = write_templates(tmp_path)
    (tmp_path / "run.ini").write_text(config)
    fluences = (1e11, 1e13)
    for name, cfg in (("set", ["--config", str(tmp_path / "run.ini")]),
                      ("default", [])):
        assert main(["sweep-fluence", *cfg, "--template", str(cw),
                     "--fluences", "1e11,1e13",
                     "--out", str(tmp_path / name)]) == 0
    capsys.readouterr()
    rows = {name: np.loadtxt(tmp_path / name / "sweep.csv", delimiter=",",
                             skiprows=1) for name in ("set", "default")}
    for row, fluence in zip(rows["set"], fluences):
        history = integrate_damage(schedule_from_template(str(cw), fluence),
                                   DamageParams(tau_r_ns=30.0))
        assert row[3] == float(f"{history.tau_eff_ns[-1]:.10g}")
        assert row[4] == float(f"{history.n_g_cm2[-1] * history.qe[-1]:.10g}")
    assert np.all(rows["set"][:, 3] < rows["default"][:, 3])


def test_simulate_decay_follows_emitter_lifetime(tmp_path, capsys):
    (tmp_path / "run.ini").write_text(
        "[emitter]\nradiative_lifetime_ns = 30.0\n"
        "[kinetics]\ntrap_density_cm3 = 0\nt_max_ns = 300\nn_points = 12001\n")
    assert main(["simulate-decay", "--config", str(tmp_path / "run.ini"),
                 "--seed", "1", "--out", str(tmp_path / "dec")]) == 0
    capsys.readouterr()
    report = read_report(tmp_path / "dec" / "fit_report.csv")
    assert report["tau_ns"][0] == pytest.approx(30.0, rel=5e-3)


@pytest.mark.parametrize("argv", [
    ["simulate-decay", "--seed", "1"],
    ["sweep-fluence", "--template", "t.csv", "--fluences", "1e11,1e12"]])
def test_conflicting_lifetime_keys_are_usage_error(tmp_path, monkeypatch,
                                                   capsys, argv):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "t.csv").write_text(CW_TEMPLATE)
    (tmp_path / "run.ini").write_text("[emitter]\nradiative_lifetime_ns = 30\n"
                                      "[kinetics]\ntau_r_ns = 45\n")
    assert main([*argv, "--config", "run.ini", "--out", "out"]) == 2
    err = capsys.readouterr().err
    assert "[emitter] radiative_lifetime_ns = 30" in err
    assert "[kinetics] tau_r_ns = 45" in err
    assert not (tmp_path / "out").exists()


def test_sweep_fluence_needs_two_points(tmp_path):
    _, cw = write_templates(tmp_path)
    res = run_cli("sweep-fluence", "--template", str(cw), "--fluences",
                  "1e12", "--out", str(tmp_path / "x"))
    assert res.returncode == 2


def test_sweep_zero_flux_template_fit_fails(tmp_path):
    # a zero-flux {duration} row cannot deliver fluence and is refused; a
    # sweep whose intensities are all zero cannot be fitted, and the fit
    # runs before the first write; neither run leaves a file behind
    zero_flux = tmp_path / "zero.csv"
    zero_flux.write_text("flux_cm2_s,duration_s,gap_s\n0,{duration},0\n")
    _, cw = write_templates(tmp_path)
    no_carbon = tmp_path / "no_carbon.ini"
    no_carbon.write_text("[damage]\ncarbon_areal_density_cm2 = 0.0\n")
    for name, argv, code, message in (
            ("zero-flux", ["--template", str(zero_flux)], 2,
             "cannot deliver fluence"),
            ("no-carbon", ["--config", str(no_carbon), "--template", str(cw)],
             3, "power-law fit of the sweep failed")):
        out = tmp_path / name
        res = run_cli("sweep-fluence", *argv, "--fluences", "1e11,1e12",
                      "--out", str(out))
        assert res.returncode == code, (name, res.stderr)
        assert message in res.stderr
        assert not out.exists() or not any(out.iterdir()), name


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
    delivered = sum(s.fluence_cm2 for s in sched.segments)
    assert delivered == pytest.approx(1e16, rel=1e-12, abs=0)
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


def test_placeholder_row_keeps_its_repeat(tmp_path):
    template = tmp_path / "t.csv"
    for placeholder, cells in (("{duration}", "8e11,{duration},5,4"),
                               ("{flux}", "{flux},2.0,5,4")):
        template.write_text(f"flux_cm2_s,duration_s,gap_s,repeat\n{cells}\n")
        (run,) = schedule_from_template(str(template), 1e14).segments
        assert run.repeat == 4, placeholder
        assert run.gap_s == 5.0
        assert run.fluence_cm2 == pytest.approx(1e14, rel=1e-12, abs=0)
        # each copy delivers a quarter of the fluence
        assert run.flux_cm2_s * run.duration_s == pytest.approx(2.5e13,
                                                                rel=1e-12)


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


@pytest.mark.parametrize("header, flags, model", [
    ("time_ns,counts", ["--peaks", "4"], "exponential"),
    ("time_ns,counts", ["--model", "power-law", "--window", "1:2"],
     "power-law"),
    ("wavelength_nm,intensity", ["--window", "1:2"], "peaks"),
    ("fluence_cm2,intensity", ["--peaks", "1"], "power-law"),
])
def test_fit_refuses_flags_its_model_drops(tmp_path, capsys, header, flags,
                                           model):
    data = tmp_path / "in.csv"
    data.write_text(header + "\n" + "".join(
        f"{x},{2.0 * x ** 0.5}\n" for x in range(1, 9)))
    report = tmp_path / "rep.csv"
    assert main(["fit", "--input", str(data), "--report", str(report),
                 *flags]) == 2
    err = capsys.readouterr().err
    assert flags[-2] in err and f"{model} model" in err
    assert not report.exists()


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


# sha256 of sites.csv per --kind and of supercell.xyz, which no --kind
# changes, by --repeats
SITES_SHA256 = {
    ("vacancy", 1):
        "862bc601127a090be2e6f75e62c6c6fd31dbdc0791e88f637863502b77aa1da2",
    ("vacancy", 2):
        "7dde4e88b60455709fc11fa315340bc50bec319698409d8e3decf0cfc1fdd951",
    ("vacancy", 3):
        "14611222c1cef816ddf836c7065061f3cd28fe5aafdd1e65b2356026faee5733",
    ("interstitial-void", 1):
        "f4b4ee268c635c047f646c323ebe2278bfe83bfc54fd6fb8531f3fcd0203d796",
    ("interstitial-void", 2):
        "6686c3f86ad82ae794e9567352ee52d3ccec70740ade8039c74e4acb7c98d5fd",
    ("interstitial-void", 3):
        "3e5372df550094dfbfed2acf5f1abbf215e9cdb4f4dc9ab5fec9ddd67c529c2a",
    ("both", 1):
        "5c4bb2af429270cedec915d81900743a3807ef5ea318b9bc1ea646b3c6f2f907",
    ("both", 2):
        "e1ba71f961c94802549b5909fb73b162dcbd202557395fb35838dc84527652e8",
    ("both", 3):
        "c049b411a50e950d6f5ba31d6f580ee2d6a88f5785a31aa945c7a6371c99edc4",
}
XYZ_SHA256 = {
    1: "5f69ab9c3bc5cb688793aa5f7be5dfc0ae600e39b1a020964b2f830a8c3da26a",
    2: "9d2d7617c42597f5ef1e3ea55257ff772f1d00438cd763c9f107892e749a69ec",
    3: "cf3c32af99c9621c2b7dabbe3a112a12b07eec2ad321e42aa5316606825c57fb",
}


@pytest.mark.parametrize("kind, repeats", sorted(SITES_SHA256))
def test_enumerate_sites_bytes_are_pinned(tmp_path, kind, repeats):
    assert main(["enumerate-sites", "--kind", kind, "--repeats",
                 str(repeats), "--xyz", "--out", str(tmp_path)]) == 0
    digest = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
              for name in ("sites.csv", "supercell.xyz")}
    assert digest == {"sites.csv": SITES_SHA256[kind, repeats],
                      "supercell.xyz": XYZ_SHA256[repeats]}


_PIN_SPECTRUM = ["simulate-spectrum", "--samples", "300", "--seed", "1",
                 "--dump-samples", "--out", "{tmp}/out", "--mode"]
_PIN_DECAY = ["simulate-decay", "--seed", "1", "--out", "{tmp}/out"]
# the benchmark's second decay: traps that never saturate
_PIN_UNSATURATED = ["simulate-decay", "--config", "{tmp}/unsaturated.ini",
                    "--seed", "1", "--out", "{tmp}/out"]
# the input files of the pinned runs, written to {tmp}
PIN_INPUTS = {"t.csv": CW_TEMPLATE, "unsaturated.ini":
              "[kinetics]\ntrap_saturation_density_cm3 = inf\n"}
# each writing subcommand's runs ({tmp} is the test's directory, which
# holds PIN_INPUTS), the stdout they print, and the sha256 of each file
# they write to {tmp}/out
_SPECTRUM_OUT = (" samples (300 raw draws, 0 out of table range), "
                 "spectrum/histogram/svg written to {tmp}/out\n")
_DECAY_OUT = "decay: tau_eff 8.031 ns, qe 0.178, outputs in {tmp}/out\n"
_DECAY_SHA256 = {
    "fit_report.csv":
        "eff523b239d959cf5cd083d84ff7a5518ddc47c713be75091bfd5c5e06ff3b97",
    "trace.csv":
        "426727ab2c0c0f082b059209006fbb3a94b35ac54884dcce4c10ac2aedb75140",
    "trace.svg":
        "2092e7a3cb91396b34fc9e32e8c2e2af99d9ae95f3dab229e2a26ef98413d12e",
}
_UNSATURATED_OUT = "decay: tau_eff 7.683 ns, qe 0.171, outputs in {tmp}/out\n"
_UNSATURATED_SHA256 = {
    "fit_report.csv":
        "31eea0180bcbc071e9c1d38339d2f9c0266cbd7ca72f487e56866f6af1d546ec",
    "trace.csv":
        "bc7b4ba758fa015b545510ba0a5841f2b8d59d7374325a1802e6b07bcb139ccf",
    "trace.svg":
        "c4dd2595124fda986806e5c3a84db474c22548b4684b3cc8f67ca66b515a6dbe",
}
RUN_PINS = {
    "uniform": ([[*_PIN_SPECTRUM, "uniform"]],
                "uniform: 300" + _SPECTRUM_OUT, {
        "histogram.csv":
            "e821dd80b80a984b5a88d37a6fc7120bdeaa0fb99cc8b47a3034ccbb8372c40e",
        "samples.csv":
            "209d162a386d7df29d40f2d099be8ff8c33f596557ac86893fd8368ce307475b",
        "spectrum.csv":
            "f26bc7e52a648223667f0516b58f8fac9d26d74c13696f1ce98bfb551e41535c",
        "spectrum.svg":
            "ccbdffeaa7430367ad90e3aac77a0e0fb207186435a6149b42f6902b0f1f3566",
    }),
    "biased-z": ([[*_PIN_SPECTRUM, "biased-z"]],
                 "biased-z: 300" + _SPECTRUM_OUT.replace("300", "4096"), {
        "histogram.csv":
            "22b9e10ecb4e06693a85794f31247fbf8a5600d83a4249b391034f1d2d6238bd",
        "samples.csv":
            "ec18167706f6b59f3f1e0136fdc435a2192b906f2a27bf92a921d046f7c15fd5",
        "spectrum.csv":
            "04fcb2708b6e869d48de4477948e6bcac8311dd87fc66ed1683fcbacc9faf4a1",
        "spectrum.svg":
            "94c39ed6cf9018ed090a6d2eb7c921e0c9ceed2c8b23a07e6e4d3c32677bdd1c",
    }),
    "defect-field": ([[*_PIN_SPECTRUM, "defect-field"]],
                     "defect-field: 300" + _SPECTRUM_OUT, {
        "histogram.csv":
            "6112e9ef3e8026998f7e433239a07dd723bd32c62110001723639dff3b233c5b",
        "samples.csv":
            "28bfe278cf2f582bfe00241b935ea66a5204ccefde170c7f7da21a952805db8b",
        "spectrum.csv":
            "b2ebe6e90662f3022721091381be85ef3ba60bc730126f8055e9ded626fd1e55",
        "spectrum.svg":
            "d8dbd5fdb96703641d15f1ca9f832a09d3dcf94453fb22c0d72e5567723fa2fe",
    }),
    "decay": ([_PIN_DECAY], _DECAY_OUT, _DECAY_SHA256),
    "sweep": ([["sweep-fluence", "--template", "{tmp}/t.csv", "--fluences",
                "1e11,1e12", "--out", "{tmp}/out"]],
              "sweep: 2 fluences, exponent 0.757 +- 0.000, outputs in "
              "{tmp}/out\n", {
        "scaling_fit.csv":
            "e29063b838c43fe1edc960ca06fc95f346e1a2b3a494f69082d4147c0debf503",
        "sweep.csv":
            "91a8aa81f4c27cf5bf5debe4acca75c154120e61d2d2947e3bb0b95b9d7f09df",
        "sweep.svg":
            "7884b509563a7ef21a57a06c6996c817c2af3a3fb1945313541bc9731e2a2668",
    }),
    "fit": ([_PIN_DECAY, ["fit", "--input", "{tmp}/out/trace.csv",
                          "--report", "{tmp}/out/report.csv"]],
            _DECAY_OUT + "fit (exponential): tau = 8.031 ns; report written "
            "to {tmp}/out/report.csv\n", {
        **_DECAY_SHA256,
        "report.csv":
            "3c231d0c04eaa3d2d201b20ba10180b140c5a0aac388536f8690a3fda4b49a36",
    }),
    "decay-unsaturated": ([_PIN_UNSATURATED], _UNSATURATED_OUT,
                          _UNSATURATED_SHA256),
    "fit-window": ([_PIN_UNSATURATED,
                    ["fit", "--input", "{tmp}/out/trace.csv", "--window",
                     "20:90", "--report", "{tmp}/out/report.csv"]],
                   _UNSATURATED_OUT + "fit (exponential): tau = 7.563 ns; "
                   "report written to {tmp}/out/report.csv\n", {
        **_UNSATURATED_SHA256,
        "report.csv":
            "cf64e4d1873efa8f5f3afcae3a147a47a4ee3829bcfc80effbb91371ea4e4eae",
    }),
    # fit_peaks runs the exponential fit's variable-projection solver
    "fit-peaks": ([[*_PIN_SPECTRUM, "defect-field"],
                   ["fit", "--model", "peaks", "--peaks", "2", "--input",
                    "{tmp}/out/spectrum.csv", "--report",
                    "{tmp}/out/report.csv"]],
                  "defect-field: 300" + _SPECTRUM_OUT + "fit (peaks): "
                  "1278.4154 nm, 1279.0691 nm; report written to "
                  "{tmp}/out/report.csv\n", {
        "histogram.csv":
            "6112e9ef3e8026998f7e433239a07dd723bd32c62110001723639dff3b233c5b",
        "report.csv":
            "2918dcf00a6324d04ff3829389d64569b3f28ce73bae2dd70be766713dcdb379",
        "samples.csv":
            "28bfe278cf2f582bfe00241b935ea66a5204ccefde170c7f7da21a952805db8b",
        "spectrum.csv":
            "b2ebe6e90662f3022721091381be85ef3ba60bc730126f8055e9ded626fd1e55",
        "spectrum.svg":
            "d8dbd5fdb96703641d15f1ca9f832a09d3dcf94453fb22c0d72e5567723fa2fe",
    }),
}


@pytest.mark.parametrize("run", sorted(RUN_PINS))
def test_run_bytes_are_pinned(tmp_path, capsys, run):
    runs, stdout, sha256 = RUN_PINS[run]
    for name, text in PIN_INPUTS.items():
        (tmp_path / name).write_text(text)
    for argv in runs:
        assert main([a.replace("{tmp}", str(tmp_path)) for a in argv]) == 0
    out = tmp_path / "out"
    digest = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
              for name in sorted(os.listdir(out))}
    assert digest == sha256
    assert capsys.readouterr().out == stdout.replace("{tmp}", str(tmp_path))


def test_run_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the fits' least-squares solves run in OpenBLAS, whose thread count
    # moves the last bits of some stderrs; %.10g rounds them away, so the
    # pinned decay, spectrum and two-peak fit come out the same on one
    # thread and on two
    runs = RUN_PINS["decay"][0] + RUN_PINS["fit-peaks"][0]
    code = ("import sys; from defect_spectra import cli\n"
            f"for argv in {runs!r}:\n"
            "    argv = [a.replace('{tmp}', '.') for a in argv]\n"
            "    assert cli.main(argv) == 0\n")
    digests = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = dict(os.environ, PYTHONPATH=os.path.join(PKG_ROOT, "src"),
                   OPENBLAS_NUM_THREADS=threads)
        res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, env=env, cwd=tmp_path / threads)
        assert res.returncode == 0, res.stderr
        out = tmp_path / threads / "out"
        digests.append({name: hashlib.sha256((out / name).read_bytes())
                        .hexdigest() for name in sorted(os.listdir(out))})
    assert digests[0] == digests[1]
    assert digests[0] == {**RUN_PINS["decay"][2], **RUN_PINS["fit-peaks"][2]}


@pytest.mark.parametrize("name", ["report", "report.txt", "report.CSV"])
def test_fit_report_of_any_name_is_a_csv(tmp_path, name):
    assert main(["simulate-decay", "--seed", "1", "--out", str(tmp_path)]) == 0
    assert main(["fit", "--input", str(tmp_path / "trace.csv"),
                 "--report", str(tmp_path / name)]) == 0
    digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digest == RUN_PINS["fit"][2]["report.csv"]


def _csv_numbers_are_finite(directory):
    """Whether every cell of the CSVs in ``directory`` that parses as a
    number (names and headers do not) is finite, but for the documented
    ``tau_nr_ns`` of inf in a fit report."""
    for name in os.listdir(directory):
        if name.endswith(".csv"):
            with open(os.path.join(directory, name), newline="") as fh:
                rows = [row for row in csv.reader(fh)
                        if row[:2] != ["tau_nr_ns", "inf"]]
                for cell in (c for row in rows for c in row):
                    try:
                        if not np.isfinite(float(cell)):
                            return False
                    except ValueError:
                        pass
    return True


@pytest.mark.parametrize("n_sat, trace_sha256", [
    ("1e-300",
     "f4b5ed728a3e2a158a15349135a311e6d11fe54f0f18336c7dfc1775d5ff68f1"),
    ("5e-324",
     "46cf2c3eecff8c5d3d75e0b803cb5dd594342abad6bd3e86e2a464ebbeaab39d"),
])
def test_tiny_saturation_density_saturates_quietly(tmp_path, n_sat,
                                                    trace_sha256):
    # in units of the initial density, 1e-300 cm^-3 is subnormal and
    # 5e-324 underflows to 0: the traps are full after the first evaluation
    # or from the start, and filled / n_sat may neither overflow nor be 0/0
    (tmp_path / "k.ini").write_text(
        f"[kinetics]\ntrap_saturation_density_cm3 = {n_sat}\n")
    assert main(["simulate-decay", "--config", str(tmp_path / "k.ini"),
                 "--seed", "1", "--out", str(tmp_path / "out")]) == 0
    assert _csv_numbers_are_finite(tmp_path / "out")
    digest = hashlib.sha256((tmp_path / "out" / "trace.csv").read_bytes())
    assert digest.hexdigest() == trace_sha256


def _kinetics_extremes(key):
    """The values a [kinetics] key is drawn from: the ends of the float
    range and 1, with 0 where the key allows it and inf where the docs
    give it a meaning."""
    values = [5e-324, 1e-300, 1.0, 1e300]
    if key in ("g_center_density_cm3", "capture_coefficient_g_cm3_ns",
               "trap_density_cm3", "capture_coefficient_trap_cm3_ns",
               "pump_power_mw", "carrier_density_per_mw_cm3",
               "fit_window_start_ns"):
        values.append(0.0)
    if key == "trap_saturation_density_cm3":
        values.append(np.inf)
    return values


# the grid stays at 801 points over 20 ns, so each run takes milliseconds
_DRAWN_KINETICS_KEYS = sorted(set(cli._SCHEMA["kinetics"])
                              - {"t_max_ns", "n_points"})
_kinetics_configs = st.lists(st.sampled_from(_DRAWN_KINETICS_KEYS),
                             unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: st.sampled_from(_kinetics_extremes(key)) for key in keys}))


def _assert_exit_code_contract(argv, out):
    """Run ``argv`` in process: it runs (0), is refused (2) or fails in an
    integration or a fit (3); a run that does not finish writes nothing to
    ``out``, a finished one writes only finite numbers, and none warns."""
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("always")
        code = main(argv)
    assert [str(w.message) for w in caught] == []
    assert code in (0, 2, 3)
    if code == 0:
        assert _csv_numbers_are_finite(out)
    else:
        assert not os.path.exists(out)


@settings(max_examples=150, deadline=None)
@given(_kinetics_configs)
def test_simulate_decay_exit_code_contract(values):
    # any config of extreme [kinetics] values keeps the contract
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "k.ini")
        with open(config, "w") as fh:
            fh.write("[kinetics]\nt_max_ns = 20\nn_points = 801\n"
                     + "".join(f"{k} = {v!r}\n" for k, v in values.items()))
        out = os.path.join(tmp, "out")
        _assert_exit_code_contract(["simulate-decay", "--config", config,
                                    "--seed", "1", "--out", out], out)


def _damage_extremes(key):
    """The values a [damage] key is drawn from: the ends of the float range
    and 1, with 0 where the key allows it."""
    try:
        DamageParams(**{key: 0.0})
    except ValidationError:
        return [5e-324, 1e-300, 1.0, 1e300]
    return [5e-324, 1e-300, 1.0, 1e300, 0.0]


_damage_configs = st.lists(st.sampled_from(sorted(cli._SCHEMA["damage"])),
                           unique=True).flatmap(
    lambda keys: st.fixed_dictionaries(
        {key: st.sampled_from(_damage_extremes(key)) for key in keys}))


@settings(max_examples=150, deadline=None)
@given(_damage_configs, st.sampled_from([CW_TEMPLATE, PULSED_TEMPLATE]))
def test_sweep_fluence_exit_code_contract(values, template):
    # any config of extreme [damage] values, on a cw or a pulsed template
    # (1e3 and 1e5 pulses), keeps the contract
    with tempfile.TemporaryDirectory() as tmp:
        config, schedule = (os.path.join(tmp, name)
                            for name in ("d.ini", "t.csv"))
        with open(config, "w") as fh:
            fh.write("[damage]\n" + "".join(f"{k} = {v!r}\n"
                                             for k, v in values.items()))
        with open(schedule, "w") as fh:
            fh.write(template)
        out = os.path.join(tmp, "out")
        _assert_exit_code_contract(
            ["sweep-fluence", "--config", config, "--template", schedule,
             "--fluences", "1e11,1e13", "--out", out], out)


_FIT_SHAPES = {
    "decay": lambda i, n: np.exp(-i / 8.0),
    "lorentzian": lambda i, n: 1.0 / (1.0 + ((i - n / 2) / 3.0) ** 2),
    "power-law": lambda i, n: np.sqrt(i + 1.0),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(cli._FIT_HEADERS)), st.integers(10, 40),
       st.sampled_from([5e-324, 1e-300, 1.0, 1e300]),
       st.sampled_from(sorted(_FIT_SHAPES)),
       st.sampled_from([5e-324, 1e-300, 1.0, 1e300, 0.0, -1.0]))
def test_fit_exit_code_contract(header, n_rows, spacing, shape, scale):
    # any of the three inputs, on x at an extreme spacing, holding a decay,
    # a line or a power law at an extreme scale, keeps the contract
    i = np.arange(n_rows)
    x, y = spacing * (i + 1.0), scale * _FIT_SHAPES[shape](i, n_rows)
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "d.csv")
        with open(data, "w") as fh:
            fh.write(",".join(header) + "\n" + "".join(
                f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
        out = os.path.join(tmp, "out")
        _assert_exit_code_contract(
            ["fit", "--input", data, "--report",
             os.path.join(out, "report.csv")], out)


_SPECTRUM_SPECS = {"uniform": (UniformSpec,), "biased-z": (BiasedZSpec,),
                   "defect-field": (SingleDefectSpec, DefectDensitySpec)}


def _spectrum_keys(mode):
    """The [emitter] keys, and the [sampler] keys that ``mode`` reads."""
    fields = {f.name for cls in _SPECTRUM_SPECS[mode]
              for f in dataclasses.fields(cls)} | {"bin_width_mev"}
    return ([("emitter", key) for key in cli._SCHEMA["emitter"]]
            + [("sampler", key) for key in cli._SCHEMA["sampler"]
               if key in fields])


def _spectrum_extremes(mode, section, key):
    """The values a key of ``mode`` is drawn from: the ends of the float
    range and 1, negated too for a strain bound, with 0 where the key
    allows it; a defect kind is one of the two kinds."""
    if key == "defect_kind":
        return ["vacancy", "interstitial"]
    values = [5e-324, 1e-300, 1.0, 1e300]
    if key.startswith("strain_"):
        values += [-v for v in values]
    classes = (EmitterParams,) if section == "emitter" else \
        _SPECTRUM_SPECS[mode]
    for cls in classes:
        if key in {f.name for f in dataclasses.fields(cls)}:
            try:
                cls(**{key: 0.0})
            except ValidationError:
                continue
            return values + [0.0]
    return values


_spectrum_runs = st.sampled_from(sorted(_SPECTRUM_SPECS)).flatmap(
    lambda mode: st.tuples(st.just(mode), st.lists(
        st.sampled_from(_spectrum_keys(mode)), unique=True).flatmap(
        lambda keys: st.fixed_dictionaries(
            {key: st.sampled_from(_spectrum_extremes(mode, *key))
             for key in keys}))))


@settings(max_examples=150, deadline=None)
@given(_spectrum_runs)
def test_simulate_spectrum_exit_code_contract(run):
    # any config of extreme [emitter] and [sampler] values, in any mode,
    # keeps the contract
    mode, values = run
    with tempfile.TemporaryDirectory() as tmp:
        config = os.path.join(tmp, "s.ini")
        with open(config, "w") as fh:
            for section in ("emitter", "sampler"):
                fh.write(f"[{section}]\n" + "".join(
                    f"{key} = {value}\n"
                    for (s, key), value in values.items() if s == section))
        out = os.path.join(tmp, "out")
        _assert_exit_code_contract(
            ["simulate-spectrum", "--mode", mode, "--samples", "200",
             "--seed", "1", "--config", config, "--out", out,
             "--dump-samples"], out)


@pytest.mark.parametrize("sign, n_peaks, message", [
    (1.0, 2, "only 1 of 2 requested peaks stand above the wing baseline"),
    (-1.0, 1, "only 0 of 1 requested peaks stand above the wing baseline"),
], ids=["one-line-two-peaks", "dip"])
def test_missing_peaks_are_numerical_errors(tmp_path, capsys, sign, n_peaks,
                                            message):
    # a noise-free line of FWHM 0.02 nm asked for two peaks, or the same
    # line upside down: no start is left to fit, so the run exits 3 without
    # a warning and writes nothing; the dip's highest sample, at the grid's
    # end, stands only 1e-5 above the wing median
    x = np.arange(1277.5, 1279.5, 0.002)
    y = sign / (1.0 + ((x - 1278.5) / 0.01) ** 2)
    data = tmp_path / "line.csv"
    data.write_text("wavelength_nm,intensity\n" + "".join(
        f"{a!r},{b!r}\n" for a, b in zip(x.tolist(), y.tolist())))
    report = tmp_path / "out" / "report.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["fit", "--input", str(data), "--model", "peaks",
                     "--peaks", str(n_peaks), "--report", str(report)])
    assert code == 3
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not report.parent.exists()


def test_subcommands_neither_write_nor_print():
    # main writes a run's files and then prints its summary, so every
    # computation of a run ends before its first write
    calls = [(fn.name, node.func.id)
             for fn in ast.parse(inspect.getsource(cli)).body
             if isinstance(fn, ast.FunctionDef) and fn.name.startswith("cmd_")
             for node in ast.walk(fn)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
             and node.func.id in ("write_csv", "write_atomic", "print")]
    assert calls == []


def test_failed_write_keeps_only_the_complete_files_before_it(tmp_path,
                                                              capsys):
    # histogram.csv, the second file of the run, cannot replace a directory
    (tmp_path / "histogram.csv").mkdir()
    assert main(["simulate-spectrum", "--samples", "300", "--seed", "1",
                 "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert "histogram.csv" in captured.err
    assert captured.out == ""
    assert sorted(os.listdir(tmp_path)) == ["histogram.csv", "spectrum.csv"]
    assert os.listdir(tmp_path / "histogram.csv") == []
    digest = hashlib.sha256((tmp_path / "spectrum.csv").read_bytes())
    assert digest.hexdigest() == RUN_PINS["uniform"][2]["spectrum.csv"]


def test_enumerate_sites_memory(tmp_path):
    # 96k sites and 64k atoms: an expanded kind column or the XYZ file
    # held as one string would each take megabytes
    argv = ["enumerate-sites", "--repeats", "20", "--xyz",
            "--out", str(tmp_path)]
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


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
    # finite inputs whose result overflows
    (["--shift-mev", "1e308"],
     "--shift-mev 1e+308 gives a non-finite shift_nm"),
    (["--shift-nm", "1e308"],
     "--shift-nm 1e+308 gives a non-finite shift_mev"),
    (["--wavelength-nm", "1e-320"],
     "--wavelength-nm 1e-320 gives a non-finite energy_ev"),
    (["--energy-ev", "1e-320"],
     "--energy-ev 1e-320 gives a non-finite wavelength_nm"),
    (["--shift-mev", "1", "--reference-nm", "1e200"],
     "--shift-mev 1.0 at --reference-nm 1e+200 gives a non-finite shift_nm"),
], ids=["wavelength-nan", "wavelength-inf", "energy-nan", "energy-inf",
        "energy-zero", "energy-negative", "shift-mev-nan", "shift-nm-inf",
        "reference-inf", "shift-mev-overflow", "shift-nm-overflow",
        "wavelength-subnormal", "energy-subnormal", "reference-overflow"])
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


@pytest.mark.parametrize("argv, message", [
    (["--shift-mev", "1", "--reference-nm=-5"],
     "--reference-nm must be positive, got -5"),
    (["--shift-nm", "1", "--reference-nm", "0"],
     "--reference-nm must be positive, got 0"),
    (["--wavelength-nm", "1000", "--reference-nm=-5"],
     "--reference-nm applies to --shift-mev and --shift-nm only, not to "
     "--wavelength-nm"),
    (["--energy-ev", "1", "--reference-nm", "1278.3"],
     "--reference-nm applies to --shift-mev and --shift-nm only, not to "
     "--energy-ev"),
], ids=["shift-mev-negative", "shift-nm-zero", "wavelength", "energy"])
def test_convert_reference_is_checked_under_its_flag(argv, message, capsys):
    # the reference is refused by its flag's name, and wherever the
    # conversion would drop it
    assert main(["convert", *argv]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_convert_reference_defaults_to_the_zpl(capsys):
    printed = []
    for extra in ([], ["--reference-nm", "1278.3"]):
        assert main(["convert", "--shift-mev", "1", *extra]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1] == "shift_nm = -1.317950908\n"
