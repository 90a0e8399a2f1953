"""Command-line entry points, exit codes, and byte-level reproducibility."""

from __future__ import annotations

import csv
import importlib.metadata
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spinsqueeze.cli as cli
from spinsqueeze import build_config, sweep
from spinsqueeze.config import DEFAULTS
from spinsqueeze.exceptions import StabilityError


def run_cli(*args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "spinsqueeze", *args],
        capture_output=True,
        text=True,
        **kwargs,
    )


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_rates_command_reports_scalars():
    proc = run_cli("rates")
    assert proc.returncode == 0
    rows = parse_csv(proc.stdout)
    assert len(rows) == 1
    row = rows[0]
    assert float(row["r0"]) == pytest.approx(0.9801980198019802, rel=1e-14)
    assert float(row["delta_prime_over_gamma0"]) == pytest.approx(
        1.6739993426e-4, rel=1e-8
    )
    assert row["valid_all"] == "true"


def test_console_script_matches_module_invocation():
    # Run the entry point that pyproject.toml declares through the same
    # code that pip writes into the installed wrapper script, so the
    # check needs no install.
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    entry = importlib.metadata.EntryPoint(
        name="spinsqueeze", value=scripts["spinsqueeze"], group="console_scripts"
    )
    wrapper = (
        f"import sys\nfrom {entry.module} import {entry.attr}\n"
        f"sys.argv[0] = {entry.name!r}\nsys.exit({entry.attr}())\n"
    )
    via_script = subprocess.run(
        [sys.executable, "-c", wrapper, "rates"], capture_output=True, text=True
    )
    via_module = run_cli("rates")
    assert via_script.returncode == 0, via_script.stderr
    assert via_script.stdout == via_module.stdout


@pytest.mark.skipif(
    shutil.which("spinsqueeze") is None, reason="console script not installed"
)
def test_installed_console_script_matches_module_invocation():
    via_script = subprocess.run(
        [shutil.which("spinsqueeze"), "rates"], capture_output=True, text=True
    )
    via_module = run_cli("rates")
    assert via_script.returncode == 0
    assert via_script.stdout == via_module.stdout


def test_analytic_command_json_output():
    proc = run_cli(
        "analytic",
        "--set", "input.n_photons=1",
        "--format", "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["xi2_analytic"] == pytest.approx(
        0.18797737277353632, rel=1e-13
    )


def test_numeric_command_agrees_with_analytic():
    proc = run_cli(
        "numeric",
        "--set", "geometry.n_layers=4",
        "--set", "input.n_photons=1,10",
        "--set", "kernel.include_evanescent=false",
    )
    assert proc.returncode == 0
    for row in parse_csv(proc.stdout):
        assert row["xi2_analytic"] == ""
        assert float(row["xi2_numeric"]) > 0.0


def test_config_file_and_set_precedence(tmp_path):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(
        "geometry.n_layers = 4\ninput.n_photons = 1\nmodel = analytic\n",
        encoding="utf-8",
    )
    base = run_cli("sweep", "--config", str(cfg))
    assert base.returncode == 0
    overridden = run_cli(
        "sweep", "--config", str(cfg), "--set", "input.n_photons=2"
    )
    assert overridden.returncode == 0
    assert float(parse_csv(base.stdout)[0]["n_photons"]) == 1.0
    assert float(parse_csv(overridden.stdout)[0]["n_photons"]) == 2.0


def test_unknown_key_is_a_config_error():
    proc = run_cli("sweep", "--set", "nonsense=1")
    assert proc.returncode == 2
    assert "nonsense" in proc.stderr


def test_bad_config_file_reports_line(tmp_path):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("model = both\nwhat is this\n", encoding="utf-8")
    proc = run_cli("sweep", "--config", str(cfg))
    assert proc.returncode == 2
    assert ":2" in proc.stderr


def test_all_points_failing_exits_three(monkeypatch, capsys):
    def diverge(*args):
        raise StabilityError("synthetic divergence")

    monkeypatch.setattr(sweep, "simulate_xi2", diverge)
    code = cli.main([
        "mc-check",
        "--set", "input.n_photons=1,2",
        "--set", "geometry.n_layers=2",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "every grid point failed" in captured.err
    # The table still lands on stdout with the error column filled in.
    rows = parse_csv(captured.out)
    assert len(rows) == 2
    assert all(row["error"].startswith("StabilityError") for row in rows)
    assert all(row["xi2_numeric"] != "" for row in rows)


@pytest.mark.parametrize(
    "command, override, prefix",
    [
        (
            "sweep",
            "rates.gamma_s_over_gamma0=0",
            "StabilityError: drift matrix not strictly stable",
        ),
        (
            "numeric",
            "kernel.max_order=2",
            "ConvergenceError: evanescent sum for separation 1",
        ),
    ],
)
def test_drift_errors_fill_the_error_column(capsys, command, override, prefix):
    # Building the drift matrix fails for every row, but the closed-form
    # columns do not need it: the table is written, not aborted.
    code = cli.main([
        command, "--set", override, "--set", "input.n_photons=1,10",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "every grid point failed" in captured.err
    rows = parse_csv(captured.out)
    assert [row["n_photons"] for row in rows] == ["1", "10"]
    for row in rows:
        assert row["error"].startswith(prefix)
        assert row["alpha_eff"] == "1"
        assert float(row["xi2_field"]) < 1.0
        assert row["xi2_numeric"] == ""
        if command == "sweep":
            assert float(row["xi2_analytic"]) < 1.0


def test_unresolvable_detuning_fills_every_row(capsys):
    # The delta-prime-corrected detuning needs the evanescent sum.  When
    # it does not converge, every row carries the error and keeps the
    # columns that do not depend on the detuning.
    code = cli.main([
        "sweep",
        "--set", "detuning.mode=delta-prime-corrected",
        "--set", "kernel.max_order=2",
        "--set", "input.n_photons=1,10",
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "every grid point failed" in captured.err
    rows = parse_csv(captured.out)
    assert [row["n_photons"] for row in rows] == ["1", "10"]
    kept = ["purity", "r0", "xi2_field", "n_eff"]
    kept += [column for column in sweep.SWEEP_COLUMNS if column.startswith("valid_")]
    for row in rows:
        assert row["error"].startswith(
            "ConvergenceError: evanescent sum for separation 1"
        )
        assert all(row[column] != "" for column in kept)
        assert row["eff_detuning"] == row["xi2_analytic"] == row["xi2_numeric"] == ""


@pytest.mark.parametrize(
    "line", ["mc.method = euler", "input.alpha_override = 0.9"]
)
def test_retired_config_keys_are_rejected(tmp_path, line):
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    proc = run_cli("sweep", "--config", str(cfg))
    assert proc.returncode == 2
    assert "unknown key" in proc.stderr


def test_tol_flag_is_gone():
    proc = run_cli("analytic", "--tol", "1e-10")
    assert proc.returncode == 2
    assert "--tol" in proc.stderr


def test_partial_failure_warns_but_succeeds(monkeypatch, capsys):
    rows = [
        {"n_photons": 1.0, "error": ""},
        {"n_photons": 2.0, "error": "DomainError: synthetic"},
    ]
    monkeypatch.setattr(cli, "run_sweep", lambda config: rows)
    code = cli.main(["sweep", "--set", "input.n_photons=1,2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "1 of 2 grid points failed" in captured.err


def test_sweep_rerun_is_byte_identical():
    args = (
        "sweep",
        "--set", "model=mc-check",
        "--set", "input.n_photons=0.5,1",
        "--set", "geometry.n_layers=2",
        "--set", "mc.n_traj=8",
        "--set", "mc.t_burn=10",
        "--set", "mc.t_avg=40",
        "--set", "mc.dt=0.25",
        "--seed", "12",
    )
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert float(parse_csv(first.stdout)[0]["mc_stderr"]) > 0.0


def test_out_file_writing(tmp_path):
    target = tmp_path / "table.csv"
    proc = run_cli(
        "analytic", "--set", "input.n_photons=1", "--out", str(target)
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    content = target.read_bytes()
    assert content.startswith(b"n_photons,")
    assert b"\r\n" in content


@pytest.mark.parametrize(
    "command, value", [("sweep", "inf"), ("sweep", "nan"), ("mc-check", "inf")]
)
def test_non_finite_photon_numbers_are_config_errors(capsys, command, value):
    code = cli.main([command, "--set", f"input.n_photons={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert "'input.n_photons': grid values must be finite" in captured.err
    assert captured.out == ""


def test_fig_commands_honour_the_output_config(tmp_path, capsys):
    code = cli.main([
        "fig3a", "--set", "output.format=json", "--out", str(tmp_path / "set"),
    ])
    assert code == 0
    assert len(json.loads((tmp_path / "set" / "fig3a.json").read_text())["rows"]) == 50
    cfg = tmp_path / "fig.cfg"
    cfg.write_text(
        f"output.format = json\noutput.path = {tmp_path / 'file'}\n", encoding="utf-8"
    )
    assert cli.main(["fig4", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out.split() == [
        str(tmp_path / "set" / "fig3a.json"),
        str(tmp_path / "set" / "fig3a_summary.json"),
        str(tmp_path / "file" / "fig4.json"),
        str(tmp_path / "file" / "fig4_summary.json"),
    ]
    assert json.loads((tmp_path / "file" / "fig4.json").read_text())["rows"]


@pytest.mark.parametrize("figure_id", ["fig3a", "fig3b", "fig4"])
def test_fig_command_builds_its_config_once(figure_id, monkeypatch, tmp_path):
    calls = []
    build = cli.build_config

    def counted(overrides=None):
        calls.append(overrides)
        return build(overrides)

    # One counter behind both bindings: the CLI's and the presets' own.
    monkeypatch.setattr(cli, "build_config", counted)
    monkeypatch.setattr(sweep, "build_config", counted)
    grid = [] if figure_id == "fig3b" else ["--set", "input.n_photons=1"]
    assert cli.main([figure_id, *grid, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert calls[0]["output.path"] == str(tmp_path)
    preset = sweep.PRESETS[figure_id].keys
    assert calls[0]["geometry.lattice_const"] == preset["geometry.lattice_const"]


def test_caller_keys_override_preset_keys(tmp_path):
    code = cli.main(["fig4", "--set", "input.n_photons=1,10", "--out", str(tmp_path)])
    assert code == 0
    rows = parse_csv((tmp_path / "fig4.csv").read_text())
    assert [float(row["n_photons"]) for row in rows] == [1.0, 10.0]


@pytest.mark.parametrize("line", ["rates.gamma_s = 0.05", "beam.waist = 50"])
@pytest.mark.parametrize("source", ["file", "set"])
def test_alternative_key_replaces_the_default(tmp_path, capsys, source, line):
    key, _, value = (part.strip() for part in line.partition("="))
    if source == "file":
        cfg = tmp_path / "alt.cfg"
        cfg.write_text(line + "\n", encoding="utf-8")
        argv = ["rates", "--config", str(cfg)]
    else:
        argv = ["rates", "--set", f"{key}={value}"]
    assert cli.main(argv) == 0
    row = parse_csv(capsys.readouterr().out)[0]
    expected = build_config({key: value}).rates()
    assert float(row["gamma_s"]) == expected.gamma_s
    assert float(row["eta"]) == expected.eta
    # Setting its alternative as well is still refused.
    other = {"rates.gamma_s": "rates.gamma_s_over_gamma0", "beam.waist": "beam.eta"}
    assert cli.main([*argv, "--set", f"{other[key]}=0.5"]) == 2
    assert "not both" in capsys.readouterr().err


@pytest.mark.parametrize("figure_id", ["fig3a", "fig3b", "fig4"])
@pytest.mark.parametrize("source", ["file", "set"])
def test_keys_a_preset_varies_are_refused(tmp_path, capsys, figure_id, source):
    # Refused by name, even at its default value.
    key = sweep.PRESETS[figure_id].varies[-1]
    if source == "file":
        cfg = tmp_path / "fig.cfg"
        cfg.write_text(f"{key} = {DEFAULTS[key]}\n", encoding="utf-8")
        argv = ["--config", str(cfg)]
    else:
        argv = ["--set", f"{key}={DEFAULTS[key]}"]
    out = tmp_path / "out"
    assert cli.main([figure_id, *argv, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == (
        f"config error: set by the {figure_id} preset itself, not by the "
        f"config: {key!r}\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("value", ["1.5", "1.0"])
def test_lattice_const_of_a_wavelength_is_a_config_error(capsys, value):
    code = cli.main(["rates", "--set", f"geometry.lattice_const={value}"])
    assert code == 2
    assert capsys.readouterr().err == (
        "config error: geometry: lattice_const must be below one wavelength "
        f"for a single-mode layer, got {value}\n"
    )


def test_unwritable_output_is_a_config_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.csv"
    assert cli.main(["analytic", "--out", str(missing)]) == 2
    assert capsys.readouterr().err == (
        f"config error: cannot write {str(missing)!r}: No such file or directory\n"
    )
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert cli.main(["fig3a", "--out", str(taken)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"config error: cannot write {str(taken)!r}: File exists\n"
    assert captured.out == ""


def test_fig_commands_validate_their_config(tmp_path, capsys):
    code = cli.main([
        "fig3a", "--set", "output.format=xml", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "'output.format'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_fig_command_fails_when_every_row_fails(tmp_path, capsys):
    code = cli.main(["fig3b", "--set", "kernel.max_order=2", "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 3
    assert "every grid point failed" in captured.err
    rows = parse_csv((tmp_path / "fig3b.csv").read_text())
    assert len(rows) == 100
    assert all(row["error"].startswith("ConvergenceError") for row in rows)


def test_fig_preset_writes_files(tmp_path):
    proc = run_cli("fig4", "--out", str(tmp_path))
    assert proc.returncode == 0
    written = [line for line in proc.stdout.splitlines() if line]
    assert len(written) == 2
    table = tmp_path / "fig4.csv"
    summary = tmp_path / "fig4_summary.json"
    assert table.exists() and summary.exists()
    data = json.loads(summary.read_text())
    assert data["lattice_const"] == 0.95
