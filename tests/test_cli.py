"""Command-line entry points, exit codes, and byte-level reproducibility."""

from __future__ import annotations

import csv
import importlib.metadata
import io
import json
import shutil
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import spinsqueeze.cli as cli
from spinsqueeze import build_config, sweep
from spinsqueeze.config import DEFAULTS
from spinsqueeze.exceptions import StabilityError


def run_module(*args, text=True):
    """``python -m spinsqueeze`` in a fresh interpreter."""
    return subprocess.run(
        [sys.executable, "-m", "spinsqueeze", *args], capture_output=True, text=text
    )


def run_cli(capsys, *args):
    """``cli.main`` in this process: its exit code, stdout and stderr."""
    try:
        code = cli.main(list(args))
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_rates_command_reports_scalars(capsys):
    code, out, _ = run_cli(capsys, "rates")
    assert code == 0
    rows = parse_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert float(row["r0"]) == pytest.approx(0.9801980198019802, rel=1e-14)
    assert float(row["delta_prime_over_gamma0"]) == pytest.approx(
        1.6739993426e-4, rel=1e-8
    )
    assert row["valid_all"] == "true"


@pytest.mark.parametrize("geometry", [[], ["--set", "geometry.n_side=5"]])
@pytest.mark.parametrize("grid, linear", [("1,1e9", "true"), ("1e9,1e10", "false")])
def test_rates_row_and_sweep_agree_on_every_validity_flag(
    capsys, geometry, grid, linear
):
    # rates reads the flags at the grid's first N: below n_eff (315,958 at
    # the defaults, 197 at n_side=5) in one grid, above it in the other.
    # At n_side=5 valid_all also takes in a failing geometric flag.
    args = [*geometry, "--set", f"input.n_photons={grid}"]
    (code, rates_out, _), (_, sweep_out, _) = (
        run_cli(capsys, command, *args) for command in ("rates", "sweep")
    )
    assert code == 0
    (row,), first = parse_csv(rates_out), parse_csv(sweep_out)[0]
    flags = [key for key in first if key.startswith("valid_")]
    assert len(flags) == 6
    assert {key: row[key] for key in flags} == {key: first[key] for key in flags}
    assert row["valid_linearization"] == linear
    assert row["valid_all"] == ("false" if geometry else linear)


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
    via_module = run_module("rates")
    assert via_script.returncode == 0, via_script.stderr
    assert via_script.stdout == via_module.stdout


@pytest.mark.skipif(
    shutil.which("spinsqueeze") is None, reason="console script not installed"
)
def test_installed_console_script_matches_module_invocation():
    via_script = subprocess.run(
        [shutil.which("spinsqueeze"), "rates"], capture_output=True, text=True
    )
    via_module = run_module("rates")
    assert via_script.returncode == 0
    assert via_script.stdout == via_module.stdout


def test_analytic_command_json_output(capsys):
    code, out, _ = run_cli(
        capsys,
        "analytic",
        "--set", "input.n_photons=1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["xi2_analytic"] == pytest.approx(
        0.18797737277353632, rel=1e-13
    )


def test_numeric_command_agrees_with_analytic(capsys):
    code, out, _ = run_cli(
        capsys,
        "numeric",
        "--set", "geometry.n_layers=4",
        "--set", "input.n_photons=1,10",
        "--set", "kernel.include_evanescent=false",
    )
    assert code == 0
    for row in parse_csv(out):
        assert row["xi2_analytic"] == ""
        assert float(row["xi2_numeric"]) > 0.0


def test_config_file_and_set_precedence(tmp_path, capsys):
    cfg = tmp_path / "experiment.cfg"
    cfg.write_text(
        "geometry.n_layers = 4\ninput.n_photons = 1\nmodel = analytic\n",
        encoding="utf-8",
    )
    base_code, base_out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert base_code == 0
    code, out, _ = run_cli(
        capsys, "sweep", "--config", str(cfg), "--set", "input.n_photons=2"
    )
    assert code == 0
    assert float(parse_csv(base_out)[0]["n_photons"]) == 1.0
    assert float(parse_csv(out)[0]["n_photons"]) == 2.0


def test_unknown_key_is_a_config_error(capsys):
    code, _, err = run_cli(capsys, "sweep", "--set", "nonsense=1")
    assert code == 2
    assert "nonsense" in err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("foo", "config error: --set expects KEY=VALUE, got 'foo'"),
        (
            "kernel.include_evanescent=maybe",
            "config error: key 'kernel.include_evanescent': expected true/false, "
            "got 'maybe'",
        ),
    ],
)
def test_malformed_set_is_a_config_error(capsys, setting, message):
    code, out, err = run_cli(capsys, "numeric", "--set", setting)
    assert code == 2
    assert out == ""
    assert err.strip() == message


def test_workers_flag_runs_threads_and_writes_the_same_bytes(capsys, monkeypatch):
    pools = []
    real_pool = sweep.ThreadPoolExecutor

    def pool(max_workers):
        pools.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", pool)
    args = (
        "mc-check", "--set", "input.n_photons=0.1,1,10", "--set", "mc.n_traj=4",
        "--set", "mc.t_burn=1", "--set", "mc.t_avg=10", "--seed", "3",
    )
    serial, threaded = (run_cli(capsys, *args, "--workers", w) for w in ("1", "2"))
    assert serial == threaded
    assert serial[0] == 0 and len(parse_csv(serial[1])) == 3
    assert pools == [2]


def test_per_point_seeds_wrap_below_two_to_the_63(capsys, monkeypatch):
    # Point i runs on (seed + 1000003 i) mod 2^63, so the largest seed the
    # config takes still gives every point a valid stream.
    seeds = []

    def record(drift, diff, geom, params):
        seeds.append(params.seed)
        return 1.0, 0.1

    monkeypatch.setattr(sweep, "simulate_xi2", record)
    code, out, _ = run_cli(
        capsys, "mc-check", "--set", "seed=9223372036854775807",
        "--set", "input.n_photons=1,2,3", "--set", "geometry.n_layers=2",
    )
    assert code == 0
    assert [row["error"] for row in parse_csv(out)] == [""] * 3
    assert seeds == [9223372036854775807, 1000002, 2000005]


def test_bad_config_file_reports_line(tmp_path, capsys):
    cfg = tmp_path / "broken.cfg"
    cfg.write_text("model = both\nwhat is this\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert ":2" in err


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
            "geometry.layer_spacing=0.1",
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
        "--set", "geometry.layer_spacing=0.1",
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


def test_no_collective_shift_without_the_evanescent_part(capsys):
    # delta' is the shift that the evanescent coupling gives the
    # phase-matched mode.  With that coupling off there is no shift, and
    # the corrected drive is the resonant one.
    args = ["--set", "kernel.include_evanescent=false",
            "--set", "geometry.lattice_const=0.95"]
    code, out, _ = run_cli(capsys, "rates", *args)
    assert code == 0
    assert float(parse_csv(out)[0]["delta_prime"]) == 0.0
    resonant, corrected = (
        run_cli(capsys, "sweep", *args, "--set", f"detuning.mode={mode}",
                "--set", "input.n_photons=1,10")
        for mode in ("on-resonance", "delta-prime-corrected")
    )
    assert resonant[0] == 0
    assert corrected == resonant


def test_linalg_error_fills_the_row_error(capsys, monkeypatch):
    # LAPACK giving up inside a grid point: numpy's LinAlgError becomes
    # that row's error.  (1e300 photons once did this through the noise
    # covariance; such a grid is now refused as a config error.)
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(sweep, "simulate_xi2", fail)
    code, out, err = run_cli(capsys, "mc-check", "--set", "input.n_photons=1")
    assert code == 3
    assert err == "error: every grid point failed\n"
    (row,) = parse_csv(out)
    assert row["error"] == (
        "ConvergenceError: linear algebra failed: Eigenvalues did not converge"
    )
    assert row["mc_estimate"] == ""


@pytest.mark.parametrize(
    "line", ["mc.method = euler", "input.alpha_override = 0.9"]
)
def test_retired_config_keys_are_rejected(tmp_path, capsys, line):
    cfg = tmp_path / "retired.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert "unknown key" in err


def test_tol_flag_is_gone(capsys):
    code, _, err = run_cli(capsys, "analytic", "--tol", "1e-10")
    assert code == 2
    assert "--tol" in err


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


@pytest.mark.parametrize("out_format", ["csv", "json"])
def test_sweep_rerun_is_byte_identical(capsys, out_format):
    args = (
        "sweep",
        "--format", out_format,
        "--set", "model=mc-check",
        "--set", "input.n_photons=0.5,1",
        "--set", "geometry.n_layers=2",
        "--set", "mc.n_traj=8",
        "--set", "mc.t_burn=10",
        "--set", "mc.t_avg=40",
        "--set", "mc.dt=0.25",
        "--seed", "12",
    )
    # Twice in this process, and once in a fresh interpreter.
    first = run_cli(capsys, *args)
    second = run_cli(capsys, *args)
    fresh = run_module(*args, text=False)
    assert first[0] == fresh.returncode == 0
    assert first[1] == second[1]
    assert first[1].encode("utf-8") == fresh.stdout
    if out_format == "csv":
        row = parse_csv(first[1])[0]
    else:
        row = json.loads(first[1])["rows"][0]
    assert float(row["mc_stderr"]) > 0.0


def test_out_file_writing(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, out, _ = run_cli(
        capsys, "analytic", "--set", "input.n_photons=1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
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


@pytest.mark.parametrize("command", ["sweep", "mc-check"])
def test_photon_numbers_past_the_beam_splitter_range_are_config_errors(
    capsys, command
):
    # 4 N (N + 1) overflows past about 6.7e153, and the table read nan.
    code, out, err = run_cli(
        capsys, command, "--set", "model=both", "--set", "input.n_photons=1e200,1e300"
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: key 'input.n_photons': grid values must lie in")


@pytest.mark.parametrize(
    "command, setting",
    [
        ("analytic", "beam.waist=1e300"),  # Rayleigh range inf
        ("rates", "beam.waist=1e-300"),  # Rayleigh range 0
        ("rates", "beam.eta=1e-300"),  # sqrt(eta) rounds away: infinite waist
    ],
)
def test_beams_without_a_finite_focus_are_config_errors(capsys, command, setting):
    code, out, err = run_cli(capsys, command, "--set", setting)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: beam: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("lattice_const", ["1e-300", "1e-155"])
def test_lattice_constants_without_finite_rates_are_config_errors(capsys, lattice_const):
    # 1e-155 squares to a subnormal, whose inverse is inf.
    code, out, err = run_cli(
        capsys, "rates", "--set", f"geometry.lattice_const={lattice_const}",
        "--set", "beam.waist=1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: geometry: lattice_const must be positive")


@pytest.mark.parametrize("command", ["analytic", "numeric", "rates"])
def test_rates_that_overflow_are_config_errors(capsys, command):
    # Just above the lattice bound gamma0 is 2.4e307, so the loss of ten
    # layers is inf and r0 is 0; the closed form once divided by it.
    code, out, err = run_cli(
        capsys, command, "--set", "geometry.lattice_const=1e-154",
        "--set", "beam.waist=1", "--set", "input.n_photons=1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith("config error: rates: rates overflow or vanish: ")
    assert "gamma_loss = inf, r0 = 0.0" in err


@pytest.mark.parametrize("setting", ["mc.dt=1e-300", "mc.t_avg=1e300", "mc.dt=2e-5"])
def test_trajectory_step_budget_is_checked_before_any_draw(capsys, setting):
    # mc.dt = 2e-5 asks for 2.75e7 steps, just past the budget; 1e-300
    # once ran until a timeout killed it.  The alarm ends a run that
    # starts drawing, so an unchecked budget fails the test, not hangs it.
    def overrun(signum, frame):
        pytest.fail(f"mc-check with {setting} still running after 5 s")

    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, out, err = run_cli(capsys, "mc-check", "--set", setting)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2
    assert out == ""
    assert err.startswith("config error: mc: (t_burn + t_avg)/dt = ")
    assert "exceeds the budget of 1e+07" in err


@pytest.mark.parametrize("gamma_s", ["1e200", "1e300", "1.7e308"])
@pytest.mark.parametrize("spacing", ["1.0", "0.75"])
def test_extreme_loss_rate_solves_without_overflow(capsys, spacing, gamma_s):
    # The squared entries of a drift matrix with gamma_s past about 1e154
    # overflow, and at 1.7e308 its norm itself, but the residual's scaled
    # norms do not: the Krylov (1.0) and dense (0.75) routes both return
    # xi2 = 1, the answer when the loss swamps the collective decay, with
    # no numpy warning on the way.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(
            capsys, "numeric", "--set", f"rates.gamma_s={gamma_s}",
            "--set", f"geometry.layer_spacing={spacing}",
        )
    assert code == 0
    rows = parse_csv(out)
    assert rows and all(row["error"] == "" for row in rows)
    assert all(float(row["xi2_numeric"]) == 1.0 for row in rows)
    assert caught == [] and "Warning" not in err


# Every documented key that takes a number, and values that probe its
# edges: zero, a sign, the ends of the float range and their square roots,
# non-finite values, an empty value and a non-number.
NUMERIC_KEYS = [
    "geometry.n_side", "geometry.lattice_const", "geometry.n_layers",
    "geometry.layer_spacing", "beam.waist", "beam.eta", "rates.gamma_s",
    "rates.gamma_s_over_gamma0", "input.n_photons", "input.purity",
    "detuning.value", "mc.dt", "mc.t_burn", "mc.t_avg", "mc.n_traj", "seed",
    "workers",
]
HOSTILE_VALUES = ["0", "-1", "1e-300", "1e300", "nan", "inf", "", "1e-154", "abc"]
COMMANDS = [
    ("analytic",),
    ("numeric",),
    ("rates",),
    ("mc-check", "--set", "mc.n_traj=2", "--set", "mc.t_burn=0", "--set", "mc.t_avg=1"),
]


# Valid values at the edges of what the model takes.  Each draw pairs one
# of them with one hostile value: two hostile values stop at parsing, where
# the first is refused, but an extreme one lets the hostile one reach the
# solvers.  Each of the 11,016 distinct draws ran in under 0.3 s on a
# 2-vCPU Xeon.  Extremes that make a route slow, such as
# many layers at a non-integer spacing, are left out.
EXTREME_VALUES = [
    "geometry.n_side=1", "geometry.n_layers=1", "geometry.n_layers=40",
    "geometry.lattice_const=0.05", "geometry.lattice_const=0.99",
    "geometry.layer_spacing=0.5", "geometry.layer_spacing=3", "beam.waist=1",
    "beam.eta=0.999999", "rates.gamma_s_over_gamma0=1e-12", "rates.gamma_s=1e6",
    "input.purity=0", "input.n_photons=1e12", "detuning.mode=delta-prime-corrected",
    "kernel.include_evanescent=false", "mc.n_traj=2", "mc.dt=10", "workers=2",
    "seed=9223372036854775807",
]


@settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    command=st.sampled_from(COMMANDS),
    overrides=st.builds(
        lambda key, value, extreme: [f"{key}={value}", extreme],
        st.sampled_from(NUMERIC_KEYS),
        st.sampled_from(HOSTILE_VALUES),
        st.sampled_from(EXTREME_VALUES),
    ).filter(lambda pair: pair[0].split("=")[0] != pair[1].split("=")[0]),
)
@example(
    command=("analytic",),
    overrides=["geometry.lattice_const=1e-154", "beam.waist=1", "input.n_photons=1"],
)
def test_hostile_values_end_in_an_exit_code_not_a_traceback(capsys, command, overrides):
    # A value the model cannot take is a config error (2) or a solver
    # error (3), never an uncaught exception or a run without end.
    def overrun(signum, frame):
        pytest.fail(f"{command[0]} with {overrides} still running after 5 s")

    args = [*command, *(arg for item in overrides for arg in ("--set", item))]
    previous = signal.signal(signal.SIGALRM, overrun)
    signal.setitimer(signal.ITIMER_REAL, 5.0)
    try:
        code, _, err = run_cli(capsys, *args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 2, 3), err
    assert "Traceback" not in err


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


def test_unwritable_output_fails_before_any_solve(tmp_path, monkeypatch, capsys):
    def spy(*args):
        raise AssertionError("solved before checking the output")

    monkeypatch.setattr(cli, "run_sweep", spy)
    monkeypatch.setitem(cli.PRESETS, "fig3a", cli.PRESETS["fig3a"]._replace(build=spy))
    missing = tmp_path / "no" / "such" / "t.csv"
    assert cli.main(["mc-check", "--out", str(missing)]) == 2
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert cli.main(["fig3a", "--out", str(taken)]) == 2
    assert capsys.readouterr().err.count("config error: cannot write") == 2


def test_failed_run_leaves_no_output_file(tmp_path, monkeypatch, capsys):
    def fail(config):
        raise StabilityError("diverged")

    monkeypatch.setattr(cli, "run_sweep", fail)
    monkeypatch.setitem(cli.PRESETS, "fig3a", cli.PRESETS["fig3a"]._replace(build=fail))
    assert cli.main(["mc-check", "--out", str(tmp_path / "t.csv")]) == 3
    assert cli.main(["fig3a", "--out", str(tmp_path / "fig")]) == 3
    assert not [path for path in tmp_path.rglob("*") if path.is_file()]
    kept = tmp_path / "kept.csv"
    kept.write_text("old\n", encoding="utf-8")
    assert cli.main(["mc-check", "--out", str(kept)]) == 3
    assert kept.read_text(encoding="utf-8") == "old\n"


def test_fig_commands_validate_their_config(tmp_path, capsys):
    code = cli.main([
        "fig3a", "--set", "output.format=xml", "--out", str(tmp_path),
    ])
    assert code == 2
    assert "'output.format'" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_fig_command_fails_when_every_row_fails(tmp_path, capsys):
    code = cli.main([
        "fig3b", "--set", "geometry.layer_spacing=0.1", "--out", str(tmp_path),
    ])
    captured = capsys.readouterr()
    assert code == 3
    assert "every grid point failed" in captured.err
    rows = parse_csv((tmp_path / "fig3b.csv").read_text())
    assert len(rows) == 100
    assert all(row["error"].startswith("ConvergenceError") for row in rows)


def test_fig_preset_writes_files(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "fig4", "--out", str(tmp_path))
    assert code == 0
    written = [line for line in out.splitlines() if line]
    assert len(written) == 2
    table = tmp_path / "fig4.csv"
    summary = tmp_path / "fig4_summary.json"
    assert table.exists() and summary.exists()
    data = json.loads(summary.read_text())
    assert data["lattice_const"] == 0.95
