"""Config parsing, sweep execution, and deterministic serialization."""

from __future__ import annotations

import dataclasses
import json
import math
from concurrent.futures import ThreadPoolExecutor

import pytest

from spinsqueeze import build_config, parse_config_text, sweep
from spinsqueeze.config import (
    ENV_CONFIG_DIR,
    load_config_file,
    parse_grid,
    resolve_config_path,
)
from spinsqueeze.exceptions import ConfigError, StabilityError
from spinsqueeze.sweep import (
    FIG3B_COLUMNS,
    SWEEP_COLUMNS,
    fig_data,
    figure_config,
    format_value,
    preset_fig3b,
    rows_to_csv,
    rows_to_json,
    run_sweep,
)
from spinsqueeze import run_sweep as run_sweep_reexport


def test_parse_config_text_basics():
    text = "\n".join(
        [
            "# comment line",
            "",
            "geometry.n_side = 50",
            "beam.eta = 0.9  # trailing comment",
            "model = analytic",
        ]
    )
    flat = parse_config_text(text)
    assert flat == {
        "geometry.n_side": "50",
        "beam.eta": "0.9",
        "model": "analytic",
    }


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("geometry.n_side 50", ":1:"),
        ("nonsense.key = 1", "unknown key"),
        ("model = both\nmodel = analytic", "duplicate key"),
    ],
)
def test_parse_config_text_diagnostics(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert fragment in str(err.value)


def test_parse_config_text_reports_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_config_text("model = both\n\nbroken line\n", source="demo.cfg")
    assert "demo.cfg:3" in str(err.value)


def test_parse_grid_forms():
    assert parse_grid("4") == (4.0,)
    assert parse_grid("1, 2, 5") == (1.0, 2.0, 5.0)
    lin = parse_grid("lin:0:1:5")
    assert lin == (0.0, 0.25, 0.5, 0.75, 1.0)
    log = parse_grid("log:0.01:100:5")
    assert log[0] == pytest.approx(0.01)
    assert log[-1] == pytest.approx(100.0)
    assert log[2] == pytest.approx(1.0)


@pytest.mark.parametrize(
    "raw",
    ["", "5,2", "lin:1:0:5", "log:0:10:5", "log:1:10:1", "abc", "1,,2,x",
     "inf", "nan", "1,inf", "lin:0:nan:3"],
)
def test_parse_grid_rejects_bad_specs(raw):
    with pytest.raises(ConfigError):
        parse_grid(raw)


def test_build_config_defaults():
    config = build_config()
    assert config.geometry.n_side == 200
    assert config.geometry.n_layers == 10
    assert config.model == "both"
    assert config.purity == 1.0
    assert len(config.n_photons_grid) == 25
    # The default beam is specified through eta, so the waist solves the
    # requested overlap.
    assert config.rates().eta == pytest.approx(0.99, rel=1e-12)


def test_build_config_exclusions_and_validation():
    with pytest.raises(ConfigError):
        build_config({"beam.waist": "40", "beam.eta": "0.9"})
    with pytest.raises(ConfigError):
        build_config({"rates.gamma_s": "0.01", "rates.gamma_s_over_gamma0": "0.1"})
    for retired in ("mc.method", "input.alpha_override"):
        with pytest.raises(ConfigError, match="unknown key"):
            build_config({retired: "1"})
    with pytest.raises(ConfigError):
        build_config({"input.purity": "1.4"})
    with pytest.raises(ConfigError):
        build_config({"detuning.mode": "sideways"})
    with pytest.raises(ConfigError):
        build_config({"geometry.dipole": "1;0"})
    with pytest.raises(ConfigError):
        build_config({"nonsense": "1"})
    with pytest.raises(ConfigError):
        build_config({"workers": "0"})
    with pytest.raises(ConfigError):
        build_config({"geometry.n_side": "12.5"})
    with pytest.raises(ConfigError):
        build_config({"kernel.tol": "-1e-10"})


def test_gamma_s_alone_replaces_the_relative_default():
    config = build_config({"rates.gamma_s": "0.05"})
    assert config.gamma_s == 0.05
    with pytest.raises(ConfigError, match="not both"):
        build_config({"rates.gamma_s": "0.05", "rates.gamma_s_over_gamma0": "0.1"})


def test_waist_alone_replaces_the_eta_default():
    config = build_config({"beam.waist": "50"})
    assert config.beam.waist == 50.0
    assert config.rates().eta != build_config().rates().eta
    with pytest.raises(ConfigError, match="not both"):
        build_config({"beam.waist": "50", "beam.eta": "0.99"})


def test_resolve_config_path_env_dir(tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = analytic\n", encoding="utf-8")
    monkeypatch.setenv(ENV_CONFIG_DIR, str(tmp_path))
    assert resolve_config_path("run.cfg") == str(cfg)
    assert load_config_file("run.cfg") == {"model": "analytic"}
    # Absolute paths bypass the search directory.
    assert resolve_config_path(str(cfg)) == str(cfg)
    with pytest.raises(ConfigError):
        load_config_file("missing.cfg")


def _small_sweep_config(**overrides):
    base = {
        "geometry.n_side": "80",
        "geometry.n_layers": "3",
        "input.n_photons": "0.5, 1, 2",
        "model": "both",
    }
    base.update(overrides)
    return build_config(base)


def test_run_sweep_rows_and_columns():
    config = _small_sweep_config()
    rows = run_sweep(config)
    assert run_sweep_reexport is run_sweep
    assert len(rows) == 3
    assert [row["n_photons"] for row in rows] == [0.5, 1.0, 2.0]
    for row in rows:
        assert list(row.keys()) == SWEEP_COLUMNS
        assert row["error"] == ""
        assert row["xi2_numeric"] == pytest.approx(row["xi2_analytic"], rel=1e-3)
        assert row["r0"] == pytest.approx(config.rates().r0, rel=1e-14)


def test_run_sweep_respects_model_selector():
    analytic_only = run_sweep(_small_sweep_config(model="analytic"))
    assert all(row["xi2_numeric"] == "" for row in analytic_only)
    numeric_only = run_sweep(_small_sweep_config(model="numeric"))
    assert all(row["xi2_analytic"] == "" for row in numeric_only)
    assert all(row["mc_estimate"] == "" for row in numeric_only)


def test_run_sweep_workers_do_not_change_rows():
    config = _small_sweep_config(**{"input.n_photons": "log:0.01:100:9"})
    serial = run_sweep(dataclasses.replace(config, workers=1))
    threaded = run_sweep(dataclasses.replace(config, workers=4))
    assert serial == threaded


def test_only_trajectory_points_run_on_threads(monkeypatch):
    pools = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(sweep, "ThreadPoolExecutor", Recording)
    for model in ("analytic", "numeric", "both"):
        run_sweep(_small_sweep_config(model=model, workers="4"))
    assert pools == []
    trajectories = _small_sweep_config(
        model="mc-check",
        **{"mc.n_traj": "2", "mc.t_burn": "0", "mc.t_avg": "2"},
    )
    rows = run_sweep(dataclasses.replace(trajectories, workers=4))
    assert pools == [4]
    assert rows == run_sweep(dataclasses.replace(trajectories, workers=1))
    assert all(isinstance(row["mc_estimate"], float) for row in rows)


def test_run_sweep_captures_per_point_errors(monkeypatch):
    def diverge(*args):
        raise StabilityError("synthetic divergence")

    monkeypatch.setattr(sweep, "simulate_xi2", diverge)
    rows = run_sweep(_small_sweep_config(model="mc-check"))
    assert len(rows) == 3
    for row in rows:
        assert row["error"].startswith("StabilityError")
        assert row["mc_estimate"] == ""
        # Everything computed before the failure is still reported.
        assert row["xi2_field"] != ""
        assert row["xi2_numeric"] != ""


def test_run_sweep_mc_check_is_deterministic():
    config = _small_sweep_config(
        model="mc-check",
        **{
            "input.n_photons": "1",
            "mc.n_traj": "8",
            "mc.t_burn": "10",
            "mc.t_avg": "40",
            "mc.dt": "0.25",
        },
    )
    first = run_sweep(config)
    second = run_sweep(config)
    assert first == second
    assert first[0]["mc_stderr"] > 0.0


def test_format_value_conventions():
    assert format_value(True) == "true"
    assert format_value(False) == "false"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(1.0) == "1"
    assert format_value("text") == "text"
    assert format_value(7) == "7"


def test_rows_to_csv_rfc4180():
    rows = [{"a": 1.5, "b": True}, {"a": math.pi, "b": False}]
    payload = rows_to_csv(rows)
    lines = payload.split("\r\n")
    assert lines[0] == "a,b"
    assert lines[1] == "1.5,true"
    assert lines[2] == "3.1415926535897931,false"
    assert payload.endswith("\r\n")


def test_rows_to_json_deterministic():
    rows = [{"b": 1.0, "a": "x"}]
    payload = rows_to_json(rows, meta={"seed": 3})
    assert payload == rows_to_json(rows, meta={"seed": 3})
    parsed = json.loads(payload)
    assert parsed["rows"][0]["a"] == "x"
    assert parsed["meta"]["seed"] == 3
    assert payload.index('"a"') < payload.index('"b"')


def test_preset_fig3b_summary_and_rows():
    rows, summary = preset_fig3b(figure_config("fig3b"))
    assert summary["r0_Nz10"] == pytest.approx(0.9801980198019802, rel=1e-14)
    assert summary["asymptote_large_Nz"] == pytest.approx(0.01, rel=1e-12)
    assert summary["asymptote_small_Nz_coeff"] == pytest.approx(0.1, rel=1e-14)
    assert all(list(row) == FIG3B_COLUMNS for row in rows)
    assert [row["n_layers"] for row in rows] == list(range(1, 101))
    ten = rows[9]
    assert ten["xi2_min"] == pytest.approx(0.03366372697550407, rel=1e-10)
    assert ten["n_photons_opt"] == pytest.approx(34.85622297595726, rel=1e-10)


def test_preset_fig3b_refuses_an_infinite_optimum():
    # A pure source has no finite optimal photon number; each depth's
    # numeric check reports that instead of writing nan.
    rows, _ = preset_fig3b(figure_config("fig3b", {"input.purity": "1"}))
    assert all(row["n_photons_opt"] == math.inf for row in rows)
    assert all(row["xi2_numeric"] == "" for row in rows)
    assert all(
        row["error"].startswith("DomainError: n_photons must be finite")
        for row in rows
    )


def test_fig3b_numeric_check_is_the_sweep_at_the_optimum():
    config = figure_config("fig3b")
    assert config.geometry.n_layers == 10
    ten = preset_fig3b(config)[0][9]
    assert ten["n_layers"] == 10
    row, = run_sweep(dataclasses.replace(
        config, model="numeric", n_photons_grid=(ten["n_photons_opt"],)
    ))
    assert row["error"] == ""
    assert ten["xi2_numeric"] == row["xi2_numeric"]


def test_fig_data_builds_its_config_once(monkeypatch, tmp_path):
    calls = []
    build = sweep.build_config

    def counted(overrides=None):
        calls.append(overrides)
        return build(overrides)

    monkeypatch.setattr(sweep, "build_config", counted)
    fig_data("fig4", {
        "input.n_photons": "1", "input.purity": "0.9", "output.path": str(tmp_path)
    })
    assert calls == [{
        "geometry.lattice_const": "0.95",
        "input.purity": "0.9",
        "input.n_photons": "1",
        "output.path": str(tmp_path),
    }]


def test_fig_data_writes_where_its_config_says(tmp_path, monkeypatch):
    out = tmp_path / "out"
    paths = fig_data("fig4", {
        "output.format": "json", "output.path": str(out), "input.n_photons": "1"
    })
    assert paths == [str(out / "fig4.json"), str(out / "fig4_summary.json")]
    assert len(json.loads((out / "fig4.json").read_text())["rows"]) == 1
    monkeypatch.chdir(tmp_path)
    assert fig_data("fig4", {"input.n_photons": "1"}) == [
        "./fig4.csv", "./fig4_summary.json"
    ]


def test_fig_data_roundtrip_and_rerun_bytes(tmp_path):
    first_dir = tmp_path / "one"
    second_dir = tmp_path / "two"
    paths_one = fig_data("fig4", {"output.path": str(first_dir)})
    paths_two = fig_data("fig4", {"output.path": str(second_dir)})
    assert [p.rsplit("/", 1)[-1] for p in paths_one] == ["fig4.csv", "fig4_summary.json"]
    for p_one, p_two in zip(paths_one, paths_two):
        with open(p_one, "rb") as fh:
            blob_one = fh.read()
        with open(p_two, "rb") as fh:
            blob_two = fh.read()
        assert blob_one == blob_two
    summary = json.loads((first_dir / "fig4_summary.json").read_text())
    assert summary["delta_prime_over_Gamma0"] == pytest.approx(
        0.34873912038744403, rel=1e-10
    )
    assert summary["delta_prime_signed_over_Gamma0"] == pytest.approx(
        -0.34873912038744403, rel=1e-10
    )
    with pytest.raises(ConfigError):
        fig_data("fig9", {"output.path": str(tmp_path)})
