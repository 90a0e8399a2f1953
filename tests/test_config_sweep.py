"""Config parsing, sweep execution, and deterministic serialization."""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinsqueeze import build_config, parse_config_text, steady, sweep
from spinsqueeze.config import (
    DEFAULTS,
    ENV_CONFIG_DIR,
    load_config_file,
    parse_grid,
    resolve_config_path,
)
from spinsqueeze.analytic import DetuningSpec, squeezing_contrast, xi2_analytic
from spinsqueeze.exceptions import (
    ConfigError,
    ConvergenceError,
    DomainError,
    SpinSqueezeError,
    StabilityError,
)
from spinsqueeze.rates import validity_report
from spinsqueeze.squeezed_input import (
    SqueezedVacuumSpec,
    beam_splitter,
    input_quadrature_variance,
)
from spinsqueeze.steady import UnitResponse, xi2_from_response
from spinsqueeze.sweep import (
    FIG3B_COLUMNS,
    SWEEP_COLUMNS,
    _json_object,
    _jsonable,
    fig_data,
    figure_config,
    format_value,
    preset_fig3b,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    validity_columns,
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
    for retired in ("mc.method", "input.alpha_override", "kernel.tol",
                    "kernel.max_order"):
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


def _per_point_rows(config, response):
    """Every row of run_sweep(config) from per-point calls of the public
    functions, with the unit response that the sweep solved."""
    geom, rates = config.geometry, config.rates()
    det = DetuningSpec(sweep._resolve_detuning(config))
    rows = []
    for n_photons in config.n_photons_grid:
        spec = SqueezedVacuumSpec(n_photons=n_photons, purity=config.purity)
        report = validity_report(geom, config.beam, rates)
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update(
            n_photons=n_photons,
            purity=config.purity,
            eff_detuning=det.eff_detuning,
            r0=rates.r0,
            alpha_eff=squeezing_contrast(rates, spec, det),
            xi2_field=input_quadrature_variance(spec),
            **validity_columns(report, n_photons),
            n_eff=report.n_eff,
        )
        if config.model in ("analytic", "both"):
            analytic = xi2_analytic(rates, spec, det)
            row.update(
                xi2_analytic=analytic.xi2,
                theta_opt=analytic.theta_opt,
                xi2_anti=analytic.xi2_anti,
            )
        if config.model in ("numeric", "both"):
            row["xi2_numeric"] = xi2_from_response(response, spec).xi2
        rows.append(row)
    return rows


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    model=st.sampled_from(["analytic", "numeric", "both"]),
    purity=st.sampled_from([1.0, 0.999, 0.5, 0.0]) | st.floats(0.0, 1.0),
    mode=st.sampled_from(["on-resonance", "fixed", "delta-prime-corrected"]),
    detuning=st.floats(-50.0, 50.0),
    spacing=st.sampled_from([1.0, 2.0, 0.75, 0.5, 1.25]),
    n_side=st.integers(8, 40),
    n_layers=st.integers(1, 6),
    lattice_const=st.sampled_from([0.5, 0.68, 0.8]),
    scale=st.floats(0.1, 10.0),
)
def test_run_sweep_matches_per_point_calls_bit_for_bit(
    model, purity, mode, detuning, spacing, n_side, n_layers, lattice_const, scale
):
    config = build_config({
        "model": model,
        "input.purity": repr(purity),
        "detuning.mode": mode,
        "detuning.value": repr(detuning),
        "geometry.layer_spacing": repr(spacing),
        "geometry.n_side": str(n_side),
        "geometry.n_layers": str(n_layers),
        "geometry.lattice_const": repr(lattice_const),
    })
    # A grid across n_eff, so valid_linearization and valid_all flip mid-grid.
    n_eff = validity_report(config.geometry, config.beam, config.rates()).n_eff
    grid = (0.0, scale, math.nextafter(n_eff, 0.0), n_eff, (1.0 + scale) * n_eff)
    config = dataclasses.replace(config, n_photons_grid=grid)
    responses = []

    def record(solve):
        def recorded(*args):
            responses.append(solve(*args))
            return responses[-1]
        return recorded

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "numeric_response", record(sweep.numeric_response))
        rows = run_sweep(config)
    assert len(responses) == (model != "analytic")
    expected = _per_point_rows(config, responses[0] if responses else None)
    assert repr(rows) == repr(expected)
    assert [row["valid_linearization"] for row in rows] == [True] * 3 + [False] * 2


def _per_point_rows_with_errors(config, response, alpha):
    """Every row of run_sweep(config) at contrast ``alpha`` and unit
    response ``response``, point by point from the public one-input calls,
    a failing call's error in its row."""
    rates = config.rates()
    rows = []
    for n_photons in config.n_photons_grid:
        spec = SqueezedVacuumSpec(n_photons=n_photons, purity=config.purity)
        report = validity_report(config.geometry, config.beam, rates)
        row = dict.fromkeys(SWEEP_COLUMNS, "")
        row.update(
            n_photons=n_photons,
            purity=config.purity,
            eff_detuning=0.0,
            r0=rates.r0,
            alpha_eff=alpha,
            xi2_field=input_quadrature_variance(spec),
            **validity_columns(report, n_photons),
            n_eff=report.n_eff,
        )
        try:
            if config.model == "both":
                analytic = beam_splitter(rates.r0, n_photons, alpha)
                row.update(
                    xi2_analytic=analytic.xi2,
                    theta_opt=analytic.theta_opt,
                    xi2_anti=analytic.xi2_anti,
                )
            row["xi2_numeric"] = xi2_from_response(response, spec).xi2
        except SpinSqueezeError as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
        rows.append(row)
    return rows


# (c_n, c_m, analytic contrast) of the sweeps whose rows fail.  At the unit
# response's contrast of 1 + 1e-9 every row fails, 1 + 5e-13 is clamped.
_FAILING_SWEEPS = {
    "negative occupation": (-1e-12, 0j, 1.0),
    "clamped contrast": (0.5, 0.5 * (1.0 + 5e-13), 1.0),
    "refused contrast": (0.5, 0.5 * (1.0 + 1e-9), 1.0),
    "nan contrast": (0.5, complex(math.nan, 0.0), 1.0),
    "analytic contrast": (0.5, 0.25j, 1.0 + 1e-9),
    "both contrasts": (0.5, 0.5 * (1.0 + 1e-9), -0.5),
    "negative occupation, analytic contrast": (-1e-12, 0j, 1.5),
}


@pytest.mark.parametrize("model", ["numeric", "both"])
@pytest.mark.parametrize("case", list(_FAILING_SWEEPS))
def test_run_sweep_error_rows_match_per_point_calls(model, case):
    c_n, c_m, alpha = _FAILING_SWEEPS[case]
    response = UnitResponse(c_n, c_m, 0.0, 0.0)
    grid = "0,1,50,100,200,1e4,1e8"
    config = _small_sweep_config(
        model=model, **{"input.purity": "1", "input.n_photons": grid}
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sweep, "numeric_response", lambda *args: response)
        mp.setattr(sweep, "squeezing_contrast", lambda *args: alpha)
        rows = run_sweep(config)
    assert repr(rows) == repr(_per_point_rows_with_errors(config, response, alpha))
    if case == "negative occupation":  # each failing row names its own value
        failing = [(row["n_photons"], row["error"]) for row in rows if row["error"]]
        assert len(failing) >= 3
        assert all(f"= {c_n * n:.3e} is" in error for n, error in failing)


def test_run_sweep_calls_the_law_once_per_column(monkeypatch):
    calls, law = [], beam_splitter

    def counted(*args):  # records the number of photon numbers per call
        calls.append(len(np.atleast_1d(args[1])))
        return law(*args)

    for module in ("analytic", "squeezed_input", "steady", "sweep"):
        monkeypatch.setattr(f"spinsqueeze.{module}.beam_splitter", counted)
    counts = []
    for points in (5, 500):
        calls.clear()
        run_sweep(_small_sweep_config(**{"input.n_photons": f"log:0.01:1e3:{points}"}))
        counts.append(calls.copy())
    # xi2_field, the closed-form columns and xi2_numeric, each over the grid.
    assert counts == [[5] * 3, [500] * 3]


def test_run_sweep_evaluates_what_no_point_changes_once(monkeypatch):
    calls = {"validity_report": 0, "squeezing_contrast": 0}

    def counted(name):
        original = getattr(sweep, name)

        def count(*args):
            calls[name] += 1
            return original(*args)
        return count

    for name in calls:
        monkeypatch.setattr(sweep, name, counted(name))
    run_sweep(_small_sweep_config(**{"input.n_photons": "log:0.01:1e9:7"}))
    assert calls == {"validity_report": 1, "squeezing_contrast": 1}


def _raise(exc):
    def fail(*args):
        raise exc
    return fail


def _failing_oracle_block(*args):
    """oracle_stacks with the solve of its first leading block failing."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(steady, "equivalent_stack", _raise(ConvergenceError("block")))
        return steady.oracle_stacks(*args)


def _trajectories_failing_at_point_1(drift, diff, geom, params):
    if params.seed == int(DEFAULTS["seed"]) + sweep._PER_POINT_SEED_STRIDE:
        raise StabilityError("trajectory")
    return 1.0, 0.1


# Columns of every row, whatever fails: the flags and what the config fixes.
_SHARED = {"n_photons", "purity", "r0", "n_eff"} | {
    key for key in SWEEP_COLUMNS if key.startswith("valid_")
}
_CLOSED_FORM = {"xi2_analytic", "theta_opt", "xi2_anti"}
_SET_UP = {"xi2_field", "eff_detuning", "alpha_eff"}

# case: (config keys, what sweep binds instead, grid or purity set on the
# built config, the failing rows, their error's start, the columns that the
# failing rows and the others keep).
_STAGES = {
    "input N": (
        {}, {}, {"n_photons_grid": (1.0, math.inf, 2.0)}, [0, 1, 2],
        "DomainError: n_photons must be finite", _SHARED, None,
    ),
    "input purity": (
        {}, {}, {"purity": 1.5}, [0, 1, 2],
        "DomainError: purity must lie in [0, 1]", _SHARED, None,
    ),
    "detuning": (
        {"detuning.mode": "delta-prime-corrected", "geometry.layer_spacing": "0.1"},
        {}, {}, [0, 1, 2], "ConvergenceError", _SHARED | {"xi2_field"}, None,
    ),
    "contrast": (
        {}, {"squeezing_contrast": _raise(DomainError("synthetic contrast"))}, {},
        [0, 1, 2], "DomainError: synthetic contrast",
        _SHARED | {"xi2_field", "eff_detuning"}, None,
    ),
    "closed-form columns": (
        {}, {"squeezing_contrast": lambda *args: 1.5}, {}, [0, 1, 2],
        "DomainError", _SHARED | _SET_UP, None,
    ),
    "numeric solve": (
        {}, {"numeric_response": _raise(StabilityError("solve"))}, {}, [0, 1, 2],
        "StabilityError: solve", _SHARED | _SET_UP | _CLOSED_FORM, None,
    ),
    "oracle block": (
        {"model": "mc-check"}, {"oracle_stacks": _failing_oracle_block}, {},
        [0, 1, 2], "ConvergenceError: block", _SHARED | _SET_UP, None,
    ),
    "numeric contrast": (
        {},
        {"numeric_response": lambda *args: UnitResponse(0.5, 0.5 + 1e-9, 0.0, 0.0)},
        {}, [0, 1, 2], "PhysicalityError", _SHARED | _SET_UP | _CLOSED_FORM, None,
    ),
    "occupation": (
        {"input.n_photons": "1, 2, 1e4"},
        {"numeric_response": lambda *args: UnitResponse(-1e-12, 0j, 0.0, 0.0)},
        {}, [2], "PhysicalityError", _SHARED | _SET_UP | _CLOSED_FORM,
        _SHARED | _SET_UP | _CLOSED_FORM | {"xi2_numeric"},
    ),
    "trajectories": (
        {"model": "mc-check"},
        {"simulate_xi2": _trajectories_failing_at_point_1}, {}, [1],
        "StabilityError: trajectory", _SHARED | _SET_UP | {"xi2_numeric"},
        _SHARED | _SET_UP | {"xi2_numeric", "mc_estimate", "mc_stderr"},
    ),
}


@pytest.mark.parametrize("case", list(_STAGES))
def test_an_error_fails_its_rows_and_keeps_the_columns_filled_before_it(case):
    keys, bound, fields, failing, error, kept, kept_elsewhere = _STAGES[case]
    config = dataclasses.replace(_small_sweep_config(**keys), **fields)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in bound.items():
            mp.setattr(sweep, name, value)
        rows = run_sweep(config)
    assert [i for i, row in enumerate(rows) if row["error"]] == failing
    for i, row in enumerate(rows):
        filled = {key for key, cell in row.items() if cell != ""}
        if i in failing:
            assert row["error"].startswith(error)
            assert filled == kept | {"error"}
        else:
            assert filled == kept_elsewhere


@pytest.mark.parametrize(
    "fields, spec",
    [
        ({"n_photons_grid": (1.0, -1.0, math.inf)}, (-1.0, 1.0)),
        ({"n_photons_grid": (1.0, math.nan)}, (math.nan, 1.0)),
        ({"purity": 1.5}, (0.5, 1.5)),
        ({"purity": -0.5, "n_photons_grid": (0.5, math.inf)}, (0.5, -0.5)),
    ],
)
@pytest.mark.parametrize("model", ["analytic", "numeric", "mc-check"])
def test_run_sweep_returns_an_invalid_input_as_row_errors(model, fields, spec):
    # The config parser refuses these values; a config built by hand reaches
    # run_sweep with them, and every row carries the first failing spec's error.
    config = dataclasses.replace(_small_sweep_config(model=model), **fields)
    with pytest.raises(DomainError) as refused:
        SqueezedVacuumSpec(*spec)
    rows = run_sweep(config)
    assert len(rows) == len(config.n_photons_grid)
    assert all(row["error"] == f"DomainError: {refused.value}" for row in rows)


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


def test_numpy_scalars_are_written_as_their_python_values():
    # np.bool_ and np.int64 subclass neither bool nor int; np.float64 is a float.
    numpy_row = {
        "flag": np.bool_(True),
        "count": np.int64(5),
        "x": np.float64(0.1),
        "z": np.complex128(1.0 - 2.0j),
    }
    python_row = {"flag": True, "count": 5, "x": 0.1, "z": 1.0 - 2.0j}
    assert rows_to_csv([numpy_row]) == rows_to_csv([python_row])
    assert rows_to_json([numpy_row] * 2, meta=numpy_row) == rows_to_json(
        [python_row] * 2, meta=python_row
    )
    assert format_value(np.bool_(False)) == "false"
    assert json.loads(rows_to_json([numpy_row]))["rows"][0]["count"] == 5


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


def _indented_json(rows, meta=None):
    """The layout rows_to_json promises: json.dumps with indent=2 and
    sorted keys, values that JSON has no type for mapped by _jsonable."""
    payload = {"rows": rows} if meta is None else {"rows": rows, "meta": meta}
    return json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n"


_TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\n\té€😀'), st.characters()))
_CELLS = st.one_of(
    st.floats(),
    st.floats().map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_),
    st.integers(),
    st.integers(min_value=2**63, max_value=2**100),
    st.integers(min_value=-(2**100), max_value=-(2**63)),
    st.booleans(),
    st.none(),
    _TEXT,
)
_FLAT = st.dictionaries(_TEXT, _CELLS, max_size=6)


@st.composite
def _template_rows(draw):
    """Rows as run_sweep builds them: copies of one template, which share
    its value objects, with some cells dropped, replaced or added."""
    template = draw(_FLAT)
    keys = st.sampled_from(sorted(template)) | _TEXT if template else _TEXT
    rows = []
    for _ in range(draw(st.integers(0, 4))):
        row = template.copy()
        for key in draw(st.sets(keys, max_size=2)):
            row.pop(key, None)
        row.update(draw(st.dictionaries(keys, _CELLS, max_size=2)))
        rows.append(row)
    return rows


_ROWS = st.one_of(st.lists(_FLAT, max_size=4), _template_rows())

# Columns that the column writers must not get wrong: integer keys, "%" in
# a key and in a value, shared and not, equal cells that are written
# differently, and non-finite floats in a column of floats.
_SHARP_ROWS = [
    [{10: 0.5, 9: "a"}, {10: 1.5, 9: "a"}],
    [{"%d": 0.5, "100%": "5%s", "a%%": "%"}, {"%d": 1.5, "100%": "5%s", "a%%": "%%"}],
    [{"x": 0.0}, {"x": -0.0}],
    [{"x": 1}, {"x": 1.0}, {"x": True}],
    [{"x": math.nan, "y": 0.5}, {"x": 0.5, "y": math.inf}, {"x": 2.5, "y": -math.inf}],
]


def _sharp_examples(**other_args):
    def decorate(test):
        for rows in _SHARP_ROWS:
            test = example(rows=rows, **other_args)(test)
        return test

    return decorate


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=_ROWS, meta=st.none() | _FLAT)
@example(rows=[], meta=None)
@example(rows=[], meta={})
@example(rows=[{}], meta=None)
@example(rows=[{}, {"a": 1}], meta={})
@example(
    rows=[{"x": math.nan, "y": math.inf, "z": -math.inf, "w": -0.0, "v": np.float64(0.1)}],
    meta={"big": 2**64 + 1, "neg": -(2**63) - 1, "flag": True, "none": None},
)
@example(rows=[{'q"\\': '"\\\x01\n\u00e9\u2603😀'}], meta={"s": "\x1f"})
@_sharp_examples(meta={"%": "%s"})
def test_rows_to_json_is_byte_identical_to_indented_dumps(rows, meta):
    assert rows_to_json(rows, meta) == _indented_json(rows, meta)


def _row_by_row_csv(rows):
    """The CSV that rows_to_csv promises, written a row at a time:
    csv.writer with format_value per cell, a missing cell as ""."""
    columns = list(rows[0].keys()) if rows else []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row.get(col, "")) for col in columns])
    return buffer.getvalue()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(rows=_ROWS)
@example(rows=[])
@example(rows=[{}, {"a": 1}])
@example(rows=[{"a": 1.5, "b": "x"}, {"b": "x"}, {"c": 2.5, "b": "x"}])
@_sharp_examples()
def test_rows_to_csv_is_byte_identical_to_the_row_by_row_writer(rows):
    assert rows_to_csv(rows) == _row_by_row_csv(rows)


def test_rows_to_json_writes_complex_values_as_re_im_objects():
    payload = rows_to_json([{"z": 1.5 - 2j, "a": 1}], meta={"c": 1j})
    assert json.loads(payload) == {
        "meta": {"c": {"re": 0.0, "im": 1.0}},
        "rows": [{"a": 1, "z": {"re": 1.5, "im": -2.0}}],
    }
    # The items break at the object's own depth, not one deeper.
    assert payload == (
        '{\n  "meta": {\n    "c": {"im": 1.0,\n    "re": 0.0}\n  },\n'
        '  "rows": [\n    {\n      "a": 1,\n      "z": {"im": -2.0,\n      "re": 1.5}\n'
        "    }\n  ]\n}\n"
    )
    shared = 2.5 + 0.5j
    assert rows_to_json([{"z": shared, "w": 1j}, {"z": shared, "w": -1j}]) == (
        '{\n  "rows": [\n'
        '    {\n      "w": {"im": 1.0,\n      "re": 0.0},\n'
        '      "z": {"im": 0.5,\n      "re": 2.5}\n    },\n'
        '    {\n      "w": {"im": -1.0,\n      "re": -0.0},\n'
        '      "z": {"im": 0.5,\n      "re": 2.5}\n    }\n  ]\n}\n'
    )


@pytest.mark.parametrize("summary", [{}, {"b": 0.5, "a": -math.inf, "c": math.nan}])
def test_summary_object_is_byte_identical_to_indented_dumps(summary):
    assert _json_object(summary, 0) == json.dumps(summary, indent=2, sort_keys=True)


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
    assert (first_dir / "fig4_summary.json").read_text() == (
        json.dumps(summary, indent=2, sort_keys=True) + "\n"
    )
    assert summary["delta_prime_over_Gamma0"] == pytest.approx(
        0.34873912038744403, rel=1e-10
    )
    assert summary["delta_prime_signed_over_Gamma0"] == pytest.approx(
        -0.34873912038744403, rel=1e-10
    )
    with pytest.raises(ConfigError):
        fig_data("fig9", {"output.path": str(tmp_path)})
