"""Parameter sweeps, figure presets, and table output.

A sweep evaluates the selected models over the photon-number grid and
returns one plain dict per grid point.  Rows keep a fixed column order
and every float is written with 17 significant digits, so reruns with
the same configuration are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable

from .analytic import (
    DetuningSpec,
    squeezing_contrast,
    xi2_analytic,
    xi2_min,
    xi2_min_vs_layers,
)
from .config import ExperimentConfig, build_config
from .exceptions import ConfigError, SpinSqueezeError
from .layers import DriftMatrix, drift_matrix, interaction_kernel
from .mc import simulate_xi2
from .rates import RateSet, ValidityReport, compute_rates, validity_report
from .squeezed_input import (
    SqueezedVacuumSpec,
    input_quadrature_variance,
    noise_diffusions,
)
from .steady import unit_response, xi2_from_response

SWEEP_COLUMNS = [
    "n_photons",
    "purity",
    "eff_detuning",
    "r0",
    "alpha_eff",
    "xi2_field",
    "xi2_analytic",
    "theta_opt",
    "xi2_anti",
    "xi2_numeric",
    "mc_estimate",
    "mc_stderr",
    "valid_all",
    "valid_layer_size",
    "valid_rayleigh",
    "valid_phase_match",
    "valid_evanescent",
    "valid_linearization",
    "n_eff",
    "error",
]

_PER_POINT_SEED_STRIDE = 1000003


def _resolve_detuning(config: ExperimentConfig) -> float:
    if config.detuning_mode == "on-resonance":
        return 0.0
    if config.detuning_mode == "fixed":
        return config.detuning_value
    return config.collective_shift()


def validity_columns(report: ValidityReport) -> dict[str, bool]:
    """The six ``valid_*`` output columns of a validity report."""
    return {
        "valid_all": report.all_ok,
        "valid_layer_size": report.layer_size_ok,
        "valid_rayleigh": report.rayleigh_ok,
        "valid_phase_match": report.phase_match_ok,
        "valid_evanescent": report.evanescent_ok,
        "valid_linearization": report.linearization_ok,
    }


def _error_text(exc: SpinSqueezeError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _drift(config: ExperimentConfig, rates: RateSet, det: DetuningSpec) -> DriftMatrix:
    kernel = interaction_kernel(
        config.geometry,
        rates,
        tol=config.kernel_tol,
        include_evanescent=config.include_evanescent,
        max_order=config.kernel_max_order,
    )
    return drift_matrix(kernel, rates, det)


def run_sweep(config: ExperimentConfig) -> list[dict[str, Any]]:
    """Evaluate the configured models over the photon-number grid.

    Returns one row dict per grid point, in grid order.  The numeric
    model solves its drift matrix once, for unit sources, and evaluates
    every grid point in closed form.  Solver errors, including an
    unstable drift matrix or an evanescent sum that does not converge,
    land in the ``error`` column of each row they affect instead of
    aborting the whole sweep.  A detuning that cannot be resolved fails
    every row, which keeps only the columns that do not depend on it.
    """
    geom = config.geometry
    rates = config.rates()
    want_numeric = config.model in ("numeric", "both", "mc-check")
    want_analytic = config.model in ("analytic", "both")
    want_mc = config.model == "mc-check"

    det = drift = response = None
    # The detuning's error if det is None, else the numeric solve's.
    setup_error = ""
    try:
        det = DetuningSpec(_resolve_detuning(config))
        if want_numeric:
            drift = _drift(config, rates, det)
            response = unit_response(drift, geom, rates)
    except SpinSqueezeError as exc:
        setup_error = _error_text(exc)

    def evaluate(item: tuple[int, float]) -> dict[str, Any]:
        index, n_photons = item
        spec = SqueezedVacuumSpec(n_photons=n_photons, purity=config.purity)
        report = validity_report(geom, config.beam, n_photons, rates)
        row: dict[str, Any] = {key: "" for key in SWEEP_COLUMNS}
        row.update(
            n_photons=n_photons,
            purity=config.purity,
            r0=rates.r0,
            xi2_field=input_quadrature_variance(spec),
            **validity_columns(report),
            n_eff=report.n_eff,
            error="",
        )
        if det is None:
            row["error"] = setup_error
            return row
        row["eff_detuning"] = det.eff_detuning
        try:
            row["alpha_eff"] = squeezing_contrast(rates, spec, det)
            if want_analytic:
                analytic = xi2_analytic(rates, spec, det)
                row["xi2_analytic"] = analytic.xi2
                row["theta_opt"] = analytic.theta_opt
                row["xi2_anti"] = analytic.xi2_anti
            if setup_error:
                row["error"] = setup_error
                return row
            if want_numeric:
                row["xi2_numeric"] = xi2_from_response(response, spec).xi2
            if want_mc:
                diff = noise_diffusions(spec, geom, rates)
                params = dataclasses.replace(
                    config.mc,
                    seed=config.mc.seed + _PER_POINT_SEED_STRIDE * index,
                )
                estimate, stderr = simulate_xi2(drift, diff, geom, params)
                row["mc_estimate"] = estimate
                row["mc_stderr"] = stderr
        except SpinSqueezeError as exc:
            row["error"] = _error_text(exc)
        return row

    items = list(enumerate(config.n_photons_grid))
    # Only trajectory points carry enough work to pay for a thread; the
    # others are closed-form evaluations of the one unit solve.
    if want_mc and config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(evaluate, items))
    else:
        rows = [evaluate(item) for item in items]
    return rows


def format_value(value: Any) -> str:
    """Render one cell: floats at 17 significant digits, booleans as
    lowercase words, everything else via str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def rows_to_csv(rows: list[dict[str, Any]], columns: list[str] | None = None) -> str:
    """Serialise rows as RFC-4180 CSV with a header row."""
    if columns is None:
        columns = list(rows[0].keys()) if rows else []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row.get(col, "")) for col in columns])
    return buffer.getvalue()


def _jsonable(value: Any) -> Any:
    if isinstance(value, float):
        return value
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return str(value)


def rows_to_json(rows: list[dict[str, Any]], meta: dict[str, Any] | None = None) -> str:
    """Serialise rows (and optional metadata) as deterministic JSON."""
    payload: dict[str, Any] = {"rows": [
        {key: _jsonable(val) for key, val in row.items()} for row in rows
    ]}
    if meta is not None:
        payload["meta"] = {key: _jsonable(val) for key, val in meta.items()}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def format_table(
    rows: list[dict[str, Any]], out_format: str, columns: list[str] | None = None
) -> str:
    """Serialise rows as CSV, in ``columns`` order if given, or else as JSON."""
    if out_format == "csv":
        return rows_to_csv(rows, columns)
    return rows_to_json(rows)


def _base_preset(**overrides: str) -> ExperimentConfig:
    flat = {
        "geometry.n_side": "200",
        "geometry.n_layers": "10",
        "geometry.layer_spacing": "1.0",
        "beam.eta": "0.99",
        "rates.gamma_s_over_gamma0": "0.1",
    }
    flat.update(overrides)
    return build_config(flat)


def preset_fig3a(
    overrides: dict[str, str] | None = None,
) -> tuple[list[dict[str, Any]], dict[str, float], list[str]]:
    """Squeezing versus photon number at a=0.68, two source qualities.

    Both the closed form and the steady-state solve are evaluated for a
    perfect source and for one with 0.1% excess noise; each grid point
    appears once per source case, tagged by the ``alpha_case`` column.
    """
    config = _base_preset(
        **{
            "geometry.lattice_const": "0.68",
            "input.n_photons": "log:0.01:1000:25",
            "model": "both",
            **(overrides or {}),
        }
    )
    rows: list[dict[str, Any]] = []
    for alpha in (1.0, 0.999):
        case = dataclasses.replace(config, purity=alpha)
        rows.extend({"alpha_case": alpha, **row} for row in run_sweep(case))

    rates = config.rates()
    floor, _ = xi2_min(rates, 1.0)
    value_999, n_opt_999 = xi2_min(rates, 0.999)
    summary = {
        "r0": rates.r0,
        "xi2_asymptote": floor,
        "xi2_min_alpha_0p999": value_999,
        "n_photons_opt_alpha_0p999": n_opt_999,
        "eta": rates.eta,
        "gamma0": rates.gamma0,
    }
    return rows, summary, ["alpha_case", *SWEEP_COLUMNS]


FIG3B_COLUMNS = [
    "n_layers",
    "eta",
    "r0",
    "n_photons_opt",
    "xi2_min",
    "xi2_numeric",
    "asym_small_nz",
    "asym_large_nz",
    "error",
]


def preset_fig3b(
    overrides: dict[str, str] | None = None,
) -> tuple[list[dict[str, Any]], dict[str, float], list[str]]:
    """Optimal squeezing versus stack depth at a=0.68.

    The closed-form optimum is tabulated for every layer count from 1
    to 100 together with its two asymptotes, and the steady-state model
    is evaluated at the optimal photon number as an independent check:
    one unit-source solve per layer count.
    """
    config = _base_preset(
        **{
            "geometry.lattice_const": "0.68",
            "input.purity": "0.9999",
            "model": "both",
            **(overrides or {}),
        }
    )
    alpha_eff = config.purity
    layer_counts = list(range(1, 101))
    table = xi2_min_vs_layers(
        config.geometry,
        config.beam,
        config.gamma_s,
        alpha_eff,
        layer_counts,
    )

    rows: list[dict[str, Any]] = []
    for entry in table:
        n_z = int(entry["n_layers"])
        row: dict[str, Any] = {key: "" for key in FIG3B_COLUMNS}
        row.update(
            n_layers=n_z,
            eta=entry["eta"],
            r0=entry["r0"],
            n_photons_opt=entry["n_photons_opt"],
            xi2_min=entry["xi2_min"],
            asym_small_nz=entry["asym_small_nz"],
            asym_large_nz=entry["asym_large_nz"],
            error="",
        )
        try:
            case = dataclasses.replace(
                config, geometry=dataclasses.replace(config.geometry, n_layers=n_z)
            )
            rates = case.rates()
            drift = _drift(case, rates, DetuningSpec(_resolve_detuning(case)))
            response = unit_response(drift, case.geometry, rates)
            spec = SqueezedVacuumSpec(
                n_photons=entry["n_photons_opt"], purity=config.purity
            )
            row["xi2_numeric"] = xi2_from_response(response, spec).xi2
        except SpinSqueezeError as exc:
            row["error"] = _error_text(exc)
        rows.append(row)

    g10 = dataclasses.replace(config.geometry, n_layers=10)
    r10 = compute_rates(g10, config.beam, config.gamma_s)
    summary = {
        "r0_Nz10": r10.r0,
        "asymptote_large_Nz": 1.0 - r10.eta,
        "asymptote_small_Nz_coeff": config.gamma_s / r10.gamma0,
        "alpha_eff": alpha_eff,
    }
    return rows, summary, FIG3B_COLUMNS


FIG4_COLUMNS = [
    "n_photons",
    "r0",
    "xi2_analytic",
    "xi2_numeric_resonant",
    "xi2_numeric_corrected",
    "error",
]


def preset_fig4(
    overrides: dict[str, str] | None = None,
) -> tuple[list[dict[str, Any]], dict[str, float], list[str]]:
    """Detuning compensation at a=0.95, where evanescent coupling is strong.

    Three curves over the photon grid: the on-resonance closed form,
    the steady-state solve driven at the bare resonance, and the
    steady-state solve driven at the shifted collective resonance.
    """
    config = _base_preset(
        **{
            "geometry.lattice_const": "0.95",
            "input.purity": "0.999",
            "input.n_photons": "log:0.01:1000:13",
            "model": "both",
            **(overrides or {}),
        }
    )
    rates = config.rates()
    shift = config.collective_shift()

    resonant_rows = run_sweep(
        dataclasses.replace(config, model="both", detuning_mode="on-resonance")
    )
    corrected_rows = run_sweep(
        dataclasses.replace(
            config, model="numeric", detuning_mode="delta-prime-corrected"
        )
    )

    rows: list[dict[str, Any]] = []
    for res, cor in zip(resonant_rows, corrected_rows):
        errors = "; ".join(msg for msg in (res["error"], cor["error"]) if msg)
        rows.append(
            {
                "n_photons": res["n_photons"],
                "r0": res["r0"],
                "xi2_analytic": res["xi2_analytic"],
                "xi2_numeric_resonant": res["xi2_numeric"],
                "xi2_numeric_corrected": cor["xi2_numeric"],
                "error": errors,
            }
        )

    summary = {
        "delta_prime_over_Gamma0": abs(shift) / rates.gamma0,
        "delta_prime_signed_over_Gamma0": shift / rates.gamma0,
        "delta_prime": shift,
        "r0": rates.r0,
        "lattice_const": config.geometry.lattice_const,
    }
    return rows, summary, FIG4_COLUMNS


Figure = tuple[list[dict[str, Any]], dict[str, float], list[str]]

PRESETS: dict[str, Callable[[dict[str, str] | None], Figure]] = {
    "fig3a": preset_fig3a,
    "fig3b": preset_fig3b,
    "fig4": preset_fig4,
}


def fig_data(
    figure_id: str,
    overrides: dict[str, str] | None = None,
    out_dir: str = ".",
    out_format: str = "csv",
) -> list[str]:
    """Generate a figure preset and write its table plus JSON summary.

    Returns the list of file paths written.
    """
    if figure_id not in PRESETS:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; expected one of {sorted(PRESETS)}"
        )
    return write_figure(figure_id, PRESETS[figure_id](overrides), out_dir, out_format)


def write_figure(
    figure_id: str, figure: Figure, out_dir: str = ".", out_format: str = "csv"
) -> list[str]:
    """Write a figure preset's table and JSON summary into ``out_dir``.

    Returns the list of file paths written.
    """
    rows, summary, columns = figure
    os.makedirs(out_dir, exist_ok=True)

    extension = "csv" if out_format == "csv" else "json"
    table_path = os.path.join(out_dir, f"{figure_id}.{extension}")
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_table(rows, out_format, columns))

    summary_path = os.path.join(out_dir, f"{figure_id}_summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [table_path, summary_path]
