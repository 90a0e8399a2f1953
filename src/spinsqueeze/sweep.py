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
from typing import Any, Callable, NamedTuple

import numpy as np

from .analytic import DetuningSpec, squeezing_contrast, xi2_min, xi2_min_vs_layers
from .config import ExperimentConfig, build_config
from .exceptions import ConfigError, ConvergenceError, SpinSqueezeError
from .layers import drift_matrix, evanescent_band, interaction_kernel
from .mc import simulate_xi2
from .rates import ValidityReport, compute_rates, linearizes, validity_report
from .squeezed_input import (
    SqueezedVacuumSpec,
    beam_splitter,
    input_quadrature_variance,
    noise_diffusions,
)
from .steady import krylov_response, oracle_stacks, unit_response, xi2_from_response

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

# A figure preset's table rows, in column order, and its JSON summary.
Figure = tuple[list[dict[str, Any]], dict[str, float]]


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


# Errors that fail one row, or every row, instead of the whole sweep.
_ROW_ERRORS = (SpinSqueezeError, np.linalg.LinAlgError)


def _error_text(exc: Exception) -> str:
    if isinstance(exc, np.linalg.LinAlgError):  # LAPACK gave up on this input
        exc = ConvergenceError(f"linear algebra failed: {exc}")
    return f"{type(exc).__name__}: {exc}"


def run_sweep(config: ExperimentConfig) -> list[dict[str, Any]]:
    """Evaluate the configured models over the photon-number grid.

    Returns one row dict per grid point, in grid order; this is the one
    place a model is evaluated.  The detuning, the contrast ``alpha_eff``
    (purity and detuning only), the geometric validity flags and
    ``n_eff`` are computed once per sweep; each point adds what depends
    on N, up to ``valid_linearization`` and ``valid_all``.  The numeric
    model solves its drift matrix once, for unit sources, and evaluates
    every point in closed form; at integer layer spacing that solve is
    the Krylov reduction of :func:`steady.krylov_response`, and the
    N_z x N_z drift matrix is built only at other spacings.  ``mc-check``
    samples at each point the stack that :func:`steady.oracle_stacks`
    picks before any trajectory runs.  Solver errors,
    including an unstable drift matrix, an evanescent sum that does not
    converge or numpy's ``LinAlgError`` (as a ``ConvergenceError``),
    land in the ``error`` column of each row they affect instead of
    aborting the whole sweep.  A detuning or contrast that cannot be
    resolved fails every row, which keeps only the columns that do not
    depend on it.
    """
    geom = config.geometry
    rates = config.rates()
    want_numeric = config.model in ("numeric", "both", "mc-check")
    want_analytic = config.model in ("analytic", "both")
    want_mc = config.model == "mc-check"

    # Evaluated at N = 0: only the flags that hold at every N and n_eff are read.
    report = validity_report(geom, config.beam, 0.0, rates)
    template: dict[str, Any] = dict.fromkeys(SWEEP_COLUMNS, "")
    template.update(validity_columns(report))
    template.update(purity=config.purity, r0=rates.r0, n_eff=report.n_eff)
    specs = [SqueezedVacuumSpec(n, config.purity) for n in config.n_photons_grid]
    det = alpha = response = None
    # The first error of the detuning, the contrast and the numeric solve.
    setup_error = ""
    try:
        det = DetuningSpec(_resolve_detuning(config))
        template["eff_detuning"] = det.eff_detuning
        unit = SqueezedVacuumSpec(n_photons=0.0, purity=config.purity)
        alpha = template["alpha_eff"] = squeezing_contrast(rates, unit, det)
        # At integer spacing every phase is 1, and the solve and the
        # trajectories both run on the Krylov-reduced process.
        integer_spacing = geom.layer_spacing == round(geom.layer_spacing)
        if want_numeric and integer_spacing:
            eps = np.zeros(1)  # eps(0) alone: no evanescent coupling
            if config.include_evanescent:
                eps, _ = evanescent_band(
                    geom, config.kernel_tol, config.kernel_max_order
                )
            response = krylov_response(eps, geom, rates, det)
        elif want_numeric:
            kernel = interaction_kernel(
                geom,
                rates,
                tol=config.kernel_tol,
                include_evanescent=config.include_evanescent,
                max_order=config.kernel_max_order,
            )
            drift = drift_matrix(kernel, rates, det)
            del kernel  # N_z x N_z, freed before the solve, where the memory peaks
            response = unit_response(drift, geom, rates)
        if want_mc:  # chosen here, so that the workers cannot change the choice
            stacks = oracle_stacks(response, specs, geom, rates, det)
    except _ROW_ERRORS as exc:
        setup_error = _error_text(exc)

    def evaluate(index: int) -> dict[str, Any]:
        spec = specs[index]
        n_photons = spec.n_photons
        row = template.copy()
        row["n_photons"] = n_photons
        row["xi2_field"] = input_quadrature_variance(spec)
        row["valid_linearization"] = linear = linearizes(n_photons, report.n_eff)
        row["valid_all"] = report.geometry_ok and linear
        if alpha is None:  # no detuning or no contrast
            row["error"] = setup_error
            return row
        try:
            if want_analytic:  # xi2_analytic, at the contrast of the sweep
                analytic = beam_splitter(rates.r0, n_photons, alpha)
                row["xi2_analytic"] = analytic.xi2
                row["theta_opt"] = analytic.theta_opt
                row["xi2_anti"] = analytic.xi2_anti
            if setup_error:
                row["error"] = setup_error
                return row
            if want_numeric:
                row["xi2_numeric"] = xi2_from_response(response, spec).xi2
            if want_mc:
                params = dataclasses.replace(
                    config.mc,
                    seed=config.mc.seed + _PER_POINT_SEED_STRIDE * index,
                )
                drift, g, r = stacks[index]
                diff = noise_diffusions(spec, g, r)
                estimate, stderr = simulate_xi2(drift, diff, g, params)
                row["mc_estimate"] = estimate
                row["mc_stderr"] = stderr
        except _ROW_ERRORS as exc:
            row["error"] = _error_text(exc)
        return row

    items = range(len(specs))
    # Only trajectory points carry enough work to pay for a thread; the
    # others are closed-form evaluations of the one unit solve.
    if want_mc and config.workers > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(evaluate, items))
    return [evaluate(item) for item in items]


def format_value(value: Any) -> str:
    """Render one cell: floats at 17 significant digits, booleans as
    lowercase words, everything else via str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def rows_to_csv(rows: list[dict[str, Any]]) -> str:
    """Serialise rows as RFC-4180 CSV, headed by the first row's keys."""
    columns = list(rows[0].keys()) if rows else []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format_value(row.get(col, "")) for col in columns])
    return buffer.getvalue()


def _jsonable(value: Any) -> Any:
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    return str(value)


# One encoder per object depth, each item on its own line.  With indent
# unset the json module encodes in C; an indent makes it fall back to Python.
# It writes float, int, bool, str and None itself, and other values by _jsonable.
_OBJECT_ENCODERS = [
    json.JSONEncoder(sort_keys=True, separators=(",\n" + pad, ": "), default=_jsonable)
    for pad in ("  ", "    ", "      ")
]


def _json_object(obj: dict[str, Any], depth: int) -> str:
    """A flat object as ``json.dumps(indent=2, sort_keys=True)`` writes it
    ``depth`` levels deep, other values mapped by ``_jsonable`` (a complex
    one's ``{"re", "im"}`` items break at this same depth, not one deeper)."""
    if not obj:
        return "{}"
    text = _OBJECT_ENCODERS[depth].encode(obj)
    return "{\n" + "  " * (depth + 1) + text[1:-1] + "\n" + "  " * depth + "}"


def rows_to_json(rows: list[dict[str, Any]], meta: dict[str, Any] | None = None) -> str:
    """Serialise rows (and optional metadata) as deterministic JSON, laid
    out as ``json.dumps(indent=2, sort_keys=True)`` lays it out."""
    head = "{\n" if meta is None else '{\n  "meta": ' + _json_object(meta, 1) + ",\n"
    body = ",\n".join("    " + _json_object(row, 2) for row in rows)
    return head + '  "rows": ' + ("[\n" + body + "\n  ]" if rows else "[]") + "\n}\n"


def format_table(rows: list[dict[str, Any]], out_format: str) -> str:
    """Serialise rows as CSV or as JSON."""
    return rows_to_csv(rows) if out_format == "csv" else rows_to_json(rows)


def preset_fig3a(config: ExperimentConfig) -> Figure:
    """Squeezing versus photon number at a=0.68, two source qualities.

    Both the closed form and the steady-state solve are evaluated for a
    perfect source and for one with 0.1% excess noise; each grid point
    appears once per source case, tagged by the ``alpha_case`` column.
    """
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
    return rows, summary


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


def preset_fig3b(config: ExperimentConfig) -> Figure:
    """Optimal squeezing versus stack depth at a=0.68.

    The closed-form optimum is tabulated for every layer count from 1
    to 100 together with its two asymptotes, and the steady-state model
    is evaluated at the optimal photon number as an independent check:
    a one-point numeric sweep per layer count.
    """
    rows: list[dict[str, Any]] = []
    for entry in xi2_min_vs_layers(
        config.geometry, config.beam, config.gamma_s, config.purity, list(range(1, 101))
    ):
        n_z = int(entry["n_layers"])
        row = {**dict.fromkeys(FIG3B_COLUMNS, ""), **entry, "n_layers": n_z}
        case = dataclasses.replace(
            config,
            geometry=dataclasses.replace(config.geometry, n_layers=n_z),
            model="numeric",
            n_photons_grid=(entry["n_photons_opt"],),
        )
        try:
            (check,) = run_sweep(case)
            row["xi2_numeric"] = check["xi2_numeric"]
            row["error"] = check["error"]
        except SpinSqueezeError as exc:  # an infinite optimum is no valid input
            row["error"] = _error_text(exc)
        rows.append(row)

    g10 = dataclasses.replace(config.geometry, n_layers=10)
    r10 = compute_rates(g10, config.beam, config.gamma_s)
    summary = {
        "r0_Nz10": r10.r0,
        "asymptote_large_Nz": 1.0 - r10.eta,
        "asymptote_small_Nz_coeff": config.gamma_s / r10.gamma0,
        "alpha_eff": config.purity,
    }
    return rows, summary


def preset_fig4(config: ExperimentConfig) -> Figure:
    """Detuning compensation at a=0.95, where evanescent coupling is strong.

    Three curves over the photon grid: the on-resonance closed form,
    the steady-state solve driven at the bare resonance, and the
    steady-state solve driven at the shifted collective resonance.
    """
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

    rows = [
        {
            "n_photons": res["n_photons"],
            "r0": res["r0"],
            "xi2_analytic": res["xi2_analytic"],
            "xi2_numeric_resonant": res["xi2_numeric"],
            "xi2_numeric_corrected": cor["xi2_numeric"],
            "error": "; ".join(msg for msg in (res["error"], cor["error"]) if msg),
        }
        for res, cor in zip(resonant_rows, corrected_rows)
    ]

    summary = {
        "delta_prime_over_Gamma0": abs(shift) / rates.gamma0,
        "delta_prime_signed_over_Gamma0": shift / rates.gamma0,
        "delta_prime": shift,
        "r0": rates.r0,
        "lattice_const": config.geometry.lattice_const,
    }
    return rows, summary


class Preset(NamedTuple):
    """A figure preset: its keys, the keys it varies itself, and its build."""

    keys: dict[str, str]
    varies: tuple[str, ...]
    build: Callable[[ExperimentConfig], Figure]


PRESETS: dict[str, Preset] = {
    "fig3a": Preset(
        {"geometry.lattice_const": "0.68", "input.n_photons": "log:0.01:1000:25"},
        ("input.purity",),
        preset_fig3a,
    ),
    "fig3b": Preset(
        {"geometry.lattice_const": "0.68", "input.purity": "0.9999"},
        ("geometry.n_layers", "input.n_photons", "model"),
        preset_fig3b,
    ),
    "fig4": Preset(
        {
            "geometry.lattice_const": "0.95",
            "input.purity": "0.999",
            "input.n_photons": "log:0.01:1000:13",
        },
        ("model", "detuning.mode", "detuning.value"),
        preset_fig4,
    ),
}


def figure_config(
    figure_id: str, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """Build a figure's config: its preset keys, under the caller's keys.

    A caller's key that the preset varies or fixes itself is refused.
    """
    if figure_id not in PRESETS:
        raise ConfigError(
            f"unknown figure id {figure_id!r}; expected one of {sorted(PRESETS)}"
        )
    preset, overrides = PRESETS[figure_id], overrides or {}
    refused = [key for key in preset.varies if key in overrides]
    if refused:
        raise ConfigError(
            f"set by the {figure_id} preset itself, not by the config: "
            + ", ".join(map(repr, refused))
        )
    return build_config({**preset.keys, **overrides})


def fig_data(figure_id: str, overrides: dict[str, str] | None = None) -> list[str]:
    """Generate a figure preset and write it where its config says.

    Returns the list of file paths written.
    """
    config = figure_config(figure_id, overrides)
    return write_figure(figure_id, PRESETS[figure_id].build(config), config)


def figure_paths(figure_id: str, config: ExperimentConfig) -> tuple[str, str, str]:
    """Directory, table path and summary path of a figure preset.

    The directory is ``output.path`` (``-`` or empty meaning the current
    one) and the table's format ``output.format``.
    """
    out_dir = config.out_path if config.out_path not in ("", "-") else "."
    return (
        out_dir,
        os.path.join(out_dir, f"{figure_id}.{config.out_format}"),
        os.path.join(out_dir, f"{figure_id}_summary.json"),
    )


def write_figure(figure_id: str, figure: Figure, config: ExperimentConfig) -> list[str]:
    """Write a figure preset's table and JSON summary where
    :func:`figure_paths` puts them.  Returns the list of file paths written.
    """
    rows, summary = figure
    out_dir, table_path, summary_path = figure_paths(figure_id, config)
    os.makedirs(out_dir, exist_ok=True)
    with open(table_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(format_table(rows, config.out_format))
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(_json_object(summary, 0) + "\n")
    return [table_path, summary_path]
