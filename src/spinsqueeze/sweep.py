"""Parameter sweeps, figure presets, and table output.

A sweep evaluates the selected models over the photon-number grid and
returns one plain dict per grid point.  Rows keep a fixed column order;
CSV writes every float with 17 significant digits and JSON with
Python's shortest ``repr``, which reads back to the same float, so reruns
with the same configuration are byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from itertools import groupby, repeat
from operator import is_, itemgetter
from typing import Any, Callable, Iterator, NamedTuple

import numpy as np

from .analytic import DetuningSpec, squeezing_contrast, xi2_min, xi2_min_vs_layers
from .config import ExperimentConfig, build_config
from .exceptions import ConfigError, ConvergenceError, SpinSqueezeError
from .mc import simulate_xi2
from .rates import ValidityReport, compute_rates, validity_report
from .squeezed_input import (
    MAX_PHOTONS,
    SqueezedVacuumSpec,
    beam_splitter,
    noise_diffusions,
)
from .steady import numeric_response, oracle_stacks, xi2_over_grid

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


def validity_columns(
    report: ValidityReport, n_photons: float | np.ndarray
) -> dict[str, Any]:
    """The six ``valid_*`` output columns of a stack's validity report at
    photon number ``n_photons``; this is the one place they are decided.

    The four geometric flags are the report's.  ``valid_linearization``
    is N < ``n_eff``, the saturation check, and ``valid_all`` is it and
    the geometric flags together: each a ``bool`` at a float N, and a
    list of them, one per N, at an array.
    """
    linear = np.less(n_photons, report.n_eff)
    return {
        "valid_all": (linear & report.geometry_ok).tolist(),
        "valid_layer_size": report.layer_size_ok,
        "valid_rayleigh": report.rayleigh_ok,
        "valid_phase_match": report.phase_match_ok,
        "valid_evanescent": report.evanescent_ok,
        "valid_linearization": linear.tolist(),
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
    place a model is evaluated.  What no point changes (the detuning, the
    contrast ``alpha_eff`` and the stack's validity report) is computed
    once, and each column that depends on N is one array pass over the
    grid: the six ``valid_*`` columns by :func:`validity_columns`, the
    closed-form columns by :func:`squeezed_input.beam_splitter`,
    ``xi2_numeric`` by :func:`steady.xi2_over_grid` from the one unit
    solve of :func:`steady.numeric_response`.  Only ``mc-check``'s
    trajectories run per point, on ``workers`` threads, on the stacks that
    :func:`steady.oracle_stacks` picks first from that column; point i
    runs on seed (``seed`` + 1000003 i) mod 2^63.

    Errors follow one rule.  The columns are filled in a fixed order: the
    input check, ``xi2_field``, the detuning, ``alpha_eff``, the
    closed-form columns, the numeric solve, its contrast, the oracle's
    stacks and ``xi2_numeric``.  An error met on the way (a
    ``SpinSqueezeError``, or numpy's ``LinAlgError`` as a
    ``ConvergenceError``) fails every row, and every column filled before
    it stays written.  Only the occupation check of ``xi2_numeric`` and
    the trajectories fail their own row.  The one error raised is the
    ``ConfigError`` of ``config.rates()``; an N or a purity out of range,
    which only a hand-built config can hold, fails the input check like
    any other error.
    """
    geom, purity = config.geometry, config.purity
    rates = config.rates()
    grid = config.n_photons_grid
    if not grid:
        return []
    report = validity_report(geom, config.beam, rates)
    n_photons = np.array(grid, dtype=float)
    # A column is a list of one cell per row, or one cell that every row shares.
    columns: dict[str, Any] = dict.fromkeys(SWEEP_COLUMNS, "")
    columns.update(
        validity_columns(report, n_photons),
        n_photons=list(grid),
        purity=purity,
        r0=rates.r0,
        n_eff=report.n_eff,
    )
    errors = [""] * len(grid)
    try:
        # The first spec of a spec per point to fail raises its error: point 0's
        # if the purity fails, else that of the first N out of range, if any.
        in_range = (n_photons >= 0.0) & (n_photons <= MAX_PHOTONS)
        for index in (0, int(in_range.argmin())):
            SqueezedVacuumSpec(grid[index], purity)
        # input_quadrature_variance at each N: the law at full reflectivity
        columns["xi2_field"] = beam_splitter(1.0, n_photons, purity).xi2.tolist()
        det = DetuningSpec(_resolve_detuning(config))
        columns["eff_detuning"] = det.eff_detuning
        unit = SqueezedVacuumSpec(n_photons=0.0, purity=purity)
        alpha = columns["alpha_eff"] = squeezing_contrast(rates, unit, det)
        if config.model in ("analytic", "both"):  # at the contrast of the sweep
            analytic = beam_splitter(rates.r0, n_photons, alpha)
            columns.update(
                xi2_analytic=analytic.xi2.tolist(),
                theta_opt=analytic.theta_opt,
                xi2_anti=analytic.xi2_anti.tolist(),
            )
        if config.model != "analytic":
            response = numeric_response(geom, rates, det, config.include_evanescent)
            xi2, failed = xi2_over_grid(response, n_photons, purity)
            if config.model == "mc-check":  # chosen before the workers start
                stacks = oracle_stacks(
                    response, xi2, n_photons, purity, geom, rates, det
                )
            for index, exc in failed.items():
                xi2[index], errors[index] = "", _error_text(exc)
            columns["xi2_numeric"] = xi2
    except _ROW_ERRORS as exc:
        errors[:] = [_error_text(exc)] * len(grid)

    def trajectories(index: int) -> None:
        seed = (config.mc.seed + _PER_POINT_SEED_STRIDE * index) % 2**63
        params = dataclasses.replace(config.mc, seed=seed)
        drift, g, r = stacks[index]
        try:
            diff = noise_diffusions(SqueezedVacuumSpec(grid[index], purity), g, r)
            estimates[index], stderrs[index] = simulate_xi2(drift, diff, g, params)
        except _ROW_ERRORS as exc:
            errors[index] = _error_text(exc)

    if config.model == "mc-check":  # at every point whose other columns did not fail
        points = [index for index, error in enumerate(errors) if not error]
        estimates, stderrs = [""] * len(grid), [""] * len(grid)
        columns.update(mc_estimate=estimates, mc_stderr=stderrs)
        if config.workers > 1:  # only trajectories carry enough work for a thread
            with ThreadPoolExecutor(max_workers=config.workers) as pool:
                list(pool.map(trajectories, points))
        else:
            for index in points:
                trajectories(index)
    columns["error"] = errors
    rows = [columns.copy() for _ in grid]
    for key, column in columns.items():
        if isinstance(column, list):  # one cell per row; any other is shared
            for row, cell in zip(rows, column):
                row[key] = cell
    return rows


# A float at 17 significant digits, as a CSV cell.
_csv_float = "{:.17g}".format


def format_value(value: Any) -> str:
    """Render one cell: floats at 17 significant digits, booleans as
    lowercase words, everything else via str; a numpy scalar as the
    Python value of its ``.item()``."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _csv_float(value)
    return str(value)


def _column_texts(
    cells: list[Any], encode: Callable[[Any], str], float_text: Callable[[float], str]
) -> str | Iterator[str]:
    """The text of each cell of one column, or one text if every cell is
    the same object.

    Each distinct object is encoded once, by ``encode``; cells are shared
    by identity, never by equality, because ``0.0 == -0.0`` and
    ``1 == 1.0 == True`` yet each is written differently.  Any other
    column of exact, finite floats goes through ``float_text`` instead,
    which must write them as ``encode`` does.
    """
    first = cells[0]
    if all(map(is_, cells, repeat(first))):
        return encode(first)
    if set(map(type, cells)) == {float} and all(map(math.isfinite, cells)):
        return map(float_text, cells)
    distinct = dict(zip(map(id, cells), cells))
    texts = {key: encode(cell) for key, cell in distinct.items()}
    return map(texts.__getitem__, map(id, cells))


def _text_rows(columns: list[str | Iterator[str]], n_rows: int) -> Iterator[tuple]:
    """Column texts turned into rows, a shared text repeated in each."""
    cells = [repeat(col, n_rows) if isinstance(col, str) else col for col in columns]
    return zip(*cells) if cells else repeat((), n_rows)


def rows_to_csv(rows: list[dict[str, Any]]) -> str:
    """Serialise rows as RFC-4180 CSV, headed by the first row's keys.

    The table is encoded a column at a time by :func:`_column_texts`, a
    missing cell as ``""``, and written by ``csv.writer`` a row at a
    time.  A column whose every cell is the same object (identity, not
    equality) is encoded once; every other cell is written as
    :func:`format_value` writes it, floats at 17 significant digits.
    """
    columns = list(rows[0].keys()) if rows else []
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(columns)
    texts = [
        _column_texts([row.get(col, "") for row in rows], format_value, _csv_float)
        for col in columns
    ]
    writer.writerows(_text_rows(texts, len(rows)))
    return buffer.getvalue()


def _jsonable(value: Any) -> Any:
    if isinstance(value, np.generic):  # np.bool_ and np.int64 are no bool or int
        return value.item()
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


def _json_objects(objs: list[dict[str, Any]], depth: int) -> list[str]:
    """Flat objects as ``json.dumps(indent=2, sort_keys=True)`` writes
    them ``depth`` levels deep, other values mapped by ``_jsonable`` (a
    complex one's ``{"re", "im"}`` items break at this same depth, not one
    deeper).

    Consecutive objects with the same keys share one ``%`` template, laid
    out by the encoder itself, so that it sorts, converts and escapes the
    keys; their values are encoded a column at a time by
    :func:`_column_texts`, with a column's shared value baked into the
    template.
    """
    encoder = _OBJECT_ENCODERS[depth]
    sep = encoder.item_separator
    texts: list[str] = []
    for keys, run in groupby(objs, list):
        group = list(run)
        columns = [
            _column_texts(
                list(map(itemgetter(key), group)), encoder.encode, float.__repr__
            )
            for key in keys
        ]
        # Each key's value is its column number; the items come out sorted.
        numbered = encoder.encode(dict(zip(keys, range(len(keys)))))
        items, varying = [], []
        for item in numbered[1:-1].split(sep) if keys else []:
            name, _, number = item.rpartition(": ")
            column = columns[int(number)]
            if isinstance(column, str):
                items.append((name + ": " + column).replace("%", "%%"))
            else:
                items.append(name.replace("%", "%%") + ": %s")
                varying.append(column)
        if items:
            template = "{" + sep[1:] + sep.join(items) + "\n" + "  " * depth + "}"
        else:
            template = "{}"
        texts.extend(map(template.__mod__, _text_rows(varying, len(group))))
    return texts


def _json_object(obj: dict[str, Any], depth: int) -> str:
    """One flat object as :func:`_json_objects` writes it."""
    return _json_objects([obj], depth)[0]


def rows_to_json(rows: list[dict[str, Any]], meta: dict[str, Any] | None = None) -> str:
    """Serialise rows (and optional metadata) as deterministic JSON, laid
    out as ``json.dumps(indent=2, sort_keys=True)`` lays it out.

    The rows are encoded a column at a time by :func:`_json_objects`.  A
    column whose every cell is the same object (identity, not equality)
    is encoded once, into the rows' template; a column of finite floats
    is written by ``float.__repr__``, which the json module calls for
    them, and every other cell by the json module itself.
    """
    head = "{\n" if meta is None else '{\n  "meta": ' + _json_object(meta, 1) + ",\n"
    if not rows:
        return head + '  "rows": []\n}\n'
    # One join copies the rows' text once; a chain of + would copy it at
    # each step and hold two copies at a time, which sets the peak memory.
    body = ",\n    ".join(_json_objects(rows, 2))
    return "".join((head, '  "rows": [\n    ', body, "\n  ]\n}\n"))


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
    a one-point numeric sweep per layer count, whose ``xi2_numeric`` and
    ``error`` each row copies.  A pure source's infinite optimum fails the
    check's input check, so it is an error of that row.
    """
    rows: list[dict[str, Any]] = []
    for entry in xi2_min_vs_layers(
        config.geometry, config.beam, config.gamma_s, config.purity, list(range(1, 101))
    ):
        row = {**dict.fromkeys(FIG3B_COLUMNS, ""), **entry}
        case = dataclasses.replace(
            config,
            geometry=dataclasses.replace(config.geometry, n_layers=entry["n_layers"]),
            model="numeric",
            n_photons_grid=(entry["n_photons_opt"],),
        )
        (check,) = run_sweep(case)
        row["xi2_numeric"] = check["xi2_numeric"]
        row["error"] = check["error"]
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
