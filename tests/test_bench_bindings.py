"""The package names that the benchmark's tracer binds.

``bench/tracer.py`` looks up functions by module and name and reads a
few result fields.  A rename in the package breaks the benchmark, so it
fails here first.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from spinsqueeze import (
    DetuningSpec,
    SqueezedVacuumSpec,
    build_config,
    drift_matrix,
    interaction_kernel,
    noise_diffusions,
    solve_moments,
    sweep,
)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = load_tracer()
    assert tracer.TRACED
    for module_name, fn_name in tracer.TRACED:
        module = importlib.import_module(f"spinsqueeze.{module_name}")
        assert callable(getattr(module, fn_name, None)), f"{module_name}.{fn_name}"


def test_traced_result_fields_exist():
    config = build_config({"geometry.n_layers": "3"})
    rates = config.rates()
    kernel = interaction_kernel(config.geometry, rates)
    assert kernel.truncation.terms_summed > 0
    assert kernel.truncation.max_order > 0
    drift = drift_matrix(kernel, rates, DetuningSpec())
    diff = noise_diffusions(SqueezedVacuumSpec(n_photons=1.0), config.geometry, rates)
    moments = solve_moments(drift, diff)
    assert moments.residual_n >= 0.0 and moments.residual_m >= 0.0


def test_format_table_calls_json_through_the_module_binding(monkeypatch):
    # The tracer times sweep.serialise by wrapping this module global.
    calls = []
    monkeypatch.setattr(sweep, "rows_to_json", lambda rows: calls.append(rows) or "")
    rows = [{"a": 1.0}]
    sweep.format_table(rows, "json")
    assert calls == [rows]


def test_format_table_calls_csv_through_the_module_binding(monkeypatch):
    # The tracer times sweep.serialise by wrapping this module global too.
    calls = []
    monkeypatch.setattr(sweep, "rows_to_csv", lambda rows: calls.append(rows) or "")
    rows = [{"a": 1.0}]
    sweep.format_table(rows, "csv")
    assert calls == [rows]
