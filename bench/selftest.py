"""Self-tests of the benchmark, kept out of the package's test suite:

    python3 -m pytest bench/selftest.py

They run every workload once in smoke mode (about a minute in all).
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import calibration  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, check_rows, read_rows  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _bench(*args: str, cwd: str = ROOT, script: str = os.path.join(HERE, "run.py")):
    return subprocess.run(
        [sys.executable, script, *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    names = [
        item["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for item in spec[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_smoke_run_prints_every_metric(workload, trace):
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    printed = {f[0]: f[2] for f in map(str.split, lines[:-1]) if f[0] != "provenance"}
    assert printed == {**expected, "failed_frac": "1"}
    if trace:
        assert result["metrics"]["steady.solve_sylvester.calls"]["value"] > 0
        assert result["metrics"]["trace.coverage"]["value"] > 0
    else:
        record = json.loads(lines[-2].split(" ", 1)[1])
        unscaled = record["unscaled_medians_s"]
        assert unscaled["wall_s"] > 0 and unscaled["setup_s"] > 0
        assert unscaled["calibration_s"] > 0 and record["cal_ref_s"] == calibration.CAL_REF_S


def test_times_are_scaled_by_the_calibrations_around_them(monkeypatch):
    results = iter([
        {"setup_s": 1.0, "cal_pre_s": 0.4},
        {"setup_s": 1.0, "cal_pre_s": 0.2, "cal_post_s": 0.1, "wall_s": 3.0, "rss_mb": 1.0},
    ])

    class FakeRunner:
        smoke = True
        reference = [{}] * 6
        cal_times: list[float] = []

        def call(self, mode):
            result = next(results)
            run.Runner._scale(self, result)
            return result

    monkeypatch.setattr(run, "CAL_REF_S", 0.2)
    metrics, info = run.measure_end_to_end(FakeRunner(), seconds=1.0)
    assert metrics["wall_s"] == pytest.approx(3.0 * 0.2 / 0.15)
    assert metrics["setup_s"] == pytest.approx(1.0 * 0.2 / 0.3)
    assert metrics["rows_per_s"] == pytest.approx(6 / metrics["wall_s"])
    assert info["unscaled"]["wall_s"] == 3.0


def test_calibration_is_small_work():
    import tracemalloc

    tracemalloc.start()
    try:
        seconds = calibration.calibrate()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seconds > 0
    # Well under the children's resident set, so peak_rss_mb is theirs.
    assert peak < 1 << 20


def test_tracer_sees_every_binding_and_restores_them():
    import spinsqueeze.cli as cli
    from spinsqueeze.config import build_config
    from spinsqueeze.sweep import run_sweep

    def bindings():
        return {
            (m.__name__, attr): value
            for m in tracer._package_modules()
            for attr, value in vars(m).items()
            if callable(value)
        }

    before = bindings()
    config = build_config(
        {"geometry.n_layers": "3", "input.n_photons": "1,2", "model": "numeric"}
    )
    with tracer.Tracer() as t:
        assert "spinsqueeze.sweep.solve_moments" in tracer.leftover_wrappers()
        rows = run_sweep(config)
        cli.rows_to_csv(rows)
        config.rates()
    assert tracer.leftover_wrappers() == []
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)

    metrics = t.metrics(root_s=1.0)
    assert metrics["steady.solve_moments.calls"] == 2
    assert metrics["steady.solve_sylvester.calls"] == 4
    assert metrics["steady.solve_sylvester.sum_n3"] == 4 * 3**3
    assert metrics["rates.compute_rates.calls"] == 2
    assert metrics["sweep.serialise.calls"] == 1 and metrics["sweep.rows"] == 2
    parents = {t.spans[s[3]][0] for s in t.spans if s[0] == "steady.solve_sylvester"}
    assert parents == {"steady.solve_moments"}


def test_gate_tolerance_and_mc_z_score():
    workload = WORKLOADS["mc-check"]
    reference = read_rows(workload.reference_path(smoke=False))
    rows = [dict(r, mc_estimate=r["xi2_numeric"], mc_stderr="0.001", error="") for r in reference]
    assert check_rows(workload, rows, reference) == {}
    rows[0]["xi2_numeric"] = repr(float(reference[0]["xi2_numeric"]) * (1 + 1e-9))
    assert check_rows(workload, rows, reference) == {}
    rows[1]["xi2_numeric"] = repr(float(reference[1]["xi2_numeric"]) * (1 + 1e-7))
    rows[2]["mc_estimate"] = repr(float(reference[2]["xi2_numeric"]) + 0.006)
    assert set(check_rows(workload, rows, reference)) == {1, 2}
    assert len(check_rows(workload, rows[:-1], reference)) == len(reference)


def test_corrupted_reference_fails_the_run(tmp_path):
    bench = tmp_path / "bench"
    shutil.copytree(HERE, bench, ignore=shutil.ignore_patterns("__pycache__"))
    path = WORKLOADS["numeric-deep"].reference_path(smoke=True)
    ref = bench / "reference" / os.path.basename(path)
    lines = ref.read_text().splitlines()
    cells = lines[3].split(",")
    col = lines[0].split(",").index("xi2_numeric")
    cells[col] = repr(float(cells[col]) * (1 + 1e-6))
    lines[3] = ",".join(cells)
    ref.write_text("\n".join(lines) + "\n")
    proc = _bench("--workload", "numeric-deep", "--seed", "1", "--seconds", "1",
                  "--smoke", script=str(bench / "run.py"))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert not result["correct"]
    assert result["failed"] == 1
    assert "row 2: xi2_numeric" in proc.stderr


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "wide-grid", "--seed", "1", "--seconds", "1",
                  cwd=str(tmp_path), script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
