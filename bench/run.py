"""Benchmark of the spinsqueeze command line, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload numeric-deep --seed 1 --seconds 20 --trace 0

Every CLI call is a cold, fresh child process (``child.py``), one at a
time, with ``workers=1``, because CLI users pay the package's lazy
set-up on every invocation.  ``--trace 0`` reports the end-to-end
metrics, with times scaled to a reference machine speed measured in the
same run (``calibration.py``); ``--trace 1`` runs traced, untraced and
one-BLAS-thread calls in turn and reports the per-layer metrics.  Every output table is
checked against ``reference/``.  The script prints one line per metric
with its unit, a provenance line, and as its last line the JSON result.
``--smoke`` runs each kind of call once at tiny sizes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from calibration import CAL_REF_S
from tracer import UNITS as TRACE_UNITS
from workloads import WORKLOADS, Workload, check_rows, read_rows

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

END_TO_END = {
    "wall_s": "s",
    "rows_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    **TRACE_UNITS,
    "linalg.blas_threads": "count",
    "linalg.thread_speedup": "ratio",
    "process.cpu_s": "s",
    "process.cpu_per_wall": "ratio",
    "trace.overhead": "ratio",
}

# The variable OpenBLAS reads; set only in the one-thread child's environment.
BLAS_THREAD_VAR = "OPENBLAS_NUM_THREADS"
BLAS_ENV_VARS = (BLAS_THREAD_VAR, "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALL_TIMEOUT_S = 120
# Set-up times per end-to-end run; calls that finish early are topped up
# with set-up-only calls, because one set-up time varies by about 10%.
SETUP_SAMPLES = 12


class BenchError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def _digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Runner:
    """Spawns the child calls of one workload and gates their outputs.
    When ``calibrated``, every child also times ``calibrate()``; the
    times are collected in ``cal_times`` and each result gets the factors
    that scale its set-up and call times to CAL_REF_S."""

    def __init__(
        self, root: str, workload: Workload, seed: int, smoke: bool, calibrated: bool = False
    ) -> None:
        self.root = root
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self.reference = read_rows(workload.reference_path(smoke))
        os.makedirs(os.path.join(root, ".bench_work"), exist_ok=True)
        self.work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(root, ".bench_work"))
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.calibrated = calibrated
        self.cal_times: list[float] = []

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run is using it

    def call(self, mode: str, one_thread: bool = False) -> dict:
        """Run one child; return its result with the output digest."""
        self.calls += 1
        out_dir = os.path.join(self.work, f"call{self.calls}")
        os.makedirs(out_dir)
        result_path = out_dir + ".json"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(self.root, "src"), env.get("PYTHONPATH")) if p
        )
        if one_thread:
            env[BLAS_THREAD_VAR] = "1"
        args = self.workload.cli_args(out_dir, self.seed, self.smoke)
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, CHILD, result_path, repr(spawn), mode,
                 str(int(self.calibrated)), "--", *args],
                cwd=self.root,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE,
                text=True,
                timeout=CALL_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} call exceeded {CALL_TIMEOUT_S} s") from exc
        if proc.returncode != 0 or not os.path.exists(result_path):
            raise BenchError(
                f"{mode} call exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
        if self.calibrated:
            self._scale(result)
        if mode != "setup":
            self._gate(result, out_dir, proc.stderr)
            result["digest"] = _digest(out_dir)
        shutil.rmtree(out_dir)
        os.remove(result_path)
        return result

    def _scale(self, result: dict) -> None:
        """Add the factors that scale a child's times to CAL_REF_S: set-up
        by the calibrations on either side of it (the previous child's
        last one, then this child's first), the call by the two on
        either side of the call."""
        pre = result["cal_pre_s"]
        before = self.cal_times[-1] if self.cal_times else pre
        result["setup_scale"] = 2 * CAL_REF_S / (before + pre)
        self.cal_times.append(pre)
        if "cal_post_s" in result:
            result["wall_scale"] = 2 * CAL_REF_S / (pre + result["cal_post_s"])
            self.cal_times.append(result["cal_post_s"])

    def _gate(self, result: dict, out_dir: str, stderr: str) -> None:
        self.attempted += len(self.reference)
        if result["exit_code"] != 0:
            failures = {i: f"CLI exited {result['exit_code']}" for i in range(len(self.reference))}
            sys.stderr.write(stderr)
        else:
            rows = read_rows(os.path.join(out_dir, self.workload.table))
            failures = check_rows(self.workload, rows, self.reference)
        self.failed += len(failures)
        self.problems += [f"call {self.calls} row {i}: {msg}" for i, msg in failures.items()]


def _median(results: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in results)


def measure_end_to_end(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """After one untimed set-up call that warms the file cache, run full
    calls, then set-up-only calls until there are SETUP_SAMPLES set-up
    times, all within about ``seconds``.  Times are medians over calls of
    each time scaled to the calibrations on either side of it (see
    ``calibration.py``)."""
    start = time.monotonic()
    runner.call("setup")
    setup_call_s = time.monotonic() - start
    calls: list[dict] = []
    deadline = start + seconds
    # Leave time within ``seconds`` for the set-up-only calls still due.
    while not calls or (
        not runner.smoke
        and time.monotonic() < deadline - max(0, SETUP_SAMPLES - len(calls)) * setup_call_s
    ):
        calls.append(runner.call("plain"))
    setups = list(calls)
    while not runner.smoke and len(setups) < SETUP_SAMPLES:
        setups.append(runner.call("setup"))
    wall = statistics.median(r["wall_s"] * r["wall_scale"] for r in calls)
    metrics = {
        "wall_s": wall,
        "rows_per_s": len(runner.reference) / wall,
        "setup_s": statistics.median(r["setup_s"] * r["setup_scale"] for r in setups),
        "peak_rss_mb": _median(calls, "rss_mb"),
    }
    samples = {"wall_s": len(calls), "rows_per_s": len(calls),
               "setup_s": len(setups), "peak_rss_mb": len(calls)}
    unscaled = {
        "wall_s": _median(calls, "wall_s"),
        "setup_s": _median(setups, "setup_s"),
        "calibration_s": statistics.median(runner.cal_times),
    }
    return metrics, {"samples": samples, "first": calls[0], "unscaled": unscaled}


def measure_layers(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Alternate traced, untraced and one-BLAS-thread calls until
    ``seconds`` pass; per-layer values are medians over traced calls."""
    traced: list[dict] = []
    plain: list[dict] = []
    single: list[dict] = []
    deadline = time.monotonic() + seconds
    while not traced or (not runner.smoke and time.monotonic() < deadline):
        traced.append(runner.call("trace"))
        plain.append(runner.call("plain"))
        single.append(runner.call("plain", one_thread=True))
    digests = {r["digest"] for r in traced + plain}
    if len(digests) != 1:
        runner.problems.append("traced and untraced calls wrote different bytes")
    # Counts repeat exactly between calls; median_low keeps them integers.
    metrics = {
        name: (statistics.median_low if unit in ("count", "bytes") else statistics.median)(
            r["trace"][name] for r in traced
        )
        for name, unit in TRACE_UNITS.items()
    }
    wall = _median(plain, "wall_s")
    metrics.update({
        "linalg.blas_threads": max(lib.get("threads", 0) for lib in plain[0]["blas"]),
        "linalg.thread_speedup": _median(single, "wall_s") / wall,
        "process.cpu_s": _median(plain, "cpu_s"),
        "process.cpu_per_wall": statistics.median(r["cpu_s"] / r["wall_s"] for r in plain),
        "trace.overhead": _median(traced, "wall_s") / wall - 1.0,
    })
    samples = dict.fromkeys(metrics, len(traced))
    return metrics, {"samples": samples, "first": plain[0]}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    if not os.path.exists(os.path.join(root, ".git")):
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def provenance(runner: Runner, first: dict) -> dict:
    """Machine, library and input facts that go with every result."""
    ref = runner.workload.reference_path(runner.smoke)
    with open(ref, "rb") as fh:
        ref_hash = hashlib.sha256(fh.read()).hexdigest()
    return {
        "workload": runner.workload.name,
        "seed": runner.seed,
        "smoke": runner.smoke,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": first["numpy"],
        "scipy": first["scipy"],
        "openblas": first["blas"],
        "blas_env": {var: os.environ.get(var) for var in BLAS_ENV_VARS},
        "git_commit": _git_commit(runner.root),
        "reference": {os.path.relpath(ref, HERE): ref_hash},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, one call each")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**40:
        parser.error("--seed must lie in [0, 2**40)")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinsqueeze", "cli.py")):
        print("error: run from the root of a spinsqueeze checkout "
              "(src/spinsqueeze/cli.py not found)", file=sys.stderr)
        return 1

    runner = Runner(root, WORKLOADS[args.workload], args.seed, args.smoke,
                    calibrated=not args.trace)
    try:
        if args.trace:
            metrics, info = measure_layers(runner, args.seconds)
            units = PER_LAYER
        else:
            metrics, info = measure_end_to_end(runner, args.seconds)
            units = END_TO_END
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()

    for problem in runner.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:38s} {metrics[name]:<14.6g} {unit:6s} n={info['samples'][name]}")
    failed_frac = runner.failed / runner.attempted
    print(f"{'failed_frac':38s} {failed_frac:<14.6g} {'1':6s} rows={runner.attempted}")
    record = provenance(runner, info["first"])
    if "unscaled" in info:
        record["unscaled_medians_s"] = info["unscaled"]
        record["cal_ref_s"] = CAL_REF_S
    print("provenance " + json.dumps(record, sort_keys=True))
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
