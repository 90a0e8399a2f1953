"""One cold ``spinsqueeze`` CLI call, timed from inside a fresh process.

    python3 bench/child.py RESULT_JSON SPAWN_TIME MODE CALIBRATE -- CLI_ARGS...

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide, so set-up time counts
interpreter start.  MODE is ``setup`` (stop once the workload is ready
to compute), ``plain`` or ``trace`` (run the call under the tracer).
With CALIBRATE ``1`` the child times ``calibration.calibrate()`` once
set-up is done and again after the call (``cal_pre_s``, ``cal_post_s``).
The result is written as JSON to RESULT_JSON.  ``spinsqueeze`` must be
importable, which ``run.py`` arranges through PYTHONPATH.
"""

import contextlib
import ctypes
import json
import os
import resource
import sys
import time
import traceback


def _set_overrides(cli_args: list[str]) -> dict[str, str]:
    pairs = [cli_args[i + 1] for i, a in enumerate(cli_args[:-1]) if a == "--set"]
    return dict(p.split("=", 1) for p in pairs)


def _blas_info() -> list[dict[str, object]]:
    """Version string and effective thread count of each OpenBLAS that
    numpy and scipy loaded into this process."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    info = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry: dict[str, object] = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}get_config{suffix}", None)
                if threads is not None and config is not None:
                    threads.restype = ctypes.c_int
                    threads.argtypes = []
                    config.restype = ctypes.c_char_p
                    config.argtypes = []
                    entry["threads"] = threads()
                    entry["config"] = config().decode()
                    break
            if "threads" in entry:
                break
        info.append(entry)
    return info


def main() -> int:
    result_path, spawn, mode = sys.argv[1], float(sys.argv[2]), sys.argv[3]
    calibrated = sys.argv[4] == "1"
    cli_args = sys.argv[6:]

    import spinsqueeze.cli as cli
    from spinsqueeze.config import build_config

    build_config(_set_overrides(cli_args))
    result: dict[str, object] = {"setup_s": time.monotonic() - spawn}
    if calibrated:
        from calibration import calibrate

        result["cal_pre_s"] = calibrate()
    if mode != "setup":
        tracer = None
        if mode == "trace":
            from tracer import Tracer

            tracer = Tracer()
        with tracer or contextlib.nullcontext():
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                exit_code = cli.main(cli_args)
            except Exception:
                traceback.print_exc()
                exit_code = 1
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if calibrated:
            result["cal_post_s"] = calibrate()
        import numpy
        import scipy

        result.update(
            wall_s=wall,
            cpu_s=cpu,
            rss_mb=rss_mb,
            exit_code=exit_code,
            numpy=numpy.__version__,
            scipy=scipy.__version__,
            blas=_blas_info(),
        )
        if tracer is not None:
            result["trace"] = tracer.metrics(wall)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
