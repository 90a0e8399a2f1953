"""Outside-in span tracer for the spinsqueeze package.

The package's modules import each other's functions with
``from .x import y``, so every module holds its own binding of a shared
function: patching ``spinsqueeze.steady.solve_moments`` alone would miss
the call that ``spinsqueeze.sweep`` makes through its own name.  The
tracer therefore replaces a function in every ``spinsqueeze`` module
namespace that binds it, records one span per call with its parent
span, and puts the original objects back when it is closed.  No source
file of the package is changed.

Spans are kept on one stack, so the tracer assumes the traced program
runs on one thread (the benchmark runs every workload with
``workers=1``).
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# Traced functions, as (module, function), in the module that defines
# them.  solve_sylvester is scipy's, timed at its binding in steady.
TRACED = (
    ("config", "build_config"),
    ("rates", "compute_rates"),
    ("rates", "validity_report"),
    ("analytic", "xi2_analytic"),
    ("analytic", "xi2_min_vs_layers"),
    ("squeezed_input", "noise_diffusions"),
    ("layers", "interaction_kernel"),
    ("layers", "drift_matrix"),
    ("layers", "delta_prime"),
    ("steady", "solve_moments"),
    ("steady", "solve_sylvester"),
    ("steady", "xi2_numeric"),
    ("mc", "simulate_xi2"),
    ("sweep", "run_sweep"),
    ("sweep", "rows_to_csv"),
    ("sweep", "rows_to_json"),
)

# Metric layers and the traced functions each one sums over.
_SERIALISERS = ("sweep.rows_to_csv", "sweep.rows_to_json")
LAYERS = {
    f"{module}.{name}": (f"{module}.{name}",)
    for module, name in TRACED
    if f"{module}.{name}" not in _SERIALISERS
}
LAYERS["sweep.serialise"] = _SERIALISERS

# Counters taken from arguments and results at the traced boundaries.
# mc.traj_steps and mc.normal_draws are computed from McParams, not
# counted inside the step loop.
COUNTERS = {
    "steady.solve_sylvester.sum_n3": "count",
    "layers.drift_matrix.sum_n3": "count",
    "steady.residual_max": "1",
    "layers.kernel_terms": "count",
    "layers.kernel_max_shell": "count",
    "mc.traj_steps": "count",
    "mc.normal_draws": "count",
    "sweep.bytes_out": "bytes",
    "sweep.rows": "count",
}

UNITS: dict[str, str] = {}
for _layer in LAYERS:
    UNITS[f"{_layer}.calls"] = "count"
    UNITS[f"{_layer}.self_s"] = "s"
UNITS.update(COUNTERS)
UNITS["mc.steps_per_s"] = "1/s"
UNITS["trace.coverage"] = "ratio"

_MARK = "__bench_traced__"


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _count_sylvester(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "a").shape[0]
    counts["steady.solve_sylvester.sum_n3"] += n**3


def _count_drift(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "kernel").d_matrix.shape[0]
    counts["layers.drift_matrix.sum_n3"] += n**3


def _count_kernel(counts, args, kwargs, result):
    counts["layers.kernel_terms"] += result.truncation.terms_summed
    counts["layers.kernel_max_shell"] = max(
        counts["layers.kernel_max_shell"], result.truncation.max_order
    )


def _count_moments(counts, args, kwargs, result):
    counts["steady.residual_max"] = max(
        counts["steady.residual_max"], result.residual_n, result.residual_m
    )


def _count_trajectories(counts, args, kwargs, result):
    geom = _arg(args, kwargs, 2, "geom")
    params = _arg(args, kwargs, 3, "params")
    n_burn = int(round(params.t_burn / params.dt))
    n_avg = max(1, int(round(params.t_avg / params.dt)))
    steps = params.n_traj * (n_burn + n_avg)
    counts["mc.traj_steps"] += steps
    counts["mc.normal_draws"] += steps * 2 * geom.n_layers


def _count_output(counts, args, kwargs, result):
    counts["sweep.rows"] += len(_arg(args, kwargs, 0, "rows"))
    counts["sweep.bytes_out"] += len(result.encode("utf-8"))


_PROBES: dict[str, Callable] = {
    "steady.solve_sylvester": _count_sylvester,
    "layers.drift_matrix": _count_drift,
    "layers.interaction_kernel": _count_kernel,
    "steady.solve_moments": _count_moments,
    "mc.simulate_xi2": _count_trajectories,
    "sweep.rows_to_csv": _count_output,
    "sweep.rows_to_json": _count_output,
}


def _package_modules() -> list[Any]:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if module is not None
        and (name == "spinsqueeze" or name.startswith("spinsqueeze."))
    ]


def leftover_wrappers() -> list[str]:
    """Names of tracer wrappers still bound in any spinsqueeze module."""
    return [
        f"{module.__name__}.{attr}"
        for module in _package_modules()
        for attr, value in vars(module).items()
        if hasattr(value, _MARK)
    ]


class Tracer:
    """Context manager that times the TRACED functions of an imported
    spinsqueeze package and restores every binding on exit."""

    def __init__(self) -> None:
        # Each span is [name, start, end, parent index or -1].
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts
        probe = _PROBES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def __enter__(self) -> "Tracer":
        modules = _package_modules()
        try:
            for module_name, fn_name in TRACED:
                target = getattr(sys.modules[f"spinsqueeze.{module_name}"], fn_name)
                wrapper = self._wrap(f"{module_name}.{fn_name}", target)
                bindings = [
                    (module, attr)
                    for module in modules
                    for attr, value in vars(module).items()
                    if value is target
                ]
                for module, attr in bindings:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, target))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc: object) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def metrics(self, root_s: float) -> dict[str, float]:
        """Per-layer metrics of the recorded spans.

        ``root_s`` is the wall time of the traced call; coverage is the
        share of it spent inside top-level spans.  Self time is a span's
        duration minus the durations of its direct child spans.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        calls: dict[str, int] = defaultdict(int)
        total_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        covered = 0.0
        for index, (name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            total_s[name] += end - start
            self_s[name] += end - start - child_s[index]
            if parent < 0:
                covered += end - start
        out: dict[str, float] = {}
        for layer, names in LAYERS.items():
            out[f"{layer}.calls"] = sum(calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self_s[n] for n in names)
        for counter in COUNTERS:
            out[counter] = self.counts[counter]
        mc_s = total_s["mc.simulate_xi2"]
        out["mc.steps_per_s"] = self.counts["mc.traj_steps"] / mc_s if mc_s else 0.0
        out["trace.coverage"] = covered / root_s
        return out
