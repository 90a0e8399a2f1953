"""Command line interface.

Commands map onto the model selector: ``rates`` prints the scalar
rate set for a configuration, ``analytic``, ``numeric`` and
``mc-check`` force the respective model, ``sweep`` honours whatever the
config selects, and the ``fig3a``/``fig3b``/``fig4`` presets reproduce
the reference parameter studies.

Exit codes: 0 on success (also when only some points of a sweep or a
figure table failed, with a warning on stderr), 2 for configuration
problems and unwritable output paths, 3 when every point failed or a
single-point command hit a solver error.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any

from .config import ExperimentConfig, build_config, load_config_file
from .exceptions import ConfigError, SpinSqueezeError
from .layers import evanescent_range
from .rates import validity_report
from .sweep import (
    PRESETS,
    figure_config,
    figure_paths,
    format_table,
    run_sweep,
    validity_columns,
    write_figure,
)


# Each command with the line that ``--help`` lists it with.
COMMANDS = {
    "rates": "print the collective rates and validity report",
    "analytic": "closed-form squeezing over the photon grid",
    "numeric": "steady-state layer model over the photon grid",
    "mc-check": "trajectory cross-check against the steady state",
    "sweep": "run the sweep with the model chosen in the config",
    "fig3a": "squeezing vs photon number preset (a=0.68)",
    "fig3b": "optimal squeezing vs layer count preset (a=0.68)",
    "fig4": "detuning compensation preset (a=0.95)",
}


def build_parser() -> argparse.ArgumentParser:
    """One parser for every command; the flags may come before or after it."""
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Spin squeezing of layered atomic arrays from squeezed light",
        epilog="commands:\n"
        + "\n".join(f"  {name:10s}{text}" for name, text in COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "command", choices=COMMANDS, metavar="command", help="one of the commands below"
    )
    parser.add_argument("--config", help="config file (see docs/config.md)")
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key; repeatable",
    )
    parser.add_argument("--out", help="output path ('-' for stdout)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--workers", type=int, help="threads for mc-check grid points")
    parser.add_argument("--seed", type=int, help="random seed for mc-check")
    return parser


def _collect_overrides(args: argparse.Namespace) -> dict[str, str]:
    overrides: dict[str, str] = {}
    if args.config:
        overrides.update(load_config_file(args.config))
    for item in args.set:
        if "=" not in item:
            raise ConfigError(f"--set expects KEY=VALUE, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    for flag, key in [("out", "output.path"), ("format", "output.format"),
                      ("workers", "workers"), ("seed", "seed")]:
        if getattr(args, flag) is not None:
            overrides[key] = str(getattr(args, flag))
    return overrides


def _rates_rows(config: ExperimentConfig) -> list[dict[str, Any]]:
    rates = config.rates()
    report = validity_report(
        config.geometry, config.beam, config.n_photons_grid[0], rates
    )
    shift = config.collective_shift()
    return [
        {
            "gamma0": rates.gamma0,
            "eta": rates.eta,
            "gamma_coll": rates.gamma_coll,
            "gamma_loss": rates.gamma_loss,
            "gamma_s": rates.gamma_s,
            "r0": rates.r0,
            "delta_prime": shift,
            "delta_prime_over_gamma0": shift / rates.gamma0,
            "evanescent_range_1": evanescent_range(config.geometry, 1),
            "n_eff": report.n_eff,
            "heisenberg_floor": report.heisenberg_floor,
            **validity_columns(report),
        }
    ]


def _exit_code(rows: list[dict[str, Any]]) -> int:
    """Exit code of a written table; failed rows are reported on stderr."""
    errored = [row for row in rows if row.get("error")]
    if errored and len(errored) == len(rows):
        print("error: every grid point failed", file=sys.stderr)
        return 3
    if errored:
        print(
            f"warning: {len(errored)} of {len(rows)} grid points failed",
            file=sys.stderr,
        )
    return 0


def _check_writable(command: str, config: ExperimentConfig) -> None:
    """Open each output file for appending before any solve, and remove
    the ones this creates, so that a run that fails leaves none behind."""
    if command in PRESETS:
        out_dir, *paths = figure_paths(command, config)
        os.makedirs(out_dir, exist_ok=True)
    else:
        paths = [] if config.out_path in ("", "-") else [config.out_path]
    for path in paths:
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _collect_overrides(args)
        if args.command in PRESETS:
            config = figure_config(args.command, overrides)
        else:
            config = build_config(overrides)
            if args.command in ("analytic", "numeric", "mc-check"):
                config = dataclasses.replace(config, model=args.command)
        # A failed write is reported like an unreadable config file.  The
        # solves between the check and the write do no I/O of their own.
        try:
            _check_writable(args.command, config)
            if args.command in PRESETS:
                rows, summary = PRESETS[args.command].build(config)
                print(*write_figure(args.command, (rows, summary), config), sep="\n")
            else:
                rows = _rates_rows(config) if args.command == "rates" else run_sweep(config)
                if config.out_path in ("", "-"):
                    sys.stdout.write(format_table(rows, config.out_format))
                else:
                    with open(config.out_path, "w", encoding="utf-8", newline="") as fh:
                        fh.write(format_table(rows, config.out_format))
        except OSError as exc:
            raise ConfigError(
                f"cannot write {config.out_path!r}: {exc.strerror or exc}"
            ) from exc
        return _exit_code(rows)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SpinSqueezeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
