"""Command line interface.

Subcommands map onto the model selector: ``rates`` prints the scalar
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
import sys
from typing import Any

from .config import ExperimentConfig, build_config, load_config_file
from .exceptions import ConfigError, SpinSqueezeError
from .layers import evanescent_range
from .rates import validity_report
from .sweep import (
    PRESETS,
    figure_config,
    format_table,
    run_sweep,
    validity_columns,
    write_figure,
)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Spin squeezing of layered atomic arrays from squeezed light",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("rates", "print the collective rates and validity report"),
        ("analytic", "closed-form squeezing over the photon grid"),
        ("numeric", "steady-state layer model over the photon grid"),
        ("mc-check", "trajectory cross-check against the steady state"),
        ("sweep", "run the sweep with the model chosen in the config"),
        ("fig3a", "squeezing vs photon number preset (a=0.68)"),
        ("fig3b", "optimal squeezing vs layer count preset (a=0.68)"),
        ("fig4", "detuning compensation preset (a=0.95)"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
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
    if args.out is not None:
        overrides["output.path"] = args.out
    if args.format is not None:
        overrides["output.format"] = args.format
    if args.workers is not None:
        overrides["workers"] = str(args.workers)
    if args.seed is not None:
        overrides["seed"] = str(args.seed)
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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides = _collect_overrides(args)
        if args.command in PRESETS:
            config = figure_config(args.command, overrides)
            rows, summary = PRESETS[args.command].build(config)
        else:
            config = build_config(overrides)
            if args.command in ("analytic", "numeric", "mc-check"):
                config = dataclasses.replace(config, model=args.command)
            rows = _rates_rows(config) if args.command == "rates" else run_sweep(config)
        # A failed write is reported like an unreadable config file.
        try:
            if args.command in PRESETS:
                print(*write_figure(args.command, (rows, summary), config), sep="\n")
            elif config.out_path in ("", "-"):
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
