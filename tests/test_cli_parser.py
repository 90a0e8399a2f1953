"""The command line's argument language against the parser it replaced.

``reference_parser`` is the earlier parser, one sub-parser per command,
kept verbatim: whatever it accepted after the command, the one-parser
``cli.build_parser`` must read to the same namespace, and whatever it
refused must still exit 2.
"""

from __future__ import annotations

import argparse
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinsqueeze.cli as cli
from spinsqueeze.config import build_config

REFERENCE_COMMANDS = [
    ("rates", "print the collective rates and validity report"),
    ("analytic", "closed-form squeezing over the photon grid"),
    ("numeric", "steady-state layer model over the photon grid"),
    ("mc-check", "trajectory cross-check against the steady state"),
    ("sweep", "run the sweep with the model chosen in the config"),
    ("fig3a", "squeezing vs photon number preset (a=0.68)"),
    ("fig3b", "optimal squeezing vs layer count preset (a=0.68)"),
    ("fig4", "detuning compensation preset (a=0.95)"),
]


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


def reference_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinsqueeze",
        description="Spin squeezing of layered atomic arrays from squeezed light",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in REFERENCE_COMMANDS:
        p = sub.add_parser(name, help=help_text)
        _add_common_flags(p)
    return parser


def parse(parser, argv, capsys):
    """The namespace as a dict, or argparse's exit code and error line."""
    try:
        return vars(parser.parse_args(argv))
    except SystemExit as exc:
        return exc.code, capsys.readouterr().err.splitlines()[-1]


FLAGS = st.lists(
    st.one_of(
        st.tuples(st.just("--set"), st.sampled_from(
            ["geometry.n_layers=3", "input.purity = 0.9", "model=numeric",
             "a=b=c", "no-equals", ""])),
        st.tuples(st.just("--format"), st.sampled_from(["csv", "json"])),
        st.tuples(st.just("--workers"), st.integers(-2, 64).map(str)),
        st.tuples(st.just("--seed"), st.integers(0, 2**40).map(str)),
        st.tuples(st.just("--config"), st.just("run.cfg")),
        st.tuples(st.just("--out"), st.sampled_from(["-", "out/table.csv"])),
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    command=st.sampled_from([name for name, _ in REFERENCE_COMMANDS]),
    flags=FLAGS,
    split=st.integers(0, 8),
)
def test_every_command_and_flag_set_parses_as_before(command, flags, split):
    flat = [word for pair in flags for word in pair]
    expected = vars(reference_parser().parse_args([command, *flat]))
    assert vars(cli.build_parser().parse_args([command, *flat])) == expected
    # Flags may now also come before the command, or on both sides of it.
    before = [word for pair in flags[:split] for word in pair]
    after = [word for pair in flags[split:] for word in pair]
    assert vars(cli.build_parser().parse_args([*before, command, *after])) == expected


@pytest.mark.parametrize(
    "argv, same_message",
    [
        (["plot"], True),
        ([], True),
        (["numeric", "--tol", "1e-10"], False),
        (["rates", "--format", "xml"], False),
        (["mc-check", "--workers", "x"], False),
    ],
)
def test_usage_errors_exit_two(capsys, argv, same_message):
    ours = parse(cli.build_parser(), argv, capsys)
    theirs = parse(reference_parser(), argv, capsys)
    assert ours[0] == theirs[0] == 2
    # The old sub-parsers named themselves "spinsqueeze <command>" in their
    # errors; the command's own errors read as they did.
    if same_message:
        assert ours[1] == theirs[1]


def test_command_errors_read_as_before(capsys):
    _, unknown = parse(cli.build_parser(), ["plot"], capsys)
    assert unknown == (
        "spinsqueeze: error: argument command: invalid choice: 'plot' "
        "(choose from 'rates', 'analytic', 'numeric', 'mc-check', 'sweep', "
        "'fig3a', 'fig3b', 'fig4')"
    )
    _, missing = parse(cli.build_parser(), [], capsys)
    assert missing == (
        "spinsqueeze: error: the following arguments are required: command"
    )


@pytest.mark.parametrize(
    "argv", [["--help"], ["numeric", "--help"], ["--set", "a=1", "fig4", "-h"]]
)
def test_help_lists_every_command_with_its_help_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for name, text in REFERENCE_COMMANDS:
        assert re.search(rf"^ +{re.escape(name)} +{re.escape(text)}$", out, re.M)
    for flag in ("--config", "--set", "--out", "--format", "--workers", "--seed"):
        assert flag in out
    # Every command prints the one help.
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    assert capsys.readouterr().out == out


def test_set_lists_do_not_leak_between_calls(monkeypatch):
    calls = []

    def record(overrides):
        calls.append(dict(overrides))
        return build_config(overrides)

    monkeypatch.setattr(cli, "build_config", record)
    first = ["rates", "--set", "geometry.n_layers=3", "--set", "beam.eta=0.9"]
    assert cli.main(first) == 0
    assert cli.main(["--set", "geometry.n_layers=4", "rates"]) == 0
    assert cli.main(["rates"]) == 0
    assert calls == [
        {"geometry.n_layers": "3", "beam.eta": "0.9"},
        {"geometry.n_layers": "4"},
        {},
    ]
