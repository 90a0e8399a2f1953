"""The documentation stays in step with the code it describes."""

from __future__ import annotations

import re
from pathlib import Path

from spinsqueeze import cli, layers, steady
from spinsqueeze.config import DEFAULTS
from spinsqueeze.sweep import PRESETS

ROOT = Path(__file__).resolve().parent.parent


def test_readme_library_example_runs(capsys):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks, "README has no python block"
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {"__name__": "readme"})
    printed = capsys.readouterr().out.splitlines()
    # xi2_analytic and the beam-splitter law it calls print the same number.
    assert printed[0] == printed[1]


def test_config_reference_lists_every_key_with_its_default():
    text = (ROOT / "docs" / "config.md").read_text(encoding="utf-8")
    documented = []
    for line in text.splitlines():
        if not line.startswith("| `"):
            continue
        key_cell, default_cell = (cell.strip() for cell in line.split("|")[1:3])
        default = "" if default_cell == "(unset)" else default_cell.strip("`")
        documented.append((key_cell.strip("`"), default))
    assert len(documented) == len(dict(documented)), "a key is listed twice"
    assert dict(documented) == DEFAULTS


def test_config_reference_lists_every_preset_with_its_keys():
    text = (ROOT / "docs" / "config.md").read_text(encoding="utf-8")
    section = text.split("## Figure presets\n", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.split("|")[1:-1]]
        if not cells or cells[0] in ("figure", "---"):
            continue
        pairs = re.findall(r"`([^`=]+)=([^`]*)`", cells[1])
        documented[cells[0]] = dict(pairs), tuple(re.findall(r"`([^`]+)`", cells[2]))
    assert documented == {
        fid: (preset.keys, preset.varies) for fid, preset in PRESETS.items()
    }


def documented_numbers(text, pattern):
    """Every number that ``pattern``'s group matches in ``text``, commas
    dropped; words of the pattern may break across lines."""
    found = re.findall(pattern.replace(" ", r"\s+"), text)
    assert found, f"docs/config.md no longer says {pattern!r}"
    return {float(value.replace(",", "")) for value in found}


def test_config_reference_states_the_solver_constants():
    text = (ROOT / "docs" / "config.md").read_text(encoding="utf-8")
    cap = steady.KRYLOV_CAP
    assert documented_numbers(text, r"`KRYLOV_CAP` = ([\d,]+)") == {cap}
    assert documented_numbers(text, r"after ([\d,]+) Lanczos steps") == {cap}
    # The exhaustion clamp ceil(N_z/2) + 1 stays within the cap up to
    # 2 (cap - 1) layers.
    assert documented_numbers(text, r"up to ([\d,]+) layers") == {2 * (cap - 1)}
    assert documented_numbers(text, r"It takes m = (\d+), ") == {steady.KRYLOV_START}
    assert documented_numbers(text, r"less than ([\d.e-]+) \(relative\)") == {
        steady.KRYLOV_RTOL
    }
    assert documented_numbers(text, r"more than ([\d.e-]+) after") == {
        steady.KRYLOV_RTOL
    }
    assert documented_numbers(text, r"\|m\|\^2 = (\d+)") == {layers.DEFAULT_MAX_ORDER}
    assert documented_numbers(text, r"([\d.e-]+) \|eps\(1\)\|") == {
        layers.DEFAULT_EPS_TOL
    }


def test_readme_command_line_names_every_command():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]
    (command,) = (a for a in cli.build_parser()._actions if a.dest == "command")
    assert command.choices
    for name in command.choices:
        assert re.search(rf"^spinsqueeze {re.escape(name)}\b", section, re.M), name
