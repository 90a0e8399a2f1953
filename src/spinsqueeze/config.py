"""Flat key-value experiment configuration.

The on-disk format is one ``section.key = value`` pair per line, with
``#`` comments and blank lines ignored.  It is deliberately dumb: no
nesting, no types beyond what each key parses for itself, so a config
diff always means a physics diff.  CLI flags and ``--set`` overrides
are merged on top of the file before anything is built.

The full schema with defaults lives in ``docs/config.md``; unknown keys
are rejected rather than ignored so typos cannot silently fall back to
defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

from .exceptions import ConfigError, DomainError
from .geometry import ArrayGeometry, BeamProfile
from .layers import delta_prime
from .mc import McParams
from .rates import RateSet, compute_rates, single_layer_rate, waist_for_overlap
from .squeezed_input import MAX_PHOTONS

ENV_CONFIG_DIR = "SPINSQUEEZE_CONFIG_DIR"

DEFAULTS: dict[str, str] = {
    "geometry.n_side": "200",
    "geometry.lattice_const": "0.68",
    "geometry.n_layers": "10",
    "geometry.layer_spacing": "1.0",
    "geometry.dipole": "1,0",
    "beam.waist": "",
    "beam.eta": "0.99",
    "rates.gamma_s": "",
    "rates.gamma_s_over_gamma0": "0.1",
    "input.n_photons": "log:0.01:1000:25",
    "input.purity": "1.0",
    "detuning.mode": "on-resonance",
    "detuning.value": "0.0",
    "model": "both",
    "kernel.include_evanescent": "true",
    "mc.dt": "0.05",
    "mc.t_burn": "50.0",
    "mc.t_avg": "500.0",
    "mc.n_traj": "64",
    "seed": "0",
    "workers": "1",
    "output.path": "-",
    "output.format": "csv",
}

_DETUNING_MODES = ("on-resonance", "fixed", "delta-prime-corrected")
_MODELS = ("analytic", "numeric", "both", "mc-check")
_FORMATS = ("csv", "json")
# Pairs of keys that set the same quantity two ways.
_ALTERNATIVES = (
    ("beam.waist", "beam.eta"),
    ("rates.gamma_s", "rates.gamma_s_over_gamma0"),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one sweep invocation needs, fully resolved."""

    geometry: ArrayGeometry
    beam: BeamProfile
    gamma_s: float
    n_photons_grid: tuple[float, ...]
    purity: float
    detuning_mode: str
    detuning_value: float
    model: str
    include_evanescent: bool
    mc: McParams
    workers: int
    out_path: str
    out_format: str

    def rates(self) -> RateSet:
        try:
            return compute_rates(self.geometry, self.beam, self.gamma_s)
        except DomainError as exc:
            raise ConfigError(f"rates: {exc}") from exc

    def collective_shift(self) -> float:
        """Signed evanescent shift delta' of the phase-matched mode (0 without
        the evanescent part)."""
        return delta_prime(self.geometry) if self.include_evanescent else 0.0


def resolve_config_path(name: str) -> str:
    """Find a config file, consulting the default directory if needed.

    A path that exists, or that contains a path separator, is used
    as-is.  Otherwise the directory named by ``SPINSQUEEZE_CONFIG_DIR``
    is searched.
    """
    if os.path.exists(name) or os.sep in name:
        return name
    base = os.environ.get(ENV_CONFIG_DIR)
    if base:
        candidate = os.path.join(base, name)
        if os.path.exists(candidate):
            return candidate
    return name


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    """Parse the flat key-value format into a string mapping.

    Raises :class:`ConfigError` with the offending line number on
    malformed lines, duplicate keys, or unknown keys.
    """
    result: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{source}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key not in DEFAULTS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in result:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        result[key] = value
    return result


def load_config_file(path: str) -> dict[str, str]:
    resolved = resolve_config_path(path)
    try:
        with open(resolved, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    return parse_config_text(text, source=resolved)


def _parse_float(flat: dict[str, str], key: str) -> float:
    raw = flat[key]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not a number: {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: must be finite, got {raw!r}")
    return value


def _parse_int(flat: dict[str, str], key: str) -> int:
    raw = flat[key]
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: not an integer: {raw!r}") from exc


def _parse_bool(flat: dict[str, str], key: str) -> bool:
    raw = flat[key].lower()
    if raw in ("true", "1", "yes"):
        return True
    if raw in ("false", "0", "no"):
        return False
    raise ConfigError(f"key {key!r}: expected true/false, got {flat[key]!r}")


def _parse_choice(flat: dict[str, str], key: str, choices: tuple[str, ...]) -> str:
    raw = flat[key]
    if raw not in choices:
        raise ConfigError(
            f"key {key!r}: expected one of {', '.join(choices)}, got {raw!r}"
        )
    return raw


def parse_grid(raw: str) -> tuple[float, ...]:
    """Parse a photon-number grid specification, the value of the one grid
    key ``input.n_photons``, which every error names.

    Accepted forms: a single number, a comma list, ``lin:a:b:n`` and
    ``log:a:b:n``.  Values must be non-negative and strictly
    increasing.
    """
    key, raw = "input.n_photons", raw.strip()
    try:
        if raw.startswith(("lin:", "log:")):
            kind, a_s, b_s, n_s = raw.split(":")
            a, b, n = float(a_s), float(b_s), int(n_s)
            if n < 2 or b <= a:
                raise ValueError("need n >= 2 and b > a")
            if kind == "log":
                if a <= 0.0:
                    raise ValueError("log grid needs a > 0")
                la, lb = math.log10(a), math.log10(b)
                values = [10.0 ** (la + (lb - la) * i / (n - 1)) for i in range(n)]
            else:
                values = [a + (b - a) * i / (n - 1) for i in range(n)]
        else:
            values = [float(part) for part in raw.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"key {key!r}: bad grid spec {raw!r}: {exc}") from exc
    if not values:
        raise ConfigError(f"key {key!r}: empty grid")
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"key {key!r}: grid values must be finite")
    if any(not 0.0 <= v <= MAX_PHOTONS for v in values):
        raise ConfigError(f"key {key!r}: grid values must lie in [0, {MAX_PHOTONS!r}]")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"key {key!r}: grid values must be strictly increasing")
    return tuple(values)


def build_config(overrides: dict[str, str] | None = None) -> ExperimentConfig:
    """Merge overrides onto the defaults and build the typed config.

    Each value is parsed and validated individually; the first failure
    is reported as a :class:`ConfigError` naming the key.  Of two keys
    that set the same quantity (``_ALTERNATIVES``), one given a value
    here replaces the default of the other; giving both is an error.
    """
    overrides = overrides or {}
    flat = dict(DEFAULTS)
    for key, value in overrides.items():
        if key not in DEFAULTS:
            raise ConfigError(f"unknown key {key!r}")
        flat[key] = value
    for pair in _ALTERNATIVES:
        for key, other in (pair, pair[::-1]):
            if overrides.get(key) and other not in overrides:
                flat[other] = ""
        if all(flat[key] for key in pair):
            raise ConfigError(f"set either {pair[0]!r} or {pair[1]!r}, not both")

    dipole_raw = flat["geometry.dipole"]
    try:
        dx_s, dy_s = dipole_raw.split(",")
        dipole = (float(dx_s), float(dy_s))
    except ValueError as exc:
        raise ConfigError(
            f"key 'geometry.dipole': expected 'dx,dy', got {dipole_raw!r}"
        ) from exc

    try:
        geometry = ArrayGeometry(
            n_side=_parse_int(flat, "geometry.n_side"),
            lattice_const=_parse_float(flat, "geometry.lattice_const"),
            n_layers=_parse_int(flat, "geometry.n_layers"),
            layer_spacing=_parse_float(flat, "geometry.layer_spacing"),
            dipole_orientation=dipole,
        )
    except DomainError as exc:
        raise ConfigError(f"geometry: {exc}") from exc

    try:
        if flat["beam.waist"]:
            beam = BeamProfile(waist=_parse_float(flat, "beam.waist"))
        elif flat["beam.eta"]:
            beam = BeamProfile(
                waist=waist_for_overlap(geometry, _parse_float(flat, "beam.eta"))
            )
        else:
            raise ConfigError("one of 'beam.waist' or 'beam.eta' is required")
    except DomainError as exc:
        raise ConfigError(f"beam: {exc}") from exc

    if flat["rates.gamma_s"]:
        gamma_s = _parse_float(flat, "rates.gamma_s")
    elif flat["rates.gamma_s_over_gamma0"]:
        gamma_s = _parse_float(flat, "rates.gamma_s_over_gamma0") * single_layer_rate(
            geometry.lattice_const
        )
    else:
        gamma_s = 0.0
    if gamma_s < 0.0:
        raise ConfigError("rates: gamma_s must be non-negative")

    purity = _parse_float(flat, "input.purity")
    if not 0.0 <= purity <= 1.0:
        raise ConfigError("key 'input.purity': must lie in [0, 1]")

    try:
        mc = McParams(
            dt=_parse_float(flat, "mc.dt"),
            t_burn=_parse_float(flat, "mc.t_burn"),
            t_avg=_parse_float(flat, "mc.t_avg"),
            n_traj=_parse_int(flat, "mc.n_traj"),
            seed=_parse_int(flat, "seed"),
        )
    except DomainError as exc:
        raise ConfigError(f"mc: {exc}") from exc

    workers = _parse_int(flat, "workers")
    if workers < 1:
        raise ConfigError("key 'workers': must be at least 1")

    return ExperimentConfig(
        geometry=geometry,
        beam=beam,
        gamma_s=gamma_s,
        n_photons_grid=parse_grid(flat["input.n_photons"]),
        purity=purity,
        detuning_mode=_parse_choice(flat, "detuning.mode", _DETUNING_MODES),
        detuning_value=_parse_float(flat, "detuning.value"),
        model=_parse_choice(flat, "model", _MODELS),
        include_evanescent=_parse_bool(flat, "kernel.include_evanescent"),
        mc=mc,
        workers=workers,
        out_path=flat["output.path"],
        out_format=_parse_choice(flat, "output.format", _FORMATS),
    )
