"""Run configuration: flat key = value files, env fallback, defaults.

The file format is deliberately small: one ``key = value`` pair per
line, ``#`` comments, values either numbers, bare strings, or SI
quantities with a unit tag (``hbar = 1.054571817e-34 J.s``).  Flags
always override config values; the ``QDEFORM_CONFIG`` environment
variable names a config file to use when ``--config`` is not given.
A file may set only the keys of ``DEFAULTS`` and ``QUANTITY_KEYS``, each
at most once, so a misspelled or repeated key is an error rather than a
setting silently ignored.  No gate value is a key: the thresholds that
decide a verdict are constants of :mod:`qdeform.cli`, so a verdict
depends on the code and its inputs alone.
"""

from __future__ import annotations

import os
from typing import Optional

from .params import UNIT_TAGS, parse_quantity

ENV_VAR = "QDEFORM_CONFIG"

DEFAULTS = {
    # symbolic engine
    "symbolic.degree": "10",
    # matrix engine
    "matrix.dim": "64",
    "matrix.mu": "0.2",
    "matrix.nu": "0.2",
    # parameter maps and contraction paths
    "params.alpha": "1.0",
    "params.beta": "1.0",
    "params.mu0": "1.0",
    "params.nu0": "1.0",
}


# Keys of the physical parameter-set format beside DEFAULTS: the physical
# constants with their unit tags, and the dimensionless mu and nu.  A file
# may set them and each must parse with its tag, but no command reads them.
QUANTITY_KEYS = {
    **{f"params.{name}": tag for name, tag in UNIT_TAGS.items()},
    "params.mu": None,
    "params.nu": None,
}


class ConfigError(ValueError):
    pass


def parse_config_text(text: str) -> dict[str, str]:
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "#" in line:
            line = line.split("#", 1)[0].strip()
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"config line {lineno}: empty key or value")
        # a second setting would leave the first one doing nothing
        if key in first_line:
            raise ConfigError(
                f"config line {lineno}: key {key} already set on line "
                f"{first_line[key]}"
            )
        first_line[key] = lineno
        out[key] = value
    return out


def load_config(path: Optional[str] = None) -> dict[str, str]:
    """Defaults, overlaid with the file from ``path`` or ``QDEFORM_CONFIG``."""
    merged = dict(DEFAULTS)
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        entries = parse_config_text(text)
        for key, value in entries.items():
            if key in QUANTITY_KEYS:
                try:
                    parse_quantity(value, QUANTITY_KEYS[key])
                except ValueError as exc:
                    raise ConfigError(f"bad config value for {key}: {exc}") from None
            elif key not in DEFAULTS:
                raise ConfigError(f"unknown config key {key} in {path}")
        merged.update(entries)
    return merged


def get_float(cfg: dict[str, str], key: str) -> float:
    try:
        return float(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config value for {key}") from exc


def get_int(cfg: dict[str, str], key: str) -> int:
    try:
        return int(cfg[key])
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"bad config value for {key}") from exc
