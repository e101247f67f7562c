"""Scenario configuration: flat key-value files with one nesting level.

INI-style sections [chain], [run], [meta].  The chain section carries the
physical parameters (keys: n_sites, mass, omega0, xi, lattice_const,
lambda, gamma, hbar, k_boltz, bath_temp; hbar and k_boltz default to 1.0),
the run section the subcommand-specific keys, and meta the seed and output
directory.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

from .params import ChainParams


class ConfigError(ValueError):
    """Invalid configuration; `problems` lists every offending key."""

    def __init__(self, problems: "list[str]"):
        self.problems = list(problems)
        super().__init__("invalid configuration: " + "; ".join(self.problems))


CHAIN_KEYS = {
    "n_sites": int,
    "mass": float,
    "omega0": float,
    "xi": float,
    "lattice_const": float,
    "lambda": float,
    "gamma": float,
    "hbar": float,
    "k_boltz": float,
    "bath_temp": float,
}
OPTIONAL_CHAIN_KEYS = {"hbar": 1.0, "k_boltz": 1.0}
# the ChainParams field of a chain key where the two names differ
_FIELDS = {"lambda": "lambda_fric", "gamma": "gamma_fric"}


@dataclass
class ScenarioConfig:
    chain: ChainParams
    run: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return _cast("meta", "seed", self.meta["seed"], int) if "seed" in self.meta else 1234

    @property
    def output_dir(self) -> str:
        return str(self.meta.get("output_dir", "out"))


def _parse_value(raw: str):
    text = raw.strip()
    for caster in (int, float):
        try:
            return caster(text)
        except ValueError:
            continue
    low = text.lower()
    if low in ("true", "yes", "on"):
        return True
    if low in ("false", "no", "off"):
        return False
    return text


def _cast(section: str, key: str, raw, kind: type):
    """A config value (string or already parsed) as `kind`; ConfigError naming the key when it
    does not parse, is a yes/no word, or when an int would drop a fraction or an infinity."""
    value = _parse_value(raw) if isinstance(raw, str) else raw
    try:
        cast = kind(value)
    except (TypeError, ValueError, OverflowError):
        cast = None
    if cast is None or isinstance(value, bool) or (kind is int and cast != value):
        raise ConfigError([f"{section}.{key}: cannot parse {raw!r} as {kind.__name__}"])
    return cast


def parse_chain_section(items: dict) -> ChainParams:
    problems = []
    values = {}
    for key, caster in CHAIN_KEYS.items():
        field_name = _FIELDS.get(key, key)
        if key in items:
            try:
                values[field_name] = _cast("chain", key, items[key], caster)
            except ConfigError as exc:
                problems += exc.problems
        elif key in OPTIONAL_CHAIN_KEYS:
            values[field_name] = OPTIONAL_CHAIN_KEYS[key]
        else:
            problems.append(f"chain.{key}: required key missing")
    unknown = set(items) - set(CHAIN_KEYS)
    for key in sorted(unknown):
        problems.append(f"chain.{key}: unknown key")
    if problems:
        raise ConfigError(problems)
    try:
        return ChainParams(**values)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from exc


def load_config(path: "str | Path") -> ScenarioConfig:
    """Parse and validate a scenario configuration file."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError([f"config file not found: {path}"])
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigError([f"cannot parse {path}: {exc}"]) from exc
    if "chain" not in parser:
        raise ConfigError(["missing [chain] section"])
    chain = parse_chain_section(dict(parser["chain"]))
    run = {k: _parse_value(v) for k, v in parser["run"].items()} if "run" in parser else {}
    meta = {k: _parse_value(v) for k, v in parser["meta"].items()} if "meta" in parser else {}
    return ScenarioConfig(chain=chain, run=run, meta=meta)


def run_value(cfg: ScenarioConfig, key: str, kind: type = float, default=None):
    """`cfg.run[key]` cast to `kind`, or `default` when the key is absent (see `_cast`)."""
    return _cast("run", key, cfg.run[key], kind) if key in cfg.run else default


def require_run_keys(cfg: ScenarioConfig, keys: "list[str]", subcommand: str) -> None:
    missing = [k for k in keys if k not in cfg.run]
    if missing:
        raise ConfigError([f"run.{k}: required by '{subcommand}'" for k in missing])
