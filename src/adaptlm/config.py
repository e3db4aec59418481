"""Run configuration: INI-style sections of typed key=value settings.

Command-line --set section.key=value overrides always win over the file.
Validation reads settings and checks referenced paths without touching the
filesystem otherwise.
"""

from __future__ import annotations

import configparser
import os
from pathlib import Path

from .data import open_text
from .errors import ConfigError, FormatError

SECTIONS = ("global", "pretrain", "finetune", "evaluate", "sweep", "fixtures")

OUTPUT_ROOT_ENV = "ADAPTLM_OUT"


def load_config(path) -> dict[str, dict[str, str]]:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        stream = open_text(path)
    except OSError:
        raise ConfigError(f"config file not found: {path}") from None
    except FormatError as e:
        raise ConfigError(str(e)) from None
    try:
        parser.read_file(stream, source=str(path))
        cfg = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as e:
        raise ConfigError(f"{path}: {e}") from None
    unknown = set(cfg) - set(SECTIONS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply "section.key=value" assignments; command line wins."""
    out = {section: dict(values) for section, values in cfg.items()}
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        if section not in SECTIONS:
            raise ConfigError(f"unknown section {section!r} in override {item!r}")
        out.setdefault(section, {})[key.strip()] = value.strip()
    return out


class Section:
    """Typed accessor over one section's raw strings."""

    def __init__(self, cfg: dict, name: str):
        self.name = name
        self.values = cfg.get(name, {})

    def has(self, key: str) -> bool:
        return key in self.values and self.values[key] != ""

    def str(self, key: str, default: str | None = None) -> str:
        if self.has(key):
            return self.values[key]
        if default is None:
            raise ConfigError(f"[{self.name}] is missing required key {key!r}")
        return default

    def _parse(self, key: str, raw: str, kind, what: str):
        try:
            return kind(raw)
        except ValueError:
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not {what}") from None

    def int(self, key: str, default: int | None = None) -> int:
        raw = self.str(key, None if default is None else str(default))
        return self._parse(key, raw, int, "an integer")

    def float(self, key: str, default: float | None = None) -> float:
        raw = self.str(key, None if default is None else repr(default))
        return self._parse(key, raw, float, "a number")

    def bool(self, key: str, default: bool = False) -> bool:
        if not self.has(key):
            return default
        raw = self.values[key].strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a boolean")

    def path(self, key: str, default: str | None = None) -> Path:
        """The setting as a path that must exist."""
        p = Path(self.str(key, default))
        if not p.exists():
            raise ConfigError(f"[{self.name}] {key}: path does not exist: {p}")
        return p

    def floats(self, key: str, default: str | None = None) -> list[float]:
        return [self._parse(key, x.strip(), float, "a number")
                for x in self.str(key, default).split(",") if x.strip()]

    def ints(self, key: str, default: str | None = None) -> list[int]:
        return [self._parse(key, x.strip(), int, "an integer")
                for x in self.str(key, default).split(",") if x.strip()]


def resolve_out(flag_value: str | None, cfg: dict) -> Path:
    """--out flag, else the ADAPTLM_OUT environment variable, else [global] out,
    else ./out."""
    if flag_value:
        return Path(flag_value)
    env = os.environ.get(OUTPUT_ROOT_ENV, "").strip()
    if env:
        return Path(env)
    return Path(Section(cfg, "global").str("out", "out"))


def resolve_seed(flag_value: int | None, cfg: dict) -> int:
    if flag_value is not None:
        return flag_value
    return Section(cfg, "global").int("seed", 0)
