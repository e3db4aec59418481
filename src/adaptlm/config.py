"""Run configuration: INI-style sections of typed key=value settings.

Command-line --set section.key=value overrides always win over the file.
Validation reads settings and checks referenced paths without touching the
filesystem otherwise. A section accepts only its keys in SECTIONS; the
dataclasses read from it hold the defaults.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import os
from pathlib import Path

from .data import open_text
from .encoder import EncoderConfig
from .errors import ConfigError, FormatError
from .heads import FinetuneConfig
from .pretrain import MaskingPolicy, PretrainConfig

OUTPUT_ROOT_ENV = "ADAPTLM_OUT"


def _fields(*classes) -> tuple[str, ...]:
    """Field names a config file sets: all but those a command fixes itself."""
    fixed = ("vocab_size", "seed", "encoder", "masking")
    return tuple(f.name for cls in classes for f in dataclasses.fields(cls)
                 if f.name not in fixed)


SECTIONS = {
    "global": ("vocab", "out", "seed"),
    "pretrain": _fields(EncoderConfig, PretrainConfig, MaskingPolicy) + ("corpus", "init"),
    "finetune": _fields(FinetuneConfig) + (
        "task", "provenance", "init", "train", "dev", "test", "intermediate", "labels",
        "scheme", "lenient", "grid_batch_sizes", "grid_learning_rates"),
    "evaluate": ("task", "provenance", "pred", "gold", "checkpoint", "data", "dataset_name",
                 "scheme", "lenient", "labels"),
    "sweep": ("axis", "seeds", "dataset_name", "fractions", "checkpoints", "init"),
}


def _check_keys(section: str, keys) -> None:
    if section not in SECTIONS:
        raise ConfigError(f"unknown config section [{section}]")
    for key in keys:
        if key not in SECTIONS[section]:
            raise ConfigError(f"unknown key {key!r} in [{section}]")


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
    for section, values in cfg.items():
        _check_keys(section, values)
    return cfg


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply "section.key=value" assignments; command line wins."""
    out = {section: dict(values) for section, values in cfg.items()}
    for item in overrides or []:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"override must look like section.key=value, got {item!r}")
        target, value = item.split("=", 1)
        section, key = target.split(".", 1)
        _check_keys(section, [key.strip()])
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

    def choice(self, key: str, choices: tuple[str, ...], default: str | None = None) -> str:
        value = self.str(key, default)
        if value not in choices:
            raise ConfigError(f"[{self.name}] {key} must be one of {list(choices)}, "
                              f"got {value!r}")
        return value

    def _parse(self, key: str, raw: str, kind):
        try:
            value = kind(raw)
        except ValueError:
            what = {int: "an integer", float: "a number"}[kind]
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not {what}") from None
        if kind is float and not math.isfinite(value):
            raise ConfigError(f"[{self.name}] {key} = {raw!r} is not finite")
        return value

    def int(self, key: str, default: int | None = None) -> int:
        return self._parse(key, self.str(key, None if default is None else str(default)), int)

    def bool(self, key: str, default: bool = False) -> bool:
        if not self.has(key):
            return default
        raw = self.values[key].strip().lower()
        if raw in ("1", "true", "yes", "on"):
            return True
        if raw in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"[{self.name}] {key} = {raw!r} is not a boolean")

    def path(self, key: str) -> Path:
        """The setting as a path that must exist."""
        p = Path(self.str(key))
        if not p.exists():
            raise ConfigError(f"[{self.name}] {key}: path does not exist: {p}")
        return p

    def list_of(self, key: str, kind, default: tuple | None = None) -> list:
        """The comma-separated setting as a list of `kind` (int, float or str)."""
        if default is not None and not self.has(key):
            return list(default)
        parse = str.strip if kind is str else lambda x: self._parse(key, x.strip(), kind)
        items = [parse(x) for x in self.str(key).split(",") if x.strip()]
        if not items:
            raise ConfigError(f"[{self.name}] {key} lists nothing")
        return items

    def load(self, cls, **fixed):
        """A validated `cls` dataclass: the `fixed` fields as given, every
        other field read from this section by its annotation, or the field's
        own default when the key is absent."""
        readers = {"int": self.int, "bool": self.bool, "str": self.str,
                   "float": lambda key: self._parse(key, self.str(key), float),
                   "tuple[str, ...]": lambda key: tuple(self.list_of(key, str))}
        kwargs = dict(fixed)
        for f in dataclasses.fields(cls):
            if f.name in fixed:
                continue
            if self.has(f.name):
                kwargs[f.name] = readers[f.type](f.name)
            elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"[{self.name}] is missing required key {f.name!r}")
        return cls(**kwargs).validate()


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
    """--seed flag, else [global] seed, else 0; a negative seed is a config error."""
    seed = Section(cfg, "global").int("seed", 0) if flag_value is None else flag_value
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    return seed
