"""Flat key/value run configuration files.

The format is one ``key = value`` assignment per line, with dotted section
prefixes (``train.lr = 0.05``), ``#`` comments, and comma-separated lists.
Every key is declared in :data:`SCHEMA`; unknown keys are rejected so
typos fail loudly.  ``emit_config(parse_config(text))`` is the canonical
form of ``text`` and parsing is idempotent across the round trip.  A
:class:`RunConfig` refuses any string the text cannot carry (a ``#``, a
line break, surrounding whitespace, or a comma in a list item), so
``parse_config(emit_config(cfg)) == cfg`` for every config that
constructs.  ``_VALID_CHOICES`` and :data:`gep.release.METHODS` list the
values a choice key takes; ``README.md``'s config table has one row per
:data:`SCHEMA` key, and ``tests/test_readme.py`` holds it to this module.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields
from typing import Mapping

from .data import SYNTH_KINDS, SynthParams
from .models import MODEL_KINDS
from .release import METHODS, GepConfig
from .training import BATCH_RULES, TrainConfig

__all__ = ["ConfigError", "RunConfig", "parse_config", "emit_config", "load_config", "SCHEMA"]


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration."""


@dataclass(frozen=True)
class _Spec:
    kind: str  # str | int | float | bool | int_list | float_list | str_list
    default: object


def _field_keys(section: str, owner: type, names: tuple[str, ...] = ()) -> dict[str, _Spec]:
    """``section.<name>`` for each named field of ``owner``, or for every field:
    the dataclass owns the key's kind (the field's annotation) and its default."""
    owned = {f.name: f for f in fields(owner)}
    return {f"{section}.{n}": _Spec(owned[n].type, owned[n].default) for n in names or owned}


SCHEMA: dict[str, _Spec] = {
    "method": _Spec("str_list", ("gep",)),
    "out": _Spec("str", "runs"),
    "seeds": _Spec("int_list", (0,)),
    "model.kind": _Spec("str", "logistic"),
    "model.hidden_dim": _Spec("int", 32),
    "model.init_scale": _Spec("float", 0.0),
    "data.kind": _Spec("str", "gaussian-mixture"),
    "data.path": _Spec("str", ""),
    "data.label_column": _Spec("str", "label"),
    "data.normalize": _Spec("str", "none"),
    **_field_keys("data", SynthParams),
    "data.seed": _Spec("int", 1234),
    "data.eval_fraction": _Spec("float", 0.25),
    "aux.source": _Spec("str", "heldout-random"),
    "aux.m": _Spec("int", 200),
    "gep.k": _Spec("int", 20),
    **_field_keys("gep", GepConfig, ("t", "s1", "s2")),
    "train.steps": _Spec("int", 100),
    **_field_keys("train", TrainConfig, ("batch", "q", "lr", "momentum", "weight_decay",
                                         "lr_decay", "track_spectra")),
    "privacy.epsilon": _Spec("float", 8.0),
    "privacy.delta": _Spec("float", 1e-5),
    "privacy.sigma_override": _Spec("float", -1.0),
    "sweep.k": _Spec("int_list", ()),
    "sweep.m": _Spec("int_list", ()),
    "sweep.epsilon": _Spec("float_list", ()),
}

_VALID_CHOICES = {
    "model.kind": MODEL_KINDS,
    "data.kind": ("csv",) + SYNTH_KINDS,
    "data.normalize": ("none", "per-feature-standardize"),
    "aux.source": ("heldout-random", "heldout-correct", "synthetic"),
    "train.batch": BATCH_RULES,
}


def _parse_scalar(key: str, kind: str, raw: str) -> object:
    raw = raw.strip()
    try:
        if kind == "str":
            return raw
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "bool":
            if raw in ("true", "false"):
                return raw == "true"
            raise ValueError
    except ValueError:
        raise ConfigError(f"key {key!r}: cannot parse {raw!r} as {kind}") from None
    raise ConfigError(f"key {key!r}: unsupported kind {kind}")


def _parse_value(key: str, kind: str, raw: str) -> object:
    if kind.endswith("_list"):
        raw = raw.strip()
        if not raw:
            return ()
        item_kind = kind[: -len("_list")]
        return tuple(_parse_scalar(key, item_kind, part) for part in raw.split(","))
    return _parse_scalar(key, kind, raw)


def _format_scalar(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # a numpy float's repr names its type
    return str(value)


def _format_value(value: object) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_scalar(v) for v in value)
    return _format_scalar(value)


_SCALAR_TYPES = {"str": str, "int": int, "float": (int, float), "bool": bool}


def _has_kind(value: object, kind: str) -> bool:
    """A bool is no int, an int that a float holds exactly is a float, a list
    is a tuple of its item kind."""
    if kind.endswith("_list"):
        item_kind = kind[: -len("_list")]
        return isinstance(value, tuple) and all(_has_kind(v, item_kind) for v in value)
    if isinstance(value, bool):
        return kind == "bool"
    if kind == "float" and isinstance(value, int):
        return abs(value) <= 2**53
    return isinstance(value, _SCALAR_TYPES[kind])


_SECTIONS = {  # each section's keys by their short names, in schema order
    section: {key[len(section) + 1:]: key for key in SCHEMA if key.startswith(section + ".")}
    for section in dict.fromkeys(key.partition(".")[0] for key in SCHEMA if "." in key)
}


class RunConfig:
    """A validated mapping of configuration keys to typed values.

    A value of another kind than its key's (a string for ``train.lr``, a
    bool for an int key, a list for a list key, which takes a tuple) is a
    ConfigError that names the key.
    """

    def __init__(self, overrides: Mapping[str, object] | None = None):
        self._values = {key: spec.default for key, spec in SCHEMA.items()}
        for key, value in (overrides or {}).items():
            if key not in SCHEMA:
                raise ConfigError(f"unknown configuration key {key!r}")
            if not _has_kind(value, SCHEMA[key].kind):
                raise ConfigError(f"key {key!r}: {value!r} is not a {SCHEMA[key].kind}")
            _check_text(key, value)
            self._values[key] = value
        _check_choices(self._values)

    def __getitem__(self, key: str) -> object:
        if key not in SCHEMA:
            raise KeyError(key)
        return self._values[key]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunConfig):
            return NotImplemented
        return self._values == other._values

    def __repr__(self) -> str:
        changed = {
            k: v for k, v in self._values.items() if v != SCHEMA[k].default
        }
        return f"RunConfig({changed})"

    def updated(self, overrides: Mapping[str, object]) -> "RunConfig":
        return RunConfig({**self._values, **overrides})

    def as_dict(self) -> dict[str, object]:
        return dict(self._values)

    def section(self, section: str) -> dict[str, object]:
        """Every ``section.*`` key by its short name."""
        return {name: self._values[key] for name, key in _SECTIONS.get(section, {}).items()}


def _check_text(key: str, value: object) -> None:
    """Refuse a string the text format cannot carry back: a ``#`` starts a
    comment, a line break ends the line, the parser strips surrounding
    whitespace, and a comma splits a list item."""
    for item in value if isinstance(value, tuple) else (value,):
        if isinstance(item, str) and (
            "#" in item
            or "".join(item.splitlines()) != item
            or item != item.strip()
            or ("," in item and isinstance(value, tuple))
        ):
            raise ConfigError(f"key {key!r}: {item!r} cannot be written to a config file")


def _check_choices(values: Mapping[str, object]) -> None:
    for key, choices in _VALID_CHOICES.items():
        if values[key] not in choices:
            raise ConfigError(
                f"key {key!r}: {values[key]!r} is not one of {choices}"
            )
    for method in values["method"]:
        if method not in METHODS:
            raise ConfigError(
                f"key 'method': {method!r} is not one of {tuple(METHODS)}"
            )


def parse_config(text: str) -> RunConfig:
    """Parse configuration text; unknown or duplicate keys are errors."""
    overrides: dict[str, object] = {}
    for line_num, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_num}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {line_num}: unknown configuration key {key!r}")
        if key in overrides:
            raise ConfigError(f"line {line_num}: duplicate key {key!r}")
        overrides[key] = _parse_value(key, SCHEMA[key].kind, raw)
    return RunConfig(overrides)


def emit_config(cfg: RunConfig) -> str:
    """Canonical text form: every key, sorted, one per line."""
    lines = [
        f"{key} = {_format_value(cfg[key])}" for key in sorted(SCHEMA.keys())
    ]
    return "\n".join(lines) + "\n"


def load_config(path: str) -> RunConfig:
    """Read and validate a configuration file, resolving data paths."""
    try:
        with open(path, encoding="utf-8") as handle:
            cfg = parse_config(handle.read())
    except FileNotFoundError:
        raise ConfigError(f"configuration file not found: {path}") from None
    if cfg["data.kind"] == "csv":
        csv_path = str(cfg["data.path"])
        if not csv_path:
            raise ConfigError("data.kind = csv requires data.path")
        if not os.path.exists(csv_path):
            raise ConfigError(f"data.path does not exist: {csv_path}")
    return cfg
