"""Run-config format tests: parsing, emission, validation."""

import re
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gep.config import (
    _VALID_CHOICES,
    SCHEMA,
    ConfigError,
    RunConfig,
    emit_config,
    load_config,
    parse_config,
)
from gep.data import SynthParams
from gep.release import METHODS, GepConfig
from gep.training import TrainConfig


def test_defaults_round_trip():
    cfg = RunConfig()
    assert parse_config(emit_config(cfg)) == cfg


def test_modified_round_trip():
    cfg = RunConfig(
        {
            "method": ("gep", "gp"),
            "seeds": (0, 1, 2),
            "train.lr": 0.25,
            "train.lr_decay": False,
            "sweep.k": (10, 20, 40),
            "sweep.epsilon": (2.0, 5.0, 8.0),
            "data.kind": "separable",
            "out": "some/dir",
        }
    )
    text = emit_config(cfg)
    assert parse_config(text) == cfg
    # emission is canonical: round-tripping the text is a fixed point
    assert emit_config(parse_config(text)) == text


def test_parse_basics():
    cfg = parse_config(
        """
        # a comment
        method = gep, bgep
        train.lr = 0.5   # trailing comment
        train.lr_decay = false
        seeds = 3, 4
        sweep.k =
        """
    )
    assert cfg["method"] == ("gep", "bgep")
    assert cfg["train.lr"] == 0.5
    assert cfg["train.lr_decay"] is False
    assert cfg["seeds"] == (3, 4)
    assert cfg["sweep.k"] == ()


def test_unknown_key_named_in_error():
    with pytest.raises(ConfigError, match="data.nope"):
        parse_config("data.nope = 3\n")
    with pytest.raises(ConfigError, match="unknown configuration key"):
        RunConfig({"bogus": 1})


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("train.lr = 0.1\ntrain.lr = 0.2\n")


def test_type_errors_are_loud():
    with pytest.raises(ConfigError, match="train.steps"):
        parse_config("train.steps = soon\n")
    with pytest.raises(ConfigError, match="train.lr_decay"):
        parse_config("train.lr_decay = yes\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        parse_config("just some words\n")


def test_choice_validation():
    with pytest.raises(ConfigError, match="model.kind"):
        parse_config("model.kind = resnet\n")
    with pytest.raises(ConfigError, match="method"):
        parse_config("method = sgd\n")
    with pytest.raises(ConfigError, match="train.batch"):
        parse_config("train.batch = minibatch\n")
    for removed in ("gep.release_mode = joint\n", "gep.basis_mode = power\n"):
        with pytest.raises(ConfigError, match="unknown configuration key"):
            parse_config(removed)


def test_load_config_path_resolution(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text("data.kind = gaussian-mixture\n")
    assert load_config(str(good))["data.kind"] == "gaussian-mixture"

    needs_path = tmp_path / "needs_path.cfg"
    needs_path.write_text("data.kind = csv\n")
    with pytest.raises(ConfigError, match="data.path"):
        load_config(str(needs_path))

    dangling = tmp_path / "dangling.cfg"
    dangling.write_text("data.kind = csv\ndata.path = /no/such/file.csv\n")
    with pytest.raises(ConfigError, match="does not exist"):
        load_config(str(dangling))

    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.cfg"))


def test_updated_preserves_validation():
    cfg = RunConfig()
    with pytest.raises(ConfigError):
        cfg.updated({"train.batch": "minibatch"})
    new = cfg.updated({"train.batch": "poisson"})
    assert new["train.batch"] == "poisson"
    assert cfg["train.batch"] == "full"


def test_a_field_with_a_default_owns_its_keys_kind_and_default():
    owned = []
    owners = (("gep", GepConfig), ("train", TrainConfig), ("data", SynthParams))
    for section, owner in owners:
        for field in fields(owner):
            key = f"{section}.{field.name}"
            if key in SCHEMA and field.default is not MISSING:
                assert (SCHEMA[key].kind, SCHEMA[key].default) == (
                    field.type, field.default
                ), key
                owned.append(key)
    assert sorted(owned) == sorted(
        ["gep.t", "gep.s1", "gep.s2"]
        + [f"train.{name}" for name in
           ("batch", "q", "lr", "momentum", "weight_decay", "lr_decay", "track_spectra")]
        + [f"data.{field.name}" for field in fields(SynthParams)]
    )


@pytest.mark.parametrize("key, value", [
    ("train.lr", "0.5"),
    ("train.lr_decay", "false"),
    ("train.steps", True),
    ("train.steps", 2.0),
    ("data.n", None),
    ("seeds", [0, 1]),
    ("seeds", (0, "1")),
    ("sweep.epsilon", (2.0, False)),
    ("method", "gep"),
])
def test_a_value_of_another_kind_is_refused_where_it_enters(key, value):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        RunConfig({key: value})
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        RunConfig().updated({key: value})


def test_an_int_is_a_float_value():
    cfg = RunConfig({"train.lr": 1, "sweep.epsilon": (2, 8.0)})
    assert cfg.section("train")["lr"] == 1


_SCALARS = {
    "str": st.text(),
    "int": st.integers(),
    # NaN is never equal to itself, so no config holding it equals its round trip
    "float": st.floats(allow_nan=False) | st.integers(),
    "bool": st.booleans(),
}


def _values(key: str, kind: str):
    if key == "method":
        return st.lists(st.sampled_from(tuple(METHODS)) | st.text()).map(tuple)
    if key in _VALID_CHOICES:
        return st.sampled_from(_VALID_CHOICES[key]) | st.text()
    if kind.endswith("_list"):
        return st.lists(_SCALARS[kind[: -len("_list")]]).map(tuple)
    return _SCALARS[kind]


@settings(max_examples=150, deadline=None)
@given(st.fixed_dictionaries(
    {}, optional={key: _values(key, spec.kind) for key, spec in SCHEMA.items()}
))
@example({"data.path": "/d/run#1.csv"})
@example({"out": " runs"})
@example({"data.label_column": "a\nb"})
@example({"train.lr": 2**53 + 1})
@example({"train.lr": np.float64(0.5)})
def test_every_config_that_constructs_round_trips(overrides):
    try:
        cfg = RunConfig(overrides)
    except ConfigError:
        return
    assert parse_config(emit_config(cfg)) == cfg


@pytest.mark.parametrize("key, value", [
    ("data.path", "/d/run#1.csv"),
    ("data.path", " /d/run.csv"),
    ("out", "runs\t"),
    ("data.label_column", "a\nb"),
    ("data.label_column", "a\u2028b"),
    ("method", ("gep,gp",)),
])
def test_a_string_the_text_cannot_carry_is_refused(key, value):
    with pytest.raises(ConfigError, match=re.escape(repr(key))):
        RunConfig({key: value})
