"""README.md against the code: the config table, the example config and
the module list."""

import os
import re

import numpy as np

from gep.config import _VALID_CHOICES, SCHEMA, RunConfig, emit_config, parse_config
from gep.harness import _train_config, expand_runs
from gep.release import METHODS
from gep.tasks import build_task
from gep.training import dp_train

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as _handle:
    README = _handle.read()


def _section(title: str) -> str:
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def _config_rows() -> list[list[str]]:
    """The config table's rows, each a list of its cells."""
    return [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in _section("Config files").splitlines()
        if line.startswith("| `")
    ]


def _config_table() -> dict[str, list[str]]:
    """The config table's rows by key: the cells after the key."""
    return {row[0].strip("`"): row[1:] for row in _config_rows()}


def test_the_config_table_has_one_row_per_schema_key():
    keys = [row[0].strip("`") for row in _config_rows()]
    assert sorted(keys) == sorted(SCHEMA)
    assert len(keys) == len(set(keys))
    assert all(len(row) == 4 for row in _config_rows())


def test_each_default_cell_is_what_emit_config_writes():
    emitted = dict(line.split(" = ", 1) for line in emit_config(RunConfig()).splitlines())
    table = _config_table()
    for key, value in emitted.items():
        assert table[key][0] == (f"`{value}`" if value else ""), key


def test_each_choice_appears_in_its_keys_row():
    table = _config_table()
    for key, choices in {**_VALID_CHOICES, "method": tuple(METHODS)}.items():
        row = " | ".join(table[key][1:])
        for choice in choices:
            assert f"`{choice}`" in row, (key, choice)


def test_the_module_list_names_every_module():
    src = os.path.join(ROOT, "src", "gep")
    modules = sorted(
        "gep" if name == "__init__.py" else f"gep.{name[:-3]}"
        for name in os.listdir(src)
        if name.endswith(".py")
    )
    listed = sorted(re.findall(r"^- `([\w.]+)`", _section("Modules"), re.MULTILINE))
    assert listed == modules


def _example_config() -> str:
    blocks = re.findall(r"```ini\n(.*?)```", README, re.DOTALL)
    assert len(blocks) == 1
    return blocks[0]


def test_the_example_config_runs(tmp_path):
    cfg = parse_config(_example_config()).updated(
        {"train.steps": 1, "out": str(tmp_path / "runs")}
    )
    runs = expand_runs(cfg)
    task = build_task(cfg, max(run.m for run in runs))
    model, steps = dp_train(_train_config(cfg, runs[0], task), task.private, task.eval)
    assert len(steps) == 1 and steps[0].epsilon_spent <= runs[0].epsilon
    assert np.all(np.isfinite(model.theta))
