"""The experiment scripts under ``scripts/`` run to completion at small sizes."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"scripts_{name}", _SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name, argv",
    [
        ("random_roundtrip", ["--trials", "30", "--max-n", "6"]),
        ("ambiguity_table", ["--max-n", "12"]),
    ],
)
def test_script_exits_zero(name, argv, capsys):
    assert _load(name).main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].split()[0] == "n"
