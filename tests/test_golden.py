"""Golden CLI corpus: each command of tests/golden/commands.txt, run in process
through ``cli.main``, prints the recorded stdout and stderr and exits with the
recorded code. ``tests/golden/regen.py`` rewrites the recordings."""

import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "golden_regen", Path(__file__).parent / "golden" / "regen.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

COMMANDS = golden.commands()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_matches_recording(name):
    assert golden.run(COMMANDS[name]) == golden.recorded(name)


def test_every_recording_has_a_command():
    names = {path.name.split(".")[0] for path in golden.HERE.iterdir()
             if path.suffix[1:] in golden.STREAMS}
    assert names == set(COMMANDS)
