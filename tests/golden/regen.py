"""Golden CLI corpus: run each command of ``commands.txt`` and record its output.

Every command runs in process through ``racnshare.cli.main``. Its stdout,
stderr and exit code go to ``<name>.stdout``, ``<name>.stderr`` and
``<name>.exit`` beside this file, and ``tests/test_golden.py`` compares a
fresh run with them. Rewriting a file changes behaviour on purpose: say
which file and why in CHANGES.md.

Usage, from the repository root:

    PYTHONPATH=src python tests/golden/regen.py [NAME ...]

With no names it rewrites every command's files.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
STREAMS = ("stdout", "stderr", "exit")


def commands() -> dict[str, list[str]]:
    """Command name -> argument list, in file order."""
    out = {}
    for line in (HERE / "commands.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, *argv = shlex.split(line)
            out[name] = argv
    return out


def run(argv: list[str]) -> dict[str, str]:
    """One command's stdout, stderr and exit code, as the recorded files hold them."""
    from racnshare import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"stdout": out.getvalue(), "stderr": err.getvalue(), "exit": f"{code}\n"}


def recorded(name: str) -> dict[str, str]:
    return {s: (HERE / f"{name}.{s}").read_text(encoding="utf-8") for s in STREAMS}


def main(names: list[str]) -> int:
    cmds = commands()
    unknown = sorted(set(names) - set(cmds))
    if unknown:
        print(f"unknown command names: {', '.join(unknown)}", file=sys.stderr)
        return 2
    for name in names or cmds:
        for stream, text in run(cmds[name]).items():
            (HERE / f"{name}.{stream}").write_text(text, encoding="utf-8")
        print(f"wrote {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
