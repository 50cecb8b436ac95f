"""The usage examples in README.md and in the package docstring run as shown."""

import contextlib
import io
import re
import textwrap
from pathlib import Path

import racnshare

README = Path(__file__).resolve().parent.parent / "README.md"


def run_example(source: str) -> list[str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "<example>", "exec"), {})
    return out.getvalue().splitlines()


def test_readme_quick_start():
    quick_start = README.read_text(encoding="utf-8").split("## Quick start", 1)[1]
    source = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    assert run_example(source) == ["[3, 5, 7, 8, 10]", "True", "4", "1 b'payload'"]


def test_package_docstring_example():
    block = racnshare.__doc__.split("::\n", 1)[1]
    source = textwrap.dedent(block)
    assert "assert trace.recovered" in source
    assert run_example(source) == []
