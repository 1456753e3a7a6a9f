"""The package surface: the export list and the README's library example."""

import contextlib
import io
import pathlib
import re
import shlex
import types

import pytest

import ionmzi
from ionmzi import cli

README = pathlib.Path(__file__).parents[1] / "README.md"


def test_exports_are_sorted_unique_and_complete():
    exported = ionmzi.__all__
    assert len(exported) == 36  # __all__ is computed from the imports, so this row catches a dropped or stray one
    assert exported == sorted(exported)
    assert len(set(exported)) == len(exported)
    for name in exported:
        assert hasattr(ionmzi, name), name
    public = {
        name
        for name, value in vars(ionmzi).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(exported) == public


def test_readme_library_example_prints_its_comments():
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    expected = [float(value) for value in re.findall(r"^print\(.*#\s*(\S+)\s*$", code, re.MULTILINE)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = [float(line) for line in out.getvalue().splitlines()]
    assert expected and len(printed) == len(expected)
    assert printed == pytest.approx(expected, abs=1e-12)


def test_readme_command_lines_parse():
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, re.DOTALL).group(1)
    commands = [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("ionmzi ")]
    assert commands
    for argv in commands:
        cli.parse_config(argv[1:])
