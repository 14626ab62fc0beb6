"""The README's library example runs as written."""

from __future__ import annotations

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    """The first Python block under the README's *Library* heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "no python block under ## Library"
    return match.group(1)


def test_readme_library_example_runs(capsys):
    exec(compile(_library_example(), str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out.split() == ["True", "Strategy.PLUS", "2"]
