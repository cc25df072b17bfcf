"""The README's python examples run as written against the library."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$",
                    README.read_text(encoding="utf-8"), re.S | re.M)


def test_readme_shows_python():
    assert BLOCKS


@pytest.mark.parametrize("code", BLOCKS, ids=lambda code: f"block{BLOCKS.index(code)}")
def test_python_block_runs(code):
    exec(compile(code, str(README), "exec"), {"__name__": "readme_example"})
