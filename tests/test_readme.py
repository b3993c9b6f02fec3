"""Every fenced ``python`` block of README.md runs, each in a fresh namespace.

A block is compiled with its README line numbers, so a failure's traceback
and the test id both name the line of the block that failed.
"""

from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def python_blocks(text: str) -> list[tuple[int, str]]:
    """(line of the opening fence, source) of each fenced ``python`` block."""
    blocks, start, lines = [], None, []
    for number, line in enumerate(text.splitlines(), 1):
        if start is None:
            if line.strip() == "```python":
                start, lines = number, []
        elif line.strip() == "```":
            blocks.append((start, "\n".join(lines) + "\n"))
            start = None
        else:
            lines.append(line)
    assert start is None, f"README.md:{start}: unclosed python block"
    return blocks


BLOCKS = python_blocks(README.read_text(encoding="utf-8"))


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize(
    "line, source", BLOCKS, ids=[f"README.md:{line}" for line, _ in BLOCKS]
)
def test_readme_python_block_runs(line, source):
    # the padding puts the block's first line on README line `line + 1`
    code = compile("\n" * line + source, str(README), "exec")
    exec(code, {"__name__": "__readme__"})
