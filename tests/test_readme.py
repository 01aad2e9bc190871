"""The README's Library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    """The python block of the README's `## Library` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```python\n(.*?)```", section, re.S)
    assert block is not None, "the Library section has no python block"
    return block.group(1)


def test_library_example_runs():
    exec(compile(library_example(), str(README), "exec"), {})
