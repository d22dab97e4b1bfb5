"""The README's "Library sketch" runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    (block,) = re.findall(r"^## Library sketch\n+```python\n(.*?)^```", text, re.M | re.S)
    exec(compile(block, "README.md: Library sketch", "exec"), {})
