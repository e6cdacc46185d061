"""README.md's Python examples run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_python_block_of_the_readme_runs_in_order():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)
    assert blocks, "README.md has no python block"
    namespace: dict = {}
    for n, block in enumerate(blocks, 1):
        exec(compile(block, f"README.md python block {n}", "exec"), namespace)
