"""The README's Python API example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_runs():
    text = README.read_text()
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert namespace["updated"].n == namespace["sys"].n
    assert namespace["new_vectors"].shape == namespace["X1s"].shape
