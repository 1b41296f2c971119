"""The README's Python API example runs as written."""

import re
from pathlib import Path

from helpers import count_eigensolves

README = Path(__file__).resolve().parent.parent / "README.md"


def _run_python_api_example():
    text = README.read_text()
    section = text.split("## Python API", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    return namespace


def test_python_api_example_runs():
    namespace = _run_python_api_example()
    assert namespace["updated"].n == namespace["sys"].n
    assert namespace["new_vectors"].shape == namespace["X1s"].shape


def test_python_api_example_solves_the_spectrum_once(monkeypatch):
    calls = count_eigensolves(monkeypatch)
    _run_python_api_example()
    assert calls == [True]
