"""The README's library tour runs as printed."""

import re
from pathlib import Path

import pytest

README = Path(__file__).parent.parent / "README.md"


def test_library_tour_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    namespace = {}
    exec(blocks[0], namespace)
    assert namespace["fit"].exponent == pytest.approx(1.2854, abs=5e-5)
