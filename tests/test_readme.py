"""The README's python examples run against the library as it is."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run_in_order(capsys):
    # the blocks build on each other (the single-jump example reads the
    # library example's spec), so they share one namespace
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        flags=re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    namespace = {"__name__": "readme"}
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), namespace)
    assert namespace["appr"].estimate.locations[0] == pytest.approx(0.7, abs=1e-9)
    assert namespace["est"].xi == pytest.approx(0.7, abs=1e-9)
    assert capsys.readouterr().out.startswith("(0.7000000000000002,)")
