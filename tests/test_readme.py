"""The README's Python example runs as printed."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_readme_python_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(),
                        re.S | re.M)
    assert len(blocks) == 1
    namespace = {}
    exec(compile(blocks[0], str(README), "exec"), namespace)
    trace = namespace["trace"]
    assert trace.termination == "tolerance"
    # the run stops within its 1e-10 tolerance of the solution 0.5, and
    # prints it as the example's comment says
    assert trace.final.blocks[0].tolist() == [pytest.approx(0.5, abs=1e-9)]
    assert capsys.readouterr().out == "[0.5]\n"
