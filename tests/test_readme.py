"""The README's Python example runs as written, so the documented API
cannot drift from the package's."""

import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    # the diagnostics sink prints "time mass" from t = 0 to t_final, then
    # the final mass, which the scheme conserves
    first, last = lines[0].split(), lines[-2].split()
    assert float(first[0]) == 0.0
    assert float(last[0]) == pytest.approx(10.0)
    assert float(lines[-1]) == pytest.approx(float(first[1]), rel=1e-12)
