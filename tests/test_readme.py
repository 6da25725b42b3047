"""The README's Python example runs as written and its config key table
names every SCHEMA key, so the documented API cannot drift from the
package's."""

import re
from pathlib import Path

import pytest

from kinfp.config import SCHEMA

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


def test_readme_config_table_names_every_schema_key():
    """Each SCHEMA key's name appears in its section's row of the README
    "Config keys" table, so a new key cannot go undocumented."""
    section = README.read_text().split("### Config keys", 1)[1].split("\n### ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` \| (.*) \|$", section, re.M)
    documented = {
        (name, key)
        for name, keys in rows
        for quoted in re.findall(r"`([^`]*)`", keys)
        for key in quoted.split("/")
    }
    assert [key for key in SCHEMA if tuple(key.split(".")) not in documented] == []
