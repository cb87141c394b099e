"""Byte identity of --json reports against committed golden files.

The files under golden/ hold the exact stdout of each command as it was
before mdr moved to the logarithmic-derivation route for arrangements; any
change to a report's bytes must show up here.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nearfree import catalog_names
from nearfree.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"

COMMANDS = {f"analyze-{n}": ["analyze", f"@catalog:{n}", "--json"] for n in catalog_names()}
COMMANDS["delete-DualHesse9-line0"] = ["delete", "@catalog:DualHesse9", "--line", "0", "--json"]
COMMANDS["deform-A1_6"] = ["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3",
                           "--dir", "y", "--eps", "1/2", "--json"]


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_report_matches_golden_bytes(name):
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(COMMANDS[name]) == 0
    expected = (GOLDEN / f"{name}.json").read_bytes()
    assert out.getvalue().encode("utf-8") == expected
