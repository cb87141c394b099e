"""Byte identity of reports against committed golden files.

The `.json` files under golden/ hold the exact stdout of each `--json`
command as it was before mdr moved to the logarithmic-derivation route for
arrangements; the `show-*.json` files, `catalog show NAME --json` on the 10
catalog entries, as they were before the entries became `.lines` rows read
by `parse_lines`. The `witness-*.txt` files hold the text report with
`--witness` of `analyze` on the 10 catalog entries and on the three
`.lines` files in golden/inputs (A(6,1,3) over Q(w), a seeded nodal
arrangement of 8 lines, a near pencil of 40 lines), as they were before
the arrangement path moved to Z[w] integer arithmetic. The
`witness-poly-*.txt` files hold `analyze --poly ... --tau ... --witness` on
five curves, the Jacobian route, as they were before its witness was
checked by `verify_syzygy`. Any change to a report's bytes, the witness
included, must show up here.
"""

import io
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from nearfree import catalog_names
from nearfree.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
INPUTS = ("A6_1_3", "nodal8", "pencil40")

COMMANDS = {f"analyze-{n}": ["analyze", f"@catalog:{n}", "--json"] for n in catalog_names()}
COMMANDS.update({f"show-{n}": ["catalog", "show", n, "--json"] for n in catalog_names()})
COMMANDS["delete-DualHesse9-line0"] = ["delete", "@catalog:DualHesse9", "--line", "0", "--json"]
COMMANDS["deform-A1_6"] = ["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3",
                           "--dir", "y", "--eps", "1/2", "--json"]

# run from golden/, so the `input:` row reads the same relative path
WITNESS = {f"witness-{n}": ["analyze", f"@catalog:{n}", "--witness"] for n in catalog_names()}
WITNESS.update({f"witness-{s}": ["analyze", f"inputs/{s}.lines", "--witness"] for s in INPUTS})
POLY = {
    "cusp": ("y^2*z-x^3", 2),
    "A1_6": ("x*y*z*(x-y)*(y-z)*(x-z)", 19),
    "MacLane8": ("(x^2+x*y+y^2)*(y^3-z^3)*(z^3-x^3)", 36),
    "DualHesse9": ("(x^3-y^3)*(y^3-z^3)*(z^3-x^3)", 48),
    "Qw5": ("x*y*(x-y)*(x-w*y)*z", 13),
}
WITNESS.update({f"witness-poly-{n}": ["analyze", "--poly", f, "--tau", str(tau), "--witness"]
                for n, (f, tau) in POLY.items()})


def _stdout(argv) -> bytes:
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


def test_every_golden_file_has_a_command():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(COMMANDS)
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(WITNESS)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_json_report_matches_golden_bytes(name):
    assert _stdout(COMMANDS[name]) == (GOLDEN / f"{name}.json").read_bytes()


@pytest.mark.parametrize("name", sorted(WITNESS))
def test_witness_text_matches_golden_bytes(name, monkeypatch):
    monkeypatch.chdir(GOLDEN)
    assert _stdout(WITNESS[name]) == (GOLDEN / f"{name}.txt").read_bytes()
