"""Run `nearfree analyze` on every subset of the 13 lines with d >= 3.

The 13 lines are ax + by + cz with a, b, c in {-1, 0, 1} (`support.THIRTEEN`),
and their 8100 subsets of at least three lines form a family closed under
deletion and under the signed permutations of (x, y, z). For each subset the
script writes a `.lines` file, runs `analyze FILE --witness` in-process and
checks:

* the verdict counts over the family: 1996 Free, 2700 NearlyFree, 2038
  Neither and 1366 Inapplicable;
* mdr and the witness of the report, whose degree walk starts at
  min(hi, d - m), against the plain scan `mdr(f, lines)` from degree 0;
* the pencil bound mdr <= d - m, m the largest multiplicity of a point;
* that census, mdr and verdict are the same on each orbit of the family
  under the 48 signed permutations (`support.thirteen_orbit`); the number
  of orbits is printed, and each split orbit is a disagreement.

Each disagreement is printed on a line of its own. The last line reads
"N disagreements"; the exit code is 0 when N is 0 and 1 otherwise.

Run it from the root of the repository, with the package importable:

    PYTHONPATH=src python tests/sweep_13_lines.py
"""

import io
import sys
import tempfile
from collections import Counter
from contextlib import redirect_stdout
from itertools import combinations
from pathlib import Path

from nearfree import defining_polynomial, mdr
from nearfree.cli import main
from nearfree.poly import format_poly

from support import THIRTEEN, thirteen_lines, thirteen_orbit

VERDICTS = {"Free": 1996, "NearlyFree": 2700, "Neither": 2038, "Inapplicable": 1366}


def _report(path: Path) -> dict:
    """The rows of the text report of `analyze path --witness`."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["analyze", str(path), "--witness"])
    if code:
        raise RuntimeError(f"analyze exited {code}")
    return dict(line.split(":", 1) for line in out.getvalue().splitlines())


def main_sweep() -> int:
    verdicts, problems, seen = Counter(), [], {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "subset.lines"
        for d in range(3, 14):
            for subset in combinations(range(13), d):
                mask = sum(1 << i for i in subset)
                a, census = thirteen_lines(mask)
                path.write_text("".join(" ".join(map(str, THIRTEEN[i])) + "\n" for i in subset))
                rows = {key: value.strip() for key, value in _report(path).items()}
                verdicts[rows["verdict"]] += 1
                seen[mask] = (rows["combinatorics"], rows["mdr"], rows["verdict"])
                plain = mdr(defining_polynomial(a), a.lines)
                walked = (int(rows["mdr"]), tuple(rows[f"witness {name}"] for name in "abc"))
                if walked != (plain.r, tuple(map(format_poly, plain.witness))):
                    problems.append(f"{subset}: the walk gives mdr {walked[0]}, the plain scan {plain.r}"
                                    " or another witness")
                m = max(dict(census.counts))
                if plain.r > d - m:
                    problems.append(f"{subset}: mdr {plain.r} exceeds the pencil bound {d - m}")
    print(f"{sum(verdicts.values())} subsets: " + ", ".join(f"{verdicts[k]} {k}" for k in VERDICTS))
    orbits = {frozenset(thirteen_orbit(mask)) for mask in seen}
    print(f"{len(orbits)} orbits under the signed permutations")
    for orbit in sorted(orbits, key=min):
        if len({seen.get(mask) for mask in orbit}) > 1:
            problems.append(f"orbit of mask {min(orbit)}: census, mdr or verdict differ on it")
    if dict(verdicts) != VERDICTS:
        problems.append(f"verdict counts {dict(verdicts)}, expected {VERDICTS}")
    for problem in problems:
        print(problem)
    print(f"{len(problems)} disagreements")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main_sweep())
