"""The three workloads: inputs drawn from the seed, the operations run on
them, and reference answers written by hand from the mathematics, never
produced by nearfree.

Every operation is one `nearfree` command line. Its check returns None when
the output is right and a short reason otherwise.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd
from pathlib import Path
from typing import Callable, Optional

from reference import format_scalar, no_three_concurrent

Check = Callable[[int, str, str], Optional[str]]


@dataclass
class Op:
    argv: list
    kind: str          # analyze | deform | delete | reject | classify | bounds | poly
    check: Check
    # For the certificates: the integer or Q(w) lines of the input, and mdr.
    lines: Optional[list] = None
    mdr: Optional[int] = None
    work: dict = field(default_factory=dict)


def eta(d: int, r: int) -> int:
    return r * r - r * (d - 1) + (d - 1) ** 2


# -- output parsing ----------------------------------------------------------

_ROW = re.compile(r"^([a-z][a-z ]*):\s*(.*)$")


def text_rows(stdout: str) -> dict:
    """Rows of the human-readable report; repeated keys keep the first."""
    rows: dict = {}
    for line in stdout.splitlines():
        m = _ROW.match(line)
        if m:
            rows.setdefault(m.group(1), m.group(2))
    return rows


def witness_text(stdout: str) -> tuple:
    rows = text_rows(stdout)
    return tuple(rows.get(f"witness {name}") for name in "abc")


def _check_text(expected: dict) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        rows = text_rows(out)
        for key, want in expected.items():
            got = rows.get(key)
            if got != want:
                return f"{key}: got {got!r}, want {want!r}"
        if any(w is None for w in witness_text(out)):
            return "witness missing"
        return None
    return check


def _check_json(expected) -> Check:
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}: {err.strip()[:200]}"
        try:
            got = json.loads(out)
        except ValueError:
            return "output is not JSON"
        if callable(expected):
            return expected(got)
        for key, want in expected.items():
            if got.get(key, "<missing>") != want:
                return f"{key}: got {got.get(key, '<missing>')!r}, want {want!r}"
        return None
    return check


def _check_rejected(code: int) -> Check:
    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, want {code}"
        if out:
            return "rejected command printed a result"
        return None
    return check


# -- references ---------------------------------------------------------------


def census_text(d: int, counts: dict) -> str:
    """The CLI's weak-combinatorics text `(d; t2, t3, t4=..)`."""
    extra = "".join(f", t{k}={t}" for k, t in sorted(counts.items()) if k >= 4)
    return f"({d}; {counts.get(2, 0)}, {counts.get(3, 0)}{extra})"


def mu_of(counts: dict) -> int:
    return sum(t * (k - 1) ** 2 for k, t in counts.items())


def arrangement_json(d, field_, counts, mdr, verdict, exponents, b=None) -> dict:
    mu = mu_of(counts)
    return {
        "d": d, "field": field_, "t2": counts.get(2, 0), "t3": counts.get(3, 0),
        "t_higher": {str(k): t for k, t in sorted(counts.items()) if k >= 4},
        "mu": mu, "tau": mu, "mdr": mdr, "eta": eta(d, mdr),
        "verdict": verdict, "exponents": list(exponents) if exponents else None, "b": b,
    }


# The ten catalog entries. Census from the construction; mdr and exponents
# from eta(d, r) = tau (+1 if nearly free). Where that equation has two
# roots, A4_free takes the smaller (a near pencil has a degree-1 syzygy),
# while for A4_generic, A6_deformed and MacLane8 the relation matrix has
# full column rank in the smaller degree, as reference.full_column_rank_mod_p
# shows, so they take the larger. Nearly free b = d2 - d + 2 = 2 - r.
CATALOG = {
    "A4_free": (4, "Q", {2: 3, 3: 1}, 1, "Free", (1, 2), None),
    "A4_generic": (4, "Q", {2: 6}, 2, "NearlyFree", (2, 2), 0),
    "A5_free": (5, "Q", {2: 4, 3: 2}, 2, "Free", (2, 2), None),
    "A5_nearlyfree": (5, "Q", {2: 7, 3: 1}, 2, "NearlyFree", (2, 3), 0),
    "A1_6": (6, "Q", {2: 3, 3: 4}, 2, "Free", (2, 3), None),
    "A6_deformed": (6, "Q", {2: 6, 3: 3}, 3, "NearlyFree", (3, 3), -1),
    "B7_free": (7, "Q", {2: 3, 3: 6}, 3, "Free", (3, 3), None),
    "B7_deformed": (7, "Q", {2: 6, 3: 5}, 3, "NearlyFree", (3, 4), -1),
    "MacLane8": (8, "Qw", {2: 4, 3: 8}, 4, "NearlyFree", (4, 4), -2),
    "DualHesse9": (9, "Qw", {3: 12}, 4, "Free", (4, 4), None),
}

# The five admissible nodes-and-triples combinatorics (d; t2, t3).
ADMISSIBLE = {(4, 6, 0), (5, 7, 1), (6, 6, 3), (7, 6, 5), (8, 4, 8)}


# -- input files ------------------------------------------------------------------


def write_lines(path: Path, lines, field_: str) -> str:
    body = "".join(" ".join(format_scalar(c) for c in form) + "\n" for form in lines)
    path.write_text(f"field: {field_}\n{body}", encoding="utf-8")
    return str(path)


def _as_scalars(lines):
    return [tuple((Fraction(c), Fraction(0)) if isinstance(c, int) else c for c in form)
            for form in lines]


def _primitive(v):
    """Sign-normalised primitive triple, so equal lines compare equal."""
    g = gcd(gcd(v[0], v[1]), v[2])
    v = tuple(c // g for c in v)
    lead = next(c for c in v if c)
    return v if lead > 0 else tuple(-c for c in v)


def nodal_arrangement(rng: random.Random, d: int) -> list:
    """d lines with nonzero integer coefficients in [-4, 4], no three through
    one point. Nonzero coefficients keep f dense, so the elimination work
    depends little on the draw."""
    values = [-4, -3, -2, -1, 1, 2, 3, 4]
    lines: list = []
    seen = set()
    while len(lines) < d:
        v = tuple(rng.choice(values) for _ in range(3))
        key = _primitive(v)
        if key in seen or not no_three_concurrent(lines + [v]):
            continue
        seen.add(key)
        lines.append(v)
    return lines


def generic(rng: random.Random, workdir: Path) -> list:
    """Four nodal arrangements each of d = 6, 7, 8 lines. A nodal
    arrangement has t2 = C(d,2), mu = C(d,2) and mdr = d - 2, so every seed
    does the same work: 4 * (4 + 5 + 6) degrees certified empty by a full
    elimination. Four draws per size average out how the cost depends on
    the coefficients drawn. 2*mdr > d makes the verdict Inapplicable."""
    ops = []
    for d, k in ((d, k) for d in (6, 7, 8) for k in range(4)):
        lines = nodal_arrangement(rng, d)
        path = write_lines(workdir / f"generic_{d}_{k}.lines", _as_scalars(lines), "Q")
        counts = {2: comb(d, 2)}
        r = d - 2
        expected = {
            "d": str(d), "field": "Q", "combinatorics": census_text(d, counts),
            "mu": str(comb(d, 2)),
            "tau": str(comb(d, 2)), "mdr": str(r), "eta": str(eta(d, r)),
            "verdict": "Inapplicable", "exponents": None,
        }
        ops.append(Op(["analyze", path, "--witness"], "analyze", _check_text(expected),
                      lines=_as_scalars(lines), mdr=r, work={"d": d, "census": counts}))
    return ops


def roots_of_unity(m: int) -> list:
    """The m-th roots of unity in Q(w) for m in {2, 3, 6}; zeta6 = 1 + w."""
    one, w = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    neg = lambda x: (-x[0], -x[1])
    table = {
        2: [one, neg(one)],
        3: [one, w, (Fraction(-1), Fraction(-1))],
        6: [one, (Fraction(1), Fraction(1)), w, neg(one), (Fraction(-1), Fraction(-1)), neg(w)],
    }
    return table[m]


def reflection_lines(m: int, full: bool) -> list:
    """A(m,m,3): the lines x - ζy, y - ζz, z - ζx for every m-th root of
    unity ζ; A(m,1,3) adds x, y and z."""
    zero, one = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
    lines = []
    for zeta in roots_of_unity(m):
        minus = (-zeta[0], -zeta[1])
        lines += [(one, minus, zero), (zero, one, minus), (minus, zero, one)]
    if full:
        lines += [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
    return lines


def reflection(rng: random.Random, workdir: Path) -> list:
    """The free reflection arrangements A(m,m,3) and A(m,1,3), m = 2, 3, 6
    (Orlik-Terao 1992). Exponents {m+1, 2m-2} and {m+1, 2m+1}; census from
    the construction: A(m,m,3) has three m-fold points and m^2 triple points,
    A(m,1,3) three (m+2)-fold points, m^2 triple points and 3m nodes. The
    seed shuffles the line order, which leaves f unchanged."""
    ops = []
    for m in (2, 3, 6):
        for full in (False, True):
            lines = reflection_lines(m, full)
            rng.shuffle(lines)
            d = len(lines)
            if full:
                counts = {m + 2: 3, 3: m * m, 2: 3 * m}
                exps = (m + 1, 2 * m + 1)
            else:
                counts = {3: m * m}
                counts[m] = counts.get(m, 0) + 3
                exps = tuple(sorted((m + 1, 2 * m - 2)))
            name = f"A({m},{1 if full else m},3)"
            path = write_lines(workdir / f"reflection_{m}_{int(full)}.lines", lines, "Qw")
            mu = mu_of(counts)
            r = exps[0]
            expected = {
                "d": str(d), "field": "Qw", "combinatorics": census_text(d, counts),
                "mu": str(mu), "tau": str(mu), "mdr": str(r), "eta": str(eta(d, r)),
                "verdict": "Free", "exponents": str(exps),
            }
            ops.append(Op(["analyze", path, "--witness"], "analyze", _check_text(expected),
                          lines=lines, mdr=r, work={"name": name, "d": d, "census": counts}))
    return ops


def near_pencil(rng: random.Random, d: int) -> list:
    """d - 1 lines x - s*y through (0:0:1), distinct s drawn from [-40, 40],
    plus one line a*x + b*y + z that misses the centre."""
    slopes = rng.sample(range(-40, 41), d - 1)
    lines = [(1, -s, 0) for s in slopes]
    lines.append((rng.randint(-4, 4), rng.randint(-4, 4), 1))
    return lines


def _pencil_json(d: int) -> dict:
    # one (d-1)-fold point and d-1 nodes: Free with exponents (1, d-2)
    return arrangement_json(d, "Q", {d - 1: 1, 2: d - 1}, 1, "Free", (1, d - 2))


def _check_classify(got) -> Optional[str]:
    admissible = {(r["d"], r["t2"], r["t3"]) for r in got if r["status"] == "Admissible"}
    if admissible != ADMISSIBLE or sum(r["status"] == "Admissible" for r in got) != 5:
        return f"admissible {sorted(admissible)}"
    return None


def cli_mix(rng: random.Random, workdir: Path) -> list:
    """A fixed command script over the whole front end; the seed draws the
    near pencils and the order of the commands."""
    ops = []
    for name, (d, fld, counts, r, verdict, exps, b) in CATALOG.items():
        ops.append(Op(["analyze", f"@catalog:{name}", "--json"], "analyze",
                      _check_json(arrangement_json(d, fld, counts, r, verdict, exps, b))))
    # Deleting x - y from the dual Hesse arrangement gives MacLane8.
    ops.append(Op(["delete", "@catalog:DualHesse9", "--line", "0", "--json"], "delete",
                  _check_json(arrangement_json(*CATALOG["MacLane8"]))))
    # Moving x - y to x - y/2 splits the triple point (1:1:1) of A1_6: the
    # result is A6_deformed, tau drops 19 -> 18 and eta stays 19.
    deformed = arrangement_json(*CATALOG["A6_deformed"])
    deformed["deform"] = {"before_t2": 3, "before_t3": 4, "after_t2": 6, "after_t3": 3,
                          "tau_before": 19, "tau_after": 18, "eta_before": 19, "eta_after": 19}
    ops.append(Op(["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3", "--dir", "y",
                   "--eps", "1/2", "--json"], "deform", _check_json(deformed)))
    # With eps = 1 the moved line x - y + y = x collides with line 0: exit 4.
    ops.append(Op(["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3", "--dir", "y",
                   "--eps", "1", "--json"], "reject", _check_rejected(4)))
    ops.append(Op(["classify", "--dmin", "2", "--dmax", "40", "--json"], "classify",
                  _check_json(_check_classify)))
    # d = 11: t3 >= ceil((121-44-1)/4) = 19 > U3(11) = floor(5*11/3) - 1 = 17,
    # and the window [ceil(16/3), 5] is empty.
    ops.append(Op(["bounds", "--d", "11", "--json"], "bounds",
                  _check_json({"d": 11, "t3_lower_bound": 19, "schonheim_u3": 17,
                               "mdr_window": None, "consistent": False})))
    curves = [
        # cusp: relation (0, y, -2z) in degree 1; eta(3,1) = 3 = tau + 1
        ("y^2*z-x^3", 2, dict(d=3, mdr=1, eta=3, verdict="NearlyFree", exponents=[1, 2], b=1)),
        # the braid arrangement A1_6 as one polynomial
        ("x*y*z*(x-y)*(y-z)*(x-z)", 19,
         dict(d=6, mdr=2, eta=19, verdict="Free", exponents=[2, 3], b=None)),
        # dual Hesse without x - y, i.e. MacLane8, expanded over Q
        ("(x^2+x*y+y^2)*(y^3-z^3)*(z^3-x^3)", 36,
         dict(d=8, mdr=4, eta=37, verdict="NearlyFree", exponents=[4, 4], b=-2)),
    ]
    for expr, tau, want in curves:
        want = dict(want, field="Q", tau=tau, mu=None, t2=None, t3=None, t_higher=None)
        ops.append(Op(["analyze", "--poly", expr, "--tau", str(tau), "--json"], "poly",
                      _check_json(want)))
    for d in (40, 60):
        path = write_lines(workdir / f"pencil_{d}.lines", _as_scalars(near_pencil(rng, d)), "Q")
        ops.append(Op(["analyze", path, "--json"], "analyze", _check_json(_pencil_json(d)),
                      work={"d": d, "census": {d - 1: 1, 2: d - 1}}))
    rng.shuffle(ops)
    return ops


WORKLOADS = {"generic": generic, "reflection": reflection, "cli_mix": cli_mix}
