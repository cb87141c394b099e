"""Line arrangements in the projective plane over an exact field.

An arrangement is an ordered list of pairwise distinct linear forms, each
held as its primitive Z[w] triple (`LinearForm.ints`), which `parse_lines`
builds from the Z[w] integers of a line's tokens (`field.parse_scalar`), by
`int` when they are plain ASCII integers. The intersection lattice is found
by `_incidences` on those triples: each line i is crossed with every later
line j that it does not already meet at a point found from an earlier line.
Each cross product gets a canonical integer key (`field.primitive_pairs`,
made unique up to scaling by the norm of its leading coordinate and the
gcd), and the lines j of one key form one point with line i. Two lines meet
in one point only, so the skipped pairs are exactly those on points already
found, and the lattice takes sum over P of (m_P - 1) keys, not C(d, 2). The
census and the Milnor number (`WeakCombinatorics.mu`) count the incidences
alone, and `deformation` looks its point up by its key and moves its line
as a Z[w] triple, so no command builds a Q(w) point. Only
`singular_points`, which no command calls and which stays as the lattice
layer that `perfbench/tracer.py` wraps, reads each Q(w) point off its key
and sorts the points on integer keys (each key times L/N, L the lcm of the
leads N of all keys), the lex order of those points. The defining
polynomial is expanded in Z[w] integers too (`poly.product_of_forms`).
Everything is exact; no tolerances are involved anywhere.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm
from typing import Sequence

from .errors import (
    CatalogCensusMismatch,
    DirectionThroughPoint,
    DuplicateLine,
    FieldMismatch,
    IndexOutOfRange,
    LineNotIncident,
    NonGenericDeformation,
    NotATriplePoint,
    PairsIdentityViolated,
    ParseError,
    UnknownName,
)
from .field import (
    INTEGER,
    FieldTag,
    Scalar,
    pair_det2,
    pair_mul,
    parse_scalar,
    primitive_pairs,
    scaled_pairs,
)
from .poly import LinearForm, Poly, product_of_forms

Point = tuple  # 3 scalars, normalized so the first nonzero is 1


class LineArrangement:
    """d >= 1 pairwise distinct projective lines with a field tag."""

    __slots__ = ("lines", "tag")

    def __init__(self, lines: Sequence[LinearForm], tag: FieldTag = None):
        lines = tuple(lines)
        if not lines:
            raise ValueError("an arrangement needs at least one line")
        seen = set()
        for form in lines:
            if form in seen:
                raise DuplicateLine(f"duplicate line {form}")
            seen.add(form)
        smallest = FieldTag.Q if all(form.is_rational() for form in lines) else FieldTag.QW
        if tag is None:
            tag = smallest
        elif tag is FieldTag.Q and smallest is FieldTag.QW:
            raise FieldMismatch("arrangement tagged Q contains non-rational lines")
        self.lines = lines
        self.tag = tag

    @property
    def d(self) -> int:
        return len(self.lines)

    def __eq__(self, other):
        if not isinstance(other, LineArrangement):
            return NotImplemented
        return self.lines == other.lines and self.tag is other.tag

    def __hash__(self):
        return hash((self.lines, self.tag))

    def __repr__(self):
        return f"<LineArrangement d={self.d} {self.tag.value}>"


@dataclass(frozen=True)
class SingularPoint:
    point: Point
    multiplicity: int
    incident_lines: tuple  # sorted line indices


@dataclass(frozen=True)
class WeakCombinatorics:
    """Line count d plus the multiplicity census {k: t_k, k >= 2}."""

    d: int
    counts: tuple  # sorted ((k, t_k), ...) with t_k > 0

    def __post_init__(self):
        pairs = sum(t * comb(k, 2) for k, t in self.counts)
        if pairs != comb(self.d, 2):
            raise PairsIdentityViolated(
                f"census {self.counts} covers {pairs} line pairs, not C({self.d},2)"
            )

    @property
    def t2(self) -> int:
        return dict(self.counts).get(2, 0)

    @property
    def t3(self) -> int:
        return dict(self.counts).get(3, 0)

    @property
    def mu(self) -> int:
        """Total Milnor number: sum of t_k * (k - 1)^2."""
        return sum(t * (k - 1) ** 2 for k, t in self.counts)

    @property
    def higher(self) -> dict:
        return {k: t for k, t in self.counts if k >= 4}

    def __str__(self):
        extra = "".join(f", t{k}={t}" for k, t in self.counts if k >= 4)
        return f"({self.d}; {self.t2}, {self.t3}{extra})"


def _cross(u: tuple, v: tuple) -> tuple:
    """Intersection point of the Z[w] lines u and v, as three Z[w] pairs."""
    (u0, u1, u2), (v0, v1, v2) = u, v
    return (pair_det2(u1, v2, u2, v1), pair_det2(u2, v0, u0, v2), pair_det2(u0, v1, u1, v0))


def _incidences(arrangement: LineArrangement) -> list:
    """(key, incident lines) of every intersection point, in the order found.
    Each point is found whole from its smallest line i, which is crossed
    only with the lines j > i it does not meet at a point found earlier:
    sum over P of (m_P - 1) keys, not C(d, 2) (see the module docstring)."""
    ints = [form.ints for form in arrangement.lines]
    met = [set() for _ in ints]  # met[j]: the lines of the points found through j
    found = []
    for i, u in enumerate(ints):
        clusters: dict = {}
        seen = met[i]
        for j in range(i + 1, len(ints)):
            if j not in seen:
                clusters.setdefault(primitive_pairs(_cross(u, ints[j])), [i]).append(j)
        for key, incident in clusters.items():
            for j in incident[1:]:
                met[j].update(incident)
            found.append((key, incident))
    return found


def singular_points(arrangement: LineArrangement) -> list:
    """All intersection points, clustered on exact integer keys
    (`_incidences`), in lex coordinate order; each point is built in Q(w)
    once, from its key."""
    # the key's first nonzero coordinate is (N, 0) with N > 0, so the
    # normalized point is key / N
    found = [(key, next(a for a, b in key if a or b), incident)
             for key, incident in _incidences(arrangement)]
    # key * (L / N), L the lcm of all the N, is the point times L: sorting on
    # it is the lex order of the normalized coordinates, without Fractions
    scale = lcm(*(n for _, n, _ in found))
    found.sort(key=lambda p: tuple((a * (scale // p[1]), b * (scale // p[1])) for a, b in p[0]))
    return [SingularPoint(point=tuple(Scalar(Fraction(a, n), Fraction(b, n)) for a, b in key),
                          multiplicity=len(incident), incident_lines=tuple(incident))
            for key, n, incident in found]


def _census(d: int, multiplicities) -> WeakCombinatorics:
    return WeakCombinatorics(d=d, counts=tuple(sorted(Counter(multiplicities).items())))


def weak_combinatorics(arrangement: LineArrangement) -> WeakCombinatorics:
    """The census, counted from the incidences alone: no point is built."""
    return _census(arrangement.d, (len(incident) for _, incident in _incidences(arrangement)))


def defining_polynomial(arrangement: LineArrangement) -> Poly:
    return product_of_forms(arrangement.lines, arrangement.tag)


def delete_line(arrangement: LineArrangement, index: int) -> LineArrangement:
    if not 0 <= index < arrangement.d:
        raise IndexOutOfRange(f"line index {index} out of range for d={arrangement.d}")
    if arrangement.d < 2:
        raise IndexOutOfRange("cannot delete the only line")
    remaining = arrangement.lines[:index] + arrangement.lines[index + 1:]
    return LineArrangement(remaining, arrangement.tag)


def deformation(
    arrangement: LineArrangement,
    point: Sequence,
    line_index: int,
    direction: LinearForm,
    eps: tuple,
) -> tuple:
    """Split one triple point into three nodes by replacing one of its lines.

    The line at line_index is replaced by line + eps*direction. The result
    is accepted only if its multiplicity census is exactly (t2 + 3, t3 - 1)
    with everything else unchanged; any other outcome (including a duplicate
    line) raises NonGenericDeformation, and the caller may retry with a
    different eps or direction. The point is Z[w] pairs (any multiple) and
    eps is ((a, b), n), meaning (a + b*w) / n. Returns (deformed
    arrangement, census before, census after), so callers need not build
    either lattice again.
    """
    (ea, eb), n = eps
    if not (ea or eb):
        raise ValueError("eps must be nonzero")
    if not 0 <= line_index < arrangement.d:
        raise IndexOutOfRange(f"line index {line_index} out of range for d={arrangement.d}")
    if arrangement.tag is FieldTag.Q and not (direction.is_rational() and not eb):
        raise FieldMismatch("deformation data must stay in the arrangement's field")
    if all(c == (0, 0) for c in point):
        raise ValueError("a projective point needs a nonzero coordinate")
    # the key `_incidences` gives this projective point
    key = primitive_pairs(point)
    found = _incidences(arrangement)
    incident = next((incident for k, incident in found if k == key), None)
    if incident is None or len(incident) != 3:
        raise NotATriplePoint(f"no triple point of the arrangement at the given coordinates")
    if line_index not in incident:
        raise LineNotIncident(f"line {line_index} does not pass through the triple point")
    if not any(_dot(direction.ints, key)):
        raise DirectionThroughPoint("direction form vanishes at the triple point")
    # with leads s of old and t of direction, and eps = e/n, the moved line
    # old/s + eps*direction/t is, times s*t*n, t*n*old + s*e*direction;
    # old vanishes at the point and direction does not, so it is nonzero
    old = arrangement.lines[line_index].ints
    s, t = (next(a for a, _ in ints if a) for ints in (old, direction.ints))
    tn = t * n
    se = (s * ea, s * eb)
    moved = LinearForm(*((tn * a + x, tn * b + y)
                         for (a, b), (x, y) in zip(old, (pair_mul(se, v) for v in direction.ints))))
    new_lines = list(arrangement.lines)
    new_lines[line_index] = moved
    try:
        deformed = LineArrangement(new_lines, arrangement.tag)
    except DuplicateLine as exc:
        raise NonGenericDeformation(f"deformed line collides with another line: {exc}")
    census_before = _census(arrangement.d, (len(incident) for _, incident in found))
    census_after = weak_combinatorics(deformed)
    before, after = dict(census_before.counts), dict(census_after.counts)
    expected = dict(before)
    expected[2] = expected.get(2, 0) + 3
    expected[3] = expected.get(3, 0) - 1
    expected = {k: v for k, v in expected.items() if v}
    if after != expected:
        raise NonGenericDeformation(
            f"combinatorics changed from {sorted(before.items())} to {sorted(after.items())},"
            f" expected {sorted(expected.items())}"
        )
    return deformed, census_before, census_after


def _dot(u: tuple, v: tuple) -> tuple:
    """The sum of the products u_k * v_k of two Z[w] vectors, a Z[w] pair."""
    products = [pair_mul(x, y) for x, y in zip(u, v)]
    return (sum(a for a, _ in products), sum(b for _, b in products))


# ---------------------------------------------------------------------------
# Named catalog
# ---------------------------------------------------------------------------

# Each entry: its field, its lines as `.lines` rows, and its census
# (d, ((k, t_k), ...)), re-verified when the entry is first built. The rows
# of A5_nearlyfree, B7_deformed and MacLane8 are those of a deformation or
# a deletion of A5_free, B7_free and DualHesse9; the tests rebuild them so.
_DUAL_HESSE = ("1 -1 0", "1 -w 0", "1 1+w 0", "0 1 -1", "0 1 -w", "0 1 1+w",
               "-1 0 1", "-w 0 1", "1+w 0 1")
_CATALOG = {
    "A4_free": ("Q", ("1 0 0", "0 1 0", "1 -1 0", "0 0 1"), (4, ((2, 3), (3, 1)))),
    "A4_generic": ("Q", ("1 0 0", "0 1 0", "0 0 1", "1 1 1"), (4, ((2, 6),))),
    "A5_free": ("Q", ("1 0 0", "0 1 0", "1 -1 0", "0 0 1", "1 0 -1"), (5, ((2, 4), (3, 2)))),
    "A5_nearlyfree": ("Q", ("1 0 0", "0 1 0", "1 -1 1", "0 0 1", "1 0 -1"),
                      (5, ((2, 7), (3, 1)))),
    "A1_6": ("Q", ("1 0 0", "0 1 0", "0 0 1", "1 -1 0", "0 1 -1", "1 0 -1"),
             (6, ((2, 3), (3, 4)))),
    "A6_deformed": ("Q", ("1 0 0", "0 1 0", "0 0 1", "1 -1/2 0", "0 1 -1", "1 0 -1"),
                    (6, ((2, 6), (3, 3)))),
    "B7_free": ("Q", ("0 0 1", "1 0 -1", "1 0 1", "0 1 -1", "0 1 1", "1 -1 0", "1 1 0"),
                (7, ((2, 3), (3, 6)))),
    "B7_deformed": ("Q", ("0 0 1", "1 0 -1", "1 0 1", "0 1 -1", "0 1 1", "2 -1 -1", "1 1 0"),
                    (7, ((2, 6), (3, 5)))),
    "MacLane8": ("Qw", _DUAL_HESSE[1:], (8, ((2, 4), (3, 8)))),
    "DualHesse9": ("Qw", _DUAL_HESSE, (9, ((2, 0), (3, 12)))),
}


def catalog_names() -> list:
    return list(_CATALOG)


@lru_cache(maxsize=None)
def catalog(name: str) -> LineArrangement:
    """Named arrangements; the expected multiplicity census is re-verified
    against the computed lattice every time an entry is first built."""
    try:
        field, rows, (d, expected) = _CATALOG[name]
    except KeyError:
        raise UnknownName(f"unknown catalog entry {name!r}") from None
    arrangement = parse_lines("\n".join((f"field: {field}",) + rows))
    comb_actual = weak_combinatorics(arrangement)
    expected_counts = tuple((k, t) for k, t in expected if t)
    if arrangement.d != d or comb_actual.counts != expected_counts:
        raise CatalogCensusMismatch(
            f"catalog entry {name} built with combinatorics {comb_actual}, "
            f"expected d={d}, counts={expected_counts}"
        )
    return arrangement


# ---------------------------------------------------------------------------
# .lines file format
# ---------------------------------------------------------------------------

_FIELD_NAMES = {"Q": FieldTag.Q, "Qw": FieldTag.QW}


def parse_lines(text: str) -> LineArrangement:
    """Parse the `.lines` format: optional `field:` header, `#` comments,
    then one line per linear form as three whitespace-separated scalars.
    A line of three integers (an optional sign and ASCII digits) is read by
    `int`; in any other, `parse_scalar` reads the rest, and `scaled_pairs`
    brings the three to one denominator."""
    tag = None
    forms, seen = [], set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if body.startswith("field:"):
            if forms or tag is not None:
                raise ParseError("field header must come first", line=lineno)
            name = body[len("field:"):].strip()
            if name not in _FIELD_NAMES:
                raise ParseError(f"unknown field {name!r}", line=lineno)
            tag = _FIELD_NAMES[name]
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(
                f"expected three scalars, got {len(parts)}", line=lineno
            )
        try:
            # a line of plain integers skips parse_scalar
            coeffs = [int(p) for p in parts if INTEGER.fullmatch(p)]
            if len(coeffs) < 3:
                coeffs = scaled_pairs([((int(p), 0), 1) if INTEGER.fullmatch(p) else parse_scalar(p)
                                       for p in parts])
        except ParseError as exc:
            raise ParseError(f"bad scalar: {exc}", line=lineno)
        if coeffs == [0, 0, 0] or coeffs == [(0, 0)] * 3:
            raise ParseError("zero line", line=lineno)
        form = LinearForm(*coeffs)
        if form in seen:
            raise DuplicateLine(f"duplicate line {form} (line {lineno})")
        seen.add(form)
        forms.append(form)
    if not forms:
        raise ParseError("no lines in input")
    return LineArrangement(forms, tag)


def load_lines(path: str) -> LineArrangement:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_lines(fh.read())
