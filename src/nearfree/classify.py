"""Bound system and candidate sweep for nearly free nodes-and-triples
arrangements.

All arithmetic here is exact integer work: ceilings and floors are computed
with integer division, never floats. The sweep enumerates the admissible
syzygy degrees r directly, so integrality of r is built in from the start,
and converts each r into a candidate weak combinatorics via

    mu = eta(d, r) - 1,   t3 = mu - C(d,2),   t2 = C(d,2) - 3*t3.

Candidates are then filtered by the triple-point packing bound and by a
configured list of combinatorics known not to be realizable by lines (that
knowledge is external input, not recomputed here).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from math import comb
from typing import Optional

from .criteria import eta
from .errors import OutOfRange, PairsIdentityViolated, ParseError
from .field import INTEGER


def _ceil_div(num: int, den: int) -> int:
    return -((-num) // den)


def t3_lower_bound(d: int) -> int:
    """Least t3 compatible with an integer syzygy degree: ceil((d^2-4d-1)/4),
    clamped at zero."""
    if d < 2:
        raise OutOfRange("need d >= 2")
    return max(0, _ceil_div(d * d - 4 * d - 1, 4))


def schonheim_u3(d: int) -> int:
    """Packing upper bound U3(d) = floor(floor((d-1)/2) * d / 3) - eps(d),
    with eps(d) = 1 when d = 5 (mod 6) and 0 otherwise."""
    if d < 2:
        raise OutOfRange("need d >= 2")
    eps = 1 if d % 6 == 5 else 0
    return (((d - 1) // 2) * d) // 3 - eps


def mdr_window(d: int) -> Optional[tuple]:
    """Closed interval of syzygy degrees allowed for a nearly free
    nodes-and-triples arrangement, or None when it is empty.

    Lower edge: ceil(2d/3 - 2) but at least 1; upper edge: floor(d/2).
    The window closes for every d >= 13.
    """
    if d < 2:
        raise OutOfRange("need d >= 2")
    lo = max(1, _ceil_div(2 * d - 6, 3))
    hi = d // 2
    if lo > hi:
        return None
    return (lo, hi)


class CandidateStatus(Enum):
    ADMISSIBLE = "Admissible"
    EXCLUDED_BY_SCHONHEIM = "ExcludedBySchonheim"
    EXCLUDED_NONREALIZABLE = "ExcludedNonrealizable"
    EXCLUDED_NO_INTEGER_ROOT = "ExcludedNoIntegerRoot"


@dataclass(frozen=True)
class CandidateRecord:
    d: int
    t2: int
    t3: int
    r: Optional[int]
    status: CandidateStatus
    citation: Optional[str] = None

    def __str__(self):
        tail = f"  # {self.citation}" if self.citation else ""
        return f"({self.d}; {self.t2}, {self.t3}) r={self.r} {self.status.value}{tail}"


_DEFAULT_CITATION = (
    "matroid census: the unique configuration of 9 lines with 11 triple"
    " points fails the valuation realizability test over every field"
)


@dataclass(frozen=True)
class ExclusionConfig:
    """Combinatorics excluded on external grounds, with a citation each."""

    nonrealizable: tuple = dataclass_field(default=())  # ((d, t2, t3, citation), ...)

    def lookup(self, d: int, t2: int, t3: int) -> Optional[str]:
        for ed, e2, e3, citation in self.nonrealizable:
            if (ed, e2, e3) == (d, t2, t3):
                return citation
        return None


def default_exclusions() -> ExclusionConfig:
    return ExclusionConfig(nonrealizable=((9, 3, 11, _DEFAULT_CITATION),))


def no_exclusions() -> ExclusionConfig:
    return ExclusionConfig()


def parse_exclusions(text: str) -> ExclusionConfig:
    """One entry per line: `d t2 t3 # citation`; the citation is mandatory
    so every exclusion stays documented."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body, _, comment = raw.partition("#")
        body = body.strip()
        if not body:
            continue
        parts = body.split()
        if len(parts) != 3:
            raise ParseError(f"expected `d t2 t3`, got {body!r}", line=lineno)
        if not all(INTEGER.fullmatch(p) for p in parts):
            raise ParseError(f"non-integer entry {body!r}", line=lineno)
        d, t2, t3 = (int(p) for p in parts)
        citation = comment.strip()
        if not citation:
            raise ParseError("exclusion entry needs a `# citation`", line=lineno)
        entries.append((d, t2, t3, citation))
    return ExclusionConfig(nonrealizable=tuple(entries))


def load_exclusions(path: str) -> ExclusionConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_exclusions(fh.read())


def _classify_candidate(d, t2, t3, r, config: ExclusionConfig) -> CandidateRecord:
    if t3 < 0 or t2 < 0 or t3 > schonheim_u3(d):
        return CandidateRecord(d, t2, t3, r, CandidateStatus.EXCLUDED_BY_SCHONHEIM)
    citation = config.lookup(d, t2, t3)
    if citation is not None:
        return CandidateRecord(
            d, t2, t3, r, CandidateStatus.EXCLUDED_NONREALIZABLE, citation=citation
        )
    return CandidateRecord(d, t2, t3, r, CandidateStatus.ADMISSIBLE)


def enumerate_candidates(d: int, config: ExclusionConfig = None) -> list:
    """Candidate combinatorics for one d, deduplicated, ordered by t3.

    Each admissible syzygy degree r gives one candidate; when two degrees
    lead to the same (t2, t3) the larger witness r is kept, matching
    has_integer_root.
    """
    if config is None:
        config = default_exclusions()
    if d < 2:
        raise OutOfRange("need d >= 2")
    window = mdr_window(d)
    if window is None:
        return []
    by_combinatorics: dict = {}
    for r in range(window[0], window[1] + 1):
        mu = eta(d, r) - 1
        t3 = mu - comb(d, 2)
        t2 = comb(d, 2) - 3 * t3
        key = (t2, t3)
        prev = by_combinatorics.get(key)
        if prev is None or r > prev:
            by_combinatorics[key] = r
    records = [
        _classify_candidate(d, t2, t3, r, config)
        for (t2, t3), r in by_combinatorics.items()
    ]
    records.sort(key=lambda rec: rec.t3)
    return records


def has_integer_root(d: int, t2: int, t3: int) -> Optional[int]:
    """Largest in-window integer r with eta(d, r) = t2 + 4*t3 + 1, if any.

    The input must satisfy the pairs identity t2 + 3*t3 = C(d,2); anything
    else is rejected rather than silently classified.
    """
    if t2 + 3 * t3 != comb(d, 2):
        raise PairsIdentityViolated(
            f"t2 + 3*t3 = {t2 + 3 * t3} but C({d},2) = {comb(d, 2)}"
        )
    # given the pairs identity, eta(d, r) = t2 + 4*t3 + 1 iff (t2, t3) is r's
    # candidate, and enumerate_candidates keeps the largest such r
    return next((rec.r for rec in enumerate_candidates(d, no_exclusions())
                 if (rec.t2, rec.t3) == (t2, t3)), None)


def check_combinatorics(d: int, t2: int, t3: int, config: ExclusionConfig = None) -> CandidateRecord:
    """Classify a user-supplied weak combinatorics."""
    if config is None:
        config = default_exclusions()
    r = has_integer_root(d, t2, t3)
    if r is None:
        return CandidateRecord(d, t2, t3, None, CandidateStatus.EXCLUDED_NO_INTEGER_ROOT)
    return _classify_candidate(d, t2, t3, r, config)


def classify_all(d_min: int, d_max: int, config: ExclusionConfig = None) -> list:
    """Sweep enumerate_candidates over d_min..d_max, ascending d then t3."""
    if not 2 <= d_min <= d_max:
        raise OutOfRange(f"need 2 <= d_min <= d_max, got {d_min}..{d_max}")
    if config is None:
        config = default_exclusions()
    records = []
    for d in range(d_min, d_max + 1):
        records.extend(enumerate_candidates(d, config))
    return records
