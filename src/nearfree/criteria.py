"""Freeness and near-freeness tests for plane curves via Jacobian syzygies.

For a reduced curve f = 0 of degree d, write r for the minimal degree of a
syzygy a*f_x + b*f_y + c*f_z = 0 among the partial derivatives. The tests
compare the quadratic

    eta(d, r) = r^2 - r*(d-1) + (d-1)^2

against the total Tjurina number tau of the curve:

* free        when 2r <= d-1 and eta == tau, exponents (r, d-1-r);
* nearly free when 2r <= d   and eta == tau + 1, exponents (r, d-r) and
  resolution shift b = (d-r) - d + 2;
* inapplicable when 2r > d (the comparison is only valid up to d/2);
* neither otherwise.

tau is an input here: callers working with line arrangements obtain it as
the total Milnor number, which agrees with tau because every singular point
of an arrangement is quasi-homogeneous. A tau outside the du Plessis-Wall
bounds for the computed r is rejected with TauOutOfRange; for arrangements
that is a check of the invariant tau = mu.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from math import comb
from typing import Optional

from .errors import OutOfRange, TauOutOfRange
from .field import ZERO, FieldTag
from .linalg import ExactMatrix, kernel_basis
from .poly import Poly, graded_basis


def relation_matrix(f: Poly, r: int) -> ExactMatrix:
    """Matrix of (a, b, c) -> a*f_x + b*f_y + c*f_z on degree-r triples.

    Columns are the a-block, then b-block, then c-block, each indexed by
    graded_basis(r); rows are indexed by graded_basis(r + d - 1). Kernel
    vectors of this matrix are exactly the degree-r syzygies.
    """
    if f.degree < 2:
        raise OutOfRange("relation matrix needs a polynomial of degree >= 2")
    if f.is_zero():
        raise ValueError("relation matrix needs a nonzero polynomial")
    if r < 0:
        raise OutOfRange("relation degree must be non-negative")
    source = graded_basis(r)
    target = graded_basis(r + f.degree - 1)
    index = {mono: k for k, mono in enumerate(target)}
    nrows = len(target)
    ncols = 3 * len(source)
    column_major = [[None] * nrows for _ in range(ncols)]
    for block in range(3):
        part = f.partial(block)
        for s, mono in enumerate(source):
            col = column_major[block * len(source) + s]
            for pm, coef in part.terms.items():
                row = index[(pm[0] + mono[0], pm[1] + mono[1], pm[2] + mono[2])]
                col[row] = coef if col[row] is None else col[row] + coef
    entries = []
    for i in range(nrows):
        for col in column_major:
            v = col[i]
            entries.append(ZERO if v is None else v)
    return ExactMatrix(nrows, ncols, tuple(entries), f.tag)


@dataclass
class MdrResult:
    """Minimal syzygy degree with a verified witness.

    relation_dims[k] is the kernel dimension of the degree-k relation
    matrix for k = 0..r; it is zero below r and at least one at r.
    certificates[k] is the certificate that settled that kernel, as
    `nearfree.linalg.kernel_basis` names it: "full rank mod p",
    "verified reconstruction (k primes)" or "exact elimination". It is not
    part of any report.
    """

    r: int
    witness: tuple  # (a, b, c) polynomials of degree r
    relation_dims: list
    certificates: list


def mdr(f: Poly) -> MdrResult:
    """Smallest degree of a nonzero relation among the partials of f.

    The search always terminates by degree d-1 because (0, f_z, -f_y) is a
    relation in that degree. f is assumed reduced; that is not checked.
    """
    d = f.degree
    if d < 2:
        raise OutOfRange("mdr needs a polynomial of degree >= 2")
    if f.is_zero():
        raise ValueError("mdr needs a nonzero polynomial")
    dims, certificates = [], []
    for r in range(d):
        matrix = relation_matrix(f, r)
        kernel = kernel_basis(matrix)
        dims.append(len(kernel))
        certificates.append(kernel.certificate)
        if kernel:
            nb = len(graded_basis(r))
            vec = kernel[0]
            witness = tuple(
                Poly.from_coefficients(r, vec[k * nb:(k + 1) * nb], f.tag)
                for k in range(3)
            )
            return MdrResult(r=r, witness=witness, relation_dims=dims, certificates=certificates)
    raise AssertionError("unreachable: a degree d-1 relation always exists")


def eta(d: int, r: int) -> int:
    """The quadratic r^2 - r*(d-1) + (d-1)^2 compared against tau."""
    if not 0 <= r <= d - 1:
        raise OutOfRange(f"need 0 <= r <= d-1, got r={r}, d={d}")
    return r * r - r * (d - 1) + (d - 1) * (d - 1)


def tau_bounds(d: int, r: int) -> tuple:
    """du Plessis-Wall bounds on tau for a reduced curve of degree d with
    mdr = r: (d-1)(d-r-1) <= tau <= (d-1)^2 - r(d-r-1), the upper bound
    lowered by C(2r-d+2, 2) when 2r >= d (du Plessis-Wall 1999; Dimca 2017,
    "Freeness versus maximal global Tjurina number")."""
    upper = (d - 1) ** 2 - r * (d - r - 1)
    if 2 * r >= d:
        upper -= comb(2 * r - d + 2, 2)
    return (d - 1) * (d - r - 1), upper


class VerdictKind(Enum):
    FREE = "Free"
    NEARLY_FREE = "NearlyFree"
    NEITHER = "Neither"
    INAPPLICABLE = "Inapplicable"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    exponents: Optional[tuple] = None  # (d1, d2)
    b: Optional[int] = None            # nearly free only
    reason: Optional[str] = None       # inapplicable only

    def __str__(self):
        if self.kind is VerdictKind.FREE:
            return f"Free{self.exponents}"
        if self.kind is VerdictKind.NEARLY_FREE:
            return f"NearlyFree{self.exponents}, b={self.b}"
        if self.kind is VerdictKind.INAPPLICABLE:
            return f"Inapplicable ({self.reason})"
        return "Neither"


def verdict(d: int, r: int, tau: int) -> Verdict:
    """Decide free / nearly free / neither from (d, r, tau) alone.

    Exponent sums follow the resolution conventions: d1 + d2 = d - 1 for
    free curves and d1 + d2 = d for nearly free ones, with d1 = r.
    """
    e = eta(d, r)
    if 2 * r <= d - 1 and e == tau:
        return Verdict(VerdictKind.FREE, exponents=(r, d - 1 - r))
    if 2 * r <= d and e == tau + 1:
        return Verdict(VerdictKind.NEARLY_FREE, exponents=(r, d - r), b=(d - r) - d + 2)
    if 2 * r > d:
        return Verdict(
            VerdictKind.INAPPLICABLE,
            reason=f"mdr={r} exceeds d/2={d}/2; the numeric test does not apply",
        )
    return Verdict(VerdictKind.NEITHER)


@dataclass
class AnalysisReport:
    """Everything the front end prints about one curve or arrangement."""

    source: str
    field: FieldTag
    d: int
    tau: Optional[int]
    mu: Optional[int] = None
    combinatorics: Optional[object] = None  # WeakCombinatorics for arrangements
    mdr_result: Optional[MdrResult] = None
    eta_value: Optional[int] = None
    verdict: Verdict = Verdict(VerdictKind.INAPPLICABLE, reason="not analyzed")
    notes: list = dataclass_field(default_factory=list)


def analyze_curve(f: Poly, tau: int, source: str = "polynomial") -> AnalysisReport:
    """Run the full numeric pipeline on a defining polynomial.

    tau must be supplied by the caller; for line arrangements use the total
    Milnor number. It must lie within tau_bounds(d, mdr), else
    TauOutOfRange is raised. Degree < 2 input yields an Inapplicable report
    with a note instead of an error so deletion chains can bottom out
    gracefully.
    """
    d = f.degree
    report = AnalysisReport(source=source, field=f.tag, d=d, tau=tau)
    if d < 2:
        report.verdict = Verdict(
            VerdictKind.INAPPLICABLE, reason="degree < 2: no syzygy test available"
        )
        report.notes.append("degree < 2: verdict skipped")
        return report
    result = mdr(f)
    lower, upper = tau_bounds(d, result.r)
    if not lower <= tau <= upper:
        raise TauOutOfRange(
            f"tau={tau} is impossible for a reduced curve of degree {d} with mdr={result.r}:"
            f" the du Plessis-Wall bounds give {lower} <= tau <= {upper}"
        )
    report.mdr_result = result
    report.eta_value = eta(d, result.r)
    report.verdict = verdict(d, result.r, tau)
    if 2 * result.r == d:
        report.notes.append("boundary case: 2*mdr == d")
    if report.verdict.kind is VerdictKind.FREE:
        report.notes.append("free verdict by numeric criterion (eta == tau)")
    return report
