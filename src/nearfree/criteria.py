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

`mdr` finds r on one of two routes with the same kernel dimensions:

* For a curve given by its polynomial (`--poly`), the kernel of the
  relation matrix of (a, b, c) -> a*f_x + b*f_y + c*f_z in each degree
  (`relation_matrix`, an `ExactMatrix` of Scalars, which `mdr` scales
  row by row to sparse Z[w] rows). There is nothing else to go on.
* For a line arrangement alpha_0 ... alpha_{d-1}, the logarithmic
  derivations theta that kill the first line, D_H0(A)_r = {theta of degree
  r : theta(alpha_0) = 0, theta(alpha_i) in (alpha_i) for i >= 1} (Saito
  1980; Terao 1980). With E the Euler derivation, D(A)_r = S_{r-1} E +
  D_H0(A)_r = S_{r-1} E + AR(f)_r, both sums direct, so dim D_H0(A)_r =
  dim AR(f)_r in every degree. `derivation_rows` solves theta(alpha_0) = 0
  for the component at alpha_0's pivot coordinate and asks each other
  line's condition on its restriction: r + 1 rows per line on
  2*C(r+2, 2) unknowns, their nonzero cells built from the line
  coefficients by one Pascal recurrence per line, against C(r+d+1, 2)
  rows of expanded coefficients of f on the Jacobian route. The witness
  theta is mapped to AR(f)_r by (a, b, c) = theta - (g/d)(x, y, z) with
  g = sum theta(alpha_i)/alpha_i, since theta(f) = g*f and E(f) = d*f.

Either way each kernel is settled by `nearfree.linalg.kernel_basis`, which
eliminates sparse Z[w] rows, dicts of their nonzero cells, and lifts at
most the first canonical vector. The witness stays in Z[w] integers over
one denominator: `_derivation_witness` builds it on lists aligned
with graded_basis, dividing each image theta(alpha_i) by its line in one
Horner pass, and `verify_syzygy` checks a*f_x + b*f_y + c*f_z = 0 exactly
on flat integer lists before its polynomials are built.

tau is an input here: callers working with line arrangements obtain it as
the total Milnor number, which agrees with tau because every singular
point of an arrangement is quasi-homogeneous. A tau outside the du
Plessis-Wall bounds for the computed r is rejected with TauOutOfRange; for
arrangements that is a check of the invariant tau = mu.

tau also orders the search: `mdr` walks the degrees from min(hi, d - m),
hi the largest r that the bounds admit (0 without tau) and d - m the
pencil bound below, given m, the largest multiplicity of a point of the
lines. Both spaces are modules over the polynomial ring, so a zero kernel
at r proves every lower degree empty: step up. Where degree r - 1 is known
empty, at r = 0 or above a zero kernel, a nonzero kernel at r ends the
walk, and `kernel_basis` lifts its first vector. Elsewhere, with l = x -
c*y not a line (x on --poly), it divides the kernel mod p by l
(`_remainders`): both spaces are saturated by l, so K_(r-1) = {theta :
l*theta in K_r}, and remainders of full column rank mod p prove K_(r-1) =
0, which ends the walk at r with the first vector lifted. Otherwise the
kernel at r stays open, nothing is lifted, and the walk steps down to
eliminate r - 1 mod p. So the walk ends at mdr from any start: r and the
witness ignore tau and m.

The pencil bound: mdr <= d - m for an arrangement with a point P of
multiplicity m, by the pencil-type syzygy of Dimca ("Curve arrangements,
pencils, and Jacobian syzygies", Michigan Math. J. 66, 2017). Let p be
P's coordinate vector, h the product of the d - m lines not through P,
and theta = h*(p_x d/dx + p_y d/dy + p_z d/dz). Then theta(alpha) =
h*alpha(p) is 0 for a line alpha through P and a multiple of alpha for
any other, so theta is in D(A)_(d-m). It is not in S*E: h*p
= g*(x, y, z) with g != 0 would make x, y and z proportional. So
D(A)_(d-m) is larger than S_(d-m-1) E, and D_H0(A)_(d-m), of the
dimension of AR(f)_(d-m), is not 0.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from enum import Enum
from functools import lru_cache
from itertools import count
from math import comb, lcm
from typing import Optional, Sequence

from .errors import NoSyzygyFound, NotASyzygy, OutOfRange, TauOutOfRange
from .field import ZERO, FieldTag, integer_pairs, pair_det2
from .linalg import kernel_basis
from .poly import Poly, graded_basis


@dataclass(frozen=True)
class ExactMatrix:
    """A relation matrix as `relation_matrix` builds it: rows x cols Scalar
    entries, row-major, over the field tag of f."""

    rows: int
    cols: int
    entries: tuple
    tag: FieldTag


def relation_matrix(f: Poly, r: int) -> ExactMatrix:
    """Matrix of (a, b, c) -> a*f_x + b*f_y + c*f_z on degree-r triples.

    Columns are the a-block, then b-block, then c-block, each indexed by
    graded_basis(r); rows are indexed by graded_basis(r + d - 1). Kernel
    vectors of this matrix are exactly the degree-r syzygies. In column
    (b, s) the distinct terms of the b-th partial times the s-th monomial
    land in distinct rows, so each cell is written at most once. Each term
    of each partial gives one Scalar, its `coefficient`, shared by the
    cells it fills.
    """
    if f.degree < 2:
        raise OutOfRange("relation matrix needs a polynomial of degree >= 2")
    if f.is_zero():
        raise ValueError("relation matrix needs a nonzero polynomial")
    if r < 0:
        raise OutOfRange("relation degree must be non-negative")
    source = graded_basis(r)
    index = {mono: k for k, mono in enumerate(graded_basis(r + f.degree - 1))}
    ncols = 3 * len(source)
    entries = [ZERO] * (len(index) * ncols)
    for block in range(3):
        part = f.partial(block)
        coefs = [(pm, part.coefficient(pm)) for pm in part.terms]
        for col, mono in enumerate(source, block * len(source)):
            for pm, coef in coefs:
                row = index[(pm[0] + mono[0], pm[1] + mono[1], pm[2] + mono[2])]
                entries[row * ncols + col] = coef
    return ExactMatrix(len(index), ncols, tuple(entries), f.tag)


def _pivot_split(line: tuple) -> tuple:
    """(p, j1, j2): the first coordinate where the Z[w] line is nonzero,
    then the other two in order."""
    return (0, 1, 2) if line[0] != (0, 0) else (1, 0, 2) if line[1] != (0, 0) else (2, 0, 1)


def _line_data(lines: Sequence) -> list:
    """(beta, gamma, (q, k, l)) for each Z[w] line after the first: with
    (p0, j1, j2) the pivot split of alpha_0, alpha_0,p0 * theta(line) =
    beta*theta_j1 + gamma*theta_j2 when theta(alpha_0) = 0, and (q, k, l)
    is the line's own pivot split."""
    first = lines[0]
    p0, j1, j2 = _pivot_split(first)
    return [(pair_det2(line[j1], first[p0], line[p0], first[j1]),
             pair_det2(line[j2], first[p0], line[p0], first[j2]), _pivot_split(line))
            for line in lines[1:]]


@lru_cache(maxsize=None)
def _positions(r: int, q: int) -> tuple:
    """rows[e][a], e = 0..r+1: the index in graded_basis(r) of x_q^e x_k^a
    x_l^(r-e-a) for the pivot split (q, k, l); rows[r + 1] is empty. x^i
    y^j z^k sits at u(u+1)/2 + k with u = j + k, whatever the degree."""
    k, l = (v for v in range(3) if v != q)
    exps = [[dict(((q, e), (k, a), (l, r - e - a))) for a in range(r - e + 1)] for e in range(r + 2)]
    return tuple([(x[1] + x[2]) * (x[1] + x[2] + 1) // 2 + x[2] for x in row] for row in exps)


def derivation_rows(lines: Sequence, r: int) -> tuple:
    """(rows, ncols): sparse Z[w] rows, in the format of
    `nearfree.linalg.kernel_basis`, whose kernel is D_H0(A)_r.

    lines are the arrangement's lines as Z[w] pairs (each form's `ints`).
    With p0 the pivot coordinate of alpha_0 and j1 < j2 the other two,
    theta_p0 is solved from theta(alpha_0) = 0, so the ncols columns are the
    theta_j1 block, then the theta_j2 block, each indexed by
    graded_basis(r). Then alpha_0,p0 * theta(alpha_i) = beta_i*theta_j1 +
    gamma_i*theta_j2 with beta_i = alpha_i,j1*alpha_0,p0 -
    alpha_i,p0*alpha_0,j1 and gamma_i likewise with j2, and it lies in
    (alpha_i) iff it vanishes on alpha_i = 0. On that line A_q x_q =
    -A_k x_k - A_l x_l, where q is alpha_i's pivot and A its coefficients,
    so A_q^r times the restriction is a binary form of degree r in x_k,
    x_l with coefficients in Z[w]. Its r + 1 coefficients (x_k^s x_l^(r-s),
    s = 0..r) are line i's rows, of which only nonzero cells are stored:
    x_q^e x_k^a x_l^b restricts to the sum over t of T(e, t) x_k^(a+t)
    x_l^(b+e-t), T(e, t) = C(e,t) A_q^(r-e) (-A_k)^t (-A_l)^(e-t), which one
    Pascal recurrence per line gives, T(e, t) = (-A_k T(e-1, t-1) - A_l
    T(e-1, t)) / A_q, exact as A_q is a positive integer in `ints`.
    """
    basis = graded_basis(r)
    nb = len(basis)
    rows = []
    for line, ((ba, bb), (ga, gb), (q, k, l)) in zip(lines[1:], _line_data(lines)):
        lead, (ka, kb), (la, lb) = line[q][0], line[k], line[l]
        # by_beta[e], by_gamma[e]: the nonzero (t, beta*T(e, t)), (t, gamma*T(e, t))
        by_beta, by_gamma, level = [], [], [(lead ** r, 0)]
        for e in range(r + 1):
            if e:  # T(e, t) = (-A_k T(e-1, t-1) - A_l T(e-1, t)) / A_q, w^2 = -1 - w
                level = [((kb * pb - ka * pa + lb * xb - la * xa) // lead,
                          (kb * pb - ka * pb - kb * pa + lb * xb - la * xb - lb * xa) // lead)
                         for (pa, pb), (xa, xb) in zip([(0, 0)] + level, level + [(0, 0)])]
            cells = [(t, a, b) for t, (a, b) in enumerate(level) if a or b]
            by_beta.append([(t, (ba * a - bb * b, ba * b + bb * a - bb * b))
                            for t, a, b in cells] if ba or bb else [])
            by_gamma.append([(t, (ga * a - gb * b, ga * b + gb * a - gb * b))
                             for t, a, b in cells] if ga or gb else [])
        block = [{} for _ in range(r + 1)]
        for c, mono in enumerate(basis):
            e, a = mono[q], mono[k]
            for t, x in by_beta[e]:
                block[a + t][c] = x
            for t, x in by_gamma[e]:
                block[a + t][nb + c] = x
        rows.extend(block)
    return rows, 2 * nb


def _derivation_witness(d: int, ints: Sequence, r: int, pairs: tuple) -> tuple:
    """(W, D): the syzygy theta - (g/d)(x, y, z), g = sum
    theta(alpha_i)/alpha_i, of the derivation theta read from a canonical
    kernel vector of derivation_rows: W, like Theta, its images and G, is
    lists of Z[w] pairs on graded_basis, over one denominator D.

    With s the kernel vector's lead (the scale that made it integral) and
    L0 the first line's scaled pivot coefficient, Theta = L0*s*theta has
    h = Theta(A_i) = beta_i*theta_j1 + gamma_i*theta_j2 (as in
    derivation_rows). Write A_i = L*x_q + lam, L the positive integer pivot
    coefficient and lam = A_k*x_k + A_l*x_l. Z[w] is a unique factorization
    domain, so by Gauss's lemma P = L*h/A_i is integral when A_i divides h.
    With h_e and P_e the binary forms at x_q^e, L*h_e = L*P_(e-1) +
    lam*P_e: one Horner pass from e = r down gives P_(e-1) = h_e -
    lam*P_e/L, an exact division at each step, and the remainder test is
    L*h_0 = lam*P_0. The pass skips the zero entries of P_e. An inexact
    step or a nonzero remainder raises NotASyzygy: theta is not tangent to
    A_i. With M = lcm(L_i) and G = sum (M/L_i)*P_i, the integral W =
    d*M*Theta - G*(x, y, z) is the witness times D = d*M*L0*s.
    """
    nb = (r + 1) * (r + 2) // 2
    s = next(a for a, b in pairs if a or b)  # the lead entry (s, 0)
    p0, j1, j2 = _pivot_split(ints[0])
    data = _line_data(ints)
    m = lcm(*(line[q][0] for line, (_, _, (q, _, _)) in zip(ints[1:], data)))
    # the nonzero cells (c, theta_j1, theta_j2) of the kernel vector
    cells = [(c, x, y) for c, (x, y) in enumerate(zip(pairs, pairs[nb:])) if x != (0, 0) or y != (0, 0)]
    g = [(0, 0)] * (nb - r - 1)  # on graded_basis(r - 1)
    for line, ((ba, bb), (ga, gb), (q, k, l)) in zip(ints[1:], data):
        L, (ka, kb), (la, lb) = line[q][0], line[k], line[l]
        ba, bb, ga, gb, image = L * ba, L * bb, L * ga, L * gb, [(0, 0)] * nb
        for c, (xa, xb), (ya, yb) in cells:  # L*h = L*beta*x + L*gamma*y, w^2 = -1 - w
            image[c] = (ba * xa - bb * xb + ga * ya - gb * yb,
                        ba * xb + bb * xa - bb * xb + ga * yb + gb * ya - gb * yb)
        above, below, scale, quot = _positions(r, q), _positions(r - 1, q), m // L, []
        for e in range(r, -1, -1):  # quot is P_e, from P_r = 0, and goes into G on the way
            prev, quot = quot, [image[c] for c in above[e]]
            for a, ((pa, pb), c) in enumerate(zip(prev, below[e])):  # L*h_e - lam*P_e
                if pa or pb:
                    ta, tb = g[c]
                    g[c] = (ta + scale * pa, tb + scale * pb)
                    ta, tb = quot[a + 1]
                    cross = kb * pb
                    quot[a + 1] = (ta - ka * pa + cross, tb - ka * pb - kb * pa + cross)
                    ta, tb = quot[a]
                    cross = lb * pb
                    quot[a] = (ta - la * pa + cross, tb - la * pb - lb * pa + cross)
            if L > 1 and any(a % L or b % L for a, b in quot) or not e and any(a or b for a, b in quot):
                raise NotASyzygy(f"the derivation is not tangent to the line {line}")
            quot = [(a // L, b // L) for a, b in quot] if L > 1 else quot
    dm, lead, (fa, fb), (ha, hb) = d * m, ints[0][p0][0], ints[0][j1], ints[0][j2]
    theta = [[(0, 0)] * nb for _ in range(3)]
    for c, (xa, xb), (ya, yb) in cells:  # Theta_p0 from Theta(alpha_0) = 0
        theta[j1][c] = (dm * lead * xa, dm * lead * xb)
        theta[j2][c] = (dm * lead * ya, dm * lead * yb)
        theta[p0][c] = (dm * (fb * xb - fa * xa + hb * yb - ha * ya),
                        dm * (fb * xb - fa * xb - fb * xa + hb * yb - ha * yb - hb * ya))
    # minus G*(x, y, z): x^i y^j z^k at c, u = j + k, goes up to c, c + u + 1, c + u + 2
    for c, ((a, b), u) in enumerate(zip(g, (u for u in range(r) for _ in range(u + 1)))):
        if a or b:
            for comp, at in zip(theta, (c, c + u + 1, c + u + 2)):
                ta, tb = comp[at]
                comp[at] = (ta - a, tb - b)
    return theta, dm * lead * s


def verify_syzygy(f_terms: dict, witness: Sequence[dict]) -> None:
    """Raise NotASyzygy unless a*f_x + b*f_y + c*f_z = 0, checked exactly.

    f_terms is f and witness is (a, b, c), each a term map of Z[w] integer
    pairs of a homogeneous polynomial, a, b and c of one degree r; a common
    factor of a, b and c, and any factor of f, such as `Poly.den`, does not
    matter. Each term of each partial of f is multiplied by each term of
    its component of the witness, and the products are added up per
    monomial in two flat integer lists, the real and the w part (only the
    real one where neither the partial nor the component has a w part).
    Every product has degree r + d - 1, so x^i y^j z^k sits at i*width + j
    with width = r + d, which exceeds j. The check passes iff every sum is 0.
    """
    if not any(a or b for t in witness for a, b in t.values()):
        raise NotASyzygy("the zero triple is no witness")
    width = sum(next(iter(f_terms))) + sum(next(m for t in witness for m in t))
    re, im = [0] * (width * width), [0] * (width * width)
    for var, component in enumerate(witness):
        # the partial in var: lowering x takes width off the index, lowering y one
        shift = (width, 1, 0)[var]
        part = [(mono[0] * width + mono[1] - shift, fa * mono[var], fb * mono[var])
                for mono, (fa, fb) in f_terms.items() if mono[var]]
        rational = not any(fb for _, _, fb in part) and not any(b for _, b in component.values())
        for (i, j, _), (a, b) in component.items():
            key = i * width + j
            if rational:
                for k, fa, _ in part:
                    re[key + k] += fa * a
                continue
            for k, fa, fb in part:
                # (fa + fb w)(a + b w) = fa a - fb b + (fa b + fb a - fb b) w
                cross = fb * b
                re[key + k] += fa * a - cross
                im[key + k] += fa * b + fb * a - cross
    if any(re) or any(im):
        raise NotASyzygy("the witness does not satisfy a*f_x + b*f_y + c*f_z = 0")


@dataclass
class MdrResult:
    """Minimal syzygy degree with a verified witness.

    certificates[k], k = 0..r, is how degree k was settled, for the
    relation matrix of a polynomial or derivation_rows of an arrangement:
    as `nearfree.linalg.kernel_basis` names it, "full rank mod p" below r
    and at r "verified reconstruction (mod p^s) of the first vector", where
    degree r-1 was known empty, or that and "; remainders full rank mod
    p", which also proves degree r-1 empty. For the degrees below r that
    the walk of `mdr` never reached it records "implied by the kernel at
    r" or, after a zero kernel at j, "implied by full rank at j". It is not
    part of any report.
    The witness (a, b, c) is the first canonical kernel vector on the
    Jacobian route; on the derivation route it is the first canonical
    derivation mapped to AR(f)_r, a different syzygy of the same degree.
    On both routes verify_syzygy checks it in Z[w] integers before its
    polynomials are built.
    """

    r: int
    witness: tuple  # (a, b, c) polynomials of degree r
    certificates: list


def mdr(f: Poly, lines: Sequence = None, tau: int = None, m: int = None) -> MdrResult:
    """Smallest degree of a nonzero relation among the partials of f.

    With lines (the LinearForms whose product is f) the search runs on the
    logarithmic derivations of the arrangement, otherwise on the Jacobian
    relation matrices; see the module docstring. The search always
    terminates by degree d-1 because (0, f_z, -f_y) is a relation in that
    degree. f is assumed reduced; that is not checked.

    The walk over the degrees starts at hi, the largest r whose
    tau_bounds(d, r) admit tau, or at the pencil bound d - m if lower, m
    the largest multiplicity of a point of the lines (see the module
    docstring); without tau it is the plain upward scan from 0; r and the
    witness depend on neither tau nor m.
    """
    d = f.degree
    if d < 2:
        raise OutOfRange("mdr needs a polynomial of degree >= 2")
    if f.is_zero():
        raise ValueError("mdr needs a nonzero polynomial")
    ints = [form.ints for form in lines or ()]
    if lines is not None and len(ints) != d:
        raise ValueError(f"{len(ints)} lines cannot define a curve of degree {d}")

    def rows(r):  # (sparse Z[w] rows, ncols), each relation row scaled by its own lcm
        if lines is not None:
            return derivation_rows(ints, r)
        matrix = relation_matrix(f, r)
        return [_stored(integer_pairs(matrix.entries[i:i + matrix.cols]))
                for i in range(0, len(matrix.entries), matrix.cols)], matrix.cols

    # x - c*y with the least c >= 0 that is not one of the lines: x on --poly
    c = next(c for c in count() if ((1, 0), (-c, 0), (0, 0)) not in ints)
    # hi, the largest r whose tau_bounds admit tau, or 0; at most d - m
    r = min(max((k for k in range(d) if tau is not None
                 and tau_bounds(d, k)[0] <= tau <= tau_bounds(d, k)[1]), default=0), d - (m or 0))
    kernels = {}
    while True:
        # degree r - 1 is empty at r = 0 or when the walk stepped up from it, else the remainders decide
        divide = None if r == 0 or r - 1 in kernels else lambda vec: _remainders(vec, r, c)
        if kernel := kernel_basis(*rows(r), divide):
            break
        kernels[r] = kernel
        if kernel.certificate.startswith("open"):
            r -= 1
        elif (r := r + 1) == d:
            raise NoSyzygyFound(
                f"no syzygy found in degrees below d={d}, though (0, f_z, -f_y) is one")
    implied = f"implied by full rank at {r - 1}" if r - 1 in kernels else f"implied by the kernel at {r}"
    certificates = [kernels[k].certificate if k in kernels else implied for k in range(r)]
    certificates.append(kernel.certificate)
    vec = kernel[0]
    if lines is None:  # the three blocks of the vector, over its lead
        blocks, den = [vec[k * len(vec) // 3:] for k in range(3)], next(a for a, b in vec if a or b)
    else:
        blocks, den = _derivation_witness(d, ints, r, vec)
    terms = tuple({mono: x for mono, x in zip(graded_basis(r), b) if x != (0, 0)} for b in blocks)
    verify_syzygy(f.terms, terms)
    witness = tuple(Poly(r, t, f.tag, den) for t in terms)
    return MdrResult(r, witness, certificates)


def _stored(row: Sequence) -> dict:
    """The nonzero cells {column: (a, b)} of a row: `kernel_basis`'s format."""
    return {j: x for j, x in enumerate(row) if x != (0, 0)}


def _remainders(vec: list, r: int, c: int) -> list:
    """The remainders of a degree-r vector of integers, block by block, on
    division by x - c*y, monic in x: each block on the line x = c*y, an
    entry per power of z. With P_i the coefficients of x^i y^(r-i-k) z^k in
    a block and Q_i the quotient's, Q_(i-1) = P_i + c*Q_i from i = r down
    (Horner; Q_i is 0 at k = r-i) ends at the remainder P_0 + c*Q_0.
    """
    terms, remainders = iter(vec), []
    for _ in range(0, len(vec), (r + 1) * (r + 2) // 2):  # each block
        q = []
        for _ in range(r + 1):  # P_r down to P_0, each a term longer than q, where zip stops
            q = [t + c * x for x, t in zip(q + [0], terms)]
        remainders.extend(q)
    return remainders


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


def analyze_curve(
    f: Poly, tau: int, source: str = "polynomial", lines: Sequence = None, m: int = None
) -> AnalysisReport:
    """Run the full numeric pipeline on a defining polynomial.

    tau must be supplied by the caller; for line arrangements use the total
    Milnor number, and pass the lines so that mdr searches the logarithmic
    derivations, and m, their largest multiplicity of a point. tau and m go
    to mdr too, where they only order the degree search. tau must lie
    within tau_bounds(d, mdr), else TauOutOfRange is raised. Degree < 2
    input yields an Inapplicable report with a note instead of an error so
    deletion chains can bottom out gracefully.
    """
    d = f.degree
    report = AnalysisReport(source=source, field=f.tag, d=d, tau=tau)
    if d < 2:
        report.verdict = Verdict(
            VerdictKind.INAPPLICABLE, reason="degree < 2: no syzygy test available"
        )
        report.notes.append("degree < 2: verdict skipped")
        return report
    result = mdr(f, lines, tau=tau, m=m)
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
