"""Shared randomized-input generators for the test suite (seeded callers),
a way to make `nearfree.linalg` meet unlucky primes first, the Z[w]
integer rows that `nearfree.linalg` takes, the Scalar and Z[w] integer
forms that kernel vectors and witnesses are compared in, and the
independent references `intersect`, `divide_exact` (Scalar arithmetic),
`reference_derivation_rows` (dense rows from binomials and powers),
`reference_format_poly` (the text of a polynomial from its Scalar view),
the per-vector back-substitution that `nearfree.linalg` packs into one
pass (`reference_kernel_from_echelon`), the exact check of a list of
vectors (`reference_annihilates`), the dense
elimination mod p on residue lists (`reference_echelon_dense`),
`primitive_pairs` by the conjugate product alone
(`conjugate_primitive_pairs`), and the Scalar deformation
(`reference_deformation`, on `normalize_point` and `evaluate`) that
`nearfree.arrangement.deformation` computes on Z[w] keys, and the
character scanner that read scalar literals into Scalars
(`reference_parse_scalar`) before `nearfree.field.parse_scalar` read them
from the expression tokens into Z[w] integers. `LinearForm` takes ints or
Z[w] pairs only: `scalar_form` builds one from Scalar, Fraction or int
coefficients, `deform` calls `deformation` with a Scalar point and eps,
and `scalar_of` and `value_of` turn a value ((a, b), den) of
`parse_scalar` into a Scalar and back.

The library API that no command runs lives here too, as the tests'
reference: the Scalar subtraction, division, norm and inverse (`sub`,
`div`, `norm`, `inverse`, which raises `DivisionByZero`), a line's
normalized Scalar coefficients (`coeffs`), `milnor_number`, `transform`,
`format_lines`, and `check_combinatorics` with `has_integer_root` and
`no_exclusions`.

Tests build matrices as dense rows of Z[w] pairs, the format of the
Bareiss reference (`tests/bareiss.py`); `sparse_rows` turns them into the
(rows, ncols) that `nearfree.linalg.kernel_basis` takes, dicts of the
nonzero cells, and `dense_rows` turns those back. `kernel_basis` lifts at
most the first kernel vector, so whole kernels come from the Bareiss
reference. `mdr_rows` gives the rows `criteria.mdr` eliminates in each
degree and `kernel_dims` their whole kernel dimensions, which `MdrResult`
does not record; `window_top` is its hi, `off_the_lines` its c, found
independently, and `divide_by_line` the division by x - c*y whose
remainders `mdr` takes mod p, with its quotient. `THIRTEEN` holds the 13
lines ax + by + cz, a, b, c in {-1, 0, 1}, `thirteen_lines` builds the
arrangement of a subset of them, with its census, and `thirteen_orbit`
the subsets of its orbit under the signed permutations of (x, y, z). `format_scalar` is
the text of a Scalar, which no command prints.

`Poly` holds Z[w] integers over one denominator and has no arithmetic of
its own. The reference arithmetic here works on its Scalar view, read
through `Poly.coefficient` (`scalar_terms`), with Scalar term maps
(`_map_add`, `_map_mul`, `_map_neg`), and builds the result with
`scalar_poly`: sums, differences, scalings and products (`poly_add`,
`poly_sub`, `poly_scale`, `poly_mul`) and a*f_x + b*f_y + c*f_z
(`jacobian_image`)."""

import re
from fractions import Fraction
from itertools import chain, count, permutations, product
from math import comb, gcd, lcm

from nearfree import (
    OMEGA,
    ONE,
    FieldTag,
    LinearForm,
    LineArrangement,
    Poly,
    Scalar,
    deformation,
    linalg,
    relation_matrix,
    singular_points,
    tau_bounds,
    weak_combinatorics,
)
from nearfree.arrangement import _dot
from nearfree.classify import (
    CandidateRecord,
    CandidateStatus,
    ExclusionConfig,
    _classify_candidate,
    default_exclusions,
    enumerate_candidates,
)
from nearfree.errors import (
    DirectionThroughPoint,
    DuplicateLine,
    FieldMismatch,
    IndexOutOfRange,
    LineNotIncident,
    NonGenericDeformation,
    NotATriplePoint,
    PairsIdentityViolated,
    ParseError,
    ToolkitError,
)
from nearfree.criteria import _line_data, derivation_rows
from nearfree.field import integer_pairs, pair_mul
from nearfree.poly import _mono_mul, _mono_str, graded_basis

from bareiss import exact_kernel

# the four certificates `linalg.kernel_basis` may give, the last of them
# ("open") never at or below mdr, and the two that `criteria.mdr` records for
# the degrees below mdr that its walk never reached
FIRST = re.compile(r"verified reconstruction \(mod p\^[1-9]\d*\) of the first vector")
FIRST_VECTOR = re.compile(FIRST.pattern + r"; remainders full rank mod p")
CERTIFICATE = re.compile(r"full rank mod p|" + FIRST.pattern + "|" + FIRST_VECTOR.pattern
                         + r"|open: remainders not full rank mod p"
                         r"|implied by full rank at \d+|implied by the kernel at \d+")


def format_scalar(s):
    """The canonical text of a Scalar, which `parse_scalar` reads back as
    s: the form the reference texts of polynomials and lines use."""
    if not s.b:
        return str(s.a)
    mag = abs(s.b)
    wpart = "w" if mag == 1 else f"{mag}*w"
    if not s.a:
        return wpart if s.b > 0 else "-" + wpart
    sign = "+" if s.b > 0 else "-"
    return f"{s.a}{sign}{wpart}"


def scalar_vector(vec):
    """A canonical Z[w] kernel vector, lead entry (s, 0), as the Scalar
    vector with lead entry 1."""
    s = next(a for a, b in vec if a or b)
    return [Scalar(Fraction(a, s), Fraction(b, s)) for a, b in vec]


def zw_rows(rows):
    """Rows of Scalars or ints as dense Z[w] integer-pair rows, each row
    scaled by the lcm of its denominators (its kernel unchanged); see
    `sparse_rows` for the rows `nearfree.linalg` takes."""
    return [integer_pairs([v if isinstance(v, Scalar) else Scalar(v) for v in row])
            for row in rows]


def sparse_rows(rows):
    """Dense rows of Z[w] pairs, all of one length, as (rows, ncols) in the
    format of `nearfree.linalg.kernel_basis`: each row the dict of its
    nonzero cells."""
    return [{j: x for j, x in enumerate(row) if x != (0, 0)} for row in rows], len(rows[0])


def dense_rows(rows, ncols):
    """Sparse rows {column: (a, b)} as dense rows of ncols Z[w] pairs; the
    inverse of `sparse_rows`."""
    return [[row.get(j, (0, 0)) for j in range(ncols)] for row in rows]


def reference_kernel_from_echelon(pivots, echelon, ncols, p):
    """The per-vector back-substitution that `nearfree.linalg` packs into
    one pass: kernel vectors mod p, one per free column, that entry 1, the
    other free entries 0, each solved from the pivot rows right to left."""
    pivot_set = set(pivots)
    basis = []
    for jf in (j for j in range(ncols) if j not in pivot_set):
        vec = [0] * ncols
        vec[jf] = 1
        support = [(jf, 1)]  # nonzero entries so far, all right of the next pivot
        for pc, row in zip(reversed(pivots), reversed(echelon)):
            if pc < jf:
                v = -sum(row[j] * x for j, x in support) % p
                if v:
                    vec[pc] = v
                    support.append((pc, v))
        basis.append(vec)
    return basis


def reference_echelon_dense(rows, ncols, p):
    """`nearfree.linalg._echelon_dense` entry by entry: the residue dicts as
    full lists, each entry reduced mod p at every step; at each column the
    first pending row with a nonzero lead is the pivot row, and the record
    (pivot row, inverse, pending rows, their leads) is the same."""
    ids = [i for i, row in enumerate(rows) if row]
    pending = [[rows[i].get(j, 0) for j in range(ncols)] for i in ids]
    pivots, echelon, ops = [], [], []
    for c in range(ncols):
        leads = [row[c] for row in pending]
        k = next((i for i, t in enumerate(leads) if t), None)
        if k is not None:
            inv = pow(leads.pop(k), -1, p)
            pivot = [x * inv % p for x in pending.pop(k)]
            pivots.append(c)
            echelon.append(pivot)
            ops.append((ids.pop(k), inv, tuple(ids), leads))
            pending = [[(x - t * y) % p for x, y in zip(row, pivot)] for row, t in zip(pending, leads)]
    return pivots, echelon, ops


def reference_annihilates(data, vectors):
    """The exact check of `nearfree.linalg._annihilates` for a list of
    vectors: every Z[w] vector's sum of Z[w] products over every sparse
    row's stored cells is 0."""
    for row in data:
        for vec in vectors:
            re = im = 0
            for j, (ra, rb) in row.items():
                xa, xb = vec[j]
                # (ra + rb w)(xa + xb w) = ra xa - rb xb + (ra xb + rb xa - rb xb) w
                if rb:
                    t = rb * xb
                    re += ra * xa - t
                    im += ra * xb + rb * xa - t
                else:
                    re += ra * xa
                    im += ra * xb
            if re or im:
                return False
    return True


def conjugate_primitive_pairs(vec):
    """`nearfree.field.primitive_pairs` without its shortcut for a lead
    entry (s, 0), s > 0: vec times the conjugate of its first nonzero
    entry, divided by the gcd of all its integers."""
    la, lb = next(x for x in vec if x != (0, 0))
    out = [pair_mul(x, (la - lb, -lb)) for x in vec]
    g = gcd(*(n for x in out for n in x))
    return tuple((a // g, b // g) for a, b in out)


def _powers(x, n):
    out = [(1, 0)]
    for _ in range(n):
        out.append(pair_mul(out[-1], x))
    return out


def reference_derivation_rows(lines, r):
    """The dense rows of `nearfree.criteria.derivation_rows`, built cell by
    cell from binomials and powers: x_q^e x_k^a x_l^b restricts to the sum
    over t of A_q^(r-e) C(e,t) (-A_k)^t (-A_l)^(e-t) x_k^(a+t) x_l^(b+e-t),
    and beta and gamma multiply that coefficient into the two blocks."""
    basis = graded_basis(r)
    nb = len(basis)
    rows = []
    for line, (beta, gamma, (q, k, l)) in zip(lines[1:], _line_data(lines)):
        lead = _powers(line[q], r)
        minus_k = _powers((-line[k][0], -line[k][1]), r)
        minus_l = _powers((-line[l][0], -line[l][1]), r)
        by_beta, by_gamma = [], []
        for e in range(r + 1):
            terms = [pair_mul(lead[r - e], pair_mul(minus_k[t], minus_l[e - t]))
                     for t in range(e + 1)]
            terms = [(a * comb(e, t), b * comb(e, t)) for t, (a, b) in enumerate(terms)]
            by_beta.append([pair_mul(beta, x) for x in terms])
            by_gamma.append([pair_mul(gamma, x) for x in terms])
        block = [[(0, 0)] * (2 * nb) for _ in range(r + 1)]
        for c, mono in enumerate(basis):
            e, a = mono[q], mono[k]
            for t in range(e + 1):
                block[a + t][c] = by_beta[e][t]
                block[a + t][nb + c] = by_gamma[e][t]
        rows.extend(block)
    return rows


def reference_format_poly(f):
    """The text of `nearfree.poly.format_poly`, built from the Scalar view
    `Poly.coefficient` and `format_scalar`: terms in descending graded-lex
    order, explicit * and ^."""
    if not f.terms:
        return "0"
    pieces = []
    for mono in sorted(f.terms, reverse=True):
        coef = f.coefficient(mono)
        mono_s = _mono_str(mono)
        if not coef.b:
            negative = coef.a < 0
            mag = abs(coef.a)
            coef_s = "" if (mag == 1 and mono_s) else str(mag)
        elif not coef.a:
            negative = coef.b < 0
            mag = abs(coef.b)
            coef_s = "w" if mag == 1 else f"{mag}*w"
        else:
            negative = False
            coef_s = f"({format_scalar(coef)})"
        body = "*".join(p for p in (coef_s, mono_s) if p)
        pieces.append(("-" if negative else "+", body))
    sign0, body0 = pieces[0]
    out = [body0 if sign0 == "+" else "-" + body0]
    for sign, body in pieces[1:]:
        out.append(sign + body)
    return "".join(out)


def relation_rows(f, r):
    """`relation_matrix(f, r)` as dense Z[w] integer-pair rows (see
    `zw_rows`)."""
    m = relation_matrix(f, r)
    return zw_rows(m.entries[i:i + m.cols] for i in range(0, len(m.entries), m.cols))


def window_top(d, tau):
    """hi of `criteria.mdr`: the largest r whose tau_bounds admit tau."""
    return max(r for r in range(d) if tau_bounds(d, r)[0] <= tau <= tau_bounds(d, r)[1])


def off_the_lines(a):
    """The least c >= 0 for which x - c*y is not a line of a, from the
    Scalar coefficients."""
    return next(c for c in count() if not any(
        coeffs(form)[2] == 0 and coeffs(form)[1] == -c * coeffs(form)[0] for form in a.lines))


def mdr_rows(f, lines=None):
    """r -> the (rows, ncols) that `criteria.mdr` eliminates in degree r:
    `derivation_rows` of the lines, else the relation matrix of f."""
    if lines is not None:
        ints = [form.ints for form in lines]
        return lambda r: derivation_rows(ints, r)
    return lambda r: sparse_rows(relation_rows(f, r))


def kernel_dims(f, lines, r, start=0):
    """The kernel dimension in each degree start..r of the rows
    `criteria.mdr` eliminates, by Bareiss elimination."""
    rows = mdr_rows(f, lines)
    return [len(exact_kernel(dense_rows(*rows(k)))) for k in range(start, r + 1)]


def divide_by_line(vec, r, c):
    """(quotient, remainder) of a degree-r Z[w] vector, block by block, on
    division by x - c*y, monic in x, so exact in Z[w]. With P_i the
    coefficients of x^i y^(r-i-k) z^k in a block and Q_i the quotient's,
    Q_(i-1) = P_i + c*Q_i from i = r down (Horner; Q_i is 0 at k = r-i),
    and P_0 + c*Q_0 is the block on the line x = c*y. The quotient is in
    graded_basis(r - 1) order, block by block; the remainder has an entry
    per block and k."""
    terms, quotient, remainder = iter(vec), [], []
    for _ in range(0, len(vec), (r + 1) * (r + 2) // 2):  # each block
        q = []
        for m in range(r + 1):  # the m + 1 terms of P_(r-m); zip stops at q before them
            q = [(pa + c * qa, pb + c * qb) for (qa, qb), (pa, pb) in zip(q + [(0, 0)], terms)]
            (quotient if m < r else remainder).extend(q)
    return quotient, remainder


# the primitive forms ax + by + cz, a, b, c in {-1, 0, 1}, first nonzero coefficient positive
THIRTEEN = tuple(v for v in product((0, 1, -1), repeat=3) if any(v) and next(x for x in v if x) > 0)


def thirteen_lines(mask):
    """(arrangement, census) of the lines THIRTEEN[i] with bit i set in mask."""
    a = LineArrangement([LinearForm(*v) for i, v in enumerate(THIRTEEN) if mask >> i & 1])
    return a, weak_combinatorics(a)


def _signed_permutations():
    """The 48 signed permutations of (x, y, z), each as the permutation of
    THIRTEEN that it induces on the lines."""
    index = {v: i for i, v in enumerate(THIRTEEN)}
    group = []
    for order in permutations(range(3)):
        for signs in product((1, -1), repeat=3):
            images = [[s * v[k] for s, k in zip(signs, order)] for v in THIRTEEN]
            group.append([index[tuple(x * next(y for y in u if y) for x in u)] for u in images])
    return group


def thirteen_orbit(mask):
    """The masks of the images of a subset of THIRTEEN under the 48 signed
    permutations of (x, y, z): the census, mdr and verdict are the same on
    each."""
    return {sum(1 << g[i] for i in range(13) if mask >> i & 1) for g in _signed_permutations()}


def integer_terms(*polys):
    """The term maps of the polys in Z[w] integer pairs, all over one
    common denominator, the lcm of their `den`, so that a triple (a, b, c)
    keeps its ratios."""
    den = lcm(*(p.den for p in polys))
    return [{mono: (a * (den // p.den), b * (den // p.den)) for mono, (a, b) in p.terms.items()}
            for p in polys]


def scalar_terms(p):
    """The Scalar term map of a Poly, read through `Poly.coefficient`."""
    return {mono: p.coefficient(mono) for mono in p.terms}


def scalar_poly(degree, terms, tag):
    """The Poly of a Scalar term map: its Z[w] pairs over the lcm of the
    denominators."""
    den = lcm(*(n.denominator for c in terms.values() for n in (c.a, c.b)))
    return Poly(degree, dict(zip(terms, integer_pairs(list(terms.values())))), tag, den)


def _map_neg(m):
    return {mono: -c for mono, c in m.items()}


def _map_add(m1, m2):
    out = dict(m1)
    for mono, c in m2.items():
        prev = out.get(mono)
        c = c if prev is None else prev + c
        if c:
            out[mono] = c
        elif prev is not None:
            del out[mono]
    return out


def _map_mul(m1, m2):
    out: dict = {}
    for mono1, c1 in m1.items():
        for mono2, c2 in m2.items():
            mono = _mono_mul(mono1, mono2)
            c = c1 * c2
            prev = out.get(mono)
            c = c if prev is None else prev + c
            if c:
                out[mono] = c
            elif prev is not None:
                del out[mono]
    return out


def _common_tag(polys):
    tags = {p.tag for p in polys}
    if len(tags) > 1:
        raise FieldMismatch("cannot mix Q and Qw polynomials")
    return tags.pop()


def poly_add(*polys):
    """The sum of polynomials of one degree and one field."""
    terms = {}
    for p in polys:
        terms = _map_add(terms, scalar_terms(p))
    return scalar_poly(polys[0].degree, terms, _common_tag(polys))


def poly_sub(p, q):
    return poly_add(p, scalar_poly(q.degree, _map_neg(scalar_terms(q)), q.tag))


def poly_scale(p, c):
    """p times a Scalar, int or Fraction c."""
    c = c if isinstance(c, Scalar) else Scalar(c)
    return scalar_poly(p.degree, {mono: c * v for mono, v in scalar_terms(p).items()}, p.tag)


def poly_mul(*polys):
    """The product of polynomials of one field."""
    terms = {(0, 0, 0): ONE}
    for p in polys:
        terms = _map_mul(terms, scalar_terms(p))
    return scalar_poly(sum(p.degree for p in polys), terms, _common_tag(polys))


def jacobian_image(f, a, b, c):
    """a*f_x + b*f_y + c*f_z."""
    return poly_add(*(poly_mul(g, f.partial(var)) for var, g in enumerate((a, b, c))))


def random_fraction(rng, span=9, den=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def random_rational_scalar(rng, span=9):
    return Scalar(random_fraction(rng, span))


def random_scalar(rng, span=9):
    return Scalar(random_fraction(rng, span), random_fraction(rng, span))


def random_nonzero_scalar(rng, span=9):
    while True:
        s = random_scalar(rng, span)
        if s:
            return s


def random_poly(rng, degree, tag=FieldTag.Q, density=0.6, span=5):
    terms = {}
    for mono in graded_basis(degree):
        if rng.random() < density:
            c = (
                random_rational_scalar(rng, span)
                if tag is FieldTag.Q
                else random_scalar(rng, span)
            )
            if c:
                terms[mono] = c
    return scalar_poly(degree, terms, tag)


def random_form(rng, span=3):
    while True:
        coeffs = [rng.randint(-span, span) for _ in range(3)]
        if any(coeffs):
            return LinearForm(*coeffs)


def line_count(span):
    """The number of distinct lines whose integer coefficients all lie in
    [-span, span]: the primitive integer vectors of that box, up to sign."""
    r = range(-span, span + 1)
    return sum(gcd(a, b, c) == 1 for a in r for b in r for c in r) // 2


def random_arrangement(rng, d, span=3):
    available = line_count(span)
    if d > available:
        raise ValueError(f"span {span} allows only {available} distinct lines, not {d}")
    forms = []
    seen = set()
    while len(forms) < d:
        form = random_form(rng, span)
        if form not in seen:
            seen.add(form)
            forms.append(form)
    return LineArrangement(forms)


def random_invertible_matrix(rng, span=2):
    while True:
        m = [[rng.randint(-span, span) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det != 0:
            return m


def roots_of_unity(m):
    # the m-th roots of unity in Q(w) for m in {2, 3, 6}
    w = OMEGA
    return {2: [ONE, -ONE], 3: [ONE, w, w * w], 6: [ONE, -ONE, w, -w, w * w, -(w * w)]}[m]


def reflection_arrangement(m, full):
    # A(m,m,3): x - zeta*y, y - zeta*z, z - zeta*x over the m-th roots of
    # unity zeta; A(m,1,3) adds the coordinate lines
    forms = []
    for zeta in roots_of_unity(m):
        forms += [scalar_form(1, -zeta, 0), scalar_form(0, 1, -zeta), scalar_form(-zeta, 0, 1)]
    if full:
        forms += [LinearForm(1, 0, 0), LinearForm(0, 1, 0), LinearForm(0, 0, 1)]
    return LineArrangement(forms)


def random_nodal_arrangement(rng, d, span=4):
    # redrawn until no three lines meet: only nodes, so mdr = d - 2
    while True:
        a = random_arrangement(rng, d, span)
        if weak_combinatorics(a).counts == ((2, d * (d - 1) // 2),):
            return a


def unlucky_primes_first(monkeypatch, primes):
    """Put the given small primes in front of the proven prime stream of
    `nearfree.linalg`. Returns a list that records, as the kernels are
    computed, each zero-kernel claim made at one of those primes, as
    (p, dense integer-pair rows, column count). Every claim is an
    elimination that finds a pivot in every column: of rows mod p under one
    embedding of w (`linalg._echelon_mod`), or of the remainders of a
    kernel mod p, which `_echelon_sparse` ranks on its own."""
    stream, echelon_mod, sparse = linalg.prime_stream, linalg._echelon_mod, linalg._echelon_sparse
    claims, inside = [], []

    def claim(found, p, rows, ncols):
        if len(found[0]) == ncols and p in primes:
            claims.append((p, dense_rows(rows, ncols), ncols))
        return found

    def spy(data, ncols, p, w):
        inside.append(p)
        try:
            return claim(echelon_mod(data, ncols, p, w), p, data, ncols)
        finally:
            inside.pop()

    def sparse_spy(rows, ncols, p):
        if inside:  # a route of _echelon_mod, whose rows spy records
            return sparse(rows, ncols, p)
        residues = [{j: (x, 0) for j, x in row.items()} for row in rows]  # before they are consumed
        return claim(sparse(rows, ncols, p), p, residues, ncols)

    monkeypatch.setattr(linalg, "prime_stream", lambda: chain(primes, stream()))
    monkeypatch.setattr(linalg, "_echelon_mod", spy)
    monkeypatch.setattr(linalg, "_echelon_sparse", sparse_spy)
    return claims


def normalize_point(p):
    """A projective point as Scalars with first nonzero coordinate 1, by
    Scalar division."""
    coords = tuple(c if isinstance(c, Scalar) else Scalar(c) for c in p)
    lead = next((c for c in coords if c), None)
    if lead is None:
        raise ValueError("a projective point needs a nonzero coordinate")
    if lead != ONE:
        inv = inverse(lead)
        coords = tuple(c * inv for c in coords)
    return coords


def evaluate(form, point):
    """The value of a linear form at a point of Scalars, from its normalized
    Scalar coefficients `coeffs`."""
    a, b, c = coeffs(form)
    return a * point[0] + b * point[1] + c * point[2]


def reference_deformation(arrangement, point, line_index, direction, eps):
    """`nearfree.arrangement.deformation` in Scalar arithmetic: the point
    normalized and looked up among `singular_points`, the direction tested
    by `evaluate` and the moved line old + eps*direction built from the
    Scalar coefficients; the same checks in the same order, with the same
    exceptions and messages."""
    eps = eps if isinstance(eps, Scalar) else Scalar(eps)
    if not eps:
        raise ValueError("eps must be nonzero")
    if not 0 <= line_index < arrangement.d:
        raise IndexOutOfRange(f"line index {line_index} out of range for d={arrangement.d}")
    if arrangement.tag is FieldTag.Q and not (direction.is_rational() and not eps.b):
        raise FieldMismatch("deformation data must stay in the arrangement's field")
    points = singular_points(arrangement)
    p = normalize_point(point)
    sp = next((sp for sp in points if sp.point == p), None)
    if sp is None or sp.multiplicity != 3:
        raise NotATriplePoint("no triple point of the arrangement at the given coordinates")
    if line_index not in sp.incident_lines:
        raise LineNotIncident(f"line {line_index} does not pass through the triple point")
    if not evaluate(direction, sp.point):
        raise DirectionThroughPoint("direction form vanishes at the triple point")
    old = arrangement.lines[line_index]
    new_lines = list(arrangement.lines)
    new_lines[line_index] = scalar_form(*(o + eps * v for o, v in zip(coeffs(old), coeffs(direction))))
    try:
        deformed = LineArrangement(new_lines, arrangement.tag)
    except DuplicateLine as exc:
        raise NonGenericDeformation(f"deformed line collides with another line: {exc}")
    before = weak_combinatorics(arrangement)
    after = weak_combinatorics(deformed)
    expected = dict(before.counts)
    expected[2] = expected.get(2, 0) + 3
    expected[3] = expected.get(3, 0) - 1
    expected = {k: v for k, v in expected.items() if v}
    if dict(after.counts) != expected:
        raise NonGenericDeformation(
            f"combinatorics changed from {sorted(dict(before.counts).items())} to"
            f" {sorted(dict(after.counts).items())}, expected {sorted(expected.items())}"
        )
    return deformed, before, after


def intersect(l1, l2):
    """Intersection point of two distinct lines (cross product of
    coefficients), in Scalar arithmetic: the independent route to the
    points that `nearfree.arrangement.singular_points` reads off its
    integer keys."""
    a1, b1, c1 = coeffs(l1)
    a2, b2, c2 = coeffs(l2)
    return normalize_point((sub(b1 * c2, c1 * b2), sub(c1 * a2, a1 * c2), sub(a1 * b2, b1 * a2)))


class NotDivisible(ToolkitError):
    pass


def divide_exact(f, form):
    """Quotient f / form when the division is exact, else NotDivisible, in
    Scalar arithmetic; form is normalized, its pivot coefficient 1."""
    if f.degree == 0:
        raise NotDivisible("cannot divide a degree-0 polynomial by a linear form")
    pivot = next(i for i, c in enumerate(coeffs(form)) if c)  # coefficient there is 1
    tail = [(i, c) for i, c in enumerate(coeffs(form)) if c and i != pivot]
    rem = scalar_terms(f)
    quot: dict = {}
    while rem:
        lead = max(rem)
        if lead[pivot] == 0:
            raise NotDivisible(f"{form} does not divide the polynomial")
        qc = rem.pop(lead)
        qm = list(lead)
        qm[pivot] -= 1
        quot[tuple(qm)] = qc
        for i, c in tail:
            mono = list(qm)
            mono[i] += 1
            mono = tuple(mono)
            prev = rem.get(mono)
            val = -qc * c if prev is None else sub(prev, qc * c)
            if val:
                rem[mono] = val
            elif prev is not None:
                del rem[mono]
    return scalar_poly(f.degree - 1, quot, f.tag)


# -- the scalar reader that `nearfree.field.parse_scalar` replaced -------------

DIGITS = frozenset("0123456789")  # ASCII only: str.isdigit() also admits '²' and '٣'


def _scan_rational(text, i):
    start = i
    n = len(text)
    while i < n and text[i] in DIGITS:
        i += 1
    if i == start:
        raise ParseError("expected a digit", position=start)
    num = int(text[start:i])
    if i < n and text[i] == "/":
        j = i + 1
        while j < n and text[j] in DIGITS:
            j += 1
        if j == i + 1:
            raise ParseError("expected digits after '/'", position=i + 1)
        den = int(text[i + 1:j])
        if den == 0:
            raise ParseError("zero denominator", position=i + 1)
        return Fraction(num, den), j
    return Fraction(num), i


def reference_parse_scalar(text):
    """The character scanner that read scalar literals into a Scalar before
    `nearfree.field.parse_scalar` read them from the expression tokens:
    signed rationals and w-terms joined by +/-, a term `p/q`, `p/q*w` or
    bare `w`, with whitespace around signs only. Anything else is a
    ParseError at the offset of the offending character."""
    s = text.replace("−", "-")  # tolerate the typographic minus
    n = len(s)
    i = 0
    result = Scalar(0)
    first = True
    while True:
        while i < n and s[i].isspace():
            i += 1
        sign = 1
        if first:
            if i < n and s[i] in "+-":
                if s[i] == "-":
                    sign = -1
                i += 1
        else:
            if i >= n:
                break
            if s[i] == "+":
                i += 1
            elif s[i] == "-":
                sign = -1
                i += 1
            else:
                raise ParseError(f"unexpected character {s[i]!r}", position=i)
        while i < n and s[i].isspace():
            i += 1
        if i >= n:
            raise ParseError("expected a term", position=i)
        if s[i] == "w":
            term = Scalar(0, sign)
            i += 1
        else:
            value, i = _scan_rational(s, i)
            if i < n and s[i] == "*":
                if i + 1 < n and s[i + 1] == "w":
                    term = Scalar(0, sign * value)
                    i += 2
                else:
                    raise ParseError("expected 'w' after '*'", position=i + 1)
            else:
                term = Scalar(sign * value)
        if i < n and s[i] == "^":
            raise ParseError("powers are not allowed in scalar literals", position=i)
        result = result + term
        first = False
        while i < n and s[i].isspace():
            i += 1
        if i >= n:
            break
        if s[i] not in "+-":
            raise ParseError(f"unexpected character {s[i]!r}", position=i)
    return result


# -- the library API that no command runs ------------------------------------


class DivisionByZero(ToolkitError, ZeroDivisionError):
    pass


def _scalar(x):
    return x if isinstance(x, Scalar) else Scalar(x)


def sub(x, y):
    """x - y for Scalars, ints and Fractions."""
    x, y = _scalar(x), _scalar(y)
    return Scalar(x.a - y.a, x.b - y.b)


def norm(x):
    """Field norm a^2 - a*b + b^2 of a Scalar; zero iff the scalar is zero."""
    return x.a * x.a - x.a * x.b + x.b * x.b


def inverse(x):
    n = norm(x)
    if not n:
        raise DivisionByZero("cannot invert zero")
    return Scalar((x.a - x.b) / n, -x.b / n)


def div(x, y):
    """x / y for Scalars, ints and Fractions; DivisionByZero if y is 0."""
    return _scalar(x) * inverse(_scalar(y))


def scalar_form(cx, cy, cz):
    """The LinearForm of three Scalars, Fractions or ints: their Z[w] pairs
    over the lcm of their denominators."""
    return LinearForm(*integer_pairs([_scalar(c) for c in (cx, cy, cz)]))


def scalar_of(value):
    """A value ((a, b), den) of `nearfree.field.parse_scalar` as the Scalar
    (a + b*w) / den."""
    (a, b), den = value
    return Scalar(Fraction(a, den), Fraction(b, den))


def value_of(x):
    """A Scalar, Fraction or int as the value ((a, b), den) that
    `nearfree.field.parse_scalar` reads for it: den the lcm of the
    denominators of its parts."""
    x = _scalar(x)
    (pair,) = integer_pairs([x])
    return pair, lcm(x.a.denominator, x.b.denominator)


def deform(arrangement, point, line_index, direction, eps):
    """`nearfree.arrangement.deformation` called with a point of Scalars or
    ints and a Scalar, Fraction or int eps, as `reference_deformation`
    takes them: the point as its Z[w] pairs, eps as `value_of(eps)`."""
    return deformation(arrangement, integer_pairs([_scalar(c) for c in point]), line_index,
                       direction, value_of(eps))


def coeffs(form):
    """The Scalar coefficients of a line: `LinearForm.ints` / s, s its lead,
    so the first nonzero coefficient is 1."""
    s = next(a for a, _ in form.ints if a)
    return tuple(Scalar(Fraction(a, s), Fraction(b, s)) for a, b in form.ints)


def milnor_number(arrangement):
    """Total Milnor number: sum of (multiplicity - 1)^2 over singular points.

    For line arrangements this equals the total Tjurina number, every
    singular point being quasi-homogeneous.
    """
    return weak_combinatorics(arrangement).mu


def transform(arrangement, matrix):
    """Apply the coordinate change x -> M x; lines map by row-vector action,
    each Z[w] triple times M scaled to Z[w] integers."""
    m = integer_pairs([_scalar(v) for row in matrix for v in row])
    columns = [m[j::3] for j in range(3)]
    new_lines = [LinearForm(*(_dot(form.ints, col) for col in columns))
                 for form in arrangement.lines]
    # a Q arrangement moves to the smallest field of its new lines
    return LineArrangement(new_lines, None if arrangement.tag is FieldTag.Q else FieldTag.QW)


def format_lines(arrangement):
    """The `.lines` text of an arrangement; `parse_lines` reads it back."""
    out = [f"field: {arrangement.tag.value}"]
    for form in arrangement.lines:
        out.append(" ".join(format_scalar(c) for c in coeffs(form)))
    return "\n".join(out) + "\n"


def no_exclusions():
    return ExclusionConfig()


def has_integer_root(d, t2, t3):
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


def check_combinatorics(d, t2, t3, config=None):
    """Classify a user-supplied weak combinatorics."""
    if config is None:
        config = default_exclusions()
    r = has_integer_root(d, t2, t3)
    if r is None:
        return CandidateRecord(d, t2, t3, None, CandidateStatus.EXCLUDED_NO_INTEGER_ROOT)
    return _classify_candidate(d, t2, t3, r, config)
