import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from math import comb

import pytest

from nearfree import (
    OMEGA,
    ONE,
    ZERO,
    FieldTag,
    LinearForm,
    LineArrangement,
    Scalar,
    SingularPoint,
    WeakCombinatorics,
    catalog,
    catalog_names,
    defining_polynomial,
    deformation,
    delete_line,
    milnor_number,
    parse_lines,
    parse_poly,
    singular_points,
    transform,
    weak_combinatorics,
)
from nearfree import arrangement as arrangement_module
from nearfree.arrangement import format_lines
from nearfree.errors import (
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
from nearfree.field import integer_pairs, parse_scalar, primitive_pairs

from support import (
    divide_exact,
    evaluate,
    intersect,
    line_count,
    normalize_point,
    poly_scale,
    random_arrangement,
    random_form,
    random_fraction,
    random_invertible_matrix,
    random_nodal_arrangement,
    random_nonzero_scalar,
    random_scalar,
    reference_deformation,
    reflection_arrangement,
)


def _forms(*texts):
    return [LinearForm.parse(t) for t in texts]


def test_two_lines_meet_in_one_node():
    a = LineArrangement(_forms("x", "y"))
    points = singular_points(a)
    assert len(points) == 1
    assert points[0].multiplicity == 2
    assert points[0].point == normalize_point((0, 0, 1))


def test_braid_lattice():
    points = singular_points(catalog("A1_6"))
    census = sorted(p.multiplicity for p in points)
    assert census == [2, 2, 2, 3, 3, 3, 3]


def test_dual_hesse_lattice():
    points = singular_points(catalog("DualHesse9"))
    assert len(points) == 12
    assert all(p.multiplicity == 3 for p in points)


def test_singular_points_order_is_deterministic():
    a = catalog("A1_6")
    first = [p.point for p in singular_points(a)]
    second = [p.point for p in singular_points(a)]
    assert first == second
    keys = [tuple((c.a, c.b) for c in p) for p in first]
    assert keys == sorted(keys)


def _scalar_sort_key(sp):
    # the order of the points before the integer sort keys: their
    # normalized Q(w) coordinates, compared as Fractions
    return tuple((c.a, c.b) for c in sp.point)


def test_singular_points_order_matches_the_scalar_sort_key():
    rng = random.Random(5005)
    small = [ZERO, ONE, -ONE, OMEGA, -OMEGA, Scalar(Fraction(1, 2), 1), Scalar(Fraction(-2, 3))]
    for trial in range(60):
        forms, n = [], rng.randint(2, 9)
        while len(forms) < n:
            if trial % 2:
                coeffs = [rng.choice(small) for _ in range(3)]
            else:
                coeffs = [random_fraction(rng, span=4, den=5) for _ in range(3)]
            if any(coeffs):
                forms.append(LinearForm(*coeffs))
        points = singular_points(_distinct_lines(forms))
        keys = [_scalar_sort_key(sp) for sp in points]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)
        assert points == sorted(points, key=_scalar_sort_key)


def test_incident_lines_recorded():
    a = LineArrangement(_forms("x", "y", "x-y", "z"))
    triple = next(p for p in singular_points(a) if p.multiplicity == 3)
    assert triple.incident_lines == (0, 1, 2)


def _brute_force_census(arrangement):
    # independent of the integer keys: cluster the normalized Q(w) points
    # that `intersect` returns for every pair, and require singular_points
    # to give the same points, multiplicities, incident lines and order
    lines = arrangement.lines
    buckets = {}
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            p = intersect(lines[i], lines[j])
            buckets.setdefault(p, set()).update((i, j))
    reference = sorted(
        (SingularPoint(p, len(idx), tuple(sorted(idx))) for p, idx in buckets.items()),
        key=_scalar_sort_key,
    )
    assert singular_points(arrangement) == reference
    census = {}
    for incident in buckets.values():
        k = len(incident)
        census[k] = census.get(k, 0) + 1
    return census


def _census_cases():
    cases = [catalog(name) for name in catalog_names()]
    cases += [reflection_arrangement(m, full) for m in (2, 3, 6) for full in (False, True)]
    rng = random.Random(5015)
    cases += [random_arrangement(rng, rng.randint(2, 16), span=2) for _ in range(12)]
    small = [ZERO, ONE, -ONE, OMEGA, -OMEGA, OMEGA * OMEGA, Scalar(Fraction(1, 2), 1)]
    for _ in range(12):
        forms, n = [], rng.randint(2, 9)
        while len(forms) < n:
            coeffs = [rng.choice(small) for _ in range(3)]
            if any(coeffs):
                forms.append(LinearForm(*coeffs))
        cases.append(_distinct_lines(forms))
    return cases


def test_census_is_counted_from_the_incidences_alone(monkeypatch):
    # the census of the Scalar reference lattice, on the catalog, the
    # reflection families and seeded random Q and Q(w) arrangements, with
    # no point built
    cases = _census_cases()
    references = [_brute_force_census(a) for a in cases]

    def no_points(a):
        raise AssertionError("the census built the points")

    monkeypatch.setattr(arrangement_module, "singular_points", no_points)
    for a, reference in zip(cases, references):
        assert dict(weak_combinatorics(a).counts) == reference


def _distinct_lines(forms):
    return LineArrangement(list(dict.fromkeys(forms)))


def test_lattice_matches_scalar_reference_on_fractional_q_arrangements():
    rng = random.Random(5003)
    for _ in range(40):
        forms, n = [], rng.randint(2, 9)
        while len(forms) < n:
            coeffs = [random_fraction(rng, span=2, den=3) for _ in range(3)]
            if any(coeffs):
                forms.append(LinearForm(*coeffs))
        _brute_force_census(_distinct_lines(forms))
    for name in ["A1_6", "B7_free", "A6_deformed"]:
        moved = transform(catalog(name), random_invertible_matrix(rng))
        lines = [LinearForm(*(c * Fraction(1, rng.randint(1, 5)) for c in form.coeffs))
                 for form in moved.lines]
        _brute_force_census(LineArrangement(lines))


def test_lattice_matches_scalar_reference_on_qw_arrangements():
    rng = random.Random(5004)
    small = [ZERO, ONE, -ONE, OMEGA, -OMEGA, OMEGA * OMEGA, Scalar(Fraction(1, 2), 1)]
    for _ in range(40):
        forms, n = [], rng.randint(2, 9)
        while len(forms) < n:
            coeffs = [rng.choice(small) for _ in range(3)]
            if any(coeffs):
                forms.append(LinearForm(*coeffs))
        _brute_force_census(_distinct_lines(forms))
    for _ in range(10):
        forms = [LinearForm(*(random_scalar(rng, span=2) for _ in range(3))) for _ in range(6)]
        _brute_force_census(_distinct_lines(forms))
    shear = [[ONE, OMEGA, ZERO], [ZERO, ONE, Scalar(Fraction(2, 3))], [ZERO, ZERO, ONE]]
    _brute_force_census(transform(catalog("DualHesse9"), shear))


@pytest.mark.parametrize("name", catalog_names())
def test_lattice_matches_scalar_reference_on_catalog(name):
    _brute_force_census(catalog(name))


@pytest.mark.parametrize("m", [2, 3, 6])
def test_lattice_matches_scalar_reference_on_reflection_arrangements(m):
    # A(m,m,3): three m-fold points and m^2 triples; A(m,1,3): three
    # (m+2)-fold points, m^2 triples and 3m nodes (m = 2 merges the counts)
    census = _brute_force_census(reflection_arrangement(m, False))
    expected = {3: m * m}
    expected[m] = expected.get(m, 0) + 3
    assert census == expected
    census = _brute_force_census(reflection_arrangement(m, True))
    expected = {m + 2: 3, 3: m * m, 2: 3 * m}
    assert census == expected


def test_lattice_matches_scalar_reference_on_near_pencil():
    rng = random.Random(5005)
    slopes = rng.sample(range(-40, 41), 24)
    forms = [LinearForm(1, Fraction(-s, 7), 0) for s in slopes] + [LinearForm(3, -2, 5)]
    assert _brute_force_census(LineArrangement(forms)) == {24: 1, 2: 24}


def _near_pencil(rng, d):
    # as the benchmark's cli_mix draws them: d - 1 lines x - s*y through
    # (0:0:1), and one line a*x + b*y + z that misses it
    slopes = rng.sample(range(-40, 41), d - 1)
    return LineArrangement([LinearForm(1, -s, 0) for s in slopes]
                           + [LinearForm(rng.randint(-4, 4), rng.randint(-4, 4), 1)])


def _deformed_span2():
    # split the first triple point of a span-2 arrangement into three nodes
    rng = random.Random(5007)
    a = random_arrangement(rng, 12, span=2)
    triple = next(p for p in singular_points(a) if p.multiplicity == 3)
    while True:
        direction = random_form(rng)
        if evaluate(direction, triple.point):
            try:
                return deformation(a, triple.point, triple.incident_lines[0],
                                   direction, Scalar(rng.randint(1, 5)))[0]
            except NonGenericDeformation:
                pass


# inputs with many points of multiplicity 3 and more, where the lattice
# crosses far fewer than C(d, 2) pairs; the span-2 ones reach t7
LATTICE_INPUTS = {
    **{f"span2-seed{s}-d{d}": lambda s=s, d=d: random_arrangement(random.Random(s), d, span=2)
       for s in range(3) for d in (12, 16, 24)},
    "near-pencil-d60": lambda: _near_pencil(random.Random(5008), 60),
    "moved-A(6,1,3)": lambda: transform(reflection_arrangement(6, True),
                                        random_invertible_matrix(random.Random(5009))),
    "deformed-span2": _deformed_span2,
}


@pytest.mark.parametrize("name", LATTICE_INPUTS)
def test_lattice_matches_scalar_reference_on_points_of_high_multiplicity(name):
    _brute_force_census(LATTICE_INPUTS[name]())


def _counted_crosses(monkeypatch, arrangement):
    # the points of `arrangement` and the number of cross products taken
    calls = []
    cross = arrangement_module._cross

    def counted(u, v):
        calls.append(None)
        return cross(u, v)

    monkeypatch.setattr(arrangement_module, "_cross", counted)
    points = singular_points(arrangement)
    monkeypatch.setattr(arrangement_module, "_cross", cross)
    return points, len(calls)


@pytest.mark.parametrize("name", LATTICE_INPUTS)
def test_lattice_crosses_each_point_from_its_first_line_only(monkeypatch, name):
    points, crosses = _counted_crosses(monkeypatch, LATTICE_INPUTS[name]())
    assert crosses == sum(p.multiplicity - 1 for p in points)


def test_lattice_crosses_2d_minus_3_pairs_of_a_near_pencil(monkeypatch):
    rng = random.Random(5010)
    for d in (3, 4, 10, 40, 60):
        points, crosses = _counted_crosses(monkeypatch, _near_pencil(rng, d))
        assert crosses == 2 * d - 3
        assert sorted(p.multiplicity for p in points)[-1] == d - 1


def test_lattice_crosses_every_pair_of_a_nodal_arrangement(monkeypatch):
    for seed, d in [(5011, 4), (5012, 6), (5013, 8)]:
        points, crosses = _counted_crosses(monkeypatch, random_nodal_arrangement(random.Random(seed), d))
        assert crosses == len(points) == comb(d, 2)


def test_random_arrangement_rejects_more_lines_than_its_span_allows():
    # span 1 allows exactly 13 lines; asking for more used to loop forever
    assert line_count(1) == 13
    assert len(set(random_arrangement(random.Random(0), 13, span=1).lines)) == 13
    with pytest.raises(ValueError):
        random_arrangement(random.Random(0), 16, span=1)
    with pytest.raises(ValueError):
        random_arrangement(random.Random(0), line_count(2) + 1, span=2)


def test_point_key_is_invariant_under_scaling():
    rng = random.Random(5006)
    for _ in range(200):
        coords = [random_scalar(rng, span=4) if rng.random() < 0.7 else ZERO for _ in range(3)]
        if not any(coords):
            continue
        key = primitive_pairs(integer_pairs(coords))
        for _ in range(3):
            lam = random_nonzero_scalar(rng, span=6)
            scaled = integer_pairs([c * lam for c in coords])
            assert primitive_pairs(scaled) == key


def test_point_key_separates_distinct_points():
    values = [ZERO, ONE, -ONE, OMEGA, Scalar(Fraction(1, 2)), Scalar(1, 1)]
    points = [(a, b, c) for a in values for b in values for c in values if a or b or c]
    keys = {}
    for p in points:
        keys.setdefault(primitive_pairs(integer_pairs(p)), set()).add(normalize_point(p))
    assert all(len(normalized) == 1 for normalized in keys.values())
    assert len(keys) == len({normalize_point(p) for p in points})


def test_generic_four_lines_brute_force():
    a = LineArrangement(_forms("x", "y", "z", "x+y+z"))
    assert _brute_force_census(a) == {2: 6}
    wc = weak_combinatorics(a)
    assert (wc.d, wc.t2, wc.t3) == (4, 6, 0)


def test_a5_free_brute_force():
    a = LineArrangement(_forms("x", "y", "x-y", "z", "x-z"))
    assert _brute_force_census(a) == {2: 4, 3: 2}


def test_maclane_weak_combinatorics():
    wc = weak_combinatorics(catalog("MacLane8"))
    assert (wc.d, wc.t2, wc.t3) == (8, 4, 8)
    assert wc.higher == {}


def test_deformed_sextic_weak_combinatorics():
    wc = weak_combinatorics(catalog("A6_deformed"))
    assert (wc.d, wc.t2, wc.t3) == (6, 6, 3)


def test_milnor_numbers():
    assert milnor_number(catalog("MacLane8")) == 36
    assert milnor_number(catalog("A1_6")) == 19
    pencil = LineArrangement(_forms("x", "y", "x-y"))
    assert milnor_number(pencil) == 4


def test_milnor_as_pair_count_plus_t3():
    # only nodes and triples: mu = C(d,2) + t3
    for name in catalog_names():
        a = catalog(name)
        wc = weak_combinatorics(a)
        if wc.higher:
            continue
        assert milnor_number(a) == comb(a.d, 2) + wc.t3


def test_defining_polynomial_braid():
    assert defining_polynomial(catalog("A1_6")) == parse_poly(
        "x*y*z*(x-y)*(y-z)*(x-z)"
    )


def test_defining_polynomial_single_line():
    assert defining_polynomial(LineArrangement(_forms("x"))) == parse_poly("x")


def test_defining_polynomial_b7_matches_printed_equation_up_to_unit():
    f = defining_polynomial(catalog("B7_free"))
    printed = parse_poly("z*(x^2-z^2)*(y^2-z^2)*(y^2-x^2)")
    assert f == poly_scale(printed, -1)


def test_delete_line_from_dual_hesse():
    smaller = delete_line(catalog("DualHesse9"), 0)
    wc = weak_combinatorics(smaller)
    assert (wc.d, wc.t2, wc.t3) == (8, 4, 8)
    assert smaller == catalog("MacLane8")


def test_every_dual_hesse_deletion_gives_maclane_combinatorics():
    hesse = catalog("DualHesse9")
    for index in range(9):
        wc = weak_combinatorics(delete_line(hesse, index))
        assert (wc.d, wc.t2, wc.t3) == (8, 4, 8)


def test_delete_line_polynomial_consistency():
    for name in ["A1_6", "B7_free", "DualHesse9"]:
        a = catalog(name)
        f = defining_polynomial(a)
        for index in (0, a.d - 1):
            quotient = divide_exact(f, a.lines[index])
            assert quotient == defining_polynomial(delete_line(a, index))


def test_delete_line_to_single_line():
    a = LineArrangement(_forms("x", "y"))
    single = delete_line(a, 1)
    assert single.d == 1
    assert singular_points(single) == []


def test_delete_line_bad_index():
    with pytest.raises(IndexOutOfRange):
        delete_line(catalog("A1_6"), 6)


def test_deform_braid_reproduces_catalog_entry():
    deformed = deformation(
        catalog("A1_6"), (1, 1, 1), 3, LinearForm.parse("y"), Scalar(Fraction(1, 2))
    )[0]
    assert deformed == catalog("A6_deformed")
    wc = weak_combinatorics(deformed)
    assert (wc.t2, wc.t3) == (6, 3)


def test_deform_b7_free_gives_claimed_combinatorics():
    deformed = deformation(
        catalog("B7_free"), (1, 1, -1), 5, LinearForm.parse("x-z"), Scalar(1)
    )[0]
    wc = weak_combinatorics(deformed)
    assert (wc.d, wc.t2, wc.t3) == (7, 6, 5)
    assert deformed == catalog("B7_deformed")


def test_deform_rejects_node():
    with pytest.raises(NotATriplePoint):
        deformation(
            catalog("A1_6"), (0, 1, 1), 0, LinearForm.parse("z"), Scalar(1)
        )


def test_deform_rejects_missing_point():
    with pytest.raises(NotATriplePoint):
        deformation(
            catalog("A1_6"), (1, 2, 3), 0, LinearForm.parse("z"), Scalar(1)
        )


def test_deform_rejects_non_incident_line():
    with pytest.raises(LineNotIncident):
        deformation(
            catalog("A1_6"), (1, 1, 1), 2, LinearForm.parse("y"), Scalar(1)
        )


def test_deform_rejects_direction_through_point():
    with pytest.raises(DirectionThroughPoint):
        deformation(
            catalog("A1_6"), (1, 1, 1), 3, LinearForm.parse("y-z"), Scalar(1)
        )


def test_deform_rejects_zero_eps():
    with pytest.raises(ValueError):
        deformation(
            catalog("A1_6"), (1, 1, 1), 3, LinearForm.parse("y"), Scalar(0)
        )


def test_deform_rejects_non_generic_eps():
    # eps = -2 sends x - y to x + y - 2z, which passes through the node
    # (1:-1:0) of {z, x+y} and re-creates a triple there: census unchanged
    with pytest.raises(NonGenericDeformation):
        deformation(
            catalog("B7_free"), (1, 1, -1), 5, LinearForm.parse("x-z"), Scalar(-2)
        )


def test_deform_validation_is_census_based():
    # direction z leaves both triples on x - y, but the moved line crosses
    # the old node (0:1:1) and forms a new triple there, so the census
    # deltas come out right and the operation accepts the result
    deformed = deformation(
        catalog("A1_6"), (1, 1, 1), 3, LinearForm.parse("z"), Scalar(1)
    )[0]
    wc = weak_combinatorics(deformed)
    assert (wc.t2, wc.t3) == (6, 3)
    assert milnor_number(catalog("A1_6")) == milnor_number(deformed) + 1


def test_deform_rejects_collision_with_existing_line():
    # eps = 1 along direction y turns x - y into x, which already exists
    with pytest.raises(NonGenericDeformation):
        deformation(
            catalog("A1_6"), (1, 1, 1), 3, LinearForm.parse("y"), Scalar(1)
        )


def _outcome(deform, *args):
    # what a deformation gives, or the type and message of what it raises
    try:
        return deform(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("name", ["A1_6", "B7_free", "A5_free", "DualHesse9"])
def test_deformation_matches_the_scalar_reference(name):
    # every triple point, given as its normalized coordinates and as a Q(w)
    # multiple of them, every incident line, and directions and eps in Q
    # and Q(w); a Q arrangement rejects the Q(w) ones
    a = catalog(name)
    directions = [LinearForm.parse(t) for t in ("x", "y", "z", "x-z", "x+w*y")]
    epsilons = [parse_scalar(t) for t in ("1", "-1", "1/2", "w")]
    outcomes = Counter()
    for sp in singular_points(a):
        if sp.multiplicity != 3:
            continue
        for point in (sp.point, tuple(c * Scalar(2, -1) for c in sp.point)):
            for index in sp.incident_lines:
                for direction in directions:
                    for eps in epsilons:
                        args = (a, point, index, direction, eps)
                        got = _outcome(deformation, *args)
                        assert got == _outcome(reference_deformation, *args)
                        outcomes[got[0] if isinstance(got[0], type) else "deformed"] += 1
    assert outcomes[NonGenericDeformation] and outcomes[DirectionThroughPoint]
    if name != "DualHesse9":
        assert outcomes["deformed"] and outcomes[FieldMismatch]


@pytest.mark.parametrize("point, index, direction, eps", [
    ((0, 0, 0), 3, "y", 1),  # the zero point
    ((0, 1, 1), 0, "z", 1),  # a node
    ((1, 2, 3), 0, "z", 1),  # off the arrangement
    ((1, 1, 1), 2, "y", 1),  # a line not through the point
    ((1, 1, 1), 3, "y-z", 1),  # a direction through the point
    ((1, 1, 1), 3, "y", 0),  # eps 0
    ((1, 1, 1), 3, "y", 1),  # a collision with the line x
    ((1, 1, 1), 3, "y", OMEGA),  # Q(w) eps on a Q arrangement
    ((1, 1, 1), 6, "y", 1),  # no line 6
    ((2, 2, 2), 3, "y", Fraction(1, 2)),  # the braid deformation, from a multiple
])
def test_deformation_errors_match_the_scalar_reference(point, index, direction, eps):
    args = (catalog("A1_6"), point, index, LinearForm.parse(direction), eps)
    assert _outcome(deformation, *args) == _outcome(reference_deformation, *args)


def test_tjurina_drop_check():
    # a triple point split into three nodes lowers the total Tjurina number by 1
    for before, after in [("A1_6", "A6_deformed"), ("B7_free", "B7_deformed")]:
        assert milnor_number(catalog(before)) == milnor_number(catalog(after)) + 1


def test_catalog_names_and_unknown():
    names = catalog_names()
    assert len(names) == 10
    assert "MacLane8" in names and "DualHesse9" in names
    with pytest.raises(UnknownName):
        catalog("NOPE")


CATALOG_EXPECTATIONS = {
    "A4_free": (4, 3, 1),
    "A4_generic": (4, 6, 0),
    "A5_free": (5, 4, 2),
    "A5_nearlyfree": (5, 7, 1),
    "A1_6": (6, 3, 4),
    "A6_deformed": (6, 6, 3),
    "B7_free": (7, 3, 6),
    "B7_deformed": (7, 6, 5),
    "MacLane8": (8, 4, 8),
    "DualHesse9": (9, 0, 12),
}


@pytest.mark.parametrize("name", sorted(CATALOG_EXPECTATIONS))
def test_catalog_combinatorics(name):
    wc = weak_combinatorics(catalog(name))
    assert (wc.d, wc.t2, wc.t3) == CATALOG_EXPECTATIONS[name]
    assert wc.higher == {}


def test_catalog_field_tags():
    assert catalog("A1_6").tag is FieldTag.Q
    assert catalog("MacLane8").tag is FieldTag.QW
    assert catalog("DualHesse9").tag is FieldTag.QW


# The derived entries are stored as their lines; these are the constructions
# the lines come from.
DERIVED_ENTRIES = {
    # split the triple at (0:0:1) of A5_free; direction z is generic there
    # with eps = 1
    "A5_nearlyfree": lambda: deformation(
        catalog("A5_free"), (0, 0, 1), 2, LinearForm.parse("z"), Scalar(1))[0],
    # move x - y off the triple at (1:1:-1) of B7_free along x - z; the
    # triple at (1:1:1) survives because the direction vanishes there
    "B7_deformed": lambda: deformation(
        catalog("B7_free"), (1, 1, -1), 5, LinearForm.parse("x-z"), Scalar(1))[0],
    # deletion of the x - y line from the dual Hesse arrangement
    "MacLane8": lambda: delete_line(catalog("DualHesse9"), 0),
}


@pytest.mark.parametrize("name", sorted(DERIVED_ENTRIES))
def test_derived_catalog_entries_are_their_constructions(name):
    # == compares the tags and each line's primitive triple, LinearForm.ints
    assert DERIVED_ENTRIES[name]() == catalog(name)


def test_pairs_identity_random_arrangements():
    rng = random.Random(5001)
    for _ in range(60):
        a = random_arrangement(rng, rng.randint(2, 7))
        total = sum(comb(p.multiplicity, 2) for p in singular_points(a))
        assert total == comb(a.d, 2)


def test_projective_invariance_of_combinatorics():
    rng = random.Random(5002)
    for name in ["A1_6", "B7_free", "MacLane8"]:
        a = catalog(name)
        for _ in range(5):
            moved = transform(a, random_invertible_matrix(rng))
            assert weak_combinatorics(moved).counts == weak_combinatorics(a).counts
            assert milnor_number(moved) == milnor_number(a)


# -- .lines format ----------------------------------------------------------


def test_parse_lines_roundtrip():
    for name in ["A1_6", "MacLane8"]:
        a = catalog(name)
        assert parse_lines(format_lines(a)) == a


def test_parse_lines_with_comments_and_header():
    text = """
# braid arrangement
field: Q
1 0 0
0 1 0   # the y axis
0 0 1
1 -1 0
0 1 -1
1 0 -1
"""
    a = parse_lines(text)
    assert a == catalog("A1_6")


def test_parse_lines_infers_field():
    assert parse_lines("1 0 0\n0 1 -1\n").tag is FieldTag.Q
    assert parse_lines("1 -w 0\n0 1 -1\n").tag is FieldTag.QW


def test_transform_matches_the_scalar_row_action():
    rng = random.Random(5016)
    shear = [[ONE, OMEGA, ZERO], [ZERO, ONE, Scalar(Fraction(2, 3))], [ZERO, ZERO, ONE]]
    for name in ["A1_6", "B7_free", "DualHesse9"]:
        a = catalog(name)
        for m in [shear] + [random_invertible_matrix(rng) for _ in range(3)]:
            expected = [LinearForm(*(sum((c * m[i][j] for i, c in enumerate(form.coeffs)), ZERO)
                                     for j in range(3))) for form in a.lines]
            assert transform(a, m).lines == tuple(expected)


def test_transform_moves_to_the_smallest_field():
    a = catalog("A4_free")
    assert a.tag is FieldTag.Q
    shear = [[ONE, OMEGA, ZERO], [ZERO, ONE, ZERO], [ZERO, ZERO, ONE]]
    assert transform(a, shear).tag is FieldTag.QW
    assert transform(a, [[1, 0, 0], [0, 2, 0], [0, 0, 1]]).tag is FieldTag.Q
    # a Q(w) arrangement stays one, even when its new lines are rational
    qw = LineArrangement(a.lines, FieldTag.QW)
    assert transform(qw, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]).tag is FieldTag.QW


def test_parse_lines_field_mismatch():
    with pytest.raises(FieldMismatch):
        parse_lines("field: Q\n1 -w 0\n0 1 0\n")


def test_parse_lines_duplicate():
    with pytest.raises(DuplicateLine):
        parse_lines("1 0 0\n2 0 0\n")


def test_parse_lines_duplicate_names_the_line():
    text = "field: Q\n# a pencil\n" + "".join(f"1 {s} 0\n" for s in range(60)) + "2 6 0\n"
    with pytest.raises(DuplicateLine) as info:
        parse_lines(text)
    assert str(info.value) == "duplicate line x+3*y (line 63)"


def test_parse_lines_rejects_a_multiple_of_an_earlier_line():
    with pytest.raises(DuplicateLine) as info:
        parse_lines("1 2 3\n2 4 6\n")
    assert str(info.value) == "duplicate line x+2*y+3*z (line 2)"


def _parse_scalar_calls(monkeypatch):
    calls = []

    def recording(text):
        calls.append(text)
        return parse_scalar(text)

    monkeypatch.setattr(arrangement_module, "parse_scalar", recording)
    return calls


@pytest.mark.parametrize("token", ["+5", "-0", "007", "12"])
def test_parse_lines_reads_integer_tokens_like_parse_scalar(monkeypatch, token):
    calls = _parse_scalar_calls(monkeypatch)
    fast = parse_lines(f"1 {token} {token}\n").lines[0]
    assert calls == []  # the integer tokens never reach parse_scalar
    reference = LinearForm(*(parse_scalar(t) for t in ("1", token, token)))
    assert fast == reference and fast.coeffs == reference.coeffs
    assert str(fast) == str(reference)


@pytest.mark.parametrize("token", ["1_000", "0x10", "²", "٣", "1/2", "−3", "+-1"])
def test_parse_lines_sends_every_other_token_to_parse_scalar(monkeypatch, token):
    calls = _parse_scalar_calls(monkeypatch)
    try:
        expected = f"{LinearForm(1, parse_scalar(token), 0)}"
    except ParseError as exc:
        expected = f"bad scalar: {exc} (line 1)"
    try:
        got = f"{parse_lines(f'1 {token} 0').lines[0]}"
    except ParseError as exc:
        got = str(exc)
        assert exc.line == 1
    assert calls == [token] and got == expected


def test_parse_lines_rejects_non_ascii_digits_on_their_line():
    for text, lineno in [("1 0 0\n0 0 ²\n", 2), ("1 ٣ 0\n", 1), ("# ok\n1 0 1/²\n", 2)]:
        with pytest.raises(ParseError) as info:
            parse_lines(text)
        assert info.value.line == lineno


def test_parse_lines_errors():
    with pytest.raises(ParseError):
        parse_lines("1 0\n")
    with pytest.raises(ParseError):
        parse_lines("1 0 q\n")
    with pytest.raises(ParseError):
        parse_lines("")
    with pytest.raises(ParseError):
        parse_lines("field: R\n1 0 0\n")
    with pytest.raises(ParseError):
        parse_lines("0 0 0\n")


def test_duplicate_lines_rejected_at_construction():
    with pytest.raises(DuplicateLine):
        LineArrangement(_forms("x", "y", "2*x"))


def test_pencil_census_tracks_higher_multiplicities():
    pencil = LineArrangement(_forms("x", "y", "x-y", "x+y"))
    wc = weak_combinatorics(pencil)
    assert (wc.t2, wc.t3) == (0, 0)
    assert wc.higher == {4: 1}
    assert milnor_number(pencil) == 9
    assert str(wc) == "(4; 0, 0, t4=1)"


def test_pairs_identity_violation_is_raised():
    with pytest.raises(PairsIdentityViolated):
        WeakCombinatorics(d=5, counts=((2, 1),))


def test_pairs_identity_survives_optimized_mode():
    src = os.path.dirname(os.path.dirname(arrangement_module.__file__))
    code = (
        "assert False, 'assertions are on'\n"
        "from nearfree import WeakCombinatorics\n"
        "from nearfree.errors import PairsIdentityViolated\n"
        "try:\n"
        "    WeakCombinatorics(d=5, counts=((2, 1),))\n"
        "except PairsIdentityViolated:\n"
        "    print('rejected')\n"
    )
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "rejected\n"


def test_catalog_census_mismatch_is_raised(monkeypatch):
    field, rows, _ = arrangement_module._CATALOG["A4_free"]
    monkeypatch.setitem(arrangement_module._CATALOG, "A4_free", (field, rows, (4, ((2, 6),))))
    catalog.cache_clear()
    try:
        with pytest.raises(CatalogCensusMismatch):
            catalog("A4_free")
    finally:
        catalog.cache_clear()
