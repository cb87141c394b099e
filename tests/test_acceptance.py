"""Acceptance suite: one test per shipped criterion, exact arithmetic only.

Each test prints a single `ACCEPTANCE <n> PASS` line on success so the run
log doubles as a checklist (`pytest tests/test_acceptance.py -s`).
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from math import comb

from nearfree import (
    CandidateStatus,
    LinearForm,
    Scalar,
    VerdictKind,
    analyze_curve,
    catalog,
    catalog_names,
    classify_all,
    defining_polynomial,
    delete_line,
    kernel_basis,
    mdr,
    singular_points,
    weak_combinatorics,
)
from nearfree.cli import main
from nearfree.errors import NonGenericDeformation
from nearfree.field import OMEGA, ONE
from nearfree.poly import Poly

from support import (
    deform,
    div,
    evaluate,
    has_integer_root,
    jacobian_image,
    milnor_number,
    no_exclusions,
    poly_scale,
    random_arrangement,
    random_invertible_matrix,
    relation_rows,
    scalar_form,
    sparse_rows,
    transform,
)


def run_cli_json(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args + ["--json"])
    assert code == 0, err.getvalue()
    return json.loads(out.getvalue())


def report_pass(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_maclane_reproduction():
    payload = run_cli_json(["analyze", "@catalog:MacLane8"])
    assert payload["d"] == 8
    assert payload["t2"] == 4 and payload["t3"] == 8
    assert payload["mu"] == 36
    assert payload["mdr"] == 4
    assert payload["eta"] == 37
    assert payload["verdict"] == "NearlyFree"
    assert payload["exponents"] == [4, 4]
    report_pass(1, "MacLane8 analyze gives (8;4,8), mu=36, mdr=4, eta=37, NearlyFree(4,4)")


def test_criterion_2_braid_pair():
    braid = run_cli_json(["analyze", "@catalog:A1_6"])
    assert braid["verdict"] == "Free"
    assert braid["mu"] == 19 and braid["tau"] == 19
    assert braid["mdr"] == 2
    assert braid["exponents"] == [2, 3]
    deformed = run_cli_json(["analyze", "@catalog:A6_deformed"])
    assert deformed["verdict"] == "NearlyFree"
    assert deformed["mu"] == 18
    assert deformed["mdr"] == 3
    assert deformed["eta"] == 19
    report_pass(2, "A1_6 Free(2,3) mu=19; deformed sextic NearlyFree mu=18 mdr=3 eta=19")


def test_criterion_3_degree_seven_pair():
    free = run_cli_json(["analyze", "@catalog:B7_free"])
    assert free["verdict"] == "Free"
    assert free["exponents"] == [3, 3]
    assert free["tau"] == 27
    deformed = run_cli_json(["analyze", "@catalog:B7_deformed"])
    assert deformed["verdict"] == "NearlyFree"
    assert (deformed["d"], deformed["t2"], deformed["t3"]) == (7, 6, 5)
    assert deformed["mu"] == 26
    report_pass(3, "B7_free Free(3,3) tau=27; B7_deformed NearlyFree (7;6,5) mu=26")


def test_criterion_4_cuspidal_cubic():
    payload = run_cli_json(["analyze", "--poly", "y^2*z - x^3", "--tau", "2"])
    assert payload["verdict"] == "NearlyFree"
    assert payload["exponents"] == [1, 2]
    assert payload["b"] == 1
    report_pass(4, "cuspidal cubic with tau=2 is NearlyFree(1,2), b=1")


def test_criterion_5_dual_hesse_and_deletions():
    payload = run_cli_json(["analyze", "@catalog:DualHesse9"])
    assert payload["verdict"] == "Free"
    assert (payload["d"], payload["t2"], payload["t3"]) == (9, 0, 12)
    assert payload["tau"] == 48
    assert payload["mdr"] == 4
    hesse = catalog("DualHesse9")
    for index in range(9):
        wc = weak_combinatorics(delete_line(hesse, index))
        assert (wc.d, wc.t2, wc.t3) == (8, 4, 8)
    report_pass(5, "DualHesse9 Free, (9;0,12), tau=48, mdr=4; all 9 deletions give (8;4,8)")


def test_criterion_6_classification():
    records = run_cli_json(["classify", "--dmin", "4", "--dmax", "12"])
    admissible = [
        (r["d"], r["t2"], r["t3"]) for r in records if r["status"] == "Admissible"
    ]
    assert admissible == [(4, 6, 0), (5, 7, 1), (6, 6, 3), (7, 6, 5), (8, 4, 8)]
    library = classify_all(4, 12, no_exclusions())
    flagged = [
        (r.d, r.t2, r.t3) for r in library if r.status is CandidateStatus.ADMISSIBLE
    ]
    assert flagged == [(4, 6, 0), (5, 7, 1), (6, 6, 3), (7, 6, 5), (8, 4, 8), (9, 3, 11)]
    report_pass(6, "classify 4..12 yields exactly the five combinatorics; (9;3,11) shows up once exclusions are disabled")


def test_criterion_7_bound_contradictions():
    for d in (10, 11, 12):
        payload = run_cli_json(["bounds", "--d", str(d)])
        assert payload["consistent"] is False, d
        assert payload["t3_lower_bound"] > payload["schonheim_u3"]
    payload = run_cli_json(["bounds", "--d", "9"])
    assert payload["consistent"] is True
    assert payload["t3_lower_bound"] == 11 and payload["schonheim_u3"] == 12
    report_pass(7, "bounds contradiction for d=10,11,12 and consistency for d=9")


def test_criterion_8_rejection_of_8_7_7():
    assert has_integer_root(8, 7, 7) is None
    assert has_integer_root(8, 4, 8) == 4
    report_pass(8, "(8;7,7) admits no integer syzygy degree; (8;4,8) admits r=4")


def test_criterion_9_property_suite():
    # pairs identity on 200 random rational arrangements with d <= 7
    rng = random.Random(20260809)
    for _ in range(200):
        a = random_arrangement(rng, rng.randint(2, 7))
        total = sum(comb(p.multiplicity, 2) for p in singular_points(a))
        assert total == comb(a.d, 2)

    for name in catalog_names():
        a = catalog(name)
        f = defining_polynomial(a)
        d = f.degree
        result = mdr(f)

        # Euler identity for the defining polynomial
        x, y, z = (Poly(1, {m: (1, 0)}, f.tag) for m in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        assert jacobian_image(f, x, y, z) == poly_scale(f, d)

        # witness exactness
        assert jacobian_image(f, *result.witness).is_zero()

        # kernel-dimension monotonicity across the search range
        assert all(dim == 0 for dim in result.relation_dims[:-1])
        assert result.relation_dims[-1] >= 1
        if result.r + 1 <= d - 1:
            assert len(kernel_basis(*sparse_rows(relation_rows(f, result.r + 1)))) >= 1

        # mdr invariance under 20 random invertible coordinate changes
        for _ in range(20):
            moved = transform(a, random_invertible_matrix(rng))
            assert mdr(defining_polynomial(moved)).r == result.r, name
    report_pass(9, "pairs identity x200, Euler, witness exactness, monotonicity, and 20 coordinate changes per catalog entry")


FREE_DEFORMATIONS = {
    # name -> (triple point, line index, direction, eps)
    "A4_free": ((0, 0, 1), 2, "z", Scalar(1)),
    "A5_free": ((0, 0, 1), 2, "z", Scalar(1)),
    "A1_6": ((1, 1, 1), 3, "y", div(Scalar(1, 0), 2)),
    "B7_free": ((1, 1, -1), 5, "x-z", Scalar(1)),
}


def test_criterion_10_deformation_contract():
    for name, (point, index, direction, eps) in FREE_DEFORMATIONS.items():
        a = catalog(name)
        before = weak_combinatorics(a)
        before_report = analyze_curve(defining_polynomial(a), tau=milnor_number(a))
        assert before_report.verdict.kind is VerdictKind.FREE
        assert before.t3 >= 1
        deformed = deform(a, point, index, LinearForm.parse(direction), eps)[0]
        after = weak_combinatorics(deformed)
        assert after.t3 == before.t3 - 1
        assert after.t2 == before.t2 + 3
        assert milnor_number(a) == milnor_number(deformed) + 1
        after_report = analyze_curve(
            defining_polynomial(deformed), tau=milnor_number(deformed)
        )
        r = after_report.mdr_result.r
        if after_report.eta_value == before_report.eta_value and 2 * r <= deformed.d:
            assert after_report.verdict.kind is VerdictKind.NEARLY_FREE
        assert after_report.verdict.kind is VerdictKind.NEARLY_FREE

    # The remaining free catalog entry with triple points is DualHesse9:
    # every line carries four triple points, and a direction form can keep
    # at most one of the other three, so no deformation can pass the census
    # validation. Check that a systematic parameter sweep never succeeds,
    # consistent with (9;3,11) not being realizable.
    hesse = catalog("DualHesse9")
    directions = [
        LinearForm.parse(t)
        for t in ["x", "y", "z", "x+y", "x-z", "y+z", "x+y+z"]
    ] + [scalar_form(ONE, OMEGA, ONE)]
    eps_pool = [Scalar(1), Scalar(-1), div(Scalar(1, 0), 2), OMEGA]
    attempts = successes = 0
    for sp in singular_points(hesse)[:4]:
        for index in sp.incident_lines:
            for direction in directions:
                if not evaluate(direction, sp.point):
                    continue
                for eps in eps_pool:
                    attempts += 1
                    try:
                        deform(hesse, sp.point, index, direction, eps)
                        successes += 1
                    except NonGenericDeformation:
                        pass
    assert attempts > 100
    assert successes == 0
    report_pass(10, "validated deformations drop (t3,tau) by 1 and add 3 nodes, always landing NearlyFree; dual Hesse admits none")
