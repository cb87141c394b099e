import pytest

from nearfree import (
    CandidateStatus,
    VerdictKind,
    analyze_curve,
    catalog,
    classify_all,
    default_exclusions,
    defining_polynomial,
    enumerate_candidates,
    mdr_window,
    schonheim_u3,
    t3_lower_bound,
    weak_combinatorics,
)
from nearfree.classify import ExclusionConfig, parse_exclusions
from nearfree.errors import OutOfRange, PairsIdentityViolated, ParseError

from support import check_combinatorics, has_integer_root, milnor_number, no_exclusions


@pytest.mark.parametrize(
    "d,expected", [(4, 0), (5, 1), (6, 3), (7, 5), (8, 8), (9, 11), (2, 0), (3, 0)]
)
def test_t3_lower_bound(d, expected):
    assert t3_lower_bound(d) == expected


@pytest.mark.parametrize(
    "d,expected",
    [(4, 1), (5, 2), (6, 4), (7, 7), (8, 8), (9, 12), (10, 13), (11, 17), (12, 20), (2, 0)],
)
def test_schonheim_u3(d, expected):
    assert schonheim_u3(d) == expected


@pytest.mark.parametrize(
    "d,expected",
    [
        (4, (1, 2)),
        (5, (2, 2)),
        (6, (2, 3)),
        (7, (3, 3)),
        (8, (4, 4)),
        (9, (4, 4)),
        (10, (5, 5)),
        (11, None),
        (12, (6, 6)),
    ],
)
def test_mdr_window(d, expected):
    assert mdr_window(d) == expected


def test_mdr_window_empty_beyond_twelve():
    for d in range(13, 41):
        assert mdr_window(d) is None


def test_domain_checks():
    for fn in (t3_lower_bound, schonheim_u3, mdr_window):
        with pytest.raises(OutOfRange):
            fn(1)


def test_enumerate_d8():
    records = enumerate_candidates(8)
    assert len(records) == 1
    rec = records[0]
    assert (rec.d, rec.t2, rec.t3, rec.r) == (8, 4, 8, 4)
    assert rec.status is CandidateStatus.ADMISSIBLE


def test_enumerate_d9_excluded_by_default():
    records = enumerate_candidates(9)
    assert len(records) == 1
    rec = records[0]
    assert (rec.t2, rec.t3) == (3, 11)
    assert rec.status is CandidateStatus.EXCLUDED_NONREALIZABLE
    assert rec.citation


def test_enumerate_d9_without_exclusions():
    records = enumerate_candidates(9, no_exclusions())
    assert records[0].status is CandidateStatus.ADMISSIBLE


def test_enumerate_d12_schonheim_excluded():
    records = enumerate_candidates(12)
    assert len(records) == 1
    rec = records[0]
    assert rec.t3 == 24 and rec.t3 > schonheim_u3(12)
    assert rec.t2 == -6
    assert rec.status is CandidateStatus.EXCLUDED_BY_SCHONHEIM


def test_enumerate_d10_schonheim_excluded():
    records = enumerate_candidates(10)
    assert [r.status for r in records] == [CandidateStatus.EXCLUDED_BY_SCHONHEIM]
    assert records[0].t3 == 15


def test_enumerate_d6_deduplicates_r():
    records = enumerate_candidates(6)
    assert len(records) == 1
    rec = records[0]
    assert (rec.t2, rec.t3, rec.r) == (6, 3, 3)


def test_enumerate_d11_empty_window():
    assert enumerate_candidates(11) == []


def test_classify_all_default_admissible_set():
    records = classify_all(4, 12)
    admissible = [
        (r.d, r.t2, r.t3) for r in records if r.status is CandidateStatus.ADMISSIBLE
    ]
    assert admissible == [(4, 6, 0), (5, 7, 1), (6, 6, 3), (7, 6, 5), (8, 4, 8)]


def test_classify_all_high_range_has_no_admissible():
    records = classify_all(10, 12)
    assert all(r.status is not CandidateStatus.ADMISSIBLE for r in records)


def test_classify_all_ordering():
    records = classify_all(2, 12)
    keys = [(r.d, r.t3) for r in records]
    assert keys == sorted(keys)


def test_classify_all_bad_range():
    with pytest.raises(OutOfRange):
        classify_all(5, 4)
    with pytest.raises(OutOfRange):
        classify_all(1, 4)


def test_has_integer_root_rejection_of_8_7_7():
    assert has_integer_root(8, 7, 7) is None


def test_has_integer_root_maclane():
    assert has_integer_root(8, 4, 8) == 4


def test_has_integer_root_reports_in_window_witness():
    # both 2 and 3 solve the quadratic for (6;6,3); the larger one is reported
    assert has_integer_root(6, 6, 3) == 3


def test_has_integer_root_checks_pairs_identity():
    with pytest.raises(PairsIdentityViolated):
        has_integer_root(8, 7, 6)


def test_check_combinatorics_no_integer_root():
    rec = check_combinatorics(8, 7, 7)
    assert rec.status is CandidateStatus.EXCLUDED_NO_INTEGER_ROOT
    assert rec.r is None


def test_check_combinatorics_admissible():
    rec = check_combinatorics(6, 6, 3)
    assert rec.status is CandidateStatus.ADMISSIBLE
    assert rec.r == 3


def test_sweep_consistent_with_integer_root_check():
    for d in range(2, 13):
        emitted = {(r.t2, r.t3) for r in enumerate_candidates(d, no_exclusions())}
        window = mdr_window(d)
        if window is None:
            assert emitted == set()
            continue
        for t2, t3 in emitted:
            assert has_integer_root(d, t2, t3) is not None


def test_admissible_bounds_invariant():
    for rec in classify_all(2, 12):
        if rec.status is not CandidateStatus.ADMISSIBLE:
            continue
        assert rec.t2 + 3 * rec.t3 == rec.d * (rec.d - 1) // 2
        assert 0 <= rec.t3 <= schonheim_u3(rec.d)
        # +1 slack absorbs the rounding ambiguity of the printed d=8 bound
        assert t3_lower_bound(rec.d) <= rec.t3 + 1


ADMISSIBLE_REALIZATIONS = {
    (4, 6, 0): "A4_generic",
    (5, 7, 1): "A5_nearlyfree",
    (6, 6, 3): "A6_deformed",
    (7, 6, 5): "B7_deformed",
    (8, 4, 8): "MacLane8",
}


def test_admissible_records_realized_by_catalog():
    for rec in classify_all(4, 8):
        if rec.status is not CandidateStatus.ADMISSIBLE:
            continue
        name = ADMISSIBLE_REALIZATIONS[(rec.d, rec.t2, rec.t3)]
        a = catalog(name)
        wc = weak_combinatorics(a)
        assert (wc.d, wc.t2, wc.t3) == (rec.d, rec.t2, rec.t3)
        report = analyze_curve(defining_polynomial(a), tau=milnor_number(a))
        assert report.verdict.kind is VerdictKind.NEARLY_FREE


def test_parse_exclusions():
    config = parse_exclusions(
        "9 3 11 # external matroid census\n\n# comment\n10 0 15 # toy entry\n"
    )
    assert config.lookup(9, 3, 11) == "external matroid census"
    assert config.lookup(10, 0, 15) == "toy entry"
    assert config.lookup(8, 4, 8) is None


def test_parse_exclusions_errors():
    with pytest.raises(ParseError):
        parse_exclusions("9 3\n")
    with pytest.raises(ParseError):
        parse_exclusions("a b c\n")
    with pytest.raises(ParseError):
        parse_exclusions("9 3 11\n")  # citation is mandatory


@pytest.mark.parametrize("entry", ["٩ 3 11 # c", "9 3 1_1 # c"])
def test_parse_exclusions_takes_ascii_digits_only(entry):
    # int() reads both entries as (9, 3, 11); the `.lines` parser takes
    # ASCII digits only, and so do exclusion files
    with pytest.raises(ParseError) as exc:
        parse_exclusions(f"10 0 15 # toy entry\n{entry}\n")
    assert exc.value.line == 2
    assert parse_exclusions("9 3 11 # c").lookup(9, 3, 11) == "c"


def test_default_exclusions_content():
    config = default_exclusions()
    assert config.lookup(9, 3, 11)
    assert isinstance(config, ExclusionConfig)
