import io
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

from nearfree import (
    arrangement,
    catalog,
    catalog_names,
    criteria,
    defining_polynomial,
    format_poly,
    linalg,
    parse_poly,
    poly,
)
from nearfree.cli import main
from nearfree.errors import NotASyzygy
from nearfree.field import OMEGA, ONE, ZERO, Scalar

from support import milnor_number, random_nodal_arrangement, transform


def run_cli(args):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def analyze_json(args):
    code, out, err = run_cli(["analyze", "--json"] + args)
    assert code == 0, err
    return json.loads(out)


def test_analyze_maclane():
    payload = analyze_json(["@catalog:MacLane8"])
    assert payload["d"] == 8
    assert payload["field"] == "Qw"
    assert (payload["t2"], payload["t3"]) == (4, 8)
    assert payload["mu"] == 36 and payload["tau"] == 36
    assert payload["mdr"] == 4 and payload["eta"] == 37
    assert payload["verdict"] == "NearlyFree"
    assert payload["exponents"] == [4, 4]
    assert payload["b"] == -2


def test_analyze_dual_hesse():
    payload = analyze_json(["@catalog:DualHesse9"])
    assert payload["verdict"] == "Free"
    assert payload["tau"] == 48
    assert payload["mdr"] == 4
    assert payload["exponents"] == [4, 4]
    assert (payload["t2"], payload["t3"]) == (0, 12)


def test_analyze_raw_polynomial():
    payload = analyze_json(["--poly", "y^2*z - x^3", "--tau", "2"])
    assert payload["verdict"] == "NearlyFree"
    assert payload["exponents"] == [1, 2]
    assert payload["b"] == 1
    assert payload["t2"] is None and payload["mu"] is None
    assert payload["field"] == "Q"


@pytest.mark.parametrize("tau", [7, 1])
def test_analyze_rejects_tau_outside_du_plessis_wall_bounds(tau):
    # the cusp has d = 3 and mdr = 1, so 2 <= tau <= 3
    code, out, err = run_cli(["analyze", "--poly", "y^2*z - x^3", "--tau", str(tau)])
    assert code == 2
    assert out == ""
    assert "du Plessis-Wall" in err
    code, _, _ = run_cli(["analyze", "--poly", "y^2*z - x^3", "--tau", "2"])
    assert code == 0


def test_analyze_poly_requires_tau():
    code, _, err = run_cli(["analyze", "--poly", "x^2+y^2+z^2"])
    assert code == 2
    assert "tau" in err


@pytest.mark.parametrize("poly", ["0", "3", "1/2", "2*w", "x - x", "x^2*y - x^2*y"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_analyze_rejects_a_constant_poly(poly, json_flag):
    # zero and the constants, whatever degree their expression has, parse to
    # degree 0 and define no curve; degree 1 is a line and stays Inapplicable
    code, out, err = run_cli(["analyze", "--poly", poly, "--tau", "0"] + json_flag)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "constant" in err
    code, out, _ = run_cli(["analyze", "--poly", "x", "--tau", "0"] + json_flag)
    assert code == 0 and "Inapplicable" in out


def test_analyze_arrangement_forbids_tau():
    code, _, err = run_cli(["analyze", "@catalog:A1_6", "--tau", "19"])
    assert code == 2


def test_analyze_rejects_both_sources():
    code, _, _ = run_cli(["analyze", "@catalog:A1_6", "--poly", "x"])
    assert code == 2


def test_analyze_text_output():
    code, out, _ = run_cli(["analyze", "@catalog:A1_6"])
    assert code == 0
    assert "verdict:" in out and "Free" in out
    assert "mdr:" in out and "19" in out


def test_analyze_witness_flag():
    code, out, _ = run_cli(["analyze", "@catalog:A1_6", "--witness"])
    assert code == 0
    assert "witness a:" in out


def test_analyze_file_source(tmp_path):
    path = tmp_path / "braid.lines"
    path.write_text("field: Q\n1 0 0\n0 1 0\n0 0 1\n1 -1 0\n0 1 -1\n1 0 -1\n")
    payload = analyze_json([str(path)])
    assert payload["verdict"] == "Free"
    assert payload["mu"] == 19


@pytest.mark.parametrize("d", [6, 7, 8])
def test_arrangement_commands_make_no_scalar(monkeypatch, tmp_path, d):
    # from the integer lines to the verdict, f, the kernels and the witness
    # stay in Z[w] integers, and --witness prints the witness from its
    # integers over its denominator, so no Scalar is made
    path = tmp_path / "nodal.lines"
    lines = random_nodal_arrangement(random.Random(d), d).lines
    path.write_text("".join(" ".join(str(a) for a, _ in form.ints) + "\n" for form in lines))
    made = []
    init = Scalar.__init__

    def counted(self, *args):
        made.append(args)
        init(self, *args)

    for argv in (["analyze", str(path), "--json"], ["delete", str(path), "--line", "0", "--json"],
                 ["analyze", str(path), "--witness"]):
        code, _, err = run_cli(argv)  # warm-up
        assert code == 0, err
        monkeypatch.setattr(Scalar, "__init__", counted)
        assert run_cli(argv)[0] == 0
        monkeypatch.setattr(Scalar, "__init__", init)
        assert made == []


def test_analyze_missing_file():
    code, _, err = run_cli(["analyze", "/nonexistent/path.lines"])
    assert code == 2


def test_analyze_bad_file(tmp_path):
    path = tmp_path / "bad.lines"
    path.write_text("1 0\n")
    code, _, err = run_cli(["analyze", str(path)])
    assert code == 2
    assert "line 1" in err


def test_non_ascii_digits_are_parse_errors_with_their_place(tmp_path):
    # str.isdigit() holds for '²' and '٣'; the parsers take ASCII 0-9 only
    path = tmp_path / "superscript.lines"
    path.write_text("1 0 0\n0 0 ²\n", encoding="utf-8")
    code, out, err = run_cli(["analyze", str(path)])
    assert (code, out) == (2, "")
    assert err == "error: bad scalar: expected a digit (at position 0) (line 2)\n"
    code, out, err = run_cli(["analyze", "--poly", "x^²*y", "--tau", "0"])
    assert (code, out) == (2, "")
    assert err == "error: unexpected character '²' (at position 2)\n"


DEFORM_A1_6 = {"--point": "1:1:1", "--line": "3", "--dir": "y", "--eps": "1/2"}


@pytest.mark.parametrize("option, value", [("--eps", "-1/2"), ("--point", "-1:-1:-1"),
                                           ("--dir", "-y"), ("--poly", "-x*y*z")])
def test_option_values_may_begin_with_a_minus(option, value):
    # argparse takes such a value, unless it reads as a negative number like
    # -1, for an option and exits 2; main attaches it to its option
    if option == "--poly":
        argv = ["analyze", "--tau", "3"]
    else:
        argv = ["deform", "@catalog:A1_6"]
        argv += [arg for key, v in DEFORM_A1_6.items() if key != option for arg in (key, v)]
    spaced = run_cli(argv + [option, value, "--json"])
    assert spaced == run_cli(argv + [f"{option}={value}", "--json"])
    assert spaced[0] == 0, spaced[2]
    # an option still cannot stand for the value
    code, out, err = run_cli(argv + [option, "--json"])
    assert (code, out) == (2, "") and "expected one argument" in err


def test_analyze_field_mismatch_exit_code():
    code, _, _ = run_cli(["analyze", "@catalog:MacLane8", "--field", "Q"])
    assert code == 3
    code, _, _ = run_cli(["analyze", "--poly", "w*x^2", "--tau", "0", "--field", "Q"])
    assert code == 3


def test_json_output_is_byte_identical():
    runs = [run_cli(["analyze", "--json", "@catalog:MacLane8"]) for _ in range(2)]
    assert runs[0][1] == runs[1][1]
    runs = [run_cli(["classify", "--json"]) for _ in range(2)]
    assert runs[0][1] == runs[1][1]


def test_analyze_agrees_with_raw_polynomial_route():
    for name in ["A1_6", "MacLane8", "B7_deformed"]:
        a = catalog(name)
        direct = analyze_json([f"@catalog:{name}"])
        text = format_poly(defining_polynomial(a))
        mu = milnor_number(a)
        raw = analyze_json(["--poly", text, "--tau", str(mu)])
        for key in ("mdr", "eta", "verdict", "exponents", "b"):
            assert raw[key] == direct[key], (name, key)


def test_classify_default_output():
    code, out, _ = run_cli(["classify"])
    assert code == 0
    assert "admissible: 5" in out
    records = json.loads(run_cli(["classify", "--json"])[1])
    admissible = [
        (r["d"], r["t2"], r["t3"]) for r in records if r["status"] == "Admissible"
    ]
    assert admissible == [(4, 6, 0), (5, 7, 1), (6, 6, 3), (7, 6, 5), (8, 4, 8)]


def test_classify_high_range():
    records = json.loads(run_cli(["classify", "--dmin", "10", "--dmax", "12", "--json"])[1])
    assert all(r["status"] != "Admissible" for r in records)


def test_classify_without_exclusions(tmp_path):
    empty = tmp_path / "none.txt"
    empty.write_text("")
    records = json.loads(
        run_cli(["classify", "--dmin", "9", "--dmax", "9", "--exclusions", str(empty), "--json"])[1]
    )
    assert records == [
        {"d": 9, "t2": 3, "t3": 11, "r": 4, "status": "Admissible", "citation": None}
    ]


def test_classify_bad_range():
    code, _, _ = run_cli(["classify", "--dmin", "9", "--dmax", "4"])
    assert code == 2


def test_bounds_contradictions():
    for d, expected in [(9, "consistent"), (10, "contradiction"), (11, "contradiction"), (12, "contradiction")]:
        code, out, _ = run_cli(["bounds", "--d", str(d)])
        assert code == 0
        assert f"verdict:        {expected}" in out


def test_bounds_values_for_eleven():
    payload = json.loads(run_cli(["bounds", "--d", "11", "--json"])[1])
    assert payload == {
        "d": 11,
        "t3_lower_bound": 19,
        "schonheim_u3": 17,
        "mdr_window": None,
        "consistent": False,
    }


def test_bounds_trivial_small_d():
    payload = json.loads(run_cli(["bounds", "--d", "2", "--json"])[1])
    assert payload["t3_lower_bound"] == 0
    assert payload["consistent"] is True
    code, _, _ = run_cli(["bounds", "--d", "1"])
    assert code == 2


def test_deform_braid():
    code, out, _ = run_cli(
        ["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3", "--dir", "y", "--eps", "1/2"]
    )
    assert code == 0
    assert "(6; 6, 3)" in out
    assert "NearlyFree" in out
    assert "tau drop:      1" in out
    assert "eta preserved: yes" in out


def test_deform_b7():
    payload = json.loads(
        run_cli(
            ["deform", "@catalog:B7_free", "--point", "1:1:-1", "--line", "5",
             "--dir", "x-z", "--eps", "1", "--json"]
        )[1]
    )
    assert (payload["t2"], payload["t3"]) == (6, 5)
    assert payload["verdict"] == "NearlyFree"
    assert payload["deform"]["tau_before"] == 27
    assert payload["deform"]["tau_after"] == 26
    assert payload["deform"]["eta_before"] == payload["deform"]["eta_after"] == 27


def test_deform_zero_eps_is_input_error():
    code, _, _ = run_cli(
        ["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3", "--dir", "y", "--eps", "0"]
    )
    assert code == 2


def test_deform_non_generic_exit_code():
    code, _, err = run_cli(
        ["deform", "@catalog:B7_free", "--point", "1:1:-1", "--line", "5",
         "--dir", "x-z", "--eps", "-2"]
    )
    assert code == 4


def test_delete_dual_hesse():
    payload = json.loads(run_cli(["delete", "@catalog:DualHesse9", "--line", "0", "--json"])[1])
    assert (payload["d"], payload["t2"], payload["t3"]) == (8, 4, 8)
    assert payload["verdict"] == "NearlyFree"


def test_delete_down_to_one_line(tmp_path):
    path = tmp_path / "two.lines"
    path.write_text("1 0 0\n0 1 0\n")
    code, out, _ = run_cli(["delete", str(path), "--line", "0"])
    assert code == 0
    assert "degree < 2: verdict skipped" in out
    assert "Inapplicable" in out


def test_delete_bad_index():
    code, _, _ = run_cli(["delete", "@catalog:A1_6", "--line", "6"])
    assert code == 2


def test_catalog_list():
    code, out, _ = run_cli(["catalog", "list"])
    assert code == 0
    names = out.split()
    assert len(names) == 10
    assert "A1_6" in names


def test_catalog_show():
    code, out, _ = run_cli(["catalog", "show", "A1_6"])
    assert code == 0
    assert "(6; 3, 4)" in out
    assert out.count("\n") >= 8  # header lines plus six forms


def test_catalog_show_unknown():
    code, _, _ = run_cli(["catalog", "show", "NOPE"])
    assert code == 2


def test_usage_error_exit_code():
    code, _, _ = run_cli(["frobnicate"])
    assert code == 2


@pytest.mark.parametrize("args", [
    ["bounds", "--d", "11", "--field", "Q"],
    ["classify", "--witness"],
    ["catalog", "list", "--field", "Qw"],
])
def test_commands_that_analyze_nothing_reject_field_and_witness(args):
    code, out, err = run_cli(args)
    assert (code, out) == (2, "")
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("args", [
    ["analyze", "@catalog:A1_6"],
    ["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3", "--dir", "y", "--eps", "1/2"],
    ["delete", "@catalog:DualHesse9", "--line", "0"],
])
def test_analysis_commands_take_field_and_witness(args):
    code, out, err = run_cli(args + ["--field", "Qw", "--witness"])
    assert code == 0, err
    assert "field:         Qw" in out and "witness a:" in out


def test_repeated_main_calls_print_what_separate_runs_print():
    # one process runs the commands in turn, with a usage error between
    # them, and each command also runs alone in a fresh interpreter
    commands = [
        ["analyze", "@catalog:A1_6", "--witness"],
        ["analyze", "@catalog:A1_6", "--bogus"],
        ["bounds", "--d", "7", "--json"],
        ["frobnicate"],
        ["analyze", "--poly", "y^2*z - x^3", "--tau", "2", "--json"],
        ["analyze", "@catalog:A1_6", "--witness"],
    ]
    in_process = [run_cli(args) for args in commands]
    assert [code for code, _, _ in in_process] == [0, 2, 0, 2, 0, 0]
    src = os.path.dirname(os.path.dirname(arrangement.__file__))
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    for args, got in zip(commands, in_process):
        alone = subprocess.run(
            [sys.executable, "-c", "import sys; from nearfree.cli import main; sys.exit(main())",
             *args], env=env, capture_output=True, text=True, timeout=60)
        assert got == (alone.returncode, alone.stdout, alone.stderr)


def test_analyze_reports_higher_multiplicities(tmp_path):
    path = tmp_path / "pencil.lines"
    path.write_text("1 0 0\n0 1 0\n1 -1 0\n1 1 0\n")
    payload = analyze_json([str(path)])
    assert payload["t_higher"] == {"4": 1}
    assert payload["mu"] == 9


def test_field_flag_promotes_rational_arrangement():
    payload = analyze_json(["@catalog:A1_6", "--field", "Qw"])
    assert payload["field"] == "Qw"
    assert payload["verdict"] == "Free"


def _lattice_builds(monkeypatch, argv):
    for name in catalog_names():
        catalog(name)  # built and census-checked once, outside the count
    # every lattice build, of the census or of the points, runs _incidences
    calls = []
    build = arrangement._incidences

    def counted(a):
        calls.append(a)
        return build(a)

    monkeypatch.setattr(arrangement, "_incidences", counted)
    code, _, err = run_cli(argv)
    assert code == 0, err
    return len(calls)


def test_one_lattice_per_command(monkeypatch):
    assert _lattice_builds(monkeypatch, ["analyze", "@catalog:A1_6", "--json"]) == 1
    assert _lattice_builds(monkeypatch, ["delete", "@catalog:DualHesse9", "--line", "0"]) == 1
    deform = ["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3", "--dir", "y",
              "--eps", "1/2", "--json"]
    assert _lattice_builds(monkeypatch, deform) == 2


def test_arrangements_take_the_derivation_route(monkeypatch):
    # arrangement commands search logarithmic derivations; --poly curves
    # have no lines and build Jacobian relation matrices
    from nearfree import criteria

    calls = []
    build = criteria.relation_matrix
    monkeypatch.setattr(criteria, "relation_matrix", lambda f, r: calls.append(r) or build(f, r))
    code, _, err = run_cli(["analyze", "@catalog:MacLane8", "--witness"])
    assert code == 0, err
    code, _, err = run_cli(["delete", "@catalog:DualHesse9", "--line", "0"])
    assert code == 0, err
    assert calls == []
    code, _, err = run_cli(["analyze", "--poly", "x*y*z*(x-y)*(y-z)*(x-z)", "--tau", "19"])
    assert code == 0, err
    assert calls == [2]  # the kernel at hi = 2 certifies degree 1 by restriction


@pytest.mark.parametrize("args", [["@catalog:A4_free"], ["--poly", "x*y*z", "--tau", "3"]])
def test_missing_syzygy_is_an_error_not_a_traceback(monkeypatch, args):
    # a kernel_basis that never finds a syzygy breaks mdr's invariant that
    # (0, f_z, -f_y) is one in degree d - 1
    empty = linalg.Kernel([], linalg.FULL_RANK_MOD_P)
    monkeypatch.setattr(criteria, "kernel_basis", lambda rows, ncols, divide: empty)
    code, out, err = run_cli(["analyze"] + args)
    assert (code, out) == (2, "")
    assert err.startswith("error: no syzygy found in degrees below d=")


def test_poly_route_checks_its_witness(monkeypatch):
    # a kernel_basis that claims e_1 = (1, 0, 0) in degree 0, which is no
    # syzygy of the cusp (f_x = -3x^2): the Jacobian witness is checked
    # exactly before it is reported
    def fake(rows, ncols, divide):
        return linalg.Kernel([[(1, 0)] + [(0, 0)] * (ncols - 1)], linalg.FIRST_VECTOR.format(1))

    monkeypatch.setattr(criteria, "kernel_basis", fake)
    with pytest.raises(NotASyzygy):
        criteria.mdr(parse_poly("y^2*z - x^3"))
    code, out, err = run_cli(["analyze", "--poly", "y^2*z - x^3", "--tau", "2", "--witness"])
    assert (code, out) == (2, "")
    assert err.startswith("error: the witness does not satisfy")


# the Scalar methods that do arithmetic, and those that do none
SCALAR_ARITHMETIC = ("__add__", "__radd__", "__mul__", "__rmul__", "__neg__")
SCALAR_OTHER = ("__init__", "_coerce", "__bool__", "__eq__", "__hash__")


def test_no_command_enters_scalar_arithmetic(monkeypatch, tmp_path):
    # the commands compute on Z[w] integers from the first character of
    # their input on: no Scalar arithmetic method is entered, from anywhere,
    # and only Poly.coefficient, the view that fills the --poly relation
    # matrices, makes a Scalar; every method of Scalar is on one of the two
    # lists, so the spy misses none
    methods = {name for name, v in vars(Scalar).items() if callable(v) or isinstance(v, staticmethod)}
    assert methods - set(SCALAR_OTHER) == set(SCALAR_ARITHMETIC)
    shear = [[ONE, OMEGA, ZERO], [ZERO, ONE, Scalar(Fraction(2, 3))], [ZERO, ZERO, ONE]]
    entered, makers = [], set()

    def spy(name, method):
        def arithmetic(*args):
            entered.append(f"{name} from {sys._getframe(1).f_code.co_name}")
            return method(*args)
        return arithmetic

    for name in SCALAR_ARITHMETIC:
        monkeypatch.setattr(Scalar, name, spy(name, vars(Scalar)[name]))
    init = Scalar.__init__

    def made(self, *args):
        makers.add(sys._getframe(1).f_code)
        init(self, *args)

    monkeypatch.setattr(Scalar, "__init__", made)
    integers = tmp_path / "integers.lines"
    integers.write_text("1 0 0\n0 1 0\n0 0 1\n1 -1 0\n0 1 -1\n1 0 -1\n")
    qw = tmp_path / "qw.lines"
    qw.write_text("field: Qw\n1 -w 0\n0 1 -1/2*w\n1 0 -1-w\n1 1 1\n2/3 1/2+w 0\n")
    commands = [
        (["analyze", str(integers), "--witness"], 0),
        (["analyze", str(qw), "--witness"], 0),
        (["analyze", str(qw), "--json"], 0),
        (["delete", "@catalog:DualHesse9", "--line", "0"], 0),
        (["deform", "@catalog:A1_6", "--point", "1:1:1", "--line", "3", "--dir", "y",
          "--eps", "1/2"], 0),
        (["deform", "@catalog:A1_6", "--field", "Qw", "--point", "2/3:2/3:2/3", "--line", "3",
          "--dir", "1/2*y", "--eps", "1/2-1/3*w", "--witness"], 0),
        # (w:1:-1-w) is the triple point (1:-1-w:w) of lines 1, 4 and 7; no
        # deformation of the dual Hesse arrangement passes the census
        (["deform", "@catalog:DualHesse9", "--point", "w:1:-1-w", "--line", "1",
          "--dir", "x+w*y", "--eps", "w"], 4),
        (["classify", "--dmax", "9"], 0),
        (["bounds", "--d", "11"], 0),
        (["catalog", "show", "DualHesse9"], 0),
        (["analyze", "--poly", "x*y*(x - w*y)*(1/2*x + z)", "--tau", "6", "--witness"], 0),
    ]
    for argv, expected in commands:
        code, _, err = run_cli(argv)
        assert code == expected, (argv, err)
    assert entered == []
    assert makers == {poly.Poly.coefficient.__code__}
    # nor does the coordinate change of the tests' reference
    transform(catalog("DualHesse9"), shear)
    assert entered == []
