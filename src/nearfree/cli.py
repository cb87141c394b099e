"""Command-line front end.

Subcommands: analyze, classify, bounds, deform, delete, catalog. Every
subcommand accepts --json for a machine-readable report with a fixed key
order, so output bytes are identical across runs on the same input.

Exit codes: 0 success, 2 input error (including a tau outside the
du Plessis-Wall bounds) or a failed internal check such as NotASyzygy or
NoSyzygyFound, 3 field mismatch, 4 rejected (non-generic) deformation.

Arrangement commands pass the lines to `analyze_curve`, so mdr is found on
the logarithmic derivations; `--poly` curves use the Jacobian route.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import arrangement as arr
from . import classify as cls
from .criteria import AnalysisReport, analyze_curve
from .errors import FieldMismatch, NonGenericDeformation, ToolkitError
from .field import FieldTag, parse_scalar
from .poly import LinearForm, format_poly, parse_poly

CATALOG_PREFIX = "@catalog:"


def _load_source(source: str, field: str = None) -> arr.LineArrangement:
    if source.startswith(CATALOG_PREFIX):
        a = arr.catalog(source[len(CATALOG_PREFIX):])
    else:
        a = arr.load_lines(source)
    if field == "Q" and a.tag is not FieldTag.Q:
        raise FieldMismatch(f"{source} needs field Qw but Q was requested")
    if field == "Qw" and a.tag is FieldTag.Q:
        a = arr.LineArrangement(a.lines, FieldTag.QW)
    return a


def _arrangement_report(
    a: arr.LineArrangement, source: str, comb: arr.WeakCombinatorics = None
) -> AnalysisReport:
    """The analysis of an arrangement; comb is its census when the caller
    already has it, so the lattice is not built again."""
    if comb is None:
        comb = arr.weak_combinatorics(a)
    f = arr.defining_polynomial(a)
    report = analyze_curve(f, tau=comb.mu, source=source, lines=a.lines)
    report.mu = comb.mu
    report.combinatorics = comb
    report.notes.insert(0, "tau taken equal to mu (arrangement singularities)")
    return report


def _report_json(report: AnalysisReport) -> dict:
    comb = report.combinatorics
    v = report.verdict
    return {
        "d": report.d,
        "field": report.field.value,
        "t2": comb.t2 if comb else None,
        "t3": comb.t3 if comb else None,
        "t_higher": {str(k): t for k, t in sorted(comb.higher.items())} if comb else None,
        "mu": report.mu,
        "tau": report.tau,
        "mdr": report.mdr_result.r if report.mdr_result else None,
        "eta": report.eta_value,
        "verdict": v.kind.value,
        "exponents": list(v.exponents) if v.exponents else None,
        "b": v.b,
        "notes": list(report.notes),
    }


def _print_report(report: AnalysisReport, as_json: bool, witness: bool = False):
    if as_json:
        print(json.dumps(_report_json(report), separators=(",", ":")))
        return
    rows = [("input", report.source), ("field", report.field.value), ("d", report.d)]
    if report.combinatorics is not None:
        rows.append(("combinatorics", str(report.combinatorics)))
    if report.mu is not None:
        rows.append(("mu", report.mu))
    rows.append(("tau", report.tau))
    if report.mdr_result is not None:
        rows.append(("mdr", report.mdr_result.r))
    if report.eta_value is not None:
        rows.append(("eta", report.eta_value))
    rows.append(("verdict", report.verdict.kind.value))
    if report.verdict.exponents is not None:
        rows.append(("exponents", str(report.verdict.exponents)))
    if report.verdict.b is not None:
        rows.append(("b", report.verdict.b))
    if report.verdict.reason:
        rows.append(("reason", report.verdict.reason))
    for note in report.notes:
        rows.append(("note", note))
    for key, value in rows:
        print(f"{key + ':':<15}{value}")
    if witness and report.mdr_result is not None:
        for name, p in zip("abc", report.mdr_result.witness):
            print(f"{'witness ' + name + ':':<15}{format_poly(p)}")


def cmd_analyze(args) -> int:
    if args.poly is not None:
        if args.source is not None:
            print("error: give either a source or --poly, not both", file=sys.stderr)
            return 2
        if args.tau is None:
            print("error: --tau is required with --poly", file=sys.stderr)
            return 2
        tag = {"Q": FieldTag.Q, "Qw": FieldTag.QW, None: None}[args.field]
        f = parse_poly(args.poly, tag)
        if f.degree == 0:
            raise ToolkitError("--poly is zero or a constant, which defines no curve")
        report = analyze_curve(f, tau=args.tau, source="--poly")
        _print_report(report, args.json, args.witness)
        return 0
    if args.source is None:
        print("error: need a source or --poly", file=sys.stderr)
        return 2
    if args.tau is not None:
        print("error: --tau is only for --poly input; arrangements compute it", file=sys.stderr)
        return 2
    a = _load_source(args.source, args.field)
    report = _arrangement_report(a, args.source)
    _print_report(report, args.json, args.witness)
    return 0


def _record_json(rec: cls.CandidateRecord) -> dict:
    return {
        "d": rec.d,
        "t2": rec.t2,
        "t3": rec.t3,
        "r": rec.r,
        "status": rec.status.value,
        "citation": rec.citation,
    }


def _resolve_exclusions(choice: str) -> cls.ExclusionConfig:
    if choice == "default":
        return cls.default_exclusions()
    return cls.load_exclusions(choice)


def cmd_classify(args) -> int:
    if args.dmin > args.dmax or args.dmin < 2:
        print("error: need 2 <= dmin <= dmax", file=sys.stderr)
        return 2
    config = _resolve_exclusions(args.exclusions)
    records = cls.classify_all(args.dmin, args.dmax, config)
    if args.json:
        print(json.dumps([_record_json(r) for r in records], separators=(",", ":")))
        return 0
    print(f"{'d':>3} {'t2':>4} {'t3':>4} {'r':>3}  status")
    for rec in records:
        tail = f"  # {rec.citation}" if rec.citation else ""
        print(f"{rec.d:>3} {rec.t2:>4} {rec.t3:>4} {rec.r:>3}  {rec.status.value}{tail}")
    admissible = sum(1 for r in records if r.status is cls.CandidateStatus.ADMISSIBLE)
    print(f"admissible: {admissible}")
    return 0


def cmd_bounds(args) -> int:
    d = args.d
    if d < 2:
        print("error: need d >= 2", file=sys.stderr)
        return 2
    lower = cls.t3_lower_bound(d)
    upper = cls.schonheim_u3(d)
    window = cls.mdr_window(d)
    consistent = lower <= upper
    if args.json:
        payload = {
            "d": d,
            "t3_lower_bound": lower,
            "schonheim_u3": upper,
            "mdr_window": list(window) if window else None,
            "consistent": consistent,
        }
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    print(f"{'d:':<16}{d}")
    print(f"{'t3 lower bound:':<16}{lower}")
    print(f"{'schonheim U3:':<16}{upper}")
    print(f"{'mdr window:':<16}{f'[{window[0]}, {window[1]}]' if window else 'empty'}")
    print(f"{'verdict:':<16}{'consistent' if consistent else 'contradiction'}")
    return 0


def cmd_deform(args) -> int:
    a = _load_source(args.source, args.field)
    point = [parse_scalar(p) for p in args.point.split(":")]
    if len(point) != 3:
        print("error: --point needs three ':'-separated scalars", file=sys.stderr)
        return 2
    direction = LinearForm.parse(args.dir)
    eps = parse_scalar(args.eps)
    deformed, census_before, census_after = arr.deformation(a, point, args.line, direction, eps)
    report = _arrangement_report(deformed, args.source + " (deformed)", census_after)
    before_report = _arrangement_report(a, args.source, census_before)
    before, after = before_report.combinatorics, report.combinatorics
    tau_before = before_report.tau
    eta_before = before_report.eta_value
    if args.json:
        payload = _report_json(report)
        payload["deform"] = {
            "before_t2": before.t2,
            "before_t3": before.t3,
            "after_t2": after.t2,
            "after_t3": after.t3,
            "tau_before": tau_before,
            "tau_after": report.tau,
            "eta_before": eta_before,
            "eta_after": report.eta_value,
        }
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    print(f"{'before:':<15}{before}  tau={tau_before}  eta={eta_before}")
    print(f"{'after:':<15}{after}  tau={report.tau}  eta={report.eta_value}")
    print(f"{'tau drop:':<15}{tau_before - report.tau}")
    print(f"{'eta preserved:':<15}{'yes' if eta_before == report.eta_value else 'no'}")
    _print_report(report, False, args.witness)
    return 0


def cmd_delete(args) -> int:
    a = _load_source(args.source, args.field)
    smaller = arr.delete_line(a, args.line)
    report = _arrangement_report(smaller, f"{args.source} minus line {args.line}")
    _print_report(report, args.json, args.witness)
    return 0


def cmd_catalog(args) -> int:
    if args.action == "list":
        names = arr.catalog_names()
        if args.json:
            print(json.dumps(names, separators=(",", ":")))
        else:
            for name in names:
                print(name)
        return 0
    name = args.name
    if name is None:
        print("error: catalog show needs a name", file=sys.stderr)
        return 2
    a = arr.catalog(name)
    comb = arr.weak_combinatorics(a)
    if args.json:
        payload = {
            "name": name,
            "field": a.tag.value,
            "d": a.d,
            "t2": comb.t2,
            "t3": comb.t3,
            "lines": [str(form) for form in a.lines],
        }
        print(json.dumps(payload, separators=(",", ":")))
        return 0
    print(f"{'name:':<15}{name}")
    print(f"{'field:':<15}{a.tag.value}")
    print(f"{'combinatorics:':<15}{comb}")
    for k, form in enumerate(a.lines):
        print(f"{k:>3}: {form}")
    return 0


@functools.cache  # parse_args keeps no state, so repeated main() calls share one parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nearfree",
        description="Exact freeness / near-freeness analysis of plane curves "
        "and line arrangements via minimal-degree Jacobian syzygies.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    # only the commands that analyze a curve read --field and --witness
    analysis = argparse.ArgumentParser(add_help=False, parents=[common])
    analysis.add_argument("--field", choices=["Q", "Qw"], help="coefficient field override")
    analysis.add_argument("--witness", action="store_true", help="print the syzygy witness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", parents=[analysis], help="analyze an arrangement or polynomial")
    p.add_argument("source", nargs="?", help="`.lines` file or @catalog:NAME")
    p.add_argument("--poly", help="defining polynomial expression")
    p.add_argument("--tau", type=int, help="total Tjurina number (with --poly only)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", parents=[common], help="sweep candidate combinatorics")
    p.add_argument("--dmin", type=int, default=4)
    p.add_argument("--dmax", type=int, default=12)
    p.add_argument("--exclusions", default="default", help="exclusion file or 'default'")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("bounds", parents=[common], help="triple-point bounds for one d")
    p.add_argument("--d", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("deform", parents=[analysis], help="split a triple point into three nodes")
    p.add_argument("source")
    p.add_argument("--point", required=True, help="triple point as `x:y:z`")
    p.add_argument("--line", type=int, required=True, help="index of the line to move")
    p.add_argument("--dir", required=True, help="direction linear form")
    p.add_argument("--eps", required=True, help="deformation scalar")
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("delete", parents=[analysis], help="remove one line and re-analyze")
    p.add_argument("source")
    p.add_argument("--line", type=int, required=True)
    p.set_defaults(func=cmd_delete)

    p = sub.add_parser("catalog", parents=[common], help="list or show named arrangements")
    p.add_argument("action", choices=["list", "show"])
    p.add_argument("name", nargs="?")
    p.set_defaults(func=cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FieldMismatch as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NonGenericDeformation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ToolkitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
