"""Batch command-line front end.

Exit codes: 0 success, 1 validation/mathematical error, 2 usage error.
All output is deterministic; repeated invocations are byte-identical.

Each run is a fresh process, so start-up is much of a job's time: each handler
imports only the layers it runs, and `bound` loads no `hermitian`, `codes`,
`linalg` or `models`.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import NordError


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of integers: {text}")


def _parse_range(text: str) -> range:
    if ".." in text:
        lo, hi = text.split("..")
        rng = range(int(lo), int(hi) + 1)
    else:
        v = int(text)
        rng = range(v, v + 1)
    if not rng:  # len() overflows past sys.maxsize
        raise argparse.ArgumentTypeError(f"empty range: {text}")
    return rng


def _emit(args, text: str):
    """text to the --csv or --out path, whichever is given, else stdout."""
    path = getattr(args, "csv", None)
    if path is None:
        path = getattr(args, "out", None)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


# -- subcommand handlers ----------------------------------------------------


def _cmd_semigroup(args) -> int:
    from . import semigroup

    if args.generators:
        out = semigroup.ns_from_generators(args.generators).to_json()
    elif args.curve_q is not None:
        from .hermitian import HermitianCurve
        out = HermitianCurve(args.curve_q).two_point_semigroup().to_json()
    else:
        out = semigroup.semigroup_from_json(_read(args.from_file)).to_json()
    _emit(args, json.dumps(out, sort_keys=True) + "\n")
    return 0


def _cmd_profile(args) -> int:
    from . import semigroup

    if args.curve_q is not None:
        from .hermitian import HermitianCurve
        prof = HermitianCurve(args.curve_q).profile_closed_form()
    elif args.hyperelliptic_gamma is not None:
        prof = semigroup.hyperelliptic_profile(args.hyperelliptic_gamma)
    else:
        prof = semigroup.TwoPointSemigroup.from_json(_read(args.semigroup)).profile()
    _emit(args, json.dumps(prof.to_json(), sort_keys=True) + "\n")
    return 0


def _cmd_bound(args) -> int:
    from . import bounds
    from .semigroup import GoodBasisProfile

    prof = GoodBasisProfile.from_json(_read(args.profile))
    if args.table:
        ell_range = args.ell_range or range(args.ell, args.ell + 1)
        m_range = args.m_range or range(args.m, args.m + 1)
        _emit(args, bounds.bound_table_csv(bounds.bound_table(prof, ell_range, m_range)))
        return 0
    dn = bounds.d_nord(prof, args.ell, args.m)
    dg = bounds.d_goppa(args.ell, args.m, prof.genus)
    line = f"d_nord={dn} d_goppa={dg} delta={dn - dg}\n"
    if args.diagnose:
        diag = bounds.lemma62_diagnostic(prof, args.ell, args.m)
        line += (
            f"lemma62={diag['verdict']} direct={diag['direct']} "
            f"formula={diag['formula']}\n"
        )
    _emit(args, line)
    return 0


def _cmd_curve(args) -> int:
    from .hermitian import HermitianCurve

    curve = HermitianCurve(args.q)
    if args.action == "info":
        prof = curve.profile_closed_form()
        lines = [
            f"q={curve.q}",
            f"field=GF({curve.field.q})",
            f"genus={curve.genus}",
            f"affine_points={len(curve.points)}",
            f"profile={prof.dumps()}",
        ]
        _emit(args, "\n".join(lines) + "\n")
    else:  # points
        lines = [f"{x} {y}" for x, y in curve.points]
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _cmd_code(args) -> int:
    from . import codes
    from .hermitian import HermitianCurve

    curve = HermitianCurve(args.q)
    if args.action == "build":
        _emit(args, codes.code_to_json(curve, args.ell, args.m) + "\n")
    elif args.action == "distance":
        code = codes.build_C(curve, args.ell, args.m)
        d = code.min_distance_bruteforce()
        _emit(args, json.dumps({"n": code.n, "k": code.k, "d": d}, sort_keys=True) + "\n")
    else:  # verify
        report = codes.verify(curve, args.ell, args.m)
        _emit(args, json.dumps(report, sort_keys=True) + "\n")
        return 0 if report["verdict"] == "PASS" else 1
    return 0


def _cmd_axioms(args) -> int:
    from . import models
    from .field import make_field

    if args.model == "constant":
        model = models.ConstantModel(make_field(args.p, args.k), args.c)
    elif args.model == "ideal":
        model = models.IdealModel(make_field(args.p, args.k), [0, 0, 1])  # g = t^2
    elif args.model == "laurent":
        model = models.LaurentModel(make_field(args.p, args.k))
    else:  # curve-rho or curve-sigma, over the curve's own field; --p and --k unread
        from .hermitian import HermitianCurve
        curve = HermitianCurve(args.q)
        model = models.CurveValuationModel(curve, args.model.split("-")[1])
    report = models.axiom_check(model, args.bound)
    _emit(args, report.dumps() + "\n")
    return 0


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="nordcodes")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("semigroup", help="emit a semigroup gap set as JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--generators", type=_parse_int_list, help="comma-separated generators")
    src.add_argument("--curve-q", type=int, help="two-point semigroup of the Hermitian curve")
    src.add_argument("--from-file", help="re-validate a semigroup JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_semigroup)

    p = sub.add_parser("profile", help="emit a good-basis profile as JSON")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--curve-q", type=int)
    src.add_argument("--hyperelliptic-gamma", type=int)
    src.add_argument("--semigroup", help="two-point semigroup JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("bound", help="evaluate the n-order and Goppa bounds")
    p.add_argument("--profile", required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--table", action="store_true")
    mode.add_argument("--diagnose", action="store_true")
    p.add_argument("--ell-range", type=_parse_range)
    p.add_argument("--m-range", type=_parse_range)
    dest = p.add_mutually_exclusive_group()
    dest.add_argument("--csv", help="write the table to this CSV file")
    dest.add_argument("--out")
    p.set_defaults(func=_cmd_bound, parser=p)

    p = sub.add_parser("curve", help="curve info and point tables")
    p.add_argument("action", choices=["info", "points"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_curve)

    p = sub.add_parser("code", help="build and verify two-point codes")
    p.add_argument("action", choices=["build", "distance", "verify"])
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_code)

    p = sub.add_parser("axioms", help="run the axiom checker on a model")
    p.add_argument("--model", required=True,
                   choices=["constant", "ideal", "laurent", "curve-rho", "curve-sigma"])
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, default=2, help="curve size for curve models")
    p.add_argument("--c", type=int, default=0, help="constant value for the constant model")
    p.add_argument("--bound", type=int, default=3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_axioms)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # bound's table-only options would be ignored without --table
        loose = [f for f in ("ell_range", "m_range", "csv") if getattr(args, f, None) is not None]
        if loose and not args.table:
            args.parser.error(f"--{loose[0].replace('_', '-')} needs --table")
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except NordError as exc:
        print(f"error {exc.name}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # a missing, unreadable or directory path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
