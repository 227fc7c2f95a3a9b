"""Command-line surface: enumeration, classification, parameterization,
splitting, fat points and the conjecture scans.

Every subcommand is deterministic given (argv, seed, p), and the run is read
from argv alone.  Exit codes: 0 success, 1 domain error or stdout closed
before the output ended, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .conjscan import (
    R7_FAMILIES,
    ScanRecord,
    classification7_spotcheck,
    scan_conjecture9,
    search_min_product,
)
from .exactla import MODULUS, check_modulus
from .fatpoints import FatScheme, _betti_alpha
from .lattice import (
    NumType,
    ascenzi_classify,
    enum_exceptional,
    is_ascenzi,
    is_exceptional_class,
    semi_adjoint,
    smooth_rational_numerics_ok,
)
from .param import parameterize, random_points
from .splitting import min_syzygy, splitting_moving_lines, splitting_saturation

DEFAULT_SEED = 1
DEGREE_CAP = 200


def check_degree(k: int) -> int:
    if k > DEGREE_CAP:
        raise ValueError(f"degree {k} exceeds the configured cap {DEGREE_CAP}")
    return k


def _parse_type(text: str) -> NumType:
    try:
        parts = [int(v) for v in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse type {text!r}; expected d,m1,...,mr") from exc
    if len(parts) < 2:
        raise ValueError("a type needs a degree and at least one multiplicity")
    return NumType(parts[0], tuple(parts[1:]))


def _parse_krange(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..", 1)
        ks = list(range(int(lo), int(hi) + 1))
        if not ks:
            raise ValueError(f"degree range {text!r} is empty")
        return ks
    return [int(v) for v in text.split(",")]


def _non_negative(flag: str, value: int) -> int:
    if value < 0:
        raise ValueError(f"{flag} must be non-negative")
    return value


def _emit(obj: dict, args) -> None:
    if args.format == "json":
        print(json.dumps(obj))
    else:
        for key, val in obj.items():
            print(f"{key:>24}  {val}")


def _points_for(T: NumType, args):
    return random_points(max(T.r, 3), args.seed, args.p)


def _cmd_exc_enum(args) -> int:
    if args.dmax is not None:
        check_degree(args.dmax)
    types = sorted(enum_exceptional(args.r, args.dmax), key=lambda t: t.sort_key())
    for T in types:
        print(json.dumps(T.to_json()))
    return 0


def _cmd_classify(args) -> int:
    T = _parse_type(args.type)
    D = T.to_divclass()
    pred = ascenzi_classify(T) if T.d >= 1 else None
    sa = semi_adjoint(D) if is_exceptional_class(D) else None
    _emit(
        {
            "type": T.to_json(),
            "ascenzi": is_ascenzi(T),
            "predicted_split": list(pred) if pred else None,
            "exceptional": is_exceptional_class(D),
            "smooth_rational_numerics": smooth_rational_numerics_ok(D),
            "semi_adjoint": sa.to_json() if sa else None,
        },
        args,
    )
    return 0


def _cmd_param(args) -> int:
    T = _parse_type(args.type)
    check_degree(T.d)
    pts = _points_for(T, args)
    res = parameterize(T, pts, args.seed)
    out = {"type": T.to_json(), "seed": args.seed, "p": args.p, "triple": res.to_json()}
    if args.trace:
        out["trace"] = [s.to_json() for s in res.steps]
    _emit(out, args)
    return 0


def _cmd_split(args) -> int:
    T = _parse_type(args.type)
    check_degree(T.d)
    pts = _points_for(T, args)
    triple = parameterize(T, pts, args.seed)
    ml = splitting_moving_lines(triple)
    sat = splitting_saturation(triple)
    syz = min_syzygy(triple)
    if sat != ml or syz.degree != ml.a:
        raise ValueError(f"splitting methods disagree: {ml} vs {sat} vs syzygy degree {syz.degree}")
    _emit(
        {
            "type": T.to_json(),
            "a": ml.a,
            "b": ml.b,
            "gap": ml.gap,
            "method": "moving-lines = saturation = min-syzygy",
            "sigma": sat.b + triple.degree - 1,
            "syzygy": syz.to_json(),
            "seed": args.seed,
        },
        args,
    )
    return 0


def _cmd_fatpoints(args) -> int:
    mults = tuple(int(v) for v in args.mults.split(","))
    pts = random_points(len(mults), args.seed, args.p)
    Z = FatScheme(pts, mults)
    krange = [check_degree(k) for k in _parse_krange(args.k)]
    reports, alpha = _betti_alpha(Z, krange, alpha=True)
    _emit(
        {
            "mults": list(mults),
            "seed": args.seed,
            "p": args.p,
            "length": Z.length,
            "alpha": alpha,
            "table": [rep.to_json() for rep in reports],
        },
        args,
    )
    return 0


def _cmd_scan(args) -> int:
    check_degree(args.dmax)
    resumed = []
    if args.resume and os.path.exists(args.out):
        with open(args.out) as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
        resumed = [ScanRecord.from_json(obj) for obj in lines if "type" in obj]
    records, summary = scan_conjecture9(args.dmax, args.seed, args.p, certify=args.certify, resumed=resumed)
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        for rec in records:
            print(json.dumps(rec.to_json()), file=out)
        print(json.dumps({"summary": summary}), file=out)
    finally:
        if args.out:
            out.close()
    return 0


def _cmd_search(args) -> int:
    T = _parse_type(args.type)
    check_degree(T.d)
    if args.damax is not None:
        check_degree(_non_negative("--damax", args.damax))
    D = T.to_divclass()
    pts = _points_for(T, args)
    res = search_min_product(D, pts, args.damax, compare_seed=args.seed if args.compare else None)
    _emit(
        {
            "type": T.to_json(),
            "damax": args.damax,
            "seed": args.seed,
            "result": res.to_json() if res else None,
        },
        args,
    )
    return 0


def _cmd_list7(args) -> int:
    top = _non_negative("--dmax-param", args.dmax_param)
    # a member's degree is affine in its parameter: the largest is at 0 or at the top
    check_degree(max(fam.member(d).d for fam in R7_FAMILIES for d in ((0, top) if fam.step else (0,))))
    rows = []
    nbad = 0
    for fam in R7_FAMILIES:
        for row in classification7_spotcheck(fam, range(top + 1), args.seed, args.p):
            rows.append(row.to_json())
            nbad += 0 if row.ok else 1
    for row in rows:
        print(json.dumps(row))
    print(json.dumps({"summary": {"rows": len(rows), "mismatches": nbad}}))
    return 0 if nbad == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvesplit",
        description="Splitting types of rational plane curves over a large prime field.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=int, default=MODULUS, help="prime modulus (default 2^31-1)")
    common.add_argument("--seed", type=int, default=DEFAULT_SEED, help="global seed (default 1)")
    common.add_argument("--format", choices=("json", "table"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_parser(name: str, **kwargs):
        return sub.add_parser(name, parents=[common], **kwargs)

    s = add_parser("exc-enum", help="enumerate exceptional numerical types")
    s.add_argument("--r", type=int, required=True)
    s.add_argument("--dmax", type=int, default=None)
    s.set_defaults(func=_cmd_exc_enum)

    s = add_parser("classify", help="lattice-level classification of one type")
    s.add_argument("--type", required=True, help="comma list d,m1,...,mr")
    s.set_defaults(func=_cmd_classify)

    s = add_parser("param", help="parameterize a curve of the given type")
    s.add_argument("--type", required=True)
    s.add_argument("--trace", action="store_true", help="emit the Cremona step trace")
    s.set_defaults(func=_cmd_param)

    s = add_parser("split", help="compute the splitting type three ways")
    s.add_argument("--type", required=True)
    s.set_defaults(func=_cmd_split)

    s = add_parser("fatpoints", help="fat-point ideal dimensions and mu ranks")
    s.add_argument("--mults", required=True, help="comma list m1,...,mr")
    s.add_argument("--k", required=True, help="degree or range, e.g. 5..7")
    s.set_defaults(func=_cmd_fatpoints)

    s = add_parser("scan-conj9", help="scan all r=9 exceptional types up to a degree cap")
    s.add_argument("--dmax", type=int, required=True)
    s.add_argument("--out", default=None, help="write JSON lines here instead of stdout")
    s.add_argument("--resume", action="store_true", help="skip types already present in --out")
    s.add_argument("--certify", action="store_true", help="also compute h1/le of each semi-adjoint")
    s.set_defaults(func=_cmd_scan)

    s = add_parser("search-conjR", help="minimize A.E over certified divisors A")
    s.add_argument("--type", required=True)
    s.add_argument("--damax", type=int, default=None)
    s.add_argument("--compare", action="store_true", help="also compute a_E for comparison")
    s.set_defaults(func=_cmd_search)

    s = add_parser("list7-check", help="spot-check the r<=7 classification table")
    s.add_argument("--dmax-param", type=int, default=2)
    s.set_defaults(func=_cmd_list7)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "resume", False) and not args.out:
        parser.error("--resume needs --out: it skips the types already present there")
    try:
        check_modulus(args.p)
        if args.p <= DEGREE_CAP:
            raise ValueError(f"modulus {args.p} must exceed the degree cap {DEGREE_CAP}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout now goes nowhere, so the interpreter's final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
