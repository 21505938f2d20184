"""Command-line front end: verification, limits, bisection, oracles.

Exit codes: 0 success (verify requires status=verified), 1 evaluation
failure or unverified result, 2 usage errors (unknown id, bad flags).
JSON payloads are deterministic: fixed key order, no timing inside; elapsed
times go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction

from qseries import __version__
from qseries.limits import BigFloatCtx, limit_report
from qseries.registry import Catalog, load_catalog, summary_table, verify_all, verify_identity


def _load(args) -> Catalog:
    path = args.catalog or os.environ.get("QSERIES_CATALOG")
    return load_catalog(path)


def _emit(payload, as_json):
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=False))
    return payload


def cmd_list(args):
    cat = _load(args)
    rows = []
    for r in cat.records:
        if args.section and not r.section.startswith(args.section):
            continue
        rows.append(
            {
                "id": r.id,
                "kind": r.kind,
                "theorem": r.theorem or (f"bisected[{r.case}]" if r.kind == "bisected" else "explicit"),
                "section": r.section,
                "root": r.root,
                "classical": r.classical is not None,
            }
        )
    if args.json:
        _emit(rows, True)
    else:
        width = max((len(r["id"]) for r in rows), default=0)
        for r in rows:
            flag = "classical" if r["classical"] else ""
            print(f'{r["id"]:<{width}}  {r["theorem"]:<14} sec {r["section"]:<4} L={r["root"]}  {flag}')
        print(f"{len(rows)} records")
    return 0


def cmd_verify(args):
    cat = _load(args)
    try:
        rec = cat.get(args.id)
    except KeyError:
        print(f"unknown record id {args.id!r}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    rep = verify_identity(rec, args.order)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if args.json:
        _emit(rep.to_json(include_elapsed=False), True)
    else:
        print(summary_table([rep]))
    if rep.status == "verified":
        return 0
    return 1


def cmd_verify_all(args):
    cat = _load(args)
    records = cat.records
    if args.section:
        records = [r for r in records if r.section.startswith(args.section)]
        cat = Catalog(cat.root, records, cat.cases)
    t0 = time.perf_counter()
    reports = verify_all(cat, args.order, parallel=args.parallel)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if args.json:
        _emit([r.to_json(include_elapsed=False) for r in reports], True)
    else:
        print(summary_table(reports))
    return 0 if all(r.status == "verified" for r in reports) else 1


def cmd_limit(args):
    cat = _load(args)
    try:
        rec = cat.get(args.id)
    except KeyError:
        print(f"unknown record id {args.id!r}", file=sys.stderr)
        return 2
    if rec.classical is None:
        print(f"record {args.id} has no classical limit", file=sys.stderr)
        return 2
    ctx = BigFloatCtx(digits=args.digits)
    t0 = time.perf_counter()
    rep = limit_report(rec.id, rec.classical, args.terms, ctx)
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    if args.json:
        _emit(rep, True)
    else:
        for k, v in rep.items():
            print(f"{k:>18}: {v}")
    return 0


def cmd_bisect(args):
    from qseries.bisection import (
        AmbiguousSign,
        NoBisection,
        VanishingDiagonal,
        degree_search,
        functional_equation_residual,
        solve_Q,
    )

    cat = _load(args)
    case = cat.cases.get(args.case)
    if case is None:
        print(f"unknown bisection case {args.case!r}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    try:
        if args.max_deg is not None:
            deg, sol = degree_search(case, args.max_deg)
        else:
            sol = solve_Q(case)
    except (NoBisection, AmbiguousSign, VanishingDiagonal) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"elapsed {time.perf_counter() - t0:.2f}s", file=sys.stderr)
    residual_zero = not functional_equation_residual(case, sol)
    payload = {
        "case": case.id,
        "sign": sol.sign,
        "degree": sol.degree,
        "Q_coefficients": [
            [[str(c), f"{e}/{case.root}"] for c, e in entry] for entry in (sol.terms or [])
        ],
        "consistent": sol.consistent,
        "residual_zero": residual_zero,
    }
    if args.json:
        _emit(payload, True)
    else:
        print(f"case {case.id}: sign {sol.sign}, degree {sol.degree}, "
              f"consistent={sol.consistent}, residual_zero={residual_zero}")
        for i, entry in enumerate(sol.terms or []):
            pretty = " + ".join(f"{c}*q^({e}/{case.root})" for c, e in entry) or "0"
            print(f"  a_{i} = {pretty}")
    if sol.sign != case.sign:
        print(f"case {case.id}: solved sign {sol.sign} contradicts the declared sign {case.sign}",
              file=sys.stderr)
    return 0 if sol.consistent and residual_zero and sol.sign == case.sign else 1


def cmd_oracle(args):
    from qseries.inversion import jackson_lhs, jackson_rhs, params_from_exponents
    from qseries.qcore import RationalRing

    r = Fraction(args.r)
    ring = RationalRing(r)
    p = params_from_exponents(
        Fraction(args.a), Fraction(args.b), Fraction(args.c), Fraction(args.d)
    )
    lhs = jackson_lhs(ring, p, args.n)
    rhs = jackson_rhs(ring, p, args.n)
    payload = {
        "oracle": "jackson",
        "n": args.n,
        "r": str(r),
        "params": [args.a, args.b, args.c, args.d],
        "lhs": str(lhs),
        "rhs": str(rhs),
        "equal": lhs == rhs,
    }
    if args.json:
        _emit(payload, True)
    else:
        print(f"Omega_{args.n} at q = ({r})^12, a=q^{args.a}, b=q^{args.b}, "
              f"c=q^{args.c}, d=q^{args.d}")
        print(f"  lhs = {lhs}")
        print(f"  rhs = {rhs}")
        print(f"  equal: {lhs == rhs}")
    return 0 if lhs == rhs else 1


def _int_at_least(low):
    """An argparse type: an integer >= low, else a usage error (exit code 2)."""

    def parse(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def build_parser():
    ap = argparse.ArgumentParser(
        prog="qseries",
        description="Exact verification of Jackson-dual q-series identities and their pi-limits",
    )
    ap.add_argument("--version", action="version", version=f"qseries {__version__}")
    ap.add_argument("--catalog", help="catalog file (default: bundled; env QSERIES_CATALOG)")
    ap.add_argument("--json", action="store_true", help="machine-readable output on stdout")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalogued identities")
    p.add_argument("--section", help="restrict to a section prefix, e.g. 3 or 4.1")
    p.set_defaults(fn=cmd_list)

    p = sub.add_parser("verify", help="verify one identity as truncated series")
    p.add_argument("id")
    p.add_argument("--order", type=_int_at_least(1), default=200, help="truncation order in t (default 200)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("verify-all", help="verify every catalogued identity")
    p.add_argument("--order", type=_int_at_least(1), default=200)
    p.add_argument("--section", help="restrict to a section prefix")
    p.add_argument("--parallel", action="store_true", help="verify records in parallel")
    p.set_defaults(fn=cmd_verify_all)

    p = sub.add_parser("limit", help="evaluate the classical limit numerically")
    p.add_argument("id")
    p.add_argument("--terms", type=_int_at_least(2), default=40)
    p.add_argument("--digits", type=_int_at_least(1), default=60)
    p.set_defaults(fn=cmd_limit)

    p = sub.add_parser("bisect", help="run the reverse bisection solver on a case")
    p.add_argument("case")
    p.add_argument("--max-deg", type=_int_at_least(0), default=None, help="search degrees 0..K")
    p.set_defaults(fn=cmd_bisect)

    p = sub.add_parser("oracle", help="exact-rational oracle checks")
    p.add_argument("kind", choices=["jackson"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--r", default="2/3", help="t = q^(1/12) as a rational, e.g. 2/3")
    p.add_argument("--a", default="3/2")
    p.add_argument("--b", default="1")
    p.add_argument("--c", default="1")
    p.add_argument("--d", default="1")
    p.set_defaults(fn=cmd_oracle)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except Exception as exc:  # structured failure surface for CI embedding
        if getattr(args, "json", False):
            print(json.dumps({"error": type(exc).__name__, "message": str(exc)}))
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
