"""The two benchmark workloads as fixed op lists, and their golden outputs.

An op is one call into the engine whose output is compared, after the pass,
with the output recorded from the seed commit (``golden/<workload>.json``).
The seed only permutes op order and picks among records of equal cost, so
two seeds do the same amount of work:

* ``verify``        -- verify_identity on every record at
  ``Sizes.catalog_order``, and at ``Sizes.deep_order`` on one record of
  each left-side shape (plain, dropped (1-q^0) factor, negative valuation).
* ``bisect-limits`` -- the ``bisect`` CLI path for both cases, plus the
  emitted record verified and paired against the unreduced series;
  limit_report on every classical spec, the numeric q -> 1 bridge for three
  balanced records, and one numeric q-Gamma value.

All engine calls go through module attributes so that the tracer in
``spans.py`` sees them.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath

from qseries import bisection, limits, qcore, registry

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
WORKLOADS = ("verify", "bisect-limits")

# Report keys that exist at the seed commit; counters added later are ignored.
REPORT_KEYS = ("id", "status", "first_diff_exp", "lhs_coeff", "rhs_coeff", "terms_used", "order", "cause")
NUMERIC_DIGITS = 25              # numeric outputs must agree to 10^-25, relative


@dataclass(frozen=True)
class Sizes:
    catalog_order: int = 120
    deep_order: int = 400
    bisect_order: int = 200
    limit_terms: int = 40
    limit_digits: int = 60
    bridge_q: Fraction = Fraction(249, 250)
    bridge_digits: int = 30
    qgamma_q: Fraction = Fraction(999, 1000)


FULL = Sizes()
# Tiny orders and term counts for the self-check; bisection has no size knob
# beyond the verification order, so its smoke pass still builds P(y).
SMOKE = Sizes(catalog_order=12, deep_order=36, bisect_order=24, limit_terms=6,
              limit_digits=20, bridge_q=Fraction(1, 2), qgamma_q=Fraction(1, 2))

# Records of each left-side shape whose verification at t^400 costs within
# about 2% of each other, so the seed changes which identity is checked but
# not how long a pass takes.  Costs were measured on the seed commit as the
# median, over four rounds, of each record's time over that of a t^120
# reference verification run just before and after it.  Across all records
# of a shape the costs differ by up to 15%.
DEEP_POOLS = {
    "plain": ("u2-02", "u2-15", "u3-01", "u3-03", "v1x3", "v1x3a", "v2-04", "v3-01", "w1+2e"),
    "dropped": ("g1x5pp", "u2-03", "v3-07", "v3-09", "w1+1+1b"),
    "negval": ("u2-10", "u2-12", "v3-05"),
}
BISECT_CASES = ("v1x3", "v3x1")
BRIDGE_PICKS = 3


@dataclass(frozen=True)
class Op:
    id: str
    run: Callable[[], object]
    numeric: bool = False        # compare to NUMERIC_DIGITS instead of exactly


# ---------------------------------------------------------------- op lists


def _report(rep):
    payload = rep.to_json(include_elapsed=False)
    return {k: payload[k] for k in REPORT_KEYS if k in payload}


def _verify_op(rec, order):
    return Op(f"verify:{rec.id}@t{order}", lambda: _report(registry.verify_identity(rec, order)))


def _bridge_records(cat):
    """Balanced eight-factor left products with no Gamma pole at q = 1.

    The numeric product's length depends on q and the factor count only, so
    every record in the pool costs the same.
    """
    out = []
    for rec in cat.records:
        num, den = rec.lhs_exponents()
        poles = [e for e in num + den if e.denominator == 1 and e <= 0]
        if len(num) + len(den) == 8 and sum(num) == sum(den) and not poles:
            out.append(rec.id)
    return tuple(out)


def _bisect_ops(cat, sizes, cid):
    case = cat.cases[cid]
    state = {}

    def solve():
        sol = state["sol"] = bisection.solve_Q(case)
        return {
            "case": case.id,
            "sign": sol.sign,
            "degree": sol.degree,
            "Q_coefficients": [[[str(c), f"{e}/{case.root}"] for c, e in entry] for entry in (sol.terms or [])],
            "consistent": sol.consistent,
        }

    def residual():
        return {"residual_zero": not bisection.functional_equation_residual(case, state["sol"])}

    def emitted():
        return _report(registry.verify_identity(bisection.emit_reduced(case, state["sol"]), sizes.bisect_order))

    def pairing():
        return bisection.pairing_check(case, state["sol"], sizes.bisect_order)

    order = sizes.bisect_order
    return [
        Op(f"solve_Q:{cid}", solve),
        Op(f"residual:{cid}", residual),
        Op(f"verify_emitted:{cid}@t{order}", emitted),
        Op(f"pairing_check:{cid}@t{order}", pairing),
    ]


def _limit_op(rec, sizes, ctx):
    terms = sizes.limit_terms
    return Op(
        f"limit_report:{rec.id}@{terms}x{sizes.limit_digits}",
        lambda: json.dumps(limits.limit_report(rec.id, rec.classical, terms, ctx)),
    )


def _bridge_op(rec, sizes, ctx):
    num, den = rec.lhs_exponents()

    def run():
        lim = limits.balanced_product_limit(num, den, ctx)
        direct = limits.q_product_numeric(num, den, sizes.bridge_q, ctx)
        return {"limit": mpmath.nstr(lim, 35), "direct": mpmath.nstr(direct, 35)}

    return Op(f"bridge:{rec.id}@q={sizes.bridge_q}", run, numeric=True)


def _qgamma_op(sizes):
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = sizes.bridge_digits
    q = sizes.qgamma_q

    def run():
        return {"value": mpmath.nstr(qcore.q_gamma_numeric(Fraction(1, 2), q, ctx), 35)}

    return Op(f"q_gamma:1/2@q={q}", run, numeric=True)


def build(workload, seed, cat, sizes=FULL, every=False):
    """The op list of one workload for one seed.

    With every=True, the union over all seeds instead (used to record the
    golden outputs): every pool record, in catalog order.
    """
    rng = random.Random(seed)
    if workload == "verify":
        ids = [i for pool in DEEP_POOLS.values() for i in pool] if every else \
            [rng.choice(pool) for pool in DEEP_POOLS.values()]
        units = [[_verify_op(rec, sizes.catalog_order)] for rec in cat.records]
        units += [[_verify_op(cat.get(i), sizes.deep_order)] for i in ids]
    elif workload == "bisect-limits":
        # A bisection case's ops depend on each other, so each case is one
        # unit that keeps its order.
        units = [_bisect_ops(cat, sizes, cid) for cid in BISECT_CASES]
        ctx = limits.BigFloatCtx(digits=sizes.limit_digits)
        bridge_ctx = limits.BigFloatCtx(digits=sizes.bridge_digits)
        pool = _bridge_records(cat)
        picks = pool if every else rng.sample(pool, BRIDGE_PICKS)
        units += [[_limit_op(rec, sizes, ctx)] for rec in cat.records]
        units += [[_bridge_op(cat.get(i), sizes, bridge_ctx)] for i in picks]
        units.append([_qgamma_op(sizes)])
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if not every:
        rng.shuffle(units)
    return [op for unit in units for op in unit]


# ------------------------------------------------------------ golden check


def canonical(output):
    """The JSON value of an op output (tuples become lists)."""
    return json.loads(json.dumps(output))


_CMP = mpmath.ctx_mp.MPContext()
_CMP.dps = 60


def _close(a, b):
    x, y = _CMP.mpf(a), _CMP.mpf(b)
    return abs(x - y) <= _CMP.mpf(10) ** -NUMERIC_DIGITS * abs(y)


def matches(op, output, expected):
    """True when an op's output equals its golden output."""
    if op.numeric:
        return (isinstance(output, dict) and output.keys() == expected.keys()
                and all(_close(output[k], expected[k]) for k in expected))
    return canonical(output) == expected


def failures(ops, outputs, golden):
    """Ids of the ops whose output is missing from golden or differs from it."""
    bad = []
    for op, out in zip(ops, outputs):
        if op.id not in golden or not matches(op, out, golden[op.id]):
            bad.append(op.id)
    return bad


def record(ops):
    """Run each op once and return its canonical output, by op id."""
    return {op.id: canonical(op.run()) for op in ops}


_SOUND = {
    "verify": lambda out: out["status"] == "verified",
    "verify_emitted": lambda out: out["status"] == "verified",
    "solve_Q": lambda out: out["consistent"] is True,
    "residual": lambda out: out["residual_zero"] is True,
    "pairing_check": lambda out: out is True,
}


def unsound(outputs):
    """Ids of outputs that are wrong on their face, golden or not."""
    return [oid for oid, out in outputs.items() if not _SOUND.get(oid.split(":")[0], bool)(out)]


def load_golden(workload):
    """Golden outputs by op id; an op id names its sizes (order, terms, q)."""
    with open(GOLDEN_DIR / f"{workload}.json") as fh:
        return json.load(fh)
