"""High-precision numeric layer for the classical (q -> 1) limit series.

Terms are built by exact rational arithmetic (rising factorials, linear
factors, rational payloads) and only converted to arbitrary-precision
floats when accumulated, so Pochhammer quotients never lose cancellation.
Closed forms are products of rationals, powers of pi, Gamma at rationals,
and algebraic surds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import mpmath

from qseries.qcore import PoleError
from qseries.registry import ClassicalSeries


class DegenerateTerm(ArithmeticError):
    """A series term divides by zero at some index n."""

    def __init__(self, n, what=""):
        super().__init__(f"term denominator vanishes at n={n} {what}".rstrip())
        self.n = n


@dataclass(frozen=True)
class BigFloatCtx:
    """An isolated arbitrary-precision context (no global precision state)."""

    digits: int = 60
    guard: int = 10

    def __post_init__(self):
        ctx = mpmath.ctx_mp.MPContext()
        ctx.dps = self.digits + self.guard
        object.__setattr__(self, "_ctx", ctx)

    @property
    def ctx(self):
        return self._ctx

    def mpf(self, x):
        if isinstance(x, Fraction):
            return self.ctx.mpf(x.numerator) / x.denominator
        return self.ctx.mpf(x)

    def tolerance(self, digits=None):
        return self.ctx.mpf(10) ** -(digits if digits is not None else self.digits)


def gamma_hp(x, ctx: BigFloatCtx):
    """Gamma(x) at a rational argument, to the context precision."""
    x = Fraction(x)
    if x.denominator == 1 and x <= 0:
        raise PoleError(f"Gamma pole at {x}")
    return ctx.ctx.gamma(ctx.mpf(x))


def eval_closed_form(spec: ClassicalSeries, ctx: BigFloatCtx):
    """Numeric value of the rational * pi^k * Gamma(...)^k * surd product."""
    c = ctx.ctx
    acc = c.mpf(1)
    for kind, arg, power in spec.value_factors:
        if kind == "rat":
            acc *= ctx.mpf(arg) ** power
        elif kind == "pi":
            acc *= c.pi**power
        elif kind == "gamma":
            acc *= gamma_hp(arg, ctx) ** power
        elif kind == "root":
            base, idx = arg.numerator, arg.denominator
            acc *= c.root(c.mpf(base), idx) ** power
        else:
            raise ValueError(f"unknown closed-form factor {kind}")
    return acc


def _rising(p: Fraction, m: int) -> Fraction:
    acc = Fraction(1)
    for j in range(m):
        acc *= p + j
    return acc


def _linear_product(factors, n) -> Fraction:
    acc = Fraction(1)
    for f in factors:
        acc *= (f.c0 + f.c1 * n) ** f.power
    return acc


def term_exact(spec: ClassicalSeries, n: int) -> Fraction:
    """Term n as an exact rational."""
    acc = spec.base**n if spec.base != 1 else Fraction(1)
    for f in spec.fnum:
        acc *= _rising(f.p, f.kn * n + f.kc) ** f.power
    for f in spec.fden:
        d = _rising(f.p, f.kn * n + f.kc) ** f.power
        if d == 0:
            raise DegenerateTerm(n, "(rising factorial)")
        acc /= d
    if spec.factor_num or spec.factor_den:
        acc *= _linear_product(spec.factor_num, n)
        d = _linear_product(spec.factor_den, n)
        if d == 0:
            raise DegenerateTerm(n, "(factor)")
        acc /= d
    if spec.poly:
        acc *= sum(cK * n**k for k, cK in enumerate(spec.poly))
        if spec.polyden:
            d = sum(cK * n**k for k, cK in enumerate(spec.polyden))
            if d == 0:
                raise DegenerateTerm(n, "(payload denominator)")
            acc /= d
    elif spec.braces:
        brace = Fraction(0)
        for b in spec.braces:
            num = b.coeff * Fraction(n) ** b.npow * _linear_product(b.num, n)
            den = _linear_product(b.den, n)
            if den == 0:
                raise DegenerateTerm(n, "(brace denominator)")
            brace += num / den
        acc *= brace
    return acc


def eval_series(spec: ClassicalSeries, terms: int, ctx: BigFloatCtx):
    """Partial sum of the first `terms` terms plus a geometric tail estimate.

    Returns (value, tail_estimate).  Terms are exact rationals floated one
    at a time; the tail estimate is |last kept term| * r/(1-r) with r the
    declared rate.
    """
    total = ctx.ctx.mpf(0) + ctx.mpf(spec.prefix)
    last = ctx.ctx.mpf(0)
    for n in range(spec.start, spec.start + terms):
        t = term_exact(spec, n)
        ft = ctx.mpf(t)
        total += ft
        if t != 0:
            last = abs(ft)
    r = abs(ctx.mpf(spec.rate)) if spec.rate != 1 else ctx.ctx.mpf("0.5")
    tail = last * r / (1 - r)
    return total, tail


def measure_rate(spec: ClassicalSeries, upto: int = 30):
    """Successive term ratios and a Richardson-extrapolated limit.

    ratio_n = term(n+1)/term(n) tends to the convergence base like
    B*(1 + alpha/n + beta/n^2 + ...).  One Richardson step
    (n*r_n - (n-1)*r_{n-1}) cancels the 1/n correction; a second step on
    those values cancels 1/n^2, which some catalogued series need to reach
    the declared base within 1% by n = 30.
    """
    ratios = {}
    prev = None
    for n in range(spec.start, spec.start + upto + 1):
        t = term_exact(spec, n)
        if prev not in (None, 0) and t != 0:
            ratios[n - 1] = t / prev
        prev = t
    if not ratios:
        raise DegenerateTerm(spec.start, "(no consecutive nonzero terms)")
    ns = sorted(ratios)
    n_last = ns[-1]
    fitted = ratios[n_last]
    if len(ns) >= 3 and ns[-3] == n_last - 2:
        r1 = {
            m: m * ratios[m] - (m - 1) * ratios[m - 1]
            for m in (n_last, n_last - 1)
        }
        # R1_m = B(1 - beta/(m(m-1))): a second step in 1/(m(m-1)) removes beta
        fitted = Fraction(n_last * r1[n_last] - (n_last - 2) * r1[n_last - 1], 2)
    elif len(ns) >= 2 and ns[-2] == n_last - 1:
        fitted = n_last * ratios[n_last] - (n_last - 1) * ratios[n_last - 1]
    return ratios, fitted


def limit_report(rec_id: str, spec: ClassicalSeries, terms: int, ctx: BigFloatCtx):
    """The JSON-ready comparison of the partial sum against the closed form."""
    value, tail = eval_series(spec, terms, ctx)
    target = eval_closed_form(spec, ctx)
    ratios, fitted = measure_rate(spec, min(30, terms - 1))
    return {
        "id": rec_id,
        "series_value": mpmath.nstr(value, ctx.digits),
        "closed_form_value": mpmath.nstr(target, ctx.digits),
        "abs_diff": mpmath.nstr(abs(value - target), 8),
        "tail_estimate": mpmath.nstr(tail, 8),
        "declared_base": str(spec.rate),
        "fitted_base": str(float(fitted)),
        "terms": terms,
        "digits": ctx.digits,
    }


def balanced_product_limit(num_exps, den_exps, ctx: BigFloatCtx):
    """lim_{q->1} of a balanced q-product via the Gamma quotient.

    Needs sum(num_exps) == sum(den_exps); the limit is
    prod Gamma(den)/prod Gamma(num).
    """
    if sum(num_exps) != sum(den_exps):
        raise ValueError("product is not balanced")
    acc = ctx.ctx.mpf(1)
    for e in den_exps:
        acc *= gamma_hp(e, ctx)
    for e in num_exps:
        acc /= gamma_hp(e, ctx)
    return acc


def q_product_numeric(num_exps, den_exps, q, ctx: BigFloatCtx):
    """Direct numeric (x;q)_inf quotient at 0 < q < 1 (sanity bridge)."""
    c = ctx.ctx
    qv = ctx.mpf(q)
    tiny = c.mpf(10) ** (-(c.dps + 5))

    def infprod(e):
        z = qv**ctx.mpf(e)
        acc = c.mpf(1)
        while abs(z) > tiny:
            acc *= 1 - z
            z *= qv
        return acc

    acc = c.mpf(1)
    for e in num_exps:
        acc *= infprod(e)
    for e in den_exps:
        acc /= infprod(e)
    return acc
