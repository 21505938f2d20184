"""High-precision numeric layer for the classical (q -> 1) limit series.

Terms are built by exact rational arithmetic (rising factorials, linear
factors, rational payloads) and only converted to arbitrary-precision
floats when accumulated, so Pochhammer quotients never lose cancellation.
A run of terms comes from the spec compiled once into integer linear forms:
each term's rising part is the previous one's times one small integer
quotient, and each term is a reduced (numerator, denominator) int pair made
by big-by-small products, so a limit report takes a number of integer
products linear in its terms and no gcd of two large ints.  The same pass
keeps each term ratio t(n)/t(n-1) as a Fraction of small ints, which the
rate fit reads instead of dividing two large terms.
Closed forms are products of rationals, powers of pi, Gamma at rationals,
and algebraic surds.  mpmath is imported where the numerics start
(BigFloatCtx, eval_series, limit_report), so importing this module does not
load it.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from qseries.qcore import PoleError, q_guard_digits, q_pochhammer_of
from qseries.registry import ClassicalSeries


class DegenerateTerm(ArithmeticError):
    """A series term divides by zero at some index n."""

    def __init__(self, n, what=""):
        super().__init__(f"term denominator vanishes at n={n} {what}".rstrip())
        self.n = n


GUARD_DIGITS = 10


class BigFloatCtx:
    """An isolated arbitrary-precision context (no global precision state).

    It works at digits + GUARD_DIGITS decimal digits.  mpmath is imported
    here, on the first numeric use, not with the module.
    """

    __slots__ = ("digits", "ctx")

    def __init__(self, digits: int = 60):
        if digits < 1:
            raise ValueError(f"need digits >= 1, got digits={digits}")
        import mpmath

        self.digits = digits
        self.ctx = mpmath.ctx_mp.MPContext()
        self.ctx.dps = digits + GUARD_DIGITS

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


def _rising(p: Fraction, m: int):
    """(p)_m (1 for m <= 0) as integers (prod (a + j*b), b^m) for p = a/b."""
    a, b = p.numerator, p.denominator
    num = 1
    for j in range(m):
        num *= a + j * b
    return num, b ** max(m, 0)


def _linear_product(factors, n) -> Fraction:
    acc = Fraction(1)
    for f in factors:
        acc *= (f.c0 + f.c1 * n) ** f.power
    return acc


def _rising_part(spec: ClassicalSeries, n: int) -> Fraction:
    """base^n * prod fnum ((p)_{kn*n+kc})^power / prod fden (...) at n.

    The numerator and denominator accumulate as integers; one Fraction
    reduces them at the end.
    """
    num, den = spec.base.numerator**n, spec.base.denominator**n
    for f in spec.fnum:
        rn, rd = _rising(f.p, f.kn * n + f.kc)
        num, den = num * rn**f.power, den * rd**f.power
    for f in spec.fden:
        rn, rd = _rising(f.p, f.kn * n + f.kc)
        if rn == 0 and f.power:
            raise DegenerateTerm(n, "(rising factorial)")
        num, den = num * rd**f.power, den * rn**f.power
    return Fraction(num, den)


def _payload(spec: ClassicalSeries, n: int) -> Fraction:
    """The linear factors times the poly/polyden quotient or the brace sum at n."""
    acc = Fraction(1)
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


def term_exact(spec: ClassicalSeries, n: int) -> Fraction:
    """Term n as an exact rational: the O(n) single-term reference.

    Every rising factorial is rebuilt from (p)_0 = 1, so one term costs O(n)
    integer products per factor.  _exact_terms builds a run of terms at
    O(1) integer products per term and is tested against this function.
    """
    return _rising_part(spec, n) * _payload(spec, n)


def _cleared(coeffs):
    """Integer numerators of Fraction coefficients over their least common denominator."""
    d = lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in coeffs), d


def _linear_forms(factors):
    """Linear factors as integer forms (u0, u1, power) and the constant they were cleared by.

    prod (c0 + c1*n)^power == prod (u0 + u1*n)^power / const.
    """
    forms, const = [], 1
    for f in factors:
        (u0, u1), d = _cleared((f.c0, f.c1))
        forms.append((u0, u1, f.power))
        const *= d**f.power
    return tuple(forms), const


def _at(forms, n):
    """prod (u0 + u1*n)^power over integer forms (1 for no forms)."""
    v = 1
    for u0, u1, power in forms:
        v *= (u0 + u1 * n) ** power
    return v


def _horner(coeffs, n):
    v = 0
    for c in reversed(coeffs):
        v = v * n + c
    return v


def _compile_payload(spec: ClassicalSeries):
    """_payload as a function of n returning an integer (numerator, denominator).

    Linear factors and poly/polyden are cleared to integer coefficients once,
    and brace terms are summed by integer cross-multiplication.  The
    DegenerateTerm checks come in _payload's order, with its messages.
    """
    lin = poly = None
    braces = []
    if spec.factor_num or spec.factor_den:
        fnum, cnum = _linear_forms(spec.factor_num)
        fden, cden = _linear_forms(spec.factor_den)
        lin = (fnum, cden, fden, cnum)
    if spec.poly:
        pcoeffs, pd = _cleared(spec.poly)
        qcoeffs, qd = _cleared(spec.polyden) if spec.polyden else ((1,), 1)
        poly = (pcoeffs, qd, qcoeffs, pd)
    else:
        for b in spec.braces:
            fnum, cnum = _linear_forms(b.num)
            fden, cden = _linear_forms(b.den)
            braces.append((b.coeff.numerator * cden, b.npow, fnum, b.coeff.denominator * cnum, fden))

    def payload(n):
        num = den = 1
        if lin is not None:
            fnum, cn, fden, cd = lin
            d = _at(fden, n)
            if d == 0:
                raise DegenerateTerm(n, "(factor)")
            num, den = cn * _at(fnum, n), cd * d
        if poly is not None:
            pcoeffs, cn, qcoeffs, cd = poly
            d = _horner(qcoeffs, n)
            if d == 0:
                raise DegenerateTerm(n, "(payload denominator)")
            num, den = num * cn * _horner(pcoeffs, n), den * cd * d
        elif braces:
            bn, bd = 0, 1
            for cn, npow, fnum, cd, fden in braces:
                d = _at(fden, n)
                if d == 0:
                    raise DegenerateTerm(n, "(brace denominator)")
                d *= cd
                bn, bd = bn * d + cn * n**npow * _at(fnum, n) * bd, bd * d
            num, den = num * bn, den * bd
        return num, den

    return payload


def _step_forms(spec: ClassicalSeries, n: int):
    """The rising-factorial part at n over that at n-1, as integer linear forms.

    ((p)_{kn*n+kc})^power gains (p + j)^power for j = j0 + i, 0 <= i < kn,
    j0 = kn*(n-1) + kc, where a j below 0 is clamped away (a count below 0
    reads as 0).  With p = a/b, p + j is (alpha + beta*n) / b with
    alpha = a + b*(kc - kn + i) and beta = b*kn, so once j0 >= 0 the forms
    are the same at every later step.  Returns (cn, upper, cd, lower): the
    step is cn * prod upper / (cd * prod lower), equal forms merged into one
    power, with base and every b^power folded into the integers cn and cd.
    """
    cn, cd = spec.base.numerator, spec.base.denominator
    sides = ({}, {})
    for upper, factors in ((True, spec.fnum), (False, spec.fden)):
        side = sides[upper]
        for f in factors:
            a, b = f.p.numerator, f.p.denominator
            i0 = min(f.kn, max(0, -(f.kn * (n - 1) + f.kc)))
            for i in range(i0, f.kn):
                form = (a + b * (f.kc - f.kn + i), b * f.kn)
                side[form] = side.get(form, 0) + f.power
            if upper:
                cd *= b ** (f.power * (f.kn - i0))
            else:
                cn *= b ** (f.power * (f.kn - i0))
    lower, upper = (tuple((alpha, beta, power) for (alpha, beta), power in side.items()) for side in sides)
    return cn, upper, cd, lower


def _times_small(num, den, sn, sd):
    """The reduced pair num/den * sn/sd, for a reduced pair (den > 0) and small ints sd != 0.

    As Fraction.__mul__: the small factor is reduced by its own gcd, then
    cross-cancelled against the large pair, so no gcd of two large ints is
    taken.  The result's denominator is positive.
    """
    g = gcd(sn, sd)
    if sd < 0:
        g = -g
    sn, sd = sn // g, sd // g
    g1, g2 = gcd(sn, den), gcd(sd, num)
    return (num // g2) * (sn // g1), (den // g1) * (sd // g2)


def _exact_terms(spec: ClassicalSeries, count: int, rated: int | None = None):
    """Terms start .. start+count-1 as reduced int pairs, and their ratios.

    Returns (terms, ratios).  terms[i] is term start+i as a reduced
    (numerator, denominator) pair with a positive denominator; ratios[i] is
    term start+i over term start+i-1 as a Fraction, or None for i = 0 and
    wherever either term is 0.  Only the first `rated` ratios are formed
    (all count of them by default): measure_rate reads no more than 31.

    Each call compiles the spec into integer linear forms: the payload once
    (_compile_payload), and the rising-factorial step once it is fixed
    (_step_forms, taken anew at each step while a count is still clamped at
    0).  Term start takes _rising_part; each later rising part is the one
    before times the step's small integer quotient, and each term is the
    rising part times the payload pair, both as _times_small products, so
    the list costs O(count) integer products where term_exact at each n
    would cost O(count^2) integer products.  A ratio is the step times the
    payload's ratio, all small ints.  The terms, and any DegenerateTerm with
    its n and message, are those of term_exact.  A count that shrinks with n
    (kn < 0, which the catalog grammar cannot write) raises ValueError.
    """
    if any(f.kn < 0 for f in (*spec.fnum, *spec.fden)):
        raise ValueError("a rising-factorial count must not shrink with n (kn < 0)")
    if count <= 0:
        return [], []
    rated = count if rated is None else min(rated, count)
    # from this n on, every kn*(n-1)+kc >= 0 and the step's forms stay fixed
    ready = max((1 - f.kc // f.kn for f in (*spec.fnum, *spec.fden) if f.kn), default=0)
    payload = _compile_payload(spec)
    start = spec.start
    acc = _rising_part(spec, start)
    an, ad = acc.numerator, acc.denominator
    terms, ratios = [], []
    prev = None  # the payload pair of the term before, while that term is nonzero
    for n in range(start, start + count):
        if n > start:
            if n == start + 1 or n <= ready:
                cn, upper, cd, lower = _step_forms(spec, n)
            d = _at(lower, n)
            if d == 0:
                raise DegenerateTerm(n, "(rising factorial)")
            sn, sd = cn * _at(upper, n), cd * d
            an, ad = _times_small(an, ad, sn, sd)
        pn, pd = payload(n)
        tn, td = _times_small(an, ad, pn, pd)
        terms.append((tn, td))
        if len(ratios) < rated:
            ratios.append(Fraction(sn * pn * prev[1], sd * pd * prev[0]) if tn and prev else None)
        prev = (pn, pd) if tn else None
    return terms, ratios


_LIBMP = []   # mpmath.libmp's (MPZ, normalize), bound by the first _int_mpf call


def _int_mpf(n: int, prec: int, rnd):
    """The raw mpf from_int(n, prec, rnd) returns, with the bit count from int.bit_length.

    eval_series calls it for every term, so mpmath's names are imported
    once, on the first call, and kept in _LIBMP rather than imported anew.
    """
    if not _LIBMP:
        from mpmath.libmp import MPZ, normalize

        _LIBMP[:] = MPZ, normalize
    mpz, normalize = _LIBMP
    man = mpz(abs(n))
    return normalize(int(n < 0), man, 0, man.bit_length(), prec, rnd)


def eval_series(spec: ClassicalSeries, terms: int, ctx: BigFloatCtx, *, exact=None):
    """Partial sum of the first `terms` terms plus a geometric tail estimate.

    Returns (value, tail_estimate).  Terms are exact reduced (numerator,
    denominator) int pairs floated one at a time: each is rounded as
    ctx.mpf(Fraction(numerator, denominator)) rounds it and added as an
    mpf += adds it, but on raw mpmath values, with no mpf object per term.
    The numerator is rounded as from_int rounds it (_int_mpf), and the
    denominator enters the division exactly, built directly as the
    trailing-zero-free value from_int(denominator) returns, and a zero term
    is skipped, since adding zero to the rounded total leaves it as it is.
    The tail estimate is |last nonzero kept term| * r/(1-r) with r the
    declared rate.  `exact` may hold the term pairs from spec.start on,
    already computed; only its first `terms` entries are used, and a shorter
    list raises ValueError.
    """
    from mpmath.libmp import fzero, mpf_abs, mpf_add, mpf_div

    if exact is None:
        exact = _exact_terms(spec, terms)[0]
    elif len(exact) < terms:
        raise ValueError(f"exact holds {len(exact)} terms, eval_series needs {terms}")
    c = ctx.ctx
    prec, rnd = c._prec_rounding
    total = (c.mpf(0) + ctx.mpf(spec.prefix))._mpf_
    last = fzero
    for num, den in exact[:terms]:
        if num:
            tz = (den & -den).bit_length() - 1
            ft = mpf_div(_int_mpf(num, prec, rnd), (0, den >> tz, tz, den.bit_length() - tz), prec, rnd)
            total = mpf_add(total, ft, prec, rnd)
            last = ft
    r = abs(ctx.mpf(spec.rate)) if spec.rate != 1 else c.mpf("0.5")
    tail = c.make_mpf(mpf_abs(last)) * r / (1 - r)
    return c.make_mpf(total), tail


def measure_rate(spec: ClassicalSeries, upto: int = 30, *, ratios=None):
    """Successive term ratios and a Richardson-extrapolated limit.

    ratio_n = term(n+1)/term(n) tends to the convergence base like
    B*(1 + alpha/n + beta/n^2 + ...).  One Richardson step
    (n*r_n - (n-1)*r_{n-1}) cancels the 1/n correction; a second step on
    those values cancels 1/n^2, which some catalogued series need to reach
    the declared base within 1% by n = 30.  The ratios are the small
    Fractions _exact_terms keeps, one for each pair of consecutive nonzero
    terms among the first upto + 1; no large term is divided.  `ratios` may
    hold that list from spec.start on, already computed; only its first
    upto + 1 entries are used, and a shorter list raises ValueError.
    """
    if ratios is None:
        ratios = _exact_terms(spec, upto + 1)[1]
    elif len(ratios) < upto + 1:
        raise ValueError(f"ratios holds {len(ratios)} entries, measure_rate needs {upto + 1}")
    ratios = {n: r for n, r in enumerate(ratios[1:upto + 1], spec.start) if r is not None}
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
    """The JSON-ready comparison of the partial sum against the closed form.

    One _exact_terms pass gives the term pairs for the partial sum and the
    ratios for the rate fit, which reads the first min(30, terms - 1) + 1.
    Raises ValueError for terms < 2: the rate fit needs a ratio.
    """
    from mpmath import nstr

    if terms < 2:
        raise ValueError(f"terms must be at least 2, got {terms}")
    upto = min(30, terms - 1)
    exact, step_ratios = _exact_terms(spec, terms, rated=upto + 1)
    value, tail = eval_series(spec, terms, ctx, exact=exact)
    target = eval_closed_form(spec, ctx)
    ratios, fitted = measure_rate(spec, upto, ratios=step_ratios)
    return {
        "id": rec_id,
        "series_value": nstr(value, ctx.digits),
        "closed_form_value": nstr(target, ctx.digits),
        "abs_diff": nstr(abs(value - target), 8),
        "tail_estimate": nstr(tail, 8),
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
    """Direct numeric (x;q)_inf quotient at 0 < q < 1 (sanity bridge).

    prod (q^a;q)_inf over num_exps / prod (q^b;q)_inf over den_exps, each
    product by one qcore.q_pochhammer_of(q), each q^a taken from q as given
    with qcore.q_guard_digits extra digits.  Raises ValueError unless
    0 < q < 1, and PoleError for a nonpositive integer exponent (a factor
    1 - q^0 on either side).
    """
    c = ctx.ctx
    qv = ctx.mpf(q)
    if not 0 < qv < 1:
        raise ValueError("need 0 < q < 1")
    for e in (*num_exps, *den_exps):
        e = Fraction(e)
        if e.denominator == 1 and e <= 0:
            raise PoleError(f"(q^{e};q)_inf has the factor 1 - q^0")
    with c.extradps(q_guard_digits(qv, c)):
        qe = ctx.mpf(q)
        num = [qe ** ctx.mpf(e) for e in num_exps]
        den = [qe ** ctx.mpf(e) for e in den_exps]
    poch = q_pochhammer_of(q, c)
    acc = c.mpf(1)
    for x in num:
        acc *= poch(x)
    for x in den:
        acc /= poch(x)
    return acc
