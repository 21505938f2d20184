"""High-precision numerics: Gamma, classical series, convergence rates."""

from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from qseries.limits import (
    BigFloatCtx,
    DegenerateTerm,
    PoleError,
    balanced_product_limit,
    eval_closed_form,
    eval_series,
    gamma_hp,
    measure_rate,
    q_product_numeric,
    term_exact,
)
from qseries.qcore import q_pochhammer_numeric
from qseries.registry import ClassicalSeries, FactorialFactor, load_catalog

F = Fraction


@pytest.fixture(scope="module")
def ctx():
    return BigFloatCtx(digits=60)


@pytest.fixture(scope="module")
def cat():
    return load_catalog()


def test_gamma_basics(ctx):
    assert abs(gamma_hp(1, ctx) - 1) < ctx.tolerance()
    assert abs(gamma_hp(F(1, 2), ctx) - ctx.ctx.sqrt(ctx.ctx.pi)) < ctx.tolerance()


def test_gamma_reflection(ctx):
    lhs = gamma_hp(F(1, 3), ctx) * gamma_hp(F(2, 3), ctx)
    rhs = 2 * ctx.ctx.pi / ctx.ctx.sqrt(3)
    assert abs(lhs - rhs) < ctx.tolerance()


def test_gamma_pole(ctx):
    with pytest.raises(PoleError):
        gamma_hp(0, ctx)
    with pytest.raises(PoleError):
        gamma_hp(-3, ctx)


def test_precision_stability():
    # doubling precision never changes the first digits
    lo = BigFloatCtx(digits=40)
    hi = BigFloatCtx(digits=80)
    import mpmath

    a = mpmath.nstr(gamma_hp(F(1, 3), lo), 30)
    b = mpmath.nstr(gamma_hp(F(1, 3), hi), 30)
    assert a == b


def zero_series():
    return ClassicalSeries(
        value_factors=(("rat", F(0), 1),), base=F(1, 2), rate=F(1, 2),
        fnum=(), fden=(), poly=(F(0),), polyden=(), braces=(),
        factor_num=(), factor_den=(), start=0, prefix=F(0),
    )


def test_zero_polynomial_gives_zero(ctx):
    val, _ = eval_series(zero_series(), 10, ctx)
    assert val == 0


def test_guillera_value(ctx, cat):
    s = cat.get("g1x5pp").classical
    val, tail = eval_series(s, 40, ctx)
    target = eval_closed_form(s, ctx)
    assert abs(val - target) < ctx.tolerance(40)
    assert abs(val - target) <= tail * 2


def test_v3x1_value(ctx, cat):
    s = cat.get("v3x1").classical
    val, _ = eval_series(s, 40, ctx)
    target = eval_closed_form(s, ctx)
    assert abs(val - target) < ctx.tolerance(40)


def test_every_catalogued_value(ctx, cat):
    for rec in cat.records:
        s = rec.classical
        val, tail = eval_series(s, 40, ctx)
        target = eval_closed_form(s, ctx)
        assert abs(val - target) < ctx.tolerance(40), rec.id


def test_partial_sums_obey_tail_bound(ctx, cat):
    import mpmath

    for rid in ("g1x5pp", "v3x1", "w1+2d"):
        s = cat.get(rid).classical
        rate = abs(ctx.mpf(s.rate if s.rate != 1 else F(1, 2)))
        prev, _ = eval_series(s, 25, ctx)
        for m in (26, 28, 30):
            cur, _ = eval_series(s, m, ctx)
            step = abs(cur - prev)
            assert step <= abs(ctx.mpf(term_exact(s, s.start + 24))) * 2
            prev = cur


def test_degenerate_term_raises(ctx):
    s = ClassicalSeries(
        value_factors=(("rat", F(1), 1),), base=F(1, 2), rate=F(1, 2),
        fnum=(), fden=(FactorialFactor(F(-3), 1, 0, 1),),  # (-3)_n hits zero at n=4
        poly=(), polyden=(), braces=(), factor_num=(), factor_den=(),
        start=0, prefix=F(0),
    )
    with pytest.raises(DegenerateTerm):
        eval_series(s, 10, ctx)


def test_measure_rate_geometric(ctx):
    s = ClassicalSeries(
        value_factors=(("rat", F(2), 1),), base=F(1, 2), rate=F(1, 2),
        fnum=(), fden=(), poly=(F(1),), polyden=(), braces=(),
        factor_num=(), factor_den=(), start=0, prefix=F(0),
    )
    ratios, fitted = measure_rate(s, 20)
    assert fitted == F(1, 2)
    assert all(r == F(1, 2) for r in ratios.values())


def test_rate_groups(cat):
    for rec in cat.records:
        s = rec.classical
        _, fitted = measure_rate(s, 30)
        if s.rate in (F(1, 16), F(-1, 27)):
            assert abs((fitted - s.rate) / s.rate) <= F(1, 100), rec.id


def test_balanced_limit_g1x5pp_display_lists(ctx):
    # the displayed product {1/2,1/2,1/2,5/2 ; 1,1,1,1}:
    # Gamma(1)^4/(Gamma(1/2)^3 Gamma(5/2)) = 4/(3 pi^2)
    num = (F(1, 2), F(1, 2), F(1, 2), F(5, 2))
    den = (F(1), F(1), F(1), F(1))
    val = balanced_product_limit(num, den, ctx)
    expect = 4 / (3 * ctx.ctx.pi**2)
    assert abs(val - expect) < ctx.tolerance()


def test_balanced_limit_rejects_unbalanced(ctx):
    with pytest.raises(ValueError):
        balanced_product_limit((F(1, 2),), (F(1, 3),), ctx)


def test_symbolic_product_matches_numeric(ctx, cat):
    # evaluate a truncated-series left side at t = 1/2 and compare against
    # the direct numeric infinite products at q = (1/2)^12
    from qseries.registry import record_sides

    rec = cat.get("u2-09")
    order = 600
    lhs, _, _ = record_sides(rec, order)
    c = ctx.ctx
    half = c.mpf(1) / 2
    val = c.mpf(0)
    for e, coeff in lhs.terms():
        val += ctx.mpf(Fraction(coeff)) * half**e
    num, den = rec.lhs_exponents()
    direct = q_product_numeric(num, den, Fraction(1, 2) ** 12, ctx)
    # truncation tail: coefficients are bounded well below 2^(e/2) here
    assert abs(val - direct) < c.mpf(2) ** (-order // 3)


def test_q_product_bridge(ctx, cat):
    # the balanced Gamma limit agrees with the q-product near q = 1
    q = 1 - F(1, 10000)
    for rid in ("u2-09", "v3x1a", "w1+2e"):
        num, den = cat.get(rid).lhs_exponents()
        lim = balanced_product_limit(num, den, ctx)
        direct = q_product_numeric(num, den, q, BigFloatCtx(digits=30))
        assert abs(lim - direct) < 0.01 * max(1, abs(lim))


BRUTE = mpmath.ctx_mp.MPContext()
BRUTE.dps = 50


@lru_cache(maxsize=None)
def brute_poch(e, q):
    """(q^e;q)_inf at 50 digits by direct multiplication (reference).

    A non-integer e is reduced to its class representative b = frac(e) - 2,
    an integer e to b = 1, and (q^e;q)_inf = (q^b;q)_inf / prod_{b<=a<e} (1 - q^a);
    (q^b;q)_inf multiplies factors until one is within 10^-55 of 1.
    """
    c = BRUTE
    qv = c.convert(q)
    b = e - (e.numerator // e.denominator) - 2 if e.denominator != 1 else Fraction(1)
    if e == b:
        tiny = c.mpf(10) ** -(c.dps + 5)
        acc, z = c.one, c.power(qv, c.convert(b))
        while abs(z) > tiny:
            acc *= 1 - z
            z *= qv
        return acc
    return brute_poch(e - 1, q) / (1 - c.power(qv, c.convert(e - 1)))


def bridge_pool(cat):
    """Balanced eight-factor left products with no Gamma pole at q = 1."""
    out = []
    for rec in cat.records:
        num, den = rec.lhs_exponents()
        poles = [e for e in num + den if e.denominator == 1 and e <= 0]
        if len(num) + len(den) == 8 and sum(num) == sum(den) and not poles:
            out.append((num, den))
    return out


@pytest.mark.parametrize("q", [F(1, 2), F(9, 10), F(99, 100), F(249, 250)], ids=str)
def test_q_pochhammer_matches_brute_force(cat, q):
    pool = bridge_pool(cat)
    assert len(pool) == 50
    exps = sorted({e for num, den in pool for e in num + den})
    assert min(exps) < 0 and any(e.denominator != 1 for e in exps if e < 0)  # q^e > 1 too
    c = mpmath.ctx_mp.MPContext()
    c.dps = 40
    for e in exps:
        ref = brute_poch(e, q)
        x = BRUTE.power(BRUTE.convert(q), BRUTE.convert(e))
        got = q_pochhammer_numeric(x, q, c)
        assert abs(got - ref) <= c.mpf(10) ** -40 * abs(ref), e
    bf = BigFloatCtx(digits=30)
    for num, den in pool:
        ref = BRUTE.fprod(brute_poch(e, q) for e in num) / BRUTE.fprod(brute_poch(e, q) for e in den)
        got = q_product_numeric(num, den, q, bf)
        assert abs(got - ref) <= bf.tolerance() * abs(ref), (num, den)


def test_q_product_numeric_rejects_q_outside_unit_interval(ctx):
    for q in (F(1), F(3, 2), F(0), F(-1, 2)):
        with pytest.raises(ValueError):
            q_product_numeric((F(1, 2),), (F(1),), q, ctx)


def test_q_product_numeric_pole_on_either_side(ctx):
    # a nonpositive-integer exponent puts the factor 1 - q^0 into the product
    with pytest.raises(PoleError):
        q_product_numeric((F(0), F(1, 2)), (F(1, 2), F(1)), F(1, 2), ctx)
    with pytest.raises(PoleError):
        q_product_numeric((F(1, 2), F(1)), (F(-1), F(5, 2)), F(1, 2), ctx)
