"""High-precision numerics: Gamma, classical series, convergence rates."""

import dataclasses
import json
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qseries import limits
from qseries.limits import (
    BigFloatCtx,
    DegenerateTerm,
    PoleError,
    _exact_terms,
    _int_mpf,
    balanced_product_limit,
    eval_closed_form,
    eval_series,
    gamma_hp,
    limit_report,
    measure_rate,
    q_product_numeric,
    term_exact,
)
from qpoch_reference import q_pochhammer_reference
from qseries.qcore import q_guard_digits, q_pochhammer_numeric
from qseries.registry import BraceRational, ClassicalSeries, FactorialFactor, LinearFactor, load_catalog

F = Fraction
DATA = Path(__file__).parent / "data"


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


@pytest.mark.parametrize("q", [F(1, 2), F(9, 10), F(99, 100), F(249, 250), F(999, 1000),
                               1 - F(1, 10**5), 1 - F(1, 10**8)], ids=str)
def test_q_pochhammer_matches_mpf_reference(cat, q):
    # the fixed-point path against the mpf-object path it replaced, each
    # q^e taken as q_product_numeric takes it, and an x small enough for the
    # head to stop early: within one unit in the last place of the working
    # precision
    exps = sorted({e for num, den in bridge_pool(cat) for e in num + den})
    for dps in (30, 40, 60, 100):
        c = mpmath.ctx_mp.MPContext()
        c.dps = dps
        qv = c.convert(q)
        with c.extradps(q_guard_digits(qv, c)):
            xs = [c.power(c.convert(q), c.convert(e)) for e in exps]
        for e, x in [*zip(exps, xs), ("tiny", c.mpf(10) ** -(dps + 6))]:
            got, want = q_pochhammer_numeric(x, q, c), q_pochhammer_reference(x, q, c)
            assert abs(got - want) <= c.ldexp(1, c.mag(want) - c.prec), (dps, e)


def _eval_series_mpf(spec, exact, ctx):
    """eval_series as an mpf-object loop: one mpf per term, added with +=."""
    total = ctx.ctx.mpf(0) + ctx.mpf(spec.prefix)
    last = ctx.ctx.mpf(0)
    for t in exact:
        ft = ctx.mpf(t)
        total += ft
        if t != 0:
            last = abs(ft)
    r = abs(ctx.mpf(spec.rate)) if spec.rate != 1 else ctx.ctx.mpf("0.5")
    return total, last * r / (1 - r)


_big_fraction = st.builds(F, st.integers(-(10**300), 10**300), st.integers(1, 10**300))


@settings(max_examples=60, deadline=None)
@given(
    terms=st.lists(_big_fraction | st.just(F(0)), min_size=1, max_size=30),
    prefix=_big_fraction,
    rate=st.just(F(1)) | st.fractions(min_value=F(-99, 100), max_value=F(99, 100)).filter(bool),
    digits=st.integers(1, 80),
)
def test_eval_series_equals_mpf_object_loop(terms, prefix, rate, digits):
    spec = dataclasses.replace(zero_series(), prefix=prefix, rate=rate)
    bf = BigFloatCtx(digits=digits)
    got = eval_series(spec, len(terms), bf, exact=pairs(terms))
    want = _eval_series_mpf(spec, terms, bf)
    assert [v._mpf_ for v in got] == [v._mpf_ for v in want]


_mpf_ints = (
    st.integers(-1023, 1023)                                   # the small-mantissa table range
    | st.integers(0, 1400).map(lambda k: 1 << k)               # powers of two
    | st.integers(1, 1400).map(lambda k: (1 << k) - 1)         # all ones: rounding up carries
    | st.integers(-(1 << 1400), 1 << 1400)
)


@settings(max_examples=400, deadline=None)
@given(n=_mpf_ints, negate=st.booleans(), prec=st.integers(10, 400), rnd=st.sampled_from("nfcdu"))
@example(n=(1 << 64) - 1, negate=False, prec=10, rnd="n")
@example(n=(1 << 11) + 1, negate=True, prec=10, rnd="u")
@example(n=0, negate=False, prec=10, rnd="n")
def test_int_mpf_equals_from_int(n, negate, prec, rnd):
    n = -n if negate else n
    assert _int_mpf(n, prec, rnd) == mpmath.libmp.from_int(n, prec, rnd)


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


def reference_terms(spec, count):
    return [term_exact(spec, n) for n in range(spec.start, spec.start + count)]


def pairs(fractions):
    """(numerator, denominator) of each Fraction: reduced, with a positive denominator."""
    return [(f.numerator, f.denominator) for f in fractions]


def reference_ratios(terms):
    """terms[i] / terms[i-1] where both are nonzero, else None (always None at i = 0)."""
    return [None][:len(terms)] + [b / a if a and b else None for a, b in zip(terms, terms[1:])]


def reference_exact(spec, count, rated=None):
    """_exact_terms from term_exact: the term pairs and their first `rated` ratios (all by default)."""
    terms = reference_terms(spec, count)
    return pairs(terms), reference_ratios(terms)[:rated]


def reference_rate_ratios(spec, terms):
    """measure_rate's ratio dict by dividing term_exact values: n -> t(n+1)/t(n)."""
    return {n: r for n, r in enumerate(reference_ratios(terms)[1:], spec.start) if r is not None}


def test_exact_terms_match_term_exact_on_catalog(cat):
    for rec in cat.records:
        s = rec.classical
        assert _exact_terms(s, 100)[0] == pairs(reference_terms(s, 100)), rec.id


def test_rate_ratios_match_term_exact_on_catalog(cat):
    for rec in cat.records:
        s = rec.classical
        ref = reference_terms(s, 100)
        for count in (40, 100):
            want = reference_rate_ratios(s, ref[:count])
            assert measure_rate(s, count - 1)[0] == want, (rec.id, count)
            assert _exact_terms(s, count)[1] == reference_ratios(ref[:count]), (rec.id, count)


def series(fnum=(), fden=(), base=F(1, 2), start=0, **payload):
    fields = dict(poly=(), polyden=(), braces=(), factor_num=(), factor_den=())
    fields.update(payload)
    return ClassicalSeries(
        value_factors=(("rat", F(1), 1),), base=base, rate=base, fnum=fnum, fden=fden,
        start=start, prefix=F(0), **fields,
    )


FF, LF = FactorialFactor, LinearFactor
SYNTHETIC = {
    "count n-1": series((FF(F(1, 2), 1, -1, 1),), (FF(F(1), 1, -1, 1),)),
    "count 2n-3": series((FF(F(1, 3), 2, -3, 1),), (FF(F(5, 4), 1, 0, 2),)),
    "constant count": series((FF(F(1, 3), 0, 4, 2), FF(F(1, 2), 1, 0, 1)), (FF(F(1), 1, 0, 1),)),
    "kn 3 and 2": series((FF(F(1, 4), 3, 1, 1),), (FF(F(2, 3), 2, 0, 1), FF(F(1), 1, 1, 1)),
                         base=F(-1, 27)),
    "power 3": series((FF(F(1, 2), 1, 0, 3),), (FF(F(1), 1, 0, 3),), base=F(1, 64)),
    "base 1": series((FF(F(1, 2), 1, 0, 2),), (FF(F(3, 2), 1, 0, 2),), base=F(1)),
    "start 1": series((FF(F(1, 2), 1, 0, 1),), (FF(F(1), 1, 0, 1),), start=1,
                      poly=(F(1), F(3)), polyden=(F(2), F(1))),
    "numerator zero": series((FF(F(-3), 1, 0, 1),), (FF(F(1, 2), 1, 0, 1),), poly=(F(1), F(1))),
    "numerator p = 0": series((FF(F(0), 2, 0, 1),), (), start=1),
    "denominator zero to power 0": series((FF(F(1, 2), 1, 0, 1),), (FF(F(-3), 1, 0, 0), FF(F(1), 1, 0, 1))),
    "payload": series(
        (FF(F(1, 2), 1, 0, 2),), (FF(F(1), 1, 0, 2),), factor_num=(LF(F(3), F(8)),),
        factor_den=(LF(F(1), F(3), 2),),
        braces=(BraceRational(F(1), 0, (), ()), BraceRational(F(16), 1, (LF(F(1), F(3), 3),),
                                                               (LF(F(1), F(4), 3),))),
    ),
}


@pytest.mark.parametrize("name", SYNTHETIC)
def test_exact_terms_match_term_exact_synthetic(name):
    s = SYNTHETIC[name]
    assert _exact_terms(s, 40) == reference_exact(s, 40)
    assert _exact_terms(s, 1) == reference_exact(s, 1)
    assert _exact_terms(s, 0) == ([], [])


def test_exact_terms_rejects_shrinking_count():
    # a count kn*n + kc with kn < 0 divides factors out again; the catalog
    # grammar cannot write one, and only term_exact evaluates it
    s = series((FF(F(1, 2), -1, 5, 1),), (FF(F(1), 1, 0, 1),))
    assert term_exact(s, 3) == F(1, 8) * F(1, 2) * F(3, 2) / 6
    with pytest.raises(ValueError, match="kn < 0"):
        _exact_terms(s, 10)
    with pytest.raises(ValueError, match="kn < 0"):
        measure_rate(s, 5)


ZERO_TERMS = {
    # (-2)_n is 0 from n = 3 on: every later term is 0
    "rising part reaches 0": (series((FF(F(-2), 1, 0, 1),), (FF(F(1, 2), 1, 0, 1),)), {0, 1}),
    # the payload factor n - 3 is 0 at n = 3 only: no ratio across that term
    "payload factor vanishes": (series((FF(F(1, 2), 1, 0, 1),), (FF(F(1), 1, 0, 1),),
                                       factor_num=(LF(F(-3), F(1)),)), {0, 1, 4, 5, 6, 7, 8}),
}


@pytest.mark.parametrize("name", ZERO_TERMS)
def test_rate_ratios_skip_zero_terms(name):
    s, keys = ZERO_TERMS[name]
    ref = reference_terms(s, 10)
    ratios, _ = measure_rate(s, 9)
    assert set(ratios) == keys
    assert ratios == reference_rate_ratios(s, ref)
    assert _exact_terms(s, 10) == (pairs(ref), reference_ratios(ref))


DEGENERATE = {
    "rising factorial": series((), (FF(F(-3), 1, 0, 1),)),
    "rising factorial at start": series((), (FF(F(0), 1, 1, 1),)),
    "rising factorial count 2n-1": series((), (FF(F(-4), 2, -1, 2),)),
    "rising factorial past a zero numerator": series((FF(F(-2), 1, 0, 1),), (FF(F(-4), 1, 0, 1),)),
    "factor": series((FF(F(1, 2), 1, 0, 1),), (), factor_den=(LF(F(-5), F(1)),)),
    "payload": series((FF(F(1, 2), 1, 0, 1),), (), poly=(F(1),), polyden=(F(-6), F(1))),
    "brace": series((FF(F(1, 2), 1, 0, 1),), (), braces=(BraceRational(F(1), 0, (), (LF(F(-7), F(1)),)),)),
}


@pytest.mark.parametrize("name", DEGENERATE)
def test_exact_terms_degenerate_like_term_exact(name):
    s = DEGENERATE[name]
    for n in range(s.start, s.start + 20):
        try:
            term_exact(s, n)
        except DegenerateTerm as exc:
            expected = exc
            break
    else:
        pytest.fail("term_exact never raised")
    assert _exact_terms(s, expected.n - s.start) == reference_exact(s, expected.n - s.start)
    with pytest.raises(DegenerateTerm) as got:
        _exact_terms(s, 20)
    assert (got.value.n, str(got.value)) == (expected.n, str(expected))


small = st.fractions(min_value=-4, max_value=4, max_denominator=6)
rising_p = st.one_of(
    st.fractions(min_value=F(1, 6), max_value=4, max_denominator=6),
    st.fractions(min_value=-4, max_value=F(-1, 6), max_denominator=6),
    st.integers(-5, 0).map(F),
)
ffactors = st.lists(st.builds(FF, rising_p, st.integers(0, 6), st.integers(-3, 3), st.integers(0, 6)),
                    max_size=3)


@st.composite
def linear_factors(draw):
    """(c0 + c1*n)^power, a third of them vanishing at an integer n in 0..6."""
    c1 = draw(small)
    c0 = -c1 * draw(st.integers(0, 6)) if draw(st.integers(0, 2)) == 0 else draw(small)
    return LF(c0, c1, draw(st.integers(0, 3)))


lfs = st.lists(linear_factors(), max_size=2)
braces = st.lists(st.builds(BraceRational, small, st.integers(0, 3), lfs, lfs), min_size=1, max_size=3)


@st.composite
def random_series(draw):
    payload = {"factor_num": tuple(draw(lfs)), "factor_den": tuple(draw(lfs))}
    kind = draw(st.sampled_from(("none", "poly", "braces")))
    if kind == "poly":
        payload["poly"] = tuple(draw(st.lists(small, min_size=1, max_size=3)))
        payload["polyden"] = tuple(draw(st.lists(small, max_size=3)))
    elif kind == "braces":
        payload["braces"] = tuple(draw(braces))
    return series(tuple(draw(ffactors)), tuple(draw(ffactors)), base=draw(small),
                  start=draw(st.integers(0, 3)), **payload)


@given(random_series())
@settings(max_examples=70, deadline=None)
def test_exact_terms_match_term_exact_random(s):
    count = 8
    expected = None
    for n in range(s.start, s.start + count):
        try:
            term_exact(s, n)
        except DegenerateTerm as exc:
            expected = exc
            break
    if expected is None:
        assert _exact_terms(s, count) == reference_exact(s, count)
        return
    assert _exact_terms(s, expected.n - s.start) == reference_exact(s, expected.n - s.start)
    with pytest.raises(DegenerateTerm) as got:
        _exact_terms(s, count)
    assert (got.value.n, str(got.value)) == (expected.n, str(expected))


@given(random_series())
@settings(max_examples=70, deadline=None)
def test_rate_ratios_match_term_exact_random(s):
    count = 8
    try:
        ref = reference_terms(s, count)
    except DegenerateTerm as exc:
        with pytest.raises(DegenerateTerm) as got:
            measure_rate(s, count - 1)
        assert (got.value.n, str(got.value)) == (exc.n, str(exc))
        return
    want = reference_rate_ratios(s, ref)
    if not want:
        with pytest.raises(DegenerateTerm, match="no consecutive nonzero terms"):
            measure_rate(s, count - 1)
        return
    assert measure_rate(s, count - 1)[0] == want


@pytest.mark.parametrize("terms,digits", [(40, 60), (100, 120)], ids=["40x60", "100x120"])
def test_limit_reports_match_recorded(cat, terms, digits):
    # recorded before the terms came from compiled integer forms
    ctx = BigFloatCtx(digits=digits)
    got = [json.dumps(limit_report(r.id, r.classical, terms, ctx)) for r in cat.records]
    assert got == json.loads((DATA / f"limit_reports_{terms}x{digits}.json").read_text())


def test_limit_report_matches_term_exact_reports(cat, monkeypatch):
    ctx = BigFloatCtx(digits=60)
    fast = [json.dumps(limit_report(r.id, r.classical, 40, ctx)) for r in cat.records]
    monkeypatch.setattr(limits, "_exact_terms", reference_exact)
    slow = [json.dumps(limit_report(r.id, r.classical, 40, ctx)) for r in cat.records]
    assert fast == slow


def test_short_exact_list_rejected(ctx, cat):
    s = cat.get("g1x5pp").classical
    exact, ratios = _exact_terms(s, 10)
    with pytest.raises(ValueError):
        eval_series(s, 11, ctx, exact=exact)
    with pytest.raises(ValueError):
        measure_rate(s, 10, ratios=ratios)
    assert eval_series(s, 10, ctx, exact=exact) == eval_series(s, 10, ctx)
    assert measure_rate(s, 9, ratios=ratios) == measure_rate(s, 9)


def test_bad_limit_parameters_rejected(ctx, cat):
    s = cat.get("g1x5pp").classical
    for terms in (1, 0, -3):
        with pytest.raises(ValueError, match="terms"):
            limit_report("g1x5pp", s, terms, ctx)
    assert limit_report("g1x5pp", s, 2, ctx)["terms"] == 2
    for kwargs in ({"digits": 0}, {"digits": -1}):
        with pytest.raises(ValueError):
            BigFloatCtx(**kwargs)
    assert BigFloatCtx(digits=1).ctx.dps == 11     # 10 guard digits
