"""Specialized dual theorems: coherence with the general machinery and
left-side/right-side agreement as truncated series."""

from fractions import Fraction

import pytest

from qseries.inversion import (
    DUPLICATE,
    TRIPLICATE,
    TRIPLICATE_SPLIT,
    PatternSystem,
    general_dual_group,
    general_dual_prefix,
    params_from_exponents,
)
from qseries.qcore import RationalRing, SeriesRing
from qseries.series import LaurentSeries
from qseries.theorems import (
    THEOREM_NAMES,
    BExp,
    BraceTerm,
    SingularMismatch,
    VanishingDenominatorFactor,
    bind_theorem,
    eval_term,
    shadow_params,
    stop_index,
    term_valuation_bound,
    theorem_lhs,
    theorem_series,
    theorem_weight,
)

F = Fraction

GENERIC = {
    "2U": (F(3, 2), 1, 1, F(5, 6)),
    "2V": (F(3, 2), 1, 1, F(5, 6)),
    "3U": (F(3, 2), 1, 1, F(5, 6)),
    "3V": (F(3, 2), F(7, 6), 1, F(5, 6)),
    "p23U": (F(3, 2), 1, 1, F(5, 6)),
}

# each theorem's window in the general dual machinery: (pattern, delta, variant)
WINDOWS = {
    "2U": (DUPLICATE, 0, "U"),
    "2V": (DUPLICATE, 1, "V"),
    "3U": (TRIPLICATE, 0, "U"),
    "3V": (TRIPLICATE, 1, "V"),
    "p23U": (TRIPLICATE_SPLIT, 0, "U"),
}


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_specialized_matches_general_dual(name):
    """Each theorem's summand is the general window group up to one constant.

    The constant is the cosmetic normalization built into the displayed
    theorem: (1-c)(1-d) for the triplicate-U form, (1-d)(1-a/d) otherwise.
    """
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(*GENERIC[name])
    bt = bind_theorem(name, p, 12)
    pattern, delta, variant = WINDOWS[name]
    sysm = PatternSystem(p, pattern, 12)
    qv = ring.of_qmono
    if name == "3U":
        kappa = (1 - qv(p.c)) * (1 - qv(p.d))
    else:
        kappa = (1 - qv(p.d)) * (1 - qv(p.a / p.d))
    for n in range(bt.n_start, bt.n_start + 4):
        spec = eval_term(ring, bt, n)
        gen = general_dual_group(ring, sysm, delta, variant, n)
        assert gen == kappa * spec.series
    if bt.leading_one:
        assert general_dual_prefix(ring, sysm, delta) == kappa


@pytest.mark.parametrize("name", THEOREM_NAMES)
def test_lhs_equals_series_generic(name):
    bt = bind_theorem(name, params_from_exponents(*GENERIC[name]), 12)
    lhs, net, phi = theorem_lhs(bt, 150)
    assert net == 0 and phi == 1
    res = theorem_series(bt, 150)
    assert res.net_drops == 0
    assert lhs.first_difference(res.series, 150) is None


@pytest.mark.parametrize(
    "name,exps",
    [
        ("2U", (F(1, 2), F(1, 2), F(1, 2), F(1, 2))),   # a=d: one dropped factor
        ("2V", (F(1, 2), F(1, 2), F(1, 2), F(1, 2))),
        ("3V", (F(1, 2), F(1, 2), F(1, 2), F(1, 2))),   # a=b=c=d: net 1 through 5 zeros
        ("3V", (F(1, 3), F(1, 6), F(1, 3), F(1, 3))),   # a=c=d: orientation flip
        ("p23U", (F(1, 2), F(1, 2), F(1, 2), F(1, 2))),
    ],
)
def test_lhs_equals_series_regularized(name, exps):
    p = params_from_exponents(*exps)
    bt = bind_theorem(name, p, 12)
    bsh = bind_theorem(name, *shadow_params(p, 12))
    lhs, net, phi = theorem_lhs(bt, 140, shadow=bsh)
    assert net == 1
    res = theorem_series(bt, 140, shadow=bsh, expected_net=net)
    assert lhs.scale(phi).first_difference(res.series, 140) is None


def test_weight_2U_at_equal_parameters():
    # brace at n=0 collapses to its first term: the (1-q^0) factor kills the rest
    ring = SeriesRing(order=120)
    p = params_from_exponents(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    w0 = theorem_weight(ring, "2U", p, 0)
    # regularized W_0 = (1-q^(1/2))(1-q^(1/2))(1-q^(1/2))(1-q^(3/2)) / (1-q)^3 * {1}
    expect = ring.one()
    for e in (6, 6, 6, 18):
        expect = expect.times_binom(1, e)
    for _ in range(3):
        expect = expect.over_binom(1, 12, ring.order)
    assert w0.first_difference(expect, 120) is None


def test_weight_3U_matches_displayed_rational_function():
    # a=q^(4/3), b=c=q, d=q^(5/6): the displayed W is the theorem weight
    # times (1-q)(1-q^(n+5/6)) (a cosmetic factor moved into the factorials).
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(4, 3), 1, 1, F(5, 6))
    q = F(2, 3) ** 12

    def qq(x):  # q**x for rational x with denominator dividing 12
        num = F(x) * 12
        return F(2, 3) ** int(num)

    for n in range(3):
        w = theorem_weight(ring, "3U", p, n)
        disp = (
            (1 - qq(n + F(1, 3))) * (1 - qq(n + F(5, 6))) * (1 - qq(2 * n + F(1, 2))) ** 2
            * (1 - qq(4 * n + 2))
            / ((1 - qq(2 * n + F(4, 3))) * (1 - qq(3 * n + 1)) * (1 - qq(3 * n + F(3, 2))))
        ) * (
            qq(2 * n + F(1, 2))
            + (1 - qq(2 * n + F(4, 3))) * (1 - qq(3 * n + 1)) * (1 - qq(3 * n + F(3, 2)))
            * (1 - qq(4 * n + F(5, 6)))
            / ((1 - qq(n + F(1, 3))) * (1 - qq(n + F(5, 6))) * (1 - qq(2 * n + F(1, 2)))
               * (1 - qq(4 * n + 2)))
            + qq(4 * n + F(11, 6)) * (1 - qq(n + F(1, 2))) * (1 - qq(n + 1))
            * (1 - qq(2 * n + F(2, 3))) * (1 - qq(4 * n + 3))
            / ((1 - qq(2 * n + F(4, 3))) * (1 - qq(3 * n + 2)) * (1 - qq(3 * n + F(5, 2)))
               * (1 - qq(4 * n + 2)))
        )
        assert w * (1 - q) * (1 - qq(n + F(5, 6))) == disp


def test_weight_2V_first_factor_at_n0():
    # (1-q^(3n)d)/(1-d) at n=0 is 1; remaining brace gives a finite value.
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(5, 2), 1, 2, 1)
    bt = bind_theorem("2V", p, 12)
    qv = ring.of_qmono
    w1 = theorem_weight(ring, "2V", p, 1)
    assert w1 != 0  # admissible: no vanishing factor at n=1


def test_vanishing_denominator_reported():
    # bcd = a makes (1 - q^(2n) bcd/a) vanish at n=0 in the 2U weight
    ring = SeriesRing(order=100)
    p = params_from_exponents(F(-1, 2), F(-5, 6), F(1, 6), F(1, 6))
    with pytest.raises(VanishingDenominatorFactor):
        theorem_weight(ring, "2U", p, 0)


def test_series_below_first_valuation_is_zero():
    bt = bind_theorem("2U", params_from_exponents(*GENERIC["2U"]), 12)
    res = theorem_series(bt, 10)   # below every nonconstant exponent
    lhs, _, _ = theorem_lhs(bt, 10)
    assert lhs.first_difference(res.series, 10) is None


def test_term_more_singular_than_the_identity_is_a_mismatch():
    # a unit w_den atom, weighed by its shadow form n + 1, drops once in every term
    bt = bind_theorem("2U", params_from_exponents(*GENERIC["2U"]), 12)
    shadow = bt._replace(w_den=bt.w_den + (BExp(1, 1),))
    with pytest.raises(SingularMismatch) as exc:
        theorem_series(bt._replace(w_den=bt.w_den + (BExp(0, 0),)), 60, shadow=shadow, expected_net=0)
    assert str(exc.value) == "2U: term n=0 is more singular (1 drops) than the identity (0)"


def test_series_of_vanishing_terms_is_zero_at_the_order():
    # every term is zero (a zero brace) and there is no leading one: the sum is empty
    bt = bind_theorem("2U", params_from_exponents(*GENERIC["2U"]), 12)
    res = theorem_series(bt._replace(braces=((BraceTerm(BExp(0, 0, 0)),),)), 60)
    assert not bt.leading_one and res.terms_used > 0
    assert res.series == LaurentSeries.zero(60) and res.series.order == 60
    assert res.net_drops == 0


def test_term_valuation_bound_holds():
    ring = SeriesRing(order=200)
    p = params_from_exponents(*GENERIC["3V"])
    bt = bind_theorem("3V", p, 12)
    for n in range(1, 5):
        tv = eval_term(ring, bt, n)
        if not tv.series.is_zero:
            assert tv.series.val_floor() >= term_valuation_bound(bt, n)


def test_stop_index_covers_order():
    p = params_from_exponents(*GENERIC["2U"])
    bt = bind_theorem("2U", p, 12)
    ns = stop_index(bt, 200)
    for m in range(ns, ns + 30):
        assert term_valuation_bound(bt, m) >= 200


def test_no_weight_denominator_vanishes_up_to_50():
    # across the whole catalog, no denominator factor (1 - q^...) hits zero
    # for any summation index n <= 50 (identically-vanishing factors that
    # the regularization removes are exempt)
    from qseries.registry import load_catalog

    def atoms_of(bt):
        yield from bt.w_den
        for group in bt.braces:
            for t in group:
                yield from t.den

    for rec in load_catalog().records:
        bt = rec.recipe
        for x in atoms_of(bt):
            if x.is_unit():
                continue
            for n in range(max(bt.n_start, 0), 51):
                assert not (x.coeff == 1 and x.texp(n) == 0), (rec.id, x, n)
        for f in bt.poch_den:
            if f.coeff != 1 or f.texp > 0:
                continue
            if f.texp == 0:
                continue  # regularized (1;q)_count factors
            for n in range(max(bt.n_start, 0), 51):
                cnt = f.count(n)
                # a zero factor appears when texp + j*step == 0 for j < count
                if cnt > 0 and (-f.texp) % f.step == 0:
                    assert (-f.texp) // f.step >= cnt, (rec.id, f, n)
