"""q-calculus layer: Pochhammers, patterns, theta monomials, q-gamma."""

import time
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseries import qcore
from qseries.inversion import (
    DUPLICATE,
    TRIPLICATE,
    TRIPLICATE_SPLIT,
    PartitionPattern,
    QExp,
    RootMismatch,
    qpow,
    theta_monomial,
)
from qseries.qcore import (
    QMono,
    RationalRing,
    SeriesRing,
    gauss_binom,
    poch_finite,
    poch_infinite,
    q_gamma_numeric,
    q_pochhammer_numeric,
)

L = 12


def test_qexp_validation():
    assert QExp.of(Fraction(5, 6)).num == 10
    assert QExp.of(Fraction(-2, 3)).num == -8
    with pytest.raises(RootMismatch):
        QExp.of(Fraction(1, 5))


@pytest.mark.parametrize("a, b, quotient", [
    (6, 3, 2), (-6, 3, -2), (1, 2, Fraction(1, 2)), (2, -4, Fraction(-1, 2)),
    (Fraction(3, 2), Fraction(1, 2), 3), (Fraction(1, 3), 2, Fraction(1, 6)), (4, Fraction(4, 3), 3),
])
def test_qmono_quotient_is_canonical(a, b, quotient):
    q = QMono(a, 5) / QMono(b, 2)
    assert q == QMono(quotient, 3)
    assert type(q.coeff) is type(quotient)


def test_poch_empty_product():
    ring = SeriesRing(order=40)
    assert poch_finite(ring, qpow(Fraction(7, 3), root=ring.root), 0) == ring.one()


def test_poch_single_factor():
    ring = SeriesRing(order=40)
    s = poch_finite(ring, qpow(Fraction(1, 2)), 1)
    assert s.coeff(0) == 1 and s.coeff(6) == -1


def test_poch_rational_mode():
    r = Fraction(2, 3)
    ring = RationalRing(r)
    q = r**12
    val = poch_finite(ring, qpow(1), 2)
    assert val == (1 - q) * (1 - q * q)


def test_poch_cocycle():
    # (x;q)_n * (x q^n; q)_m = (x;q)_{n+m}
    ring = RationalRing(Fraction(2, 3))
    q = qpow(1)
    for texp in (-5, 0, 3, 7):
        x = QMono(1, texp)
        for n in range(4):
            for m in range(4):
                lhs = poch_finite(ring, x, n) * poch_finite(ring, x * q**n, m)
                assert lhs == poch_finite(ring, x, n + m)


def test_poch_infinite_euler_pentagonal():
    # (q;q)_inf: coefficients follow the pentagonal-number sign pattern.
    order = 5 * L
    ring = SeriesRing(order=order)
    s = poch_infinite(ring, qpow(1))
    expected = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1}  # exponents of q
    for k in range(order // L):
        assert s.coeff(k * L) == expected.get(k, 0)
    # independent oracle: pentagonal numbers j(3j-1)/2 with sign (-1)^j
    pent = {}
    for j in range(-10, 11):
        e = j * (3 * j - 1) // 2
        if 0 <= e * L < order:
            pent[e] = (-1) ** j
    for e, sign in pent.items():
        assert s.coeff(e * L) == sign


def test_poch_infinite_factoring_identity():
    # (x;q)_inf = (x;q)_n * (x q^n;q)_inf for n <= 5
    ring = SeriesRing(order=100)
    q = qpow(1)
    for texp in (5, 7):
        x = QMono(1, texp)
        for n in range(1, 6):
            whole = poch_infinite(ring, x)
            split = poch_finite(ring, x, n) * poch_infinite(ring, x * q**n)
            assert whole.first_difference(split, 100) is None


def test_poch_infinite_negative_valuation():
    # leading factor 1 - t^-8 carried exactly, remainder positive valuation
    ring = SeriesRing(order=60)
    s = poch_infinite(ring, qpow(Fraction(-2, 3)))
    assert s.minexp < 0
    back = s
    x = qpow(Fraction(-2, 3))
    for k in range(10):
        factor_exp = x.texp + k * L
        if factor_exp >= 60 - min(s.minexp, 0):
            break
        back = back.over_binom(1, factor_exp)
    assert back.first_difference(ring.one(), 40) is None


def test_poch_infinite_beyond_order_is_one():
    ring = SeriesRing(order=24)
    s = poch_infinite(ring, QMono(1, 30))
    assert s.first_difference(ring.one(), 24) is None


def test_gauss_binom_values():
    ring = SeriesRing(order=10 * L)
    assert gauss_binom(ring, 5, 0).first_difference(ring.one(), ring.order) is None
    s = gauss_binom(ring, 2, 1)  # 1 + q
    assert s.coeff(0) == 1 and s.coeff(L) == 1 and s.coeff(2 * L) == 0


@given(st.integers(0, 7), st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_gauss_binom_symmetry(m, n):
    if n > m:
        return
    ring = RationalRing(Fraction(1, 2))
    assert gauss_binom(ring, m, n) == gauss_binom(ring, m, m - n)


def test_partition_indices_catalogued_patterns():
    assert DUPLICATE.indices(5) == (2, 0, 3, 0)
    assert TRIPLICATE.indices(4) == (1, 1, 2, 0)
    assert TRIPLICATE_SPLIT.indices(4) == (1, 0, 3, 0)


def test_partition_indices_sum():
    for pat in (DUPLICATE, TRIPLICATE, TRIPLICATE_SPLIT):
        for n in range(201):
            assert sum(pat.indices(n)) == n


def test_bad_pattern_rejected():
    with pytest.raises(ValueError):
        PartitionPattern(2, (0, 0, 0, 0), (1, 0, 0, 0))


def test_theta_zero_is_one():
    a = b = c = d = qpow(Fraction(1, 2))
    th = theta_monomial(DUPLICATE, a, b, c, d, 0)
    assert th.is_one


def test_theta_duplicate_hand_value():
    # m=1 under the duplicate pattern: indices (0,0,1,0), so Theta(1) = a/d.
    a = b = c = d = qpow(Fraction(1, 2))
    th = theta_monomial(DUPLICATE, a, b, c, d, 1)
    assert th == QMono(1, 0)
    a2 = qpow(Fraction(3, 2))
    th2 = theta_monomial(DUPLICATE, a2, b, c, d, 1)
    assert th2 == a2 / d


def test_theta_step_ratio_grows_linearly():
    a, b, c, d = qpow(Fraction(3, 2)), qpow(1), qpow(1), qpow(Fraction(5, 6))
    pat = TRIPLICATE
    diffs = []
    for m in range(0, 11):
        t0 = theta_monomial(pat, a, b, c, d, m)
        t1 = theta_monomial(pat, a, b, c, d, m + pat.Lam)
        diffs.append((t1 / t0).texp)
    second = [diffs[i + 1] - diffs[i] for i in range(len(diffs) - 1)]
    assert len(set(second)) == 1  # exponent of the ratio grows linearly


def test_q_gamma_fixed_points():
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 30
    for qv in (Fraction(1, 2), Fraction(9, 10)):
        assert abs(q_gamma_numeric(1, qv, ctx) - 1) < ctx.mpf(10) ** -25
        assert abs(q_gamma_numeric(2, qv, ctx) - 1) < ctx.mpf(10) ** -25


def test_q_gamma_approaches_gamma():
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 30
    val = q_gamma_numeric(Fraction(1, 2), Fraction(999, 1000), ctx)
    assert abs(val - ctx.sqrt(ctx.pi)) < ctx.mpf(10) ** -2


def test_q_gamma_pole():
    with pytest.raises(qcore.PoleError):
        q_gamma_numeric(0, Fraction(1, 2))


def test_q_gamma_at_q_within_1e8_of_one():
    # the cost of the numeric products does not grow as q -> 1
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 30
    start = time.perf_counter()
    val = q_gamma_numeric(Fraction(1, 2), 1 - Fraction(1, 10**8), ctx)
    elapsed = time.perf_counter() - start
    assert abs(val - ctx.sqrt(ctx.pi)) < ctx.mpf(10) ** -7
    assert elapsed < 0.5


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(999, 1000), 1 - Fraction(1, 10**5),
                               1 - Fraction(1, 10**8)], ids=str)
@pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1, 3), Fraction(5, 2)], ids=str)
def test_q_gamma_keeps_working_precision(x, q):
    # q^x and 1 - q are taken at more than 30 digits: (q^x;q)_inf magnifies
    # an error in q^x about 1/(1-q) times
    ctx, ref = mpmath.ctx_mp.MPContext(), mpmath.ctx_mp.MPContext()
    ctx.dps, ref.dps = 30, 80
    val, want = q_gamma_numeric(x, q, ctx), q_gamma_numeric(x, q, ref)
    assert abs(val - want) <= ref.mpf(10) ** -29 * abs(want)


def test_q_pochhammer_trivial_arguments():
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 30
    assert q_pochhammer_numeric(0, Fraction(1, 2), ctx) == 1
    assert q_pochhammer_numeric(1, Fraction(999, 1000), ctx) == 0
    # (q^-2;q)_inf = (1 - q^-2)(1 - q^-1) * 0 at the factor 1 - q^0
    assert q_pochhammer_numeric(Fraction(4), Fraction(1, 2), ctx) == 0


def test_q_pochhammer_rejects_bad_arguments():
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 30
    for q in (0, 1, Fraction(3, 2), -Fraction(1, 2)):
        with pytest.raises(ValueError):
            q_pochhammer_numeric(Fraction(1, 2), q, ctx)
    with pytest.raises(ValueError):
        q_pochhammer_numeric(-Fraction(1, 2), Fraction(1, 2), ctx)
    with pytest.raises(ValueError):
        q_gamma_numeric(Fraction(1, 2), 1)


def test_q_pochhammer_head_budget():
    # x = q^-5000 needs 5000 + 64 direct factors before the tail can start
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 30
    q = Fraction(999, 1000)
    assert q_pochhammer_numeric(ctx.power(q, -4000), q, ctx) != 0
    with pytest.raises(qcore.ConvergenceError):
        q_pochhammer_numeric(ctx.power(q, -5000), q, ctx)


def test_q_pochhammer_tail_budget():
    # near q = 1 the asymptotic Bernoulli sum bottoms out near 10^-170 with a
    # 64-factor head, so 200 digits cannot be reached
    ctx = mpmath.ctx_mp.MPContext()
    ctx.dps = 200
    q = Fraction(999, 1000)
    with pytest.raises(qcore.ConvergenceError):
        q_pochhammer_numeric(ctx.power(q, Fraction(1, 2)), q, ctx)
    ctx.dps = 100
    assert q_pochhammer_numeric(ctx.power(q, Fraction(1, 2)), q, ctx) > 0
