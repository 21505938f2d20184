"""Jackson's sum, inversion round trips, the finite dual identity, theta."""

import random
from fractions import Fraction

import pytest

from qseries.inversion import (
    DUPLICATE,
    TRIPLICATE,
    TRIPLICATE_SPLIT,
    DegenerateSpec,
    InversionSpec,
    ParameterError,
    PatternSystem,
    dual_series_term,
    gauss_binom,
    gould_hsu_roundtrip,
    jackson_lhs,
    jackson_rhs,
    lemma_H_value,
    lemma_H_verify,
    params_from_exponents,
    qpow,
)
from qseries.qcore import (
    QMono,
    RationalRing,
    SeriesRing,
    poch_finite,
)

F = Fraction
Q = lambda e: qpow(F(e))


def admissible(p, n, ring):
    try:
        jackson_lhs(ring, p, n)
        return True
    except (ParameterError, ZeroDivisionError):
        return False


def test_jackson_n0_is_one():
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(3, 2), 1, 1, 1)
    assert jackson_lhs(ring, p, 0) == 1
    assert jackson_rhs(ring, p, 0) == 1


def test_jackson_rational_exact():
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(3, 2), 1, 1, 1)
    assert jackson_lhs(ring, p, 3) == jackson_rhs(ring, p, 3)


def test_jackson_series_mode():
    ring = SeriesRing(order=400)
    p = params_from_exponents(F(3, 2), F(1, 2), F(5, 6), F(4, 3))
    for n in (1, 4, 6):
        lhs = jackson_lhs(ring, p, n)
        rhs = jackson_rhs(ring, p, n)
        assert lhs.first_difference(rhs, 400) is None


def test_jackson_random_rational():
    rng = random.Random(7)
    ring = RationalRing(F(1, 2))
    found = 0
    while found < 5:
        exps = [F(rng.randrange(-12, 19), 12) for _ in range(4)]
        p = params_from_exponents(*exps)
        if not admissible(p, 8, ring):
            continue
        found += 1
        for n in range(9):
            assert jackson_lhs(ring, p, n) == jackson_rhs(ring, p, n)


def test_jackson_side_condition_singular_a():
    ring = RationalRing(F(2, 3))
    with pytest.raises(ParameterError):
        jackson_lhs(ring, params_from_exponents(0, 1, 1, 1), 2)


# --------------------------------------------------------- inversion pairs


def random_spec(rng, n, with_sigma):
    a_seq = tuple(QMono(rng.randrange(1, 4), rng.randrange(-12, 13)) for _ in range(n + 2))
    b_seq = tuple(QMono(rng.randrange(1, 4), rng.randrange(-12, 13)) for _ in range(n + 2))
    sigma = QMono(1, rng.randrange(1, 13)) if with_sigma else None
    return InversionSpec(a_seq, b_seq, sigma)


@pytest.mark.parametrize("variant", ["classical", "carlitz", "extended", "reformulated"])
def test_roundtrip_zero_sequence(variant):
    ring = RationalRing(F(2, 3))
    spec = random_spec(random.Random(1), 4, True)
    g = [Fraction(0)] * 5
    assert gould_hsu_roundtrip(ring, spec, g, 4, variant)


@pytest.mark.parametrize("variant", ["classical", "carlitz", "extended", "reformulated"])
def test_roundtrip_qpowers(variant):
    ring = RationalRing(F(2, 3))
    rng = random.Random(11)
    spec = random_spec(rng, 6, True)
    g = [ring.mono(1, k * 12) for k in range(7)]  # g(k) = q^k
    assert gould_hsu_roundtrip(ring, spec, g, 6, variant)


@pytest.mark.parametrize("variant", ["classical", "carlitz", "extended", "reformulated"])
def test_roundtrip_random_values(variant):
    rng = random.Random(hash(variant) & 0xFFFF)
    ring = RationalRing(F(3, 5))
    for trial in range(3):
        spec = random_spec(rng, 5, True)
        g = [F(rng.randrange(-9, 10), rng.randrange(1, 5)) for _ in range(6)]
        assert gould_hsu_roundtrip(ring, spec, g, 5, variant)


def test_carlitz_constant_phi_is_qbinomial_transform():
    # a_k = 1, b_k = 0: the pair collapses to the q-binomial inversion.
    ring = RationalRing(F(2, 3))
    N = 8
    spec = InversionSpec((QMono(1, 0),) * (N + 2), (QMono(0, 0),) * (N + 2), None)
    rng = random.Random(3)
    g = [F(rng.randrange(-5, 6)) for _ in range(N + 1)]
    assert gould_hsu_roundtrip(ring, spec, g, N, "carlitz")

    # independent oracle: direct q-binomial transform pair
    def fwd(n):
        return sum((-1) ** k * gauss_binom(ring, n, k) * g[k] for k in range(n + 1))

    f = [fwd(n) for n in range(N + 1)]
    for n in range(N + 1):
        back = sum(
            (-1) ** k * gauss_binom(ring, n, k) * ring.mono(1, (n - k) * (n - k - 1) // 2 * 12) * f[k]
            for k in range(n + 1)
        )
        assert back == g[n]


def test_degenerate_spec_raises():
    # a_k = 0 with x = 0 makes phi vanish at the classical evaluation points.
    ring = RationalRing(F(2, 3))
    spec = InversionSpec((QMono(0, 0),) * 4, (QMono(1, 0),) * 4, None)
    g = [Fraction(1)] * 3
    with pytest.raises((DegenerateSpec, ZeroDivisionError)):
        gould_hsu_roundtrip(ring, spec, g, 2, "classical")


# ------------------------------------------------------ finite dual identity


@pytest.mark.parametrize("pattern", [DUPLICATE, TRIPLICATE, TRIPLICATE_SPLIT])
def test_lemma_H_exact(pattern):
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(3, 2), 1, 1, F(5, 6))
    for n in range(7):
        assert lemma_H_verify(ring, p, pattern, n)


def test_lemma_H_zero_case():
    ring = RationalRing(F(1, 2))
    p = params_from_exponents(F(1, 2), F(1, 3), F(2, 3), F(5, 6))
    sys = PatternSystem(p, DUPLICATE, 12)
    assert sys.H(ring, 0) == 1
    assert lemma_H_verify(ring, p, DUPLICATE, 0)


def test_lemma_H_hand_value():
    # duplicate pattern, n=2, a=b=c=d=q^(1/2): indices <2> = (1,0,1,0) and
    # every argument collapses to s = q^(1/2) or q, giving by direct expansion
    #   H(2) = (1-s)^7 (1-qs) / [(1-q)^5 (1-q^2)^3].
    ring = RationalRing(F(2, 3))
    q = F(2, 3) ** 12
    s = F(2, 3) ** 6
    p = params_from_exponents(F(1, 2), F(1, 2), F(1, 2), F(1, 2))
    expect = (1 - s) ** 7 * (1 - q * s) / ((1 - q) ** 5 * (1 - q * q) ** 3)
    assert lemma_H_value(ring, p, DUPLICATE, 2) == expect


def test_H_denominator_structure():
    # (q;q)_n in H's denominator never vanishes at generic rational q
    ring = RationalRing(F(3, 5))
    p = params_from_exponents(F(3, 2), 1, 1, F(5, 6))
    for n in range(21):
        lemma_H_value(ring, p, TRIPLICATE, n)  # raises on a vanishing factor


# -------------------------------------------------- general dual series term


def test_dual_term_window_validation():
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(3, 2), 1, 1, F(5, 6))
    sysm = PatternSystem(p, DUPLICATE, 12)
    with pytest.raises(IndexError):
        dual_series_term(ring, sysm, 0, "U", 0, 2)
    with pytest.raises(IndexError):
        dual_series_term(ring, sysm, 1, "V", 0, 0)  # V starts at n=1


def test_dual_term_defining_case():
    # n=0, delta=0, variant U, i=0 equals Theta(1) * phi(1;1)/(-phi(1;0)) * H(0)
    ring = RationalRing(F(2, 3))
    p = params_from_exponents(F(3, 2), 1, 1, F(5, 6))
    sysm = PatternSystem(p, DUPLICATE, 12)
    got = dual_series_term(ring, sysm, 0, "U", 0, 0)
    q0 = QMono(1, 0)
    expect = -(ring.of_qmono(sysm.theta(1)) * sysm.phi(ring, q0, 1))
    assert got == expect


def test_theta_is_the_limit_of_the_finite_ratio():
    # Theta(k+1) arises as the n -> infinity limit of
    #   -q^(k-n) (q^n a;q)_k (q^-n;q)_k / phi(q^n;k+1);
    # at rational q the finite ratio converges geometrically, so at large n
    # it agrees with the monomial to far below the smallest catalogue scale.
    ring = RationalRing(F(1, 2))
    p = params_from_exponents(F(3, 2), 1, 1, F(5, 6))
    for pattern in (DUPLICATE, TRIPLICATE):
        sysm = PatternSystem(p, pattern, 12)
        q = qpow(1)
        bign = 80
        for k in range(11):
            num = ring.mono(1, (k - bign) * 12)
            num *= poch_finite(ring, QMono(1, bign * 12) * p.a, k)
            num *= poch_finite(ring, qpow(-bign), k)
            ratio = -num / sysm.phi(ring, q**bign, k + 1)
            theta = ring.of_qmono(sysm.theta(k + 1))
            assert abs(ratio - theta) < F(1, 2) ** (12 * (bign - 2 * k - 10)) * abs(theta)


def test_nonterminating_dual_sums_to_product():
    # proposition check: sum of dual terms equals the plain product side
    from qseries.qcore import poch_infinite

    ring = SeriesRing(order=140)
    p = params_from_exponents(F(3, 2), 1, 1, F(5, 6))
    q = QMono(1, 12)
    a, b, c, d = p.a, p.b, p.c, p.d
    e = q * a**2 / (b * c * d)
    lhs = ring.one()
    for x in (b, c, d, e):
        lhs = lhs * poch_infinite(ring, x)
    for y in (q * a / b, q * a / c, q * a / d, b * c * d / a):
        lhs = lhs * ring.inv(poch_infinite(ring, y))
    for pattern in (DUPLICATE, TRIPLICATE):
        sysm = PatternSystem(p, pattern, 12)
        total = ring.zero()
        m = 0
        while m < 100:
            t = sysm.dual_term(ring, m)
            total = total + t
            m += 1
            v = t.val_floor()
            if v is not None and v >= ring.order:
                break
        assert lhs.first_difference(total, ring.order) is None
