"""Laurent series arithmetic: frozen examples and randomized round trips."""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qseries.series import (
    LaurentSeries,
    ZeroLeadingCoefficient,
    window_add,
    window_over_binom,
    window_scale,
    window_times_binom,
    window_times_sparse,
)

L = LaurentSeries


def geom(order):
    """1/(1-t) as a truncated window."""
    return L(0, [1] * order, order)


def test_monomial_product():
    a = L.monomial(1, -3)
    b = L.monomial(1, 5)
    assert a * b == L.monomial(1, 2)


def test_one_minus_t_times_geometric_is_one():
    s = geom(10).times_binom(1, 1)
    assert s.first_difference(L.one(), 10) is None
    assert s.order == 10


def test_binomial_product_expansion():
    # (1 - t^6)(1 - t^18) = 1 - t^6 - t^18 + t^24, exactly
    s = L.one().times_binom(1, 6).times_binom(1, 18)
    assert s == L(0, [1] + [0] * 5 + [-1] + [0] * 11 + [-1] + [0] * 5 + [1])
    assert s.order is None


def test_inverse_of_one():
    assert L.one().inverse() == L.one()


def test_inverse_geometric():
    # 1/(1-t) truncated at t^4 -> 1 + t + t^2 + t^3
    s = L.one().times_binom(1, 1).inverse(4)
    assert s == L(0, [1, 1, 1, 1], 4)


def test_inverse_negative_valuation():
    # 1/(1 - t^-10) = -t^10 - t^20 - ... (valuation +10, sign flipped)
    s = L.one().times_binom(1, -10)
    inv = s.inverse(41)
    assert inv.minexp == 10
    assert inv.coeff(10) == -1 and inv.coeff(20) == -1 and inv.coeff(30) == -1
    assert (s * inv).first_difference(L.one(), 41) is None


def test_inverse_requires_nonzero_lead():
    with pytest.raises(ZeroLeadingCoefficient):
        L.zero(10).inverse()


def test_product_order_is_tightest():
    a = L(0, [1, 1], 5)          # known to t^5
    b = L.monomial(1, 3)         # exact t^3
    assert (a * b).order == 8
    c = L(-2, [1], 7)            # t^-2 known to t^7
    assert (a * c).order == 3    # min(5 + (-2), 7 + 0)


def test_truncation_never_widens_on_add():
    a = L(0, [1, 2, 3], 3)
    b = L(0, [1], None)
    assert (a + b).order == 3


def test_over_binom_matches_inverse():
    x = L(0, [1, 5, 7], 30)
    d1 = x.over_binom(Fraction(2, 3), 4)
    d2 = x * L.one().times_binom(Fraction(2, 3), 4).inverse(30)
    assert d1.first_difference(d2, 30) is None


coeffs_st = st.lists(st.integers(-9, 9), min_size=1, max_size=8)


@given(coeffs_st, st.integers(-6, 6))
@settings(max_examples=120)
def test_inverse_roundtrip(cs, minexp):
    s = L(minexp, cs, minexp + len(cs) + 14)
    if s.is_zero:
        return
    inv = s.inverse()
    prod = s * inv
    assert prod.first_difference(L.one(), prod.order) is None


@given(coeffs_st, coeffs_st, coeffs_st)
@settings(max_examples=80)
def test_mul_distributes(a, b, c):
    order = 12
    sa, sb, sc = (L(0, x, order) for x in (a, b, c))
    lhs = sa * (sb + sc)
    rhs = sa * sb + sa * sc
    assert lhs.first_difference(rhs) is None


@given(coeffs_st, st.integers(1, 5), st.integers(-5, 5))
@settings(max_examples=80)
def test_binom_mul_div_roundtrip(cs, e, num):
    c = Fraction(num, 3)
    s = L(0, cs, len(cs) + 10)
    if c == 0:
        return
    back = s.times_binom(c, e).over_binom(c, e)
    assert back.first_difference(s, back.order) is None


def is_canonical(s):
    return not any(type(c) is Fraction and c.denominator == 1 for c in s.coeffs)


def test_scale_keeps_coefficients_canonical():
    s = L(0, [2, 4, 6], 10).scale(Fraction(1, 2))
    assert s.coeffs == (1, 2, 3)
    assert all(type(c) is int for c in s.coeffs)


def test_constructor_normalizes_outside_input():
    s = L(-1, [0, Fraction(4, 2), Fraction(1, 2), 0], 5)
    assert (s.minexp, s.coeffs) == (0, (2, Fraction(1, 2)))
    assert type(s.coeffs[0]) is int


def test_canonical_flag_still_truncates_and_trims():
    s = L(-2, [0, 0, 1, 2, 3, 0], 2, _canonical=True)
    assert (s.minexp, s.coeffs, s.order) == (0, (1, 2), 2)
    assert L(3, [0, 0], None, _canonical=True) == L.zero()


fracs_st = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=8)


@given(fracs_st, fracs_st, st.integers(1, 4), st.fractions(min_value=-2, max_value=2, max_denominator=3))
@settings(max_examples=80)
def test_operations_return_canonical_coefficients(a, b, e, c):
    sa, sb = L(0, a, 12), L(1, b, 14)
    results = [sa + sb, sa - sb, sa * sb, -sa, sa.truncate(6), sa.shift(3)]
    if c:
        results += [sa.scale(c), sa.times_binom(c, e), sa.over_binom(c, e), sa.times_binom(c, -e),
                    sa.over_binom(c, -e)]
    if not sa.is_zero:
        results.append(sa.inverse())
    assert all(is_canonical(r) for r in results)


def padded(s, lo, hi):
    """s as a raw window with lo leading and up to hi trailing zeros (never past its order)."""
    if s.order is not None:
        hi = max(0, min(hi, s.order - s.minexp - len(s.coeffs)))
    return s.minexp - lo, [0] * lo + list(s.coeffs) + [0] * hi, s.order


@given(fracs_st, st.integers(-6, 6), st.one_of(st.none(), st.integers(0, 12)), st.integers(0, 3),
       st.integers(0, 3), st.integers(-4, 4), st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]),
       st.integers(-3, 14))
@settings(max_examples=100)
def test_windows_with_zero_ends_step_like_series(a, minexp, width, lo, hi, e, c, target):
    """Raw windows may keep zeros at either end; each step gives the series its LaurentSeries method gives."""
    s = L(minexp, a, None if width is None else minexp + len(a) + width)
    t = L(minexp + 2, a[::-1], minexp + 9)
    win = padded(s, lo, hi)
    prod = s.times_binom(c, e)
    assert prod == s * (L.one() - L.monomial(c, e))     # the binomial as a dense Laurent polynomial
    assert L(*window_times_binom(*win, c, e), _canonical=True) == prod
    assert L(*window_add(*win, *padded(t, hi, lo)), _canonical=True) == s + t
    quot = outcome(lambda: s.over_binom(c, e, target))
    assert outcome(lambda: L(*window_over_binom(*win, c, e, target), _canonical=True)) == quot
    if isinstance(quot, L):
        assert quot.times_binom(c, e).first_difference(s) is None


def outcome(fn):
    try:
        return fn()
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


_mono_st = st.tuples(st.integers(-6, 6), st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-2, 3)]))


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=8), st.integers(-6, 6),
       st.one_of(st.none(), st.integers(-2, 12)), st.integers(0, 3), st.integers(0, 3),
       st.lists(_mono_st, min_size=1, max_size=6), st.integers(0, 6))
@settings(max_examples=150)
@example([1, 2], 0, 10, 0, 0, [(-3, 1), (2, 1)], 1)       # the lowest shift cancels
@example([], 4, 3, 0, 0, [(1, 1), (-2, 3)], 0)              # an empty window
def test_window_times_sparse_is_the_sum_of_shifted_windows(a, minexp, width, lo, hi, monos, cancel):
    """The merged product equals the sum of one shifted, scaled window per monomial, order included.

    The first `cancel` monomials are repeated negated, so their shifts merge to 0 and must still
    bound the known order; shifts are of either sign, and the window may be empty, exact, or cut
    short of some products.
    """
    s = L(minexp, a, None if width is None else minexp + width)
    win = padded(s, lo, hi)
    monos = monos + [(sh, -c) for sh, c in monos[:cancel]]
    poly = {}
    for sh, c in monos:
        poly[sh] = poly.get(sh, 0) + c
    ref = (0, (), None)
    for sh, c in monos:
        ref = window_add(*ref, *window_scale(win[0] + sh, win[1], None if win[2] is None else win[2] + sh, c))
    got = window_times_sparse(*win, poly)
    assert got[2] == ref[2] == (None if s.order is None else s.order + min(poly))
    assert not any(type(x) is Fraction and x.denominator == 1 for x in got[1])
    prod = L(*got, _canonical=True)
    assert prod == L(*ref, _canonical=True)
    dense = L(min(poly), [poly.get(k, 0) for k in range(min(poly), max(poly) + 1)])
    assert prod == (s * dense).truncate(got[2])


def test_window_times_sparse_edges():
    # a shift whose monomials cancelled still sets the order: (t - t^3)(1 + 2t + 3t^2) + O(t^(10-2))
    m, a, o = window_times_sparse(0, [1, 2, 3], 10, {-2: 0, 1: 1, 3: -1})
    assert o == 8 and L(m, a, o, _canonical=True) == L(1, [1, 2, 2, -2, -3], 8)
    # every shift cancelled: a zero window known to the lowest shift
    assert L(*window_times_sparse(0, [1, 2], 5, {-1: 0, 2: 0}), _canonical=True) == L.zero(4)
    # an empty window keeps its order, moved by the lowest shift
    assert window_times_sparse(5, [], 10, {1: 2, 3: 1})[2] == 11
    # one monomial is a shift and a scaling, the window itself when the coefficient is 1
    coeffs = [1, Fraction(1, 2)]
    assert window_times_sparse(0, coeffs, 6, {-3: 1}) == (-3, coeffs, 3)
    assert window_times_sparse(0, coeffs, 6, {2: 2}) == (2, [2, 1], 8)
    # an empty polynomial is the exact zero
    assert window_times_sparse(0, coeffs, 6, {}) == (0, (), None)
