"""Polynomial ring, rational functions, and the fraction-free solver."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qseries.linsolve import poly_solve_overdetermined
from qseries.polyring import Poly, RatFunc, poly_gcd

t = Poly((0, 1))


def test_poly_basic_ops():
    p = (t + 1) * (t - 1)
    assert p == Poly((-1, 0, 1))
    assert p.degree() == 2
    q, r = p.divmod(t - 1)
    assert q == t + 1 and r.is_zero


def _canonical(p):
    """True when p holds an int wherever a coefficient is integral."""
    return all(type(c) is int or c.denominator != 1 for c in p.coeffs)


def test_results_are_canonical():
    assert Poly((Fraction(4, 2), Fraction(1, 2), Fraction(3))).coeffs == (2, Fraction(1, 2), 3)
    assert all(map(_canonical, Poly((2, 4, 2)).divmod(Poly((2, 2)))))   # q = 1 + t, from Fraction steps
    assert _canonical(Poly((4, 2)).monic())
    r = RatFunc(Poly((2, 4)), Poly.const(2))
    assert r.as_poly().coeffs == (1, 2) and _canonical(r.as_poly())
    assert _canonical(RatFunc(Poly((3, 6)), Poly.const(3), _reduced=True).as_poly())


_coeffs = st.lists(st.integers(-3, 3) | st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5)


@given(_coeffs, _coeffs)
@settings(max_examples=100)
def test_divmod_monic_and_as_poly_are_canonical(a, b):
    p, d = Poly(a), Poly(b)
    assert _canonical(p.monic())
    if not d.is_zero:
        quo, rem = p.divmod(d)
        assert _canonical(quo) and _canonical(rem) and quo * d + rem == p
        assert _canonical(RatFunc(p * d, d).as_poly())


@given(
    st.lists(st.integers(-2, 2) | st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5),
    st.lists(st.integers(-2, 2) | st.fractions(min_value=-3, max_value=3, max_denominator=4), max_size=5),
    st.integers(0, 3),
)
@settings(max_examples=80)
def test_poly_sub_matches_add_negated(a, b, common):
    # a shared top part makes the leading coefficients cancel
    p, q = Poly(a + [1] * common), Poly(b[:len(a)] + [1] * common)
    assert (p - q).coeffs == (p + (-q)).coeffs
    assert (q - p).coeffs == (q + (-p)).coeffs
    assert (p - 2).coeffs == (p + Poly.const(-2)).coeffs


@given(
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=5),
    st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4), min_size=1, max_size=5),
)
@settings(max_examples=80)
def test_poly_degree_additive(a, b):
    p, q = Poly(a), Poly(b)
    if p.is_zero or q.is_zero:
        return
    assert (p * q).degree() == p.degree() + q.degree()
    assert (p * q).lead() == p.lead() * q.lead()


@given(
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
    st.fractions(min_value=-20, max_value=20, max_denominator=12),
)
@settings(max_examples=200)
def test_rational_field_axioms(x, y, z):
    # the exact coefficient carrier satisfies the field laws with no tolerance
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x and x * y == y * x
    if x != 0:
        assert x * (1 / x) == 1


def test_exact_div_raises_on_remainder():
    with pytest.raises(ValueError):
        (t * t + 1).exact_div(t - 1)


def test_gcd_divides_both():
    a = (t + 1) * (t + 2) * (t + 2)
    b = (t + 2) * (t + 3)
    g = poly_gcd(a, b)
    assert g == t + 2
    assert a.exact_div(g) * g == a


def test_ratfunc_normalization():
    r = RatFunc((t + 1) * (t + 2), (t + 2) * 2)
    assert r.num == (t + 1) * Fraction(1, 2)
    assert r.den == Poly((1,))
    assert r.is_polynomial()


def test_solver_identity_case():
    A = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    x, ok = poly_solve_overdetermined(A, [1, 2, 3])
    assert ok
    assert [v.as_poly() for v in x] == [Poly((1,)), Poly((2,)), Poly((3,))]


def test_solver_proportional_rows():
    # [[t],[t^2]] x = [t^2, t^3] -> x = t
    A = [[t], [t * t]]
    x, ok = poly_solve_overdetermined(A, [t * t, t * t * t])
    assert ok
    assert x[0].as_poly() == t


def test_solver_inconsistent():
    A = [[t], [t]]
    x, ok = poly_solve_overdetermined(A, [t, t + 1])
    assert not ok and x == []


def test_solver_rank_deficient_consistent():
    A = [[t, t], [2 * t, 2 * t]]
    x, ok = poly_solve_overdetermined(A, [t, 2 * t])
    assert ok
    residual = A[0][0] * x[0].as_poly() + A[0][1] * x[1].as_poly()
    assert residual == t


def test_solver_rank_deficient_inconsistent():
    A = [[t, t], [2 * t, 2 * t]]
    x, ok = poly_solve_overdetermined(A, [t, t])
    assert not ok


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
)


def _det2(m):
    return m[0][0] * m[1][1] - m[0][1] * m[1][0]


def _det3(m):
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


@given(st.lists(small_fracs, min_size=6, max_size=6))
@settings(max_examples=100)
def test_solver_agrees_with_cramer_2x2(vals):
    A = [[Poly.const(vals[0]), Poly.const(vals[1])], [Poly.const(vals[2]), Poly.const(vals[3])]]
    b = [Poly.const(vals[4]), Poly.const(vals[5])]
    det = vals[0] * vals[3] - vals[1] * vals[2]
    x, ok = poly_solve_overdetermined(A, b)
    if det == 0:
        return  # singular: covered by the rank-deficiency tests
    assert ok
    x0 = (vals[4] * vals[3] - vals[1] * vals[5]) / det
    x1 = (vals[0] * vals[5] - vals[4] * vals[2]) / det
    assert x[0] == RatFunc(x0) and x[1] == RatFunc(x1)


@given(st.lists(small_fracs, min_size=12, max_size=12))
@settings(max_examples=60)
def test_solver_agrees_with_cramer_3x3(vals):
    rows = [vals[0:3], vals[3:6], vals[6:9]]
    b = vals[9:12]
    det = _det3(rows)
    if det == 0:
        return
    A = [[Poly.const(c) for c in row] for row in rows]
    x, ok = poly_solve_overdetermined(A, [Poly.const(c) for c in b])
    assert ok
    for j in range(3):
        mj = [list(row) for row in rows]
        for i in range(3):
            mj[i][j] = b[i]
        assert x[j] == RatFunc(_det3(mj) / det)
