"""The Kronecker-packed product expansion (qcore.packed_product).

It is checked against Euler's recurrence (tests/euler_reference.py, the
expansion it replaced) and against closed forms.  Every check also holds
the digit width of qcore.digit_width to what it must hold: each product
coefficient, and each coefficient of the majorant whose Cauchy bound it is.
"""

from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from euler_reference import euler_product, expand_factors
from qseries import qcore
from qseries.qcore import digit_width, packed_product
from qseries.registry import load_catalog
from qseries.theorems import reduce_root

F = Fraction

CATALOG = load_catalog()

COEFFS = (1, -1, 2, -2, F(1, 2), F(1, 3))
# A peeled factor (1 - c*t^e), e < 0, leaves the binomial (1 - t^-e/c).
PEELED = COEFFS + (F(-1, 2), 3)


def scaled_majorant(single, tails, root, n, scale):
    """Coefficients of H(scale*u): H has (1 + |c|*t^m) per numerator binomial, 1/(1 - |c|*t^m) per denominator one."""
    factors = expand_factors(single, tails, root, n)
    return euler_product([(int(-sign * abs(c) * scale**m), m, sign) for c, m, sign in factors], n)


def check_packed(single, tails, root, n):
    """packed_product equals the recurrence, and its width holds the product and the majorant."""
    got = packed_product(single, tails, root, n)
    assert got == euler_product(expand_factors(single, tails, root, n), n)
    assert not any(type(f) is Fraction and f.denominator == 1 for f in got)
    scale = lcm(*(c.denominator for c, _, _ in single + tails))
    width = digit_width(single, tails, root, n, scale)
    assert width % 8 == 0
    if n:
        assert max(abs(int(f * scale**j)).bit_length() for j, f in enumerate(got)) < width
        assert max(h.bit_length() for h in scaled_majorant(single, tails, root, n, scale)) < width
    return got, width


binomials = st.lists(st.tuples(st.sampled_from(PEELED), st.integers(1, 40), st.sampled_from((1, -1))),
                     max_size=3)
tails_st = st.lists(st.tuples(st.sampled_from(COEFFS), st.integers(1, 40), st.sampled_from((1, -1))),
                    max_size=4)


@given(binomials, tails_st, st.integers(1, 12), st.integers(0, 300))
@settings(max_examples=100, deadline=None)
@example([], [], 12, 0)
@example([(1, 5, 1)], [(2, 3, -1)], 12, 0)
@example([], [(1, 1, -1)], 1, 1)
@example([(3, 1, -1)], [(-2, 1, -1), (F(1, 3), 2, 1)], 5, 80)   # radii 1/3 and 1/2
@example([(F(1, 2), 7, 1), (F(-1, 2), 1, -1)], [(-1, 1, 1), (1, 2, -1)], 2, 300)
def test_packed_matches_euler_recurrence(single, tails, root, n):
    got, _ = check_packed(single, tails, root, n)
    assert len(got) == n


def pentagonal(n):
    out = [0] * n
    for k in range(-n, n + 1):
        e = k * (3 * k - 1) // 2
        if 0 <= e < n:
            out[e] = (-1) ** k
    return out


@pytest.mark.parametrize("single, tails, root, n, expected", [
    ([(2, 1, -1)], [], 12, 8, [2**j for j in range(8)]),   # 2^7 fills all but 7 bits of its width
    ([], [(3, 1, -1)], 30, 30, [3**j for j in range(30)]),
    ([(F(1, 2), 1, -1)], [], 3, 40, [F(1, 2) ** j for j in range(40)]),
    ([(-1, 1, -1), (1, 1, 1)], [], 4, 12, [1] + [(-1) ** j * 2 for j in range(1, 12)]),
    ([(1, 1, -1), (1, 1, -1)], [], 5, 50, [j + 1 for j in range(50)]),
    ([], [(1, 1, 1)], 1, 200, pentagonal(200)),
], ids=["one-over-1-2t", "one-over-1-3t", "one-over-1-half-t", "1-t-over-1+t", "one-over-1-t-squared",
        "pentagonal"])
def test_closed_forms(single, tails, root, n, expected):
    got, _ = check_packed(single, tails, root, n)
    assert got == expected


def test_partition_numbers():
    got, width = check_packed([], [(1, 1, -1)], 1, 101)
    assert got[:8] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert got[100] == 190569292
    assert width - 1 > got[100].bit_length()


def catalog_products(order):
    """(record id, packed_product arguments) of every catalog left side at the order."""
    calls = []
    with mock.patch.object(qcore, "packed_product", wraps=qcore.packed_product) as spy:
        for rec in CATALOG.records:
            bt, g = reduce_root(rec.recipe)
            qcore.poch_quotient(bt.lhs_num, bt.lhs_den, bt.root, -(-order // g))
            calls.append((rec.id, spy.call_args.args))
    return calls


@pytest.mark.parametrize("order", [120, 400])
def test_catalog_width_exceeds_every_coefficient(order):
    products = catalog_products(order)
    assert len(products) == len(CATALOG.records) == 62
    for rid, (single, tails, root, n) in products:
        got, width = check_packed(single, tails, root, n)
        assert width - 1 > max(abs(f).bit_length() for f in got), rid
