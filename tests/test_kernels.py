"""Coefficient kernels: canonical output, and the same values as plain loops.

The references are the plain loops the kernels grew from; their output is
normalized with series._norm before the comparison.  The kernels must give
the same values with every integral value an int.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qseries import kernel
from qseries.series import _norm

# Fractions with small denominators, so sums and products cancel to integers
# often (3 * 1/3, 1/2 + 1/2); integral Fractions such as 2/1 are inputs too.
scalar_st = st.one_of(
    st.integers(-9, 9),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
coeffs_st = st.lists(scalar_st, min_size=1, max_size=24)
nonzero_st = scalar_st.filter(bool)
# c = 1, every binomial step of the catalog, runs its own loop in both kernels
binom_c_st = st.one_of(st.just(1), nonzero_st)


def ref_mul_dense(a, b, nmax):
    n = min(nmax, len(a) + len(b) - 1)
    out = [0] * n
    for i, ai in enumerate(a[:n]):
        for j, bj in enumerate(b[: n - i]):
            out[i + j] += ai * bj
    return out


def ref_mul_binom(a, e, c, nmax):
    n = min(nmax, len(a) + e)
    ext = list(a) + [0] * (n + e)
    return [ext[i] - (c * ext[i - e] if i >= e else 0) for i in range(n)]


def ref_div_binom(a, e, c, nmax):
    out = list(a[:nmax]) + [0] * (nmax - len(a))
    for i in range(e, nmax):
        out[i] += c * out[i - e]
    return out


def ref_inv_dense(a, nmax):
    out = [1 / Fraction(a[0])]
    for k in range(1, nmax):
        acc = sum(a[i] * out[k - i] for i in range(1, min(k, len(a) - 1) + 1))
        out.append(-acc / Fraction(a[0]))
    return out


def ref_add_shifted(a, b, off, nmax):
    n = min(nmax, max(len(a), len(b) + off))
    out = list(a[:n]) + [0] * (n - min(len(a), n))
    for j, bj in enumerate(b):
        if j + off < n:
            out[j + off] += bj
    return out


def ref_scale(a, c):
    return [c * x for x in a]


def assert_canonical_equal(out, ref):
    assert not any(type(x) is Fraction and x.denominator == 1 for x in out), out
    assert out == [_norm(x) for x in ref]


@given(coeffs_st, coeffs_st, st.integers(1, 40))
@settings(max_examples=100)
def test_mul_dense_canonical(a, b, nmax):
    assert_canonical_equal(kernel.mul_dense(a, b, nmax), ref_mul_dense(a, b, nmax))


@given(coeffs_st, st.integers(1, 9), binom_c_st, st.integers(1, 40))
@settings(max_examples=100)
@example([Fraction(1, 2), Fraction(1, 2), 3], 1, 1, 4)
def test_mul_binom_canonical(a, e, c, nmax):
    assert_canonical_equal(kernel.mul_binom(a, e, c, nmax), ref_mul_binom(a, e, c, nmax))


@given(coeffs_st, st.integers(1, 9), binom_c_st, st.integers(1, 40))
@settings(max_examples=100)
@example([Fraction(1, 2), Fraction(1, 2), 3], 1, 1, 4)
def test_div_binom_canonical(a, e, c, nmax):
    assert_canonical_equal(kernel.div_binom(a, e, c, nmax), ref_div_binom(a, e, c, nmax))


@given(nonzero_st, coeffs_st, st.integers(1, 30))
@settings(max_examples=100)
def test_inv_dense_canonical(lead, rest, nmax):
    a = [lead] + rest
    assert_canonical_equal(kernel.inv_dense(a, nmax), ref_inv_dense(a, nmax))


@given(coeffs_st, coeffs_st, st.integers(0, 9), st.integers(1, 40))
@settings(max_examples=100)
def test_add_shifted_canonical(a, b, off, nmax):
    assert_canonical_equal(kernel.add_shifted(a, b, off, nmax), ref_add_shifted(a, b, off, nmax))


@given(coeffs_st, nonzero_st)
@settings(max_examples=100)
def test_scale_canonical(a, c):
    assert_canonical_equal(kernel.scale(a, c), ref_scale(a, c))


# a sparse polynomial: distinct offsets >= 0, nonzero coefficients
sparse_st = st.dictionaries(st.integers(0, 12), nonzero_st, min_size=1, max_size=6).map(lambda d: list(d.items()))


def dense_form(pairs):
    out = [0] * (max(off for off, _ in pairs) + 1)
    for off, c in pairs:
        out[off] = c
    return out


@given(st.lists(scalar_st, max_size=24), sparse_st, st.integers(-2, 40))
@settings(max_examples=150)
@example([], [(0, 1), (3, 2)], 5)                                      # an empty window
@example([1, 2, 3], [(0, 1), (1, -1), (4, Fraction(1, 2))], 2)          # nmax cuts every pass
@example([Fraction(1, 3), Fraction(2, 3)], [(0, 3), (2, Fraction(-3, 2))], 6)
def test_mul_sparse_matches_mul_dense(a, b, nmax):
    out = kernel.mul_sparse(a, b, nmax)
    assert not any(type(x) is Fraction and x.denominator == 1 for x in out), out
    assert out == kernel.mul_dense(a, dense_form(b), nmax)


def test_values_that_cancel_to_integers():
    third = Fraction(1, 3)
    assert kernel.mul_binom([third, third], 1, -2, 3) == [third, 1, 2 * third]
    assert kernel.scale([third, Fraction(2, 3)], 3) == [1, 2]
    assert kernel.add_shifted([Fraction(1, 2)], [Fraction(1, 2)], 0, 1) == [1]
    assert kernel.mul_dense([3], [third, Fraction(2, 3)], 2) == [1, 2]
    out = kernel.mul_sparse([third, Fraction(2, 3)], [(0, 3), (1, -3)], 3)
    assert out == [1, 1, -2] and all(type(x) is int for x in out)
    out = kernel.inv_dense([-1, 1], 4)               # 1/(t - 1) = -(1 + t + t^2 + ...)
    assert out == [-1, -1, -1, -1] and all(type(x) is int for x in out)


def test_div_is_inverse_of_mul_on_fractions():
    a = [Fraction(k, 7) for k in range(1, 30)]
    c = Fraction(3, 2)
    assert kernel.div_binom(kernel.mul_binom(a, 4, c, 60), 4, c, 29) == a


def test_short_window_past_shift_is_unchanged():
    # nmax below the shift: nothing of the shifted operand lands in the window
    assert kernel.mul_binom([1, 2, 3], 5, 7, 2) == [1, 2]
    assert kernel.add_shifted([1, 2, 3], [4, 5], 5, 3) == [1, 2, 3]


def test_unit_binomial_edges():
    """c = 1 at e = 1 (the accumulate path) and at e >= nmax (nothing shifts into the window)."""
    for a in ([3, -1, 4, 0, 2], [Fraction(1, 2), Fraction(1, 2), 5], [7]):
        for nmax in (1, 2, 3, 6, 9):
            for e in (1, 2, nmax - 1, nmax, nmax + 3):
                if e < 1:
                    continue
                assert_canonical_equal(kernel.mul_binom(a, e, 1, nmax), ref_mul_binom(a, e, 1, nmax))
                assert_canonical_equal(kernel.div_binom(a, e, 1, nmax), ref_div_binom(a, e, 1, nmax))
    assert kernel.div_binom([1], 1, 1, 4) == [1, 1, 1, 1]          # 1/(1 - t)
    assert kernel.mul_binom([1, 1, 1, 1], 1, 1, 5) == [1, 0, 0, 0, -1]
    assert kernel.div_binom([1, 2], 5, 1, 3) == [1, 2, 0]          # e >= nmax: a copy, padded
    assert kernel.mul_binom([1, 2], 5, 1, 3) == [1, 2, 0]
