"""Truncated Laurent series in t with exact rational coefficients.

A series is a window of exact coefficients [minexp, order): everything below
order is known exactly, everything at or above it is unknown.  order=None
means the value is exact (a Laurent polynomial, no truncation).  Every
operation computes the tightest honest order of its result; truncation never
silently widens.

Coefficients are canonical: an int wherever the value is integral, a
Fraction only where it is not, so integer series stay on int arithmetic.
The public constructor normalizes whatever it is given.  Operations build
their results from the kernel loops, which already return canonical
coefficients, and pass _canonical=True to skip that per-coefficient pass;
the flag promises nothing else, so truncation to the order and trimming of
zero ends still run.

Values are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

from fractions import Fraction

from qseries import kernel


class ZeroLeadingCoefficient(ArithmeticError):
    """Inversion of a series that is zero up to its truncation order."""


def _norm(c):
    """Collapse integral Fractions to int so hot loops stay on machine ints."""
    if type(c) is Fraction and c.denominator == 1:
        return int(c)
    return c


def _min_order(o1, o2):
    if o1 is None:
        return o2
    if o2 is None:
        return o1
    return min(o1, o2)


def _add_order(o, shift):
    return None if o is None else o + shift


class LaurentSeries:
    __slots__ = ("minexp", "coeffs", "order")

    def __init__(self, minexp, coeffs, order=None, _canonical=False):
        if not _canonical:
            coeffs = [_norm(c) for c in coeffs]
        n = len(coeffs)
        if order is not None and order - minexp < n:
            n = max(order - minexp, 0)
        lead = 0
        while lead < n and not coeffs[lead]:
            lead += 1
        while n > lead and not coeffs[n - 1]:
            n -= 1
        self.minexp = minexp + lead if n > lead else 0
        self.coeffs = tuple(coeffs[lead:n])
        self.order = order

    # ---------------------------------------------------------------- basics

    @staticmethod
    def zero(order=None):
        return LaurentSeries(0, (), order, _canonical=True)

    @staticmethod
    def one():
        return LaurentSeries(0, (1,), None, _canonical=True)

    @staticmethod
    def monomial(c, e):
        c = _norm(c)
        if not c:
            return LaurentSeries.zero()
        return LaurentSeries(e, (c,), None, _canonical=True)

    @property
    def is_zero(self):
        """True when no nonzero coefficient is known (exact zero iff order is None)."""
        return not self.coeffs

    def val_floor(self):
        """Valuation, or for a window of zeros the order (a lower bound), or None for exact 0."""
        if self.coeffs:
            return self.minexp
        return self.order

    def coeff(self, e):
        i = e - self.minexp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        if self.order is not None and e >= self.order:
            raise ValueError(f"coefficient of t^{e} is beyond truncation order {self.order}")
        return 0

    def terms(self):
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.minexp + i, c

    def truncate(self, order):
        order = _min_order(self.order, order)
        return LaurentSeries(self.minexp, self.coeffs, order, _canonical=True)

    # ------------------------------------------------------------ arithmetic

    def __neg__(self):
        return LaurentSeries(self.minexp, [-c for c in self.coeffs], self.order, _canonical=True)

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.monomial(other, 0)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        win = window_add(self.minexp, self.coeffs, self.order, other.minexp, other.coeffs, other.order)
        return LaurentSeries(*win, _canonical=True)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.monomial(other, 0)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        va, vb = self.val_floor(), other.val_floor()
        order = _min_order(
            _add_order(self.order, vb) if vb is not None else None,
            _add_order(other.order, va) if va is not None else None,
        )
        if not self.coeffs or not other.coeffs:
            return LaurentSeries.zero(order)
        minexp = self.minexp + other.minexp
        nmax = len(self.coeffs) + len(other.coeffs) - 1
        if order is not None:
            nmax = min(nmax, order - minexp)
        out = kernel.mul_dense(self.coeffs, other.coeffs, nmax)
        return LaurentSeries(minexp, out, order, _canonical=True)

    __rmul__ = __mul__

    def scale(self, c):
        return LaurentSeries(*window_scale(self.minexp, self.coeffs, self.order, c), _canonical=True)

    def shift(self, e):
        """Multiply by t**e."""
        if self.is_zero:
            return LaurentSeries.zero(_add_order(self.order, e))
        return LaurentSeries(self.minexp + e, self.coeffs, _add_order(self.order, e), _canonical=True)

    def inflate(self, g):
        """The series with t**g in place of t (g >= 1)."""
        if g == 1:
            return self
        coeffs = [0] * (g * len(self.coeffs) - g + 1)
        coeffs[::g] = self.coeffs
        order = None if self.order is None else self.order * g
        return LaurentSeries(self.minexp * g, coeffs, order, _canonical=True)

    def times_binom(self, c, e):
        """Multiply by the exact binomial (1 - c*t**e).

        Any integer e is accepted; e == 0 collapses to the scalar (1 - c).
        """
        win = window_times_binom(self.minexp, self.coeffs, self.order, _norm(c), e)
        return LaurentSeries(*win, _canonical=True)

    def over_binom(self, c, e, order=None):
        """Divide by the exact binomial (1 - c*t**e).

        The result of a division is truncated; when self is exact the caller
        must supply the target order.
        """
        win = window_over_binom(self.minexp, self.coeffs, self.order, _norm(c), e, order)
        return LaurentSeries(*win, _canonical=True)

    def inverse(self, order=None):
        """Multiplicative inverse; requires a nonzero leading coefficient."""
        if not self.coeffs:
            raise ZeroLeadingCoefficient("cannot invert a series with no known nonzero coefficient")
        v = self.minexp
        if self.order is None and len(self.coeffs) == 1:
            return LaurentSeries.monomial(_inv_scalar(self.coeffs[0]), -v)
        eff = _min_order(self.order, order)
        if eff is None:
            raise ValueError("inverting an exact multi-term series requires an explicit order")
        out_order = eff - 2 * v
        nmax = eff - v  # relative precision: as many coefficients as were known
        if nmax <= 0:
            return LaurentSeries.zero(out_order)
        out = kernel.inv_dense(self.coeffs, nmax)
        return LaurentSeries(-v, out, out_order, _canonical=True)

    # ------------------------------------------------------------ comparison

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentSeries.monomial(other, 0)
        if not isinstance(other, LaurentSeries):
            return NotImplemented
        return (
            self.minexp == other.minexp
            and self.order == other.order
            and len(self.coeffs) == len(other.coeffs)
            and all(x == y for x, y in zip(self.coeffs, other.coeffs))
        )

    def __hash__(self):
        return hash((self.minexp, self.coeffs, self.order))

    def first_difference(self, other, upto=None):
        """Lowest exponent where the two series differ, or None if they agree.

        Comparison runs over the window where both are known (bounded above by
        upto when given).  Returns (exponent, self_coeff, other_coeff).  Two
        windows that start together and hold equal coefficient tuples agree
        without an exponent-by-exponent scan.
        """
        hi = _min_order(self.order, other.order)
        hi = _min_order(hi, upto)
        lo_candidates = [s.minexp for s in (self, other) if s.coeffs]
        if not lo_candidates:
            return None
        lo = min(lo_candidates)
        if hi is None:
            hi = max(
                (s.minexp + len(s.coeffs) for s in (self, other) if s.coeffs),
                default=lo,
            )
        if self.minexp == other.minexp and self.coeffs[: hi - lo] == other.coeffs[: hi - lo]:
            return None
        for e in range(lo, hi):
            cs = self.coeff(e)
            co = other.coeff(e)
            if cs != co:
                return e, cs, co
        return None

    # ------------------------------------------------------------------ misc

    def __repr__(self):
        if not self.coeffs:
            body = "0"
        else:
            parts = []
            shown = 0
            for e, c in self.terms():
                parts.append(f"{c}*t^{e}" if e else f"{c}")
                shown += 1
                if shown >= 8:
                    parts.append("...")
                    break
            body = " + ".join(parts)
        tail = "" if self.order is None else f" + O(t^{self.order})"
        return f"<{body}{tail}>"


# ------------------------------------------------------------ raw windows
#
# The rules of the binomial steps and of the sparse product, on bare
# (minexp, coeffs, order) windows.
# A window holds canonical coefficients, at most order - minexp of them when
# order is set; unlike a LaurentSeries it may keep zeros at either end, and
# an empty window is zero whatever its minexp.  The LaurentSeries methods
# above wrap these functions, and the right side's term loop
# (theorems.carried_terms) runs on them directly, building a LaurentSeries
# only for each finished term.


def window_truncate(minexp, coeffs, order, cut):
    """The window known only below cut (None: no cut)."""
    order = _min_order(order, cut)
    if order is not None and len(coeffs) > order - minexp:
        coeffs = coeffs[: max(0, order - minexp)]
    return minexp, coeffs, order


def window_scale(minexp, coeffs, order, c):
    """The window times the scalar c; c == 0 gives the exact zero."""
    c = _norm(c)
    if not c:
        return 0, (), None
    if c == 1:
        return minexp, coeffs, order
    return minexp, kernel.scale(coeffs, c), order


def window_times_sparse(minexp, coeffs, order, poly):
    """The window times the Laurent polynomial sum(c * t**s for s, c in poly.items()).

    poly maps each shift s, of any sign, to its coefficient.  Every
    shift bounds the known order, order + min(poly), also one whose
    coefficient is 0: poly merges monomials, and a shift at which they
    cancel is known only as far as the sum of their shifted windows.  A
    single monomial is a shift and a scaling; an empty poly gives the exact
    zero.
    """
    if not poly:
        return 0, (), None
    lo = min(poly)
    minexp, order = minexp + lo, _add_order(order, lo)
    terms = [(s - lo, _norm(c)) for s, c in poly.items() if c]
    if len(poly) == 1 and terms:
        return window_scale(minexp, coeffs, order, terms[0][1])
    nmax = len(coeffs) + max((s for s, _ in terms), default=0)
    if order is not None and order - minexp < nmax:
        nmax = order - minexp
    return minexp, kernel.mul_sparse(coeffs, terms, nmax), order


def window_add(m1, a1, o1, m2, a2, o2):
    """The sum of two windows, known where both are."""
    order = _min_order(o1, o2)
    if not a1:
        return window_truncate(m2, a2, o2, order)
    if not a2:
        return window_truncate(m1, a1, o1, order)
    lo = min(m1, m2)
    hi = max(m1 + len(a1), m2 + len(a2))
    if order is not None:
        hi = min(hi, order)
    base = [0] * (m1 - lo) + list(a1)
    return lo, kernel.add_shifted(base, a2, m2 - lo, hi - lo), order


def window_times_binom(minexp, coeffs, order, c, e):
    """The window times the exact binomial (1 - c*t**e), for canonical c and any integer e.

    e == 0 collapses to the scalar (1 - c).
    """
    if not c:
        return minexp, coeffs, order
    if e == 0:
        return window_scale(minexp, coeffs, order, 1 - c)
    if not coeffs:
        return minexp, coeffs, _add_order(order, min(0, e))
    if e < 0:
        # (1 - c*t^e) = -c*t^e * (1 - (1/c)*t^-e)
        minexp, coeffs, order = window_scale(minexp + e, coeffs, _add_order(order, e), -c)
        c, e = _inv_scalar(c), -e
    nmax = len(coeffs) + e
    if order is not None and order - minexp < nmax:
        nmax = order - minexp
    return minexp, kernel.mul_binom(coeffs, e, c, nmax), order


def window_over_binom(minexp, coeffs, order, c, e, target=None):
    """The window divided by the exact binomial (1 - c*t**e), for canonical c and any integer e.

    The quotient is known below the smaller of the window's order and
    target; an exact window needs a target.
    """
    if not c:
        return window_truncate(minexp, coeffs, order, target)
    if e == 0:
        if c == 1:
            raise ZeroDivisionError("division by the zero binomial (1 - 1)")
        return window_scale(minexp, coeffs, order, _inv_scalar(1 - c))
    if e < 0:
        # 1/(1 - c*t^e) = -(1/c)*t^-e / (1 - (1/c)*t^-e)
        c = _inv_scalar(c)
        minexp, coeffs, order = window_scale(minexp - e, coeffs, _add_order(order, -e), -c)
        e = -e
    eff = _min_order(order, target)
    if eff is None:
        raise ValueError("dividing an exact series requires an explicit order")
    nmax = eff - minexp
    if not coeffs or nmax <= 0:
        return 0, (), eff
    return minexp, kernel.div_binom(coeffs, e, c, nmax), eff


def _inv_scalar(c):
    if c == 1:
        return 1
    if c == -1:
        return -1
    return _norm(1 / Fraction(c))
