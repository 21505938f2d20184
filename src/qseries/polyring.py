"""Dense univariate polynomials and rational functions over the rationals.

Poly carries the bisection functional equation across the boundary of
qseries.bisection (P, A, B and Q as one polynomial in t per power of y; the
module steps sparse rows inside) and is the coefficient domain of the
reference Bareiss solver in qseries.linsolve.  Coefficients are canonical,
as kernel.canonical makes them: an int wherever the value is integral, a
Fraction only where it is not.
"""

from __future__ import annotations

from fractions import Fraction

from qseries.kernel import canonical


class Poly:
    """Dense polynomial in one variable; coeffs[i] is the coefficient of t**i."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = canonical(list(coeffs))
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @staticmethod
    def const(c):
        return Poly((c,)) if c else Poly()

    @staticmethod
    def monomial(c, e):
        if not c:
            return Poly()
        return Poly((0,) * e + (c,))

    @property
    def is_zero(self):
        return not self.coeffs

    def degree(self):
        """Degree, or -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def lead(self):
        return self.coeffs[-1] if self.coeffs else 0

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        out = list(a) + [0] * (len(b) - len(a))
        for i, c in enumerate(b):
            out[i] -= c
        return Poly(out)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                return Poly()
            return Poly([c * other for c in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return Poly()
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if not ai:
                continue
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other):
        if not isinstance(other, Poly) or other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree()
        lead = Fraction(other.lead())
        if len(rem) <= d:
            return Poly(), Poly(rem)
        q = [0] * (len(rem) - d)
        for k in range(len(rem) - 1, d - 1, -1):
            c = rem[k]
            if c:
                f = c / lead
                q[k - d] = f
                for j in range(d + 1):
                    rem[k - d + j] -= f * other.coeffs[j]
        return Poly(q), Poly(rem)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def exact_div(self, other):
        """Exact quotient; raises ValueError when the division leaves a remainder."""
        q, r = self.divmod(other)
        if not r.is_zero:
            raise ValueError("polynomial division is not exact")
        return q

    def monic(self):
        if self.is_zero:
            return self
        lead = self.lead()
        if lead == 1:
            return self
        inv = 1 / Fraction(lead)
        return Poly([c * inv for c in self.coeffs])

    def __repr__(self):
        if self.is_zero:
            return "Poly(0)"
        parts = [f"{c}*t^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + " + ".join(parts) + ")"


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd over the rationals (Euclid)."""
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


class RatFunc:
    """Quotient of polynomials, kept reduced with a monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=None, _reduced=False):
        if isinstance(num, (int, Fraction)):
            num = Poly.const(num)
        if den is None:
            den = Poly.const(1)
        elif isinstance(den, (int, Fraction)):
            den = Poly.const(den)
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        if not _reduced:
            if num.is_zero:
                den = Poly.const(1)
            else:
                g = poly_gcd(num, den)
                if g.degree() > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
                lead = den.lead()
                if lead != 1:
                    inv = 1 / Fraction(lead)
                    num = num * inv
                    den = den * inv
        self.num = num
        self.den = den

    @property
    def is_zero(self):
        return self.num.is_zero

    def is_polynomial(self):
        return self.den.degree() == 0

    def as_poly(self):
        if not self.is_polynomial():
            raise ValueError("not a polynomial")
        if self.den.coeffs == (1,):
            return self.num
        return self.num * (1 / Fraction(self.den.coeffs[0]))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            other = RatFunc(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if other.is_zero:
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __repr__(self):
        if self.is_polynomial():
            return f"RatFunc({self.num!r})"
        return f"RatFunc({self.num!r} / {self.den!r})"
